"""Known-bad gateway mutations used by the teeth and shrink tests.

Each world mutation takes a :class:`repro.chaos.ChaosWorld` and
monkey-patches the gateway (mostly one engine instance inside it) to
reintroduce a realistic bug; :func:`stale_checkpoint` does the same to
the fleet's shard-loss recovery.
The chaos oracle must catch every one of them.
"""

from dataclasses import replace

from repro.core import Bound, GatewayWorker
from repro.fleet import GatewayFleet
from repro.core.tcp_merge import _NO_MERGE_FLAGS


def break_merge(world):
    """Reintroduce the merge-without-flush-on-reorder bug.

    The correct engine flushes its context and reopens when a segment
    arrives out of sequence.  This mutation appends the out-of-order
    segment as if it were in order, papering over the sequence hole —
    byte *counts* still come out right after retransmission heals the
    stream, so only the temporal tcp-seq-coverage invariant (and, when
    the hole is never healed in time, stream equality) can see it.
    """
    merge = world.gateway.worker.merge
    orig_feed = merge.feed

    def broken_feed(packet, now=0.0):
        if (
            packet.is_tcp
            and not packet.is_fragment
            and packet.payload
            and not (packet.tcp.flags & _NO_MERGE_FLAGS)
        ):
            key = packet.flow_key()
            ctx = merge._contexts.get(key)
            if ctx is not None and packet.tcp.seq != ctx.next_seq:
                ctx.append(packet, now)
                merge._contexts.move_to_end(key)
                return merge._drain_full(key, ctx)
        return orig_feed(packet, now)

    merge.feed = broken_feed


def break_caravan_split(world):
    """Make the caravan splitter silently drop one inner datagram.

    Whenever a caravan opens into more than one datagram, the first one
    vanishes.  The oracle sees this twice over: a datagram-boundary
    violation (a payload is missing with no fault to blame) and a
    stats-conservation imbalance (the worker counted the caravan's full
    inner count on ingress but emitted fewer datagrams).
    """
    split = world.gateway.worker.caravan_split
    orig_process = split.process

    def lossy_process(packet):
        out = orig_process(packet)
        return out[1:] if len(out) > 1 else out

    split.process = lossy_process


def install_worker(gateway, worker):
    """Put *worker* in *gateway*'s datapath before the run starts.

    The new worker keeps what the gateway wired into the one it
    replaces: the PMTU cache, the caravan gate and the observers.
    """
    old = gateway.worker
    worker.pmtu_cache = old.pmtu_cache
    worker.caravan_gate = old.caravan_gate
    worker.observers = old.observers
    gateway.worker = worker


def oversize_egress(world):
    """Deploy a worker sized for a 3000 B eMTU on the 1500 B wire, behind
    a forward path that skips the egress MTU step.

    The router's forward fragments or refuses anything above the link
    MTU, so a mis-sized worker alone never puts a frame above the eMTU
    on the wire.  With that step skipped too, every oversize split is
    offered to the external link, which drops it as ``drop-mtu`` (the
    classic MTU blackhole).
    """
    gateway = world.gateway
    install_worker(gateway, GatewayWorker(replace(gateway.config, emtu=3000)))
    forward = gateway.forward

    def unchecked_forward(packet, arrived_on=None, route=None):
        route = route or gateway.routes.lookup(packet.ip.dst)
        if route is not None and packet.total_len > route.interface.link.mtu:
            return route.interface.send(packet)
        return forward(packet, arrived_on, route)

    gateway.forward = unchecked_forward


def mis_sized_split(world):
    """Deploy the worker of :func:`oversize_egress` (sized for a 3000 B
    eMTU on the 1500 B wire) and plant nothing else.

    Its splits carry DF, as every segment of this TCP stack does, so
    ``Router.forward`` refuses each with a frag-needed ICMP back to the
    inside host, whose PMTUD then sizes its segments to 1500 B: every
    frame on the wire fits its link and every stream arrives whole, and
    only the ICMP on the internal link shows the bug.
    """
    gateway = world.gateway
    install_worker(gateway, GatewayWorker(replace(gateway.config, emtu=3000)))


def mis_sized_split_without_df(world):
    """Deploy the worker of :func:`mis_sized_split` with outbound TCP
    segments that leave with DF clear, and plant nothing else.

    ``Router.forward`` then fragments each oversize split instead of
    refusing it, so every frame on the wire fits its link: only the
    TCP fragments on the external link show the bug.
    """
    mis_sized_split(world)
    worker = world.gateway.worker
    process = worker.process

    def process_without_df(packet, bound, now, ingress_at=None):
        outputs = process(packet, bound, now=now, ingress_at=ingress_at)
        if bound == Bound.OUTBOUND:
            for out in outputs:
                if out.is_tcp:
                    out.ip.dont_fragment = False
        return outputs

    worker.process = process_without_df


def stale_checkpoint(monkeypatch):
    """Restore every lost fleet shard from its *first* periodic checkpoint.

    Unlike the world mutations above, this one patches
    :class:`repro.fleet.GatewayFleet` for the test (through pytest's
    ``monkeypatch``): each fleet remembers the first checkpoint taken of
    each shard, and ``fail_shard`` rebalances from it whatever the
    caller passed.  The survivors adopt flow state and counters that
    rewind to long before the kill, so in maintenance mode the zero-loss
    differential (a control fleet that loses nothing) must disagree.
    """
    first = {}
    checkpoint_shard = GatewayFleet.checkpoint_shard
    fail_shard = GatewayFleet.fail_shard

    def remembering_checkpoint(fleet, index):
        checkpoint = checkpoint_shard(fleet, index)
        first.setdefault((fleet, index), checkpoint)
        return checkpoint

    def stale_fail(fleet, index, now, checkpoint=None):
        return fail_shard(fleet, index, now, checkpoint=first[fleet, index])

    monkeypatch.setattr(GatewayFleet, "checkpoint_shard", remembering_checkpoint)
    monkeypatch.setattr(GatewayFleet, "fail_shard", stale_fail)
