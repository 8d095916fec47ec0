"""Point-to-point links with bandwidth, propagation delay, queueing, and MTU.

A :class:`Link` is unidirectional; :func:`connect` wires two interfaces
with a link in each direction.  The transmission model is the standard
store-and-forward pipeline: packets serialize one at a time at line
rate (including Ethernet framing overhead), wait in a byte-bounded FIFO
when the line is busy, then propagate.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..packet import Packet
from ..packet.ethernet import ETH_MIN_PAYLOAD, ETH_WIRE_OVERHEAD, wire_bytes_for_payload
from .engine import Simulator
from .netem import Netem
from .node import Interface

__all__ = ["Link", "connect", "LinkStats"]

#: A tap observes packets at a link: ``tap(event, packet, now)`` where
#: event is one of "tx", "rx", "drop-mtu", "drop-queue", "drop-loss",
#: "drop-fault".  Taps must not mutate the packet.
LinkTap = Callable[[str, Packet, float], None]

#: Default queue capacity in bytes (≈ 256 full-size 9 KB packets).
DEFAULT_QUEUE_BYTES = 2_304_000


class LinkStats:
    """Counters a link keeps for analysis."""

    def __init__(self):
        self.transmitted = 0
        self.delivered = 0
        self.dropped_queue = 0
        self.dropped_loss = 0
        self.dropped_mtu = 0
        self.dropped_fault = 0
        self.bytes_delivered = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<LinkStats tx={self.transmitted} rx={self.delivered} "
            f"qdrop={self.dropped_queue} loss={self.dropped_loss} mtu={self.dropped_mtu}>"
        )


class Link:
    """A unidirectional channel between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        src: Interface,
        dst: Interface,
        bandwidth_bps: float = 10e9,
        delay: float = 1e-6,
        mtu: int = 1500,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        netem: Optional[Netem] = None,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_bytes = queue_bytes
        self.netem = netem
        self.rng = rng or random.Random(0)
        self.stats = LinkStats()
        #: Observers of every packet event on this link (chaos oracle,
        #: pcap capture); see :data:`LinkTap`.
        self.taps: List[LinkTap] = []
        #: Optional deterministic fault injector.  Must provide
        #: ``apply(packet, now) -> List[Tuple[Packet, float]]``: the
        #: copies to deliver with per-copy extra delay (empty = drop).
        self.injector = None
        self._queue: Deque[Tuple[Packet, int]] = deque()
        self._queued_bytes = 0
        self._busy = False
        #: Analytic fast-path state (clean links only): the time the
        #: line finishes serializing everything accepted so far, and a
        #: ledger of ``(serialize_start, size)`` for packets that are
        #: still *waiting* (start > now).  Waiting bytes stay counted in
        #: ``_queued_bytes`` so the overflow check matches the
        #: store-and-forward model exactly; entries are drained lazily
        #: once their serialize slot begins.
        self._line_free_at = 0.0
        self._inflight: Deque[Tuple[float, int]] = deque()

    def add_tap(self, tap: LinkTap) -> None:
        """Attach an observer called for every packet event."""
        self.taps.append(tap)

    def _notify(self, event: str, packet: Packet) -> None:
        if self.taps:
            now = self.sim.now
            for tap in self.taps:
                tap(event, packet, now)

    def transmit(self, packet: Packet, size: Optional[int] = None) -> bool:
        """Enqueue *packet* for transmission; False if dropped.

        Packets larger than the link MTU are dropped here — a link
        cannot carry them; it is the upstream node's job to fragment or
        refuse.  This is exactly the silent-drop behaviour that breaks
        classical PMTUD behind ICMP blackholes.

        *size* is the packet's ``total_len``, passed in when the caller
        already computed it; the link threads it through the queue and
        the serialize/deliver events so the length is derived exactly
        once per traversal.
        """
        if size is None:
            size = packet.total_len
        if size > self.mtu:
            self.stats.dropped_mtu += 1
            self._notify("drop-mtu", packet)
            return False
        sim = self.sim
        now = sim.now
        inflight = self._inflight
        if inflight:
            # Retire analytic entries whose serialize slot has begun;
            # they no longer occupy queue space.
            queued = self._queued_bytes
            while inflight and inflight[0][0] <= now:
                queued -= inflight.popleft()[1]
            self._queued_bytes = queued
        if self._queued_bytes + size > self.queue_bytes:
            self.stats.dropped_queue += 1
            self._notify("drop-queue", packet)
            return False
        if self.taps or self.injector is not None or self.netem is not None or self._busy:
            # Observed or impaired link (or the scalar machinery is mid
            # service): run the event-per-stage store-and-forward model,
            # which gives taps and fault hooks their exact firing points.
            if self.taps:
                self._notify("tx", packet)
            if not self._busy:
                if self._line_free_at > now:
                    # Analytic packets are still serializing (a tap or
                    # fault was attached mid-flight): hold this packet
                    # until the line frees, then resume scalar service.
                    self._busy = True
                    self._queue.append((packet, size))
                    self._queued_bytes += size
                    sim.schedule_fast(self._line_free_at - now, self._start_next)
                    return True
                # Idle line ⇒ the queue is empty: put the packet straight
                # on the wire instead of round-tripping it through the deque.
                self._busy = True
                serialization = wire_bytes_for_payload(size) * 8 / self.bandwidth_bps
                sim.schedule_fast(serialization, self._serialized, packet, size)
                return True
            self._queue.append((packet, size))
            self._queued_bytes += size
            return True
        # Clean unobserved link: the full pipeline is analytic — one
        # delivery event per packet instead of serialize/dequeue/deliver.
        start = self._line_free_at
        if start <= now:
            start = now
        else:
            inflight.append((start, size))
            self._queued_bytes += size
        # wire_bytes_for_payload(size), without the call.
        wire = (size if size > ETH_MIN_PAYLOAD else ETH_MIN_PAYLOAD) + ETH_WIRE_OVERHEAD
        end = start + wire * 8 / self.bandwidth_bps
        self._line_free_at = end
        sim.schedule_fast(end - now + self.delay, self._deliver_analytic, packet, size)
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet, size = self._queue.popleft()
        self._queued_bytes -= size
        serialization = wire_bytes_for_payload(size) * 8 / self.bandwidth_bps
        self.sim.schedule_fast(serialization, self._serialized, packet, size)

    def _serialized(self, packet: Packet, size: int) -> None:
        self.stats.transmitted += 1
        if self.injector is None and self.netem is None:
            # Clean link: no fault copies, no impairment — deliver the
            # original after the propagation delay.
            self.sim.schedule_fast(self.delay, self._deliver, packet, size)
            if self._queue:
                self._start_next()
            else:
                self._busy = False
            return
        deliveries: List[Tuple[Packet, float]] = [(packet, 0.0)]
        if self.injector is not None:
            deliveries = self.injector.apply(packet, self.sim.now)
            if not deliveries:
                self.stats.dropped_fault += 1
                self._notify("drop-fault", packet)
        for copy, fault_delay in deliveries:
            extra_delay = 0.0
            drop = False
            if self.netem is not None:
                drop, extra_delay = self.netem.impair(self.rng)
            if drop:
                self.stats.dropped_loss += 1
                self._notify("drop-loss", copy)
            else:
                # Injector copies may be truncated/mutated; only the
                # untouched original inherits the precomputed size.
                self.sim.schedule_fast(
                    self.delay + extra_delay + fault_delay,
                    self._deliver,
                    copy,
                    size if copy is packet else copy.total_len,
                )
        self._start_next()

    def _deliver(self, packet: Packet, size: int) -> None:
        stats = self.stats
        stats.delivered += 1
        stats.bytes_delivered += size
        packet.timestamp = self.sim.now
        if self.taps:
            self._notify("rx", packet)
        self.dst.deliver(packet, size)

    def _deliver_analytic(self, packet: Packet, size: int) -> None:
        # Analytic packets charge ``transmitted`` here rather than at
        # serialize-end (there is no serialize event); totals agree with
        # the scalar model once the simulation drains.
        stats = self.stats
        stats.transmitted += 1
        stats.delivered += 1
        stats.bytes_delivered += size
        packet.timestamp = self.sim.now
        if self.taps:
            self._notify("rx", packet)
        self.dst.deliver(packet, size)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.src.name}->{self.dst.name} "
            f"{self.bandwidth_bps / 1e9:.0f}Gbps mtu={self.mtu}>"
        )


def connect(
    sim: Simulator,
    a: Interface,
    b: Interface,
    bandwidth_bps: float = 10e9,
    delay: float = 1e-6,
    mtu: int = 1500,
    queue_bytes: int = DEFAULT_QUEUE_BYTES,
    netem: Optional[Netem] = None,
    rng: Optional[random.Random] = None,
) -> "Tuple[Link, Link]":
    """Create a bidirectional connection (two links) between interfaces."""
    forward = Link(sim, a, b, bandwidth_bps, delay, mtu, queue_bytes, netem, rng)
    backward = Link(sim, b, a, bandwidth_bps, delay, mtu, queue_bytes, netem, rng)
    a.link = forward
    b.link = backward
    return forward, backward
