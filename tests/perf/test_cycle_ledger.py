"""The worker's cycle charge against a ledger the test keeps itself.

``GatewayWorker`` prices each packet with ``DEFAULT_GATEWAY_COSTS`` and
adds the sum to ``account.cycles``.  A recording observer logs what every
``process`` call did (mode, stage, outputs, header-only fallback) and
every flush; the ledger prices that log from its own per-stage table and
must equal ``account.cycles`` exactly — not approximately — after every
step.  Exactness rests on the costs being integral, which
``test_gateway_cycle_costs_are_integral`` checks.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bound,
    GatewayConfig,
    GatewayWorker,
    WorkerMode,
    WorkerObserver,
    encode_caravan,
)
from repro.cpu import DEFAULT_GATEWAY_COSTS, GatewayCosts
from repro.packet import PX_CARAVAN_TOS, ICMPMessage, IPProto, TCPFlags
from repro.packet import build_icmp, build_tcp, build_udp

# Cycles per operation, written out: the ledger must not read the model.
CLASSIFY = 18
SLOWPATH = 75 + 55  # rx descriptor + flow lookup
HAIRPIN = 25
BYPASS = 25  # BYPASS hairpins everything
RX = 75
HEADER_ONLY = 10
MERGE_IN = 55 + 32  # flow lookup + merge append
SOFTWARE_GRO = 2500  # replaces MERGE_IN under baseline GRO
# Per merged output, and per packet any flush releases -- flushed caravans
# included, which the caravan stage prices at CARAVAN_FLUSH instead: the
# `GatewayWorker._flushed` FOUND line in CHANGES.md.  Fixing that moves
# flushed caravans to CARAVAN_FLUSH here.
MERGE_FLUSH = 60
SOFTWARE_TSO = 120  # per segment of a split, under baseline GRO
SPLIT = 45  # per segment
CARAVAN_IN = 55 + 55  # flow lookup + caravan append
CARAVAN_FLUSH = 80  # per output of the caravan stage
CARAVAN_SPLIT = 55  # per datagram a caravan opens into
TX = 62  # per output


def priced_packet(config, mode, packet, key, stage, outputs, fell_back: bool) -> int:
    """The cycles one logged ``process`` call costs."""
    count = len(outputs)
    cycles = TX * count
    if mode == WorkerMode.BYPASS:
        # Only opening a caravan costs more than the hairpin here; a TCP
        # split costs no SPLIT per segment, unlike a caravan open: the
        # `GatewayWorker._bypass` FOUND line in CHANGES.md.
        return cycles + BYPASS + (CARAVAN_SPLIT * count if stage == "caravan-open" else 0)
    if key is not None:
        cycles += CLASSIFY
    if stage == "mss":
        return cycles + SLOWPATH
    if stage == "hairpin":
        return cycles + HAIRPIN
    cycles += RX
    if config.header_only_dma and not fell_back:
        cycles += HEADER_ONLY
    if stage == "merge":
        cycles += (SOFTWARE_GRO if config.baseline_gro else MERGE_IN) + MERGE_FLUSH * count
    elif stage == "caravan":
        cycles += CARAVAN_IN + CARAVAN_FLUSH * count
    elif stage == "caravan-open":
        cycles += CARAVAN_SPLIT * count
    elif stage in ("split", "forward") and packet.ip.protocol == IPProto.TCP:
        # Only an outbound TCP packet reaches the split engine here.
        tso = SOFTWARE_TSO if config.baseline_gro and count > 1 else 0
        cycles += (SPLIT + tso) * count
    return cycles


class Ledger(WorkerObserver):
    """Records each call's outcome and keeps the expected total."""

    def __init__(self, config):
        self.config = config
        self.cycles = 0
        self.fallbacks = 0
        self.stages = set()

    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs) -> None:
        fell_back = worker.stats.hdo_fallbacks != self.fallbacks
        self.fallbacks = worker.stats.hdo_fallbacks
        self.cycles += priced_packet(self.config, worker.mode, packet, key, stage, outputs,
                                     fell_back)
        self.stages.add(stage)

    def on_flush(self, worker, now, flushed, batch) -> None:
        self.cycles += (MERGE_FLUSH + TX) * len(flushed)


EXTERNAL, INTERNAL = "198.51.100.", "10.1.0."
BOUNDS = st.sampled_from([Bound.INBOUND, Bound.OUTBOUND])
FLOWS = st.integers(min_value=0, max_value=3)
STEPS = st.one_of(
    st.tuples(st.just("tcp"), BOUNDS, FLOWS, st.integers(min_value=1, max_value=8948)),
    st.tuples(st.just("syn"), BOUNDS, FLOWS),
    st.tuples(st.just("udp"), BOUNDS, FLOWS, st.integers(min_value=1, max_value=1400)),
    st.tuples(st.just("caravan"), BOUNDS, FLOWS, st.integers(min_value=2, max_value=6)),
    st.tuples(st.just("bad-caravan"), BOUNDS),
    st.tuples(st.just("icmp"), BOUNDS),
    st.tuples(st.just("end_batch")),
    st.tuples(st.just("mode"), st.sampled_from(WorkerMode.ALL)),
)


class Streams:
    """Builds each step's packet; every flow's TCP bytes stay in order."""

    def __init__(self):
        self.seq = {}

    @staticmethod
    def ends(bound, flow):
        outside, inside = f"{EXTERNAL}{flow + 1}", f"{INTERNAL}{flow + 1}"
        if bound == Bound.INBOUND:
            return (outside, inside, 5000 + flow, 80)
        return (inside, outside, 80, 5000 + flow)

    def build(self, step):
        kind, bound = step[0], step[1]
        if kind == "tcp":
            flow, size = step[2], step[3]
            seq = self.seq.get((bound, flow), 0)
            self.seq[bound, flow] = seq + size
            return build_tcp(*self.ends(bound, flow), payload=bytes(size), seq=seq,
                             flags=TCPFlags.ACK)
        if kind == "syn":
            return build_tcp(*self.ends(bound, step[2]), flags=TCPFlags.SYN, mss=1460)
        if kind == "udp":
            return build_udp(*self.ends(bound, step[2]), payload=bytes(step[3]))
        if kind == "caravan":
            ends = self.ends(bound, step[2])
            return encode_caravan([build_udp(*ends, payload=bytes(100 + index))
                                   for index in range(step[3])])
        if kind == "bad-caravan":
            # An inner record that claims more bytes than the body holds.
            body = struct.pack("!HHHH", 1, 2, 400, 0) + bytes(40)
            return build_udp(*self.ends(bound, 0), payload=body, tos=PX_CARAVAN_TOS)
        src, dst = self.ends(bound, 0)[:2]
        return build_icmp(src, dst, ICMPMessage.echo_request(1, 1))


CONFIGS = st.builds(
    GatewayConfig,
    hairpin_small_flows=st.booleans(),
    header_only_dma=st.booleans(),
    baseline_gro=st.booleans(),
    delayed_merge=st.booleans(),
    elephant_threshold_packets=st.sampled_from([1, 3, 8]),
    # A small on-NIC store forces header-only DMA to fall back.
    nic_memory_bytes=st.sampled_from([2 * 1024 * 1024, 6000]),
)


@settings(max_examples=80, deadline=None)
@given(config=CONFIGS,
       steps=st.lists(st.tuples(STEPS, st.sampled_from([0.0, 100e-6, 1e-3])),
                      min_size=1, max_size=40))
def test_cycle_charge_matches_the_ledger(config, steps):
    worker = GatewayWorker(config)
    ledger = Ledger(config)
    worker.observers = (ledger,)
    streams = Streams()
    now = 0.0
    for step, advance in steps:
        now += advance
        if step[0] == "end_batch":
            worker.end_batch(now)
        elif step[0] == "mode":
            worker.set_mode(step[1], now)
        else:
            worker.process(streams.build(step), step[1], now)
        assert worker.account.cycles == ledger.cycles
    worker.set_mode(WorkerMode.DEGRADED, now + 1.0)  # leaving NORMAL flushes
    worker.end_batch(now + 1.0)
    assert worker.account.cycles == ledger.cycles


@pytest.mark.parametrize("config", [
    GatewayConfig(elephant_threshold_packets=3),
    GatewayConfig(elephant_threshold_packets=3, baseline_gro=True, header_only_dma=True,
                  nic_memory_bytes=6000),
], ids=["pxgw", "baseline-header-only"])
def test_the_ledger_sees_every_priced_stage(config):
    """One fixed walk reaches each stage the ledger prices differently."""
    worker = GatewayWorker(config)
    ledger = Ledger(config)
    worker.observers = (ledger,)
    streams = Streams()
    walk = [("syn", Bound.INBOUND, 0), ("icmp", Bound.INBOUND)]
    walk += [("tcp", Bound.INBOUND, 0, 1448)] * 12
    walk += [("tcp", Bound.OUTBOUND, 1, 8948)] * 4
    walk += [("udp", Bound.INBOUND, 2, 1000)] * 12
    walk += [("caravan", Bound.OUTBOUND, 3, 4), ("bad-caravan", Bound.OUTBOUND)]
    for now, step in enumerate(walk):
        worker.process(streams.build(step), step[1], now * 1e-6)
    worker.set_mode(WorkerMode.DEGRADED, 1.0)
    worker.process(streams.build(("tcp", Bound.INBOUND, 0, 1448)), Bound.INBOUND, 1.0)
    worker.set_mode(WorkerMode.BYPASS, 2.0)
    worker.process(streams.build(("caravan", Bound.OUTBOUND, 3, 3)), Bound.OUTBOUND, 2.0)
    assert ledger.stages == {"mss", "forward", "hairpin", "merge", "split", "caravan",
                             "caravan-open", "malformed-caravan", "passthrough"}
    assert worker.account.cycles == ledger.cycles > 0


def test_gateway_cycle_costs_are_integral():
    """Every cycle cost is a whole number, so per-packet sums are exact."""
    cycle_fields = [field.name for field in dataclasses.fields(GatewayCosts)
                    if not field.name.startswith("mem_factor_")]
    assert len(cycle_fields) == 14
    for name in cycle_fields:
        value = getattr(DEFAULT_GATEWAY_COSTS, name)
        assert float(value).is_integer(), (name, value)
