"""The six perfbench workloads: inputs, the timed loop, and output checks.

One call to :func:`run_round` is one (workload, round): it builds the
inputs from the seed, warms up, runs the timed region in fixed-size chunks
and verifies what came out before any number is reported.  ``child.py``
runs it in a fresh process; nothing here is shared between rounds.

The program is driven only through public entry points (``Topology``,
``PXGateway``, ``TCPConnection.send_bulk``, ``GatewayDatapath`` /
``GatewayFleet`` ``.process_stream``, ``Packet.from_bytes``/``to_bytes``,
``Observability``).  All workloads are closed-loop batch work: TCP is
self-clocked and streams are fed back to back, so a slower program gets
the same work and takes longer.

Work is fixed per (workload, seconds): ``seconds`` scales the input by
the rates in :data:`WORKLOADS` (below the builders), measured at the commit that added the
benchmark, so the timed region lasts about that long there.  Fixing the
work rather than the duration is what lets the modeled metrics and the
egress digest repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

from host import REFERENCE_NS_PER_ITERATION, calibration_ns

#: Ingress packets per timed chunk (stream workloads).
CHUNK_PACKETS = 512
#: Simulator events per timed chunk (world workloads); about one gateway
#: packet per event, so chunks are comparable across the two kinds.
CHUNK_EVENTS = 512
#: Untimed chunks run before the timed region; their time is set-up.
WARMUP_CHUNKS = 4

WORLD_FLOWS_EACH_WAY = 8
#: Sim seconds allowed for SYN retries before the transfer starts, and for
#: the transfer itself; idle sim time costs no host time.
HANDSHAKE_GRACE_S = 8.0
SIM_DEADLINE_S = 600.0


def modeled_gbps(accounts) -> float:
    """Cycle-accounted sustainable goodput on the reference gateway CPU.

    One core per account; the hottest bounds the CPU side and DRAM
    traffic is shared — the rule of
    ``GatewayDatapath.sustainable_throughput_bps``, applied alike to a
    single gateway worker, a datapath's workers and a fleet's shards.
    """
    from repro.cpu import XEON_6554S as spec

    goodput_bits = sum(account.goodput_bytes for account in accounts) * 8
    bounds = []
    hottest = max(account.cycles for account in accounts)
    if hottest > 0:
        bounds.append(spec.clock_hz / hottest * goodput_bits)
    memory = sum(account.mem_bytes for account in accounts)
    if memory > 0:
        bounds.append(spec.mem_bw_bytes_per_sec / memory * goodput_bits)
    return min(bounds) / 1e9 if bounds else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _worker_counters(workers, stats) -> Dict[str, float]:
    """Per-layer counts readable from a set of gateway workers."""
    lookups = sum(worker.flows.lookups for worker in workers)
    misses = sum(worker.flows.misses for worker in workers)
    evictions = sum(worker.flows.evictions for worker in workers)
    split_packets = sum(worker.split.split_packets for worker in workers)
    segments = sum(worker.split.output_segments for worker in workers)
    return {
        "core.flow_table.miss_share": _ratio(misses, lookups),
        "core.flow_table.evictions_per_kpkt": _ratio(evictions * 1000, stats.rx_packets),
        "core.worker.hairpin_share": _ratio(stats.hairpinned, stats.rx_packets),
        "core.tcp_split.segments_per_pkt": _ratio(segments, split_packets),
    }


#: Iterations of the calibration loop run after every chunk (~0.5 ms).
SLICE_ITERATIONS = 1000


class Timed:
    """The timed region, chunk by chunk, scaled to the reference host speed.

    A calibration slice runs before the first chunk and after each one
    (outside the timed interval).  A chunk's scale is the reference cost
    of that loop over the median of the four slices around the chunk, so
    a host that slows down for a second stretches the chunk and its
    yardstick alike.  ``scaled_chunks`` and ``stage_ns`` are scaled;
    ``raw_wall_ns`` is not.

    With a profiler, profiling is on exactly while a chunk is timed, so
    input generation, output checks and calibration never reach the layer
    table.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        #: Per chunk: (wall ns, cpu ns, gateway packets, ((stage, ns), ...)).
        self.chunks: List[tuple] = []
        self.slices: List[float] = []
        self.spans: List[dict] = []
        self.generator_ns = 0

    def begin(self) -> None:
        """Set-up is over; the first chunk follows."""
        self.slices.append(calibration_ns(SLICE_ITERATIONS))

    def start(self) -> Tuple[int, int]:
        if self.profiler is not None:
            self.profiler.enable()
        return time.process_time_ns(), time.perf_counter_ns()

    def stop(self, started: Tuple[int, int], packets: int, marks=()) -> None:
        """Close a chunk; *marks* are ``(stage, end_ns)`` in order."""
        end_ns = time.perf_counter_ns()
        cpu_ns = time.process_time_ns()
        if self.profiler is not None:
            self.profiler.disable()
        stages = []
        begin = started[1]
        for stage, mark in marks or (("run", end_ns),):
            stages.append((stage, mark - begin))
            if self.profiler is not None:
                self.spans.append({"name": stage, "parent": len(self.chunks),
                                   "start_ns": begin, "end_ns": mark})
            begin = mark
        self.chunks.append((end_ns - started[1], cpu_ns - started[0], packets, stages))
        self.slices.append(calibration_ns(SLICE_ITERATIONS))

    def scales(self) -> List[float]:
        return [
            REFERENCE_NS_PER_ITERATION / statistics.median(self.slices[max(0, i - 1):i + 3])
            for i in range(len(self.chunks))
        ]

    @property
    def packets(self) -> int:
        return sum(chunk[2] for chunk in self.chunks)

    @property
    def raw_wall_ns(self) -> int:
        return sum(chunk[0] for chunk in self.chunks)

    def scaled_chunks(self) -> List[Tuple[float, float, int]]:
        """Per chunk: (scaled wall ns, scaled cpu ns, gateway packets)."""
        return [(chunk[0] * scale, chunk[1] * scale, chunk[2])
                for chunk, scale in zip(self.chunks, self.scales())]

    @property
    def stage_ns(self) -> Counter:
        totals: Counter = Counter()
        for chunk, scale in zip(self.chunks, self.scales()):
            for stage, ns in chunk[3]:
                totals[stage] += ns * scale
        return totals


# ----------------------------------------------------------------------
# World workloads: a simulated border with self-clocked TCP flows
# ----------------------------------------------------------------------
def verify_world(flows, dropped_mtu: int, spans=None) -> Dict[str, Tuple[int, int]]:
    """Checks on a finished world: name -> (attempted, failed).

    *flows* is ``[(bytes offered, bytes delivered), ...]``; one flow is
    one operation.
    """
    checks = {
        "flow_bytes_delivered": (
            len(flows), sum(1 for offered, delivered in flows if delivered != offered)
        ),
        "no_mtu_drops": (1, 1 if dropped_mtu else 0),
    }
    if spans is not None:
        balanced = spans.balanced and spans.anomalies == 0 and spans.opened > 0
        checks["span_balance"] = (1, 0 if balanced else 1)
    return checks


def run_world(options: dict, seed: int, seconds: float, timed: Timed,
              setup_done: Callable[[], None]) -> dict:
    from repro.core import GatewayConfig, PXGateway
    from repro.net import Topology
    from repro.sim import Netem
    from repro.tcpstack import TCPConnection, TCPListener

    rng = random.Random(seed)
    topo = Topology(seed=rng.getrandbits(32))
    sim = topo.sim
    inside = topo.add_host("inside")
    outside = topo.add_host("outside")
    gateway = PXGateway(sim, "pxgw", config=GatewayConfig(imtu=9000, emtu=1500))
    topo.add_node(gateway)
    topo.link(inside, gateway, mtu=9000, delay=5e-5)
    if options.get("lossy"):
        wan = topo.add_router("wan")
        topo.link(gateway, wan, mtu=1500, delay=5e-5)
        topo.link(wan, outside, mtu=1500, bandwidth_bps=1e9,
                  netem=Netem(delay=5e-3, jitter=5e-4, loss=0.002, reorder=0.01))
    else:
        topo.link(gateway, outside, mtu=1500, delay=5e-5)
    topo.build_routes()
    internal, external = gateway.interfaces[0], gateway.interfaces[1]
    gateway.mark_internal(internal)

    spans = None
    if options.get("observed"):
        from repro.obs import FlightRecorder, FlowTracer, Observability, SpanTracker

        spans = SpanTracker()
        tracer = FlowTracer()
        gateway.attach_observability(Observability(tracer=tracer, spans=spans))
        FlightRecorder("border").wire(spans=spans, tracer=tracer)

    down_bytes, up_bytes = (int(rate * seconds) for rate in options["rate"])
    ports = rng.sample(range(20_000, 60_000), 4 * WORLD_FLOWS_EACH_WAY)
    flows = []  # (listener, receiving client, bytes offered)
    for index in range(WORLD_FLOWS_EACH_WAY):
        # Download: an outside server sends into the b-network (merged).
        listener = TCPListener(outside, ports.pop(), mss=1460)
        client = TCPConnection(inside, ports.pop(), outside.ip, listener.port, mss=8960)
        flows.append((listener, client, down_bytes))
        # Upload: an inside server sends out of it (split).
        listener = TCPListener(inside, ports.pop(), mss=8960)
        client = TCPConnection(outside, ports.pop(), inside.ip, listener.port, mss=1460)
        flows.append((listener, client, up_bytes))
    for _listener, client, _offered in flows:
        client.connect()
    topo.run(until=HANDSHAKE_GRACE_S)
    senders = [listener.connections[0] for listener, _client, _offered in flows]
    started_at = sim.now
    for sender, (_listener, _client, offered) in zip(senders, flows):
        sim.schedule(rng.uniform(0.0, 2e-3), sender.send_bulk, offered)
    deadline = started_at + SIM_DEADLINE_S

    stats = gateway.stats
    topo.run(max_events=WARMUP_CHUNKS * CHUNK_EVENTS)
    setup_done()
    seen = stats.rx_packets + stats.tx_packets
    events_before = sim.events_processed
    while sim.pending() and sim.now < deadline:
        started = timed.start()
        topo.run(max_events=CHUNK_EVENTS)
        now_seen = stats.rx_packets + stats.tx_packets
        timed.stop(started, now_seen - seen)
        seen = now_seen
    events = sim.events_processed - events_before

    links = list(topo.links())
    dropped = {
        kind: sum(getattr(link.stats, f"dropped_{kind}") for link in links)
        for kind in ("loss", "queue", "mtu")
    }
    outcome = [(offered, client.bytes_delivered) for _l, client, offered in flows]
    checks = verify_world(outcome, dropped["mtu"], spans)
    gateway_state = dataclasses.asdict(stats)
    gateway_state["inbound_size_histogram"] = sorted(stats.inbound_size_histogram.items())
    digest = hashlib.sha256(json.dumps({
        "flows": [
            (offered, delivered, sender.bytes_acked, sender.retransmits, sender.timeouts)
            for (offered, delivered), sender in zip(outcome, senders)
        ],
        "gateway": gateway_state,
        "links": [
            (link.src.name, link.stats.transmitted, link.stats.delivered,
             link.stats.bytes_delivered, link.stats.dropped_queue,
             link.stats.dropped_loss, link.stats.dropped_mtu)
            for link in links
        ],
        "sim_end": repr(sim.now),
    }, sort_keys=True).encode()).hexdigest()

    worker = gateway.worker
    counters = _worker_counters([worker], stats)
    counters.update({
        "sim.engine.events_per_pkt": _ratio(events, timed.packets),
        "sim.link.dropped_loss": dropped["loss"],
        "sim.link.dropped_queue": dropped["queue"],
        "sim.link.dropped_mtu": dropped["mtu"],
        "tcpstack.retransmits": sum(sender.retransmits for sender in senders),
        "tcpstack.timeouts": sum(sender.timeouts for sender in senders),
        "tcpstack.sim_completion_s": sim.now - started_at,
        # Packets in from outside per packet out toward the b-network;
        # ACKs of the upload flows cross one for one and dilute it.
        "core.tcp_merge.pkts_per_merged": _ratio(external.rx_packets, internal.tx_packets),
        "obs.spans_dropped": spans.shed if spans is not None else 0,
    })
    return {
        "checks": checks,
        "egress_sha256": digest,
        "modeled_gbps": modeled_gbps([worker.account]),
        "conversion_yield": stats.conversion_yield,
        "counters": counters,
    }


# ----------------------------------------------------------------------
# Stream workloads: packets straight into the datapath or the fleet
# ----------------------------------------------------------------------
class StreamVerifier:
    """Byte-stream and datagram conservation across the gateway, per flow.

    One ingress packet is one operation.  A TCP flow whose payload bytes
    out differ from bytes in fails every packet it offered; a UDP flow
    fails one packet per datagram missing or invented after
    ``decode_caravan``; an egress packet above its direction's MTU fails
    one.
    """

    def __init__(self, imtu: int = 9000, emtu: int = 1500):
        from repro.core import Bound

        self.limit = {Bound.INBOUND: imtu, Bound.OUTBOUND: emtu}
        self.bound: dict = {}
        self.offered: Counter = Counter()      # flow -> ingress packets
        self.tcp_bytes: Counter = Counter()    # flow -> payload bytes in - out
        self.datagrams: Counter = Counter()    # flow -> datagrams in - out
        self.oversize = 0
        self.attempted = 0
        self.sha = hashlib.sha256()
        self.inbound_tcp_in = 0
        self.inbound_tcp_out = 0
        self.caravans = 0
        self.caravan_datagrams = 0
        self._inbound = Bound.INBOUND

    def ingress(self, packet, bound: str) -> None:
        flow = packet.flow_key()
        self.attempted += 1
        self.bound[flow] = bound
        self.offered[flow] += 1
        if packet.is_tcp:
            self.tcp_bytes[flow] += len(packet.payload)
            if bound == self._inbound:
                self.inbound_tcp_in += 1
        else:
            self.datagrams[flow] += 1

    def egress(self, packet, wire: bytes) -> None:
        from repro.core import decode_caravan, is_caravan

        self.sha.update(wire)
        flow = packet.flow_key()
        bound = self.bound.get(flow)
        if bound is None or packet.total_len > self.limit[bound]:
            self.oversize += 1
        if packet.is_tcp:
            self.tcp_bytes[flow] -= len(packet.payload)
            if bound == self._inbound:
                self.inbound_tcp_out += 1
        elif is_caravan(packet):
            inner = decode_caravan(packet)
            self.caravans += 1
            self.caravan_datagrams += len(inner)
            for datagram in inner:
                self.datagrams[datagram.flow_key()] -= 1
        else:
            self.datagrams[flow] -= 1

    def checks(self, conservation_errors: dict) -> Dict[str, Tuple[int, int]]:
        broken_tcp = sum(self.offered[flow] for flow, delta in self.tcp_bytes.items() if delta)
        lost_datagrams = sum(abs(delta) for delta in self.datagrams.values())
        failed = broken_tcp + lost_datagrams + self.oversize + len(conservation_errors)
        return {"ingress_packets_conserved": (self.attempted, min(failed, self.attempted))}


def _tcp_stream(rng: random.Random, ingress: int):
    """96 bulk flows: 48 inbound at eMTU size (drawn twice as often) to
    merge, 48 outbound jumbos to split — the Figure 5 shape.  The flows
    are fixed; the seed orders the arrivals."""
    from repro.core import Bound, GatewayConfig, GatewayDatapath
    from repro.workload import interleave, make_tcp_sources

    inbound = make_tcp_sources(48, 1448, tag=Bound.INBOUND)
    outbound = make_tcp_sources(48, 8948, tag=Bound.OUTBOUND, base_port=30_000,
                                client_net="10.1.0", server_net="198.51.100")
    stream = interleave(inbound * 2 + outbound, ingress, rng, mean_run=16.0)
    return stream, GatewayDatapath(GatewayConfig())


def _imix_stream(rng: random.Random, ingress: int):
    """Small packets, short runs: simple-IMIX UDP and TCP flows plus
    1200 B datagram flows that fill caravans.  Flows and their sizes (the
    7:4:1 mix, dealt out exactly) are fixed; the seed orders the arrivals.
    Seeding flow identity as well would move the RSS spread over the
    eight workers, and with it the modeled throughput, by 6 % between
    seeds."""
    from repro.core import Bound, GatewayConfig, GatewayDatapath
    from repro.workload import TcpStreamSource, UdpStreamSource, interleave

    sizes = [40] * 149 + [576] * 85 + [1500] * 22
    sources = []
    for kind, header, base in ((UdpStreamSource, 28, 25_000), (TcpStreamSource, 40, 26_000)):
        sources += [
            kind(f"198.51.100.{index % 250 + 1}", f"10.1.0.{index % 4 + 1}",
                 base + index, 5201, max(1, size - header), tag=Bound.INBOUND)
            for index, size in enumerate(sizes)
        ]
    sources += [
        UdpStreamSource(f"198.51.100.{index + 1}", f"10.1.0.{index % 4 + 1}",
                        27_000 + index, 5201, 1200, tag=Bound.INBOUND)
        for index in range(32)
    ] * 4
    stream = interleave(sources, ingress, rng, mean_run=4.0)
    return stream, GatewayDatapath(GatewayConfig())


def _city_stream(rng: random.Random, ingress: int):
    """A churning city population whose working set (24k flows) exceeds
    the fleet's total flow-table capacity (4 x 4096): eviction is steady
    state."""
    from repro.core import GatewayConfig
    from repro.fleet import GatewayFleet
    from repro.workload import CityScaleProfile, CityScaleWorkload

    profile = CityScaleProfile(total_flows=10_000_000, concurrency=24_000,
                               seed=rng.getrandbits(32))
    stream = CityScaleWorkload(profile).packets(ingress)
    return stream, GatewayFleet(GatewayConfig(flow_table_capacity=4096), shards=4)


#: name -> options.  ``rate`` is work per second of timed region at the
#: commit that added the benchmark: bytes per flow (down, up) for worlds,
#: ingress packets for streams.  Streams name their builder and whether
#: the timed region starts and ends at wire bytes.
WORKLOADS: Dict[str, dict] = {
    "border_tcp_world": dict(rate=(4_000_000, 2_000_000)),
    "border_tcp_observed": dict(rate=(4_000_000, 2_000_000), observed=True),
    "border_lossy_wan": dict(rate=(1_200_000, 600_000), lossy=True),
    "wire_tcp_stream": dict(rate=20_000, build=_tcp_stream, wire=True),
    "wire_udp_imix": dict(rate=54_000, build=_imix_stream, wire=True),
    "fleet_city": dict(rate=55_000, build=_city_stream, wire=False),
}


def run_stream(options: dict, seed: int, seconds: float, timed: Timed,
               setup_done: Callable[[], None]) -> dict:
    """Wire workloads time parse -> process -> serialize; ``fleet_city``
    feeds ``Packet`` objects and times process alone."""
    from repro.packet import Packet

    wire = options["wire"]
    chunks = max(1, round(options["rate"] * seconds / CHUNK_PACKETS))
    ingress = (WARMUP_CHUNKS + chunks) * CHUNK_PACKETS
    stream, engine = options["build"](random.Random(seed), ingress)
    fleet = hasattr(engine, "shards")
    workers = [shard.worker for shard in engine.shards] if fleet else engine.workers
    verifier = StreamVerifier(engine.config.imtu, engine.config.emtu)
    from_bytes = Packet.from_bytes
    perf = time.perf_counter_ns

    def emit(packets, wires=None):
        if wires is None:
            wires = [packet.to_bytes() for packet in packets]
        for packet, raw in zip(packets, wires):
            verifier.egress(packet, raw)

    def step(batch):
        """One chunk through the program: (egress, its wire bytes, marks)."""
        if not wire:
            outputs = engine.process_stream(batch, final_flush=False)
            return outputs, None, (("process", perf()),)
        packets = [(from_bytes(raw), bound) for raw, bound in batch]
        parsed = perf()
        outputs = engine.process_stream(packets, final_flush=False)
        processed = perf()
        wires = [packet.to_bytes() for packet in outputs]
        return outputs, wires, (
            ("parse", parsed), ("process", processed), ("serialize", perf()))

    gateway_packets = 0
    for chunk_id in range(WARMUP_CHUNKS + chunks):
        if chunk_id == WARMUP_CHUNKS:
            setup_done()
        generate_ns = perf()
        batch = list(itertools.islice(stream, CHUNK_PACKETS))
        for packet, bound in batch:
            verifier.ingress(packet, bound)
        if wire:
            batch = [(packet.to_bytes(), bound) for packet, bound in batch]
        generate_ns = perf() - generate_ns
        if chunk_id < WARMUP_CHUNKS:
            outputs, wires, _marks = step(batch)
        else:
            started = timed.start()
            outputs, wires, marks = step(batch)
            timed.stop(started, len(batch) + len(outputs), marks)
            timed.generator_ns += generate_ns
        gateway_packets += len(batch) + len(outputs)
        emit(outputs, wires)
    flushed = engine.process_stream([], final_flush=True)
    gateway_packets += len(flushed)
    emit(flushed)

    stats = engine.combined_stats()
    conservation = stats.conservation_errors(
        pending_tcp_bytes=sum(worker.merge.pending_bytes() for worker in workers),
        pending_datagrams=sum(worker.caravan_merge.pending_packets() for worker in workers),
    )
    checks = verifier.checks(conservation)
    # The chunk accounting (ingress + egress per chunk) must be the
    # gateway's own packet count, or per-packet figures mean nothing.
    checks["chunk_packets_match_stats"] = (
        1, 0 if gateway_packets == stats.rx_packets + stats.tx_packets else 1
    )
    per_ingress = 1e-3 / (chunks * CHUNK_PACKETS)
    stage_ns = timed.stage_ns
    counters = _worker_counters(workers, stats)
    counters.update({
        "packet.parse_us_per_pkt": stage_ns["parse"] * per_ingress,
        "packet.serialize_us_per_pkt": stage_ns["serialize"] * per_ingress,
        ("fleet" if fleet else "core") + ".process_us_per_pkt":
            stage_ns["process"] * per_ingress,
        "core.tcp_merge.pkts_per_merged":
            _ratio(verifier.inbound_tcp_in, verifier.inbound_tcp_out),
        "core.caravan.datagrams_per_caravan":
            _ratio(verifier.caravan_datagrams, verifier.caravans),
    })
    if fleet:
        steering = engine.steering
        counters["fleet.steering_cache_hit_share"] = _ratio(
            steering.cache_hits, steering.cache_hits + steering.cache_misses)
        counters["fleet.shard_imbalance"] = engine.shard_balance()["max_over_mean"]
    return {
        "checks": checks,
        "egress_sha256": verifier.sha.hexdigest(),
        "modeled_gbps": modeled_gbps([worker.account for worker in workers]),
        "conversion_yield": stats.conversion_yield,
        "counters": counters,
    }


def run_round(name: str, seed: int, seconds: float, timed: Timed,
              setup_done: Callable[[], None]) -> dict:
    """Run one round of workload *name*; see the module docstring."""
    options = WORKLOADS[name]
    run = run_stream if "build" in options else run_world
    return run(options, seed, seconds, timed, setup_done)
