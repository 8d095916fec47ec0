"""Seeded, deterministic microbenchmarks of the datapath fast path.

Each benchmark is a factory: ``prepare(quick)`` builds the workload
(packets, engines, topologies) outside the timed region and returns a
``run()`` closure that processes it once and returns the packet count.
State-bearing benches construct fresh engines inside ``run`` so every
repetition sees identical cold state; the inputs themselves are built
once and reused, which is what makes the measurement about processing
cost, not allocation of the workload.

Timing uses ``time.perf_counter_ns`` with one untimed warmup plus
``reps`` timed repetitions; the reported rate derives from the median
repetition (p95 is kept alongside for noise inspection).  Workload
*content* is fully seeded, so two runs on the same interpreter measure
the same instruction stream.

The report schema (one row per bench)::

    {"bench": str, "pkts_per_sec": float, "ns_per_pkt": float, "reps": int}

plus informational extras (``packets``, ``p95_ns_per_pkt``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "bench_names",
    "format_profile",
    "profile_benchmark",
    "run_benchmarks",
    "write_report",
]

#: Identifier stamped into every report; compare refuses mismatches.
BENCH_SCHEMA = "repro-bench/1"

#: Registry: name -> (prepare(quick) -> (run() -> packet_count)).
_REGISTRY: "Dict[str, Callable[[bool], Callable[[], int]]]" = {}


def _bench(name: str):
    def register(prepare):
        _REGISTRY[name] = prepare
        return prepare

    return register


def bench_names() -> List[str]:
    """All registered benchmark names, in registration order."""
    return list(_REGISTRY)


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    bench: str
    pkts_per_sec: float
    ns_per_pkt: float
    reps: int
    packets: int
    p95_ns_per_pkt: float

    def row(self) -> dict:
        return {
            "bench": self.bench,
            "pkts_per_sec": self.pkts_per_sec,
            "ns_per_pkt": self.ns_per_pkt,
            "reps": self.reps,
            "packets": self.packets,
            "p95_ns_per_pkt": self.p95_ns_per_pkt,
        }


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
def _mixed_packets(rng: random.Random, count: int) -> list:
    """A seeded mix of TCP (with options), UDP, and ICMP packets."""
    from ..packet import ICMPMessage, TCPOption, build_icmp, build_tcp, build_udp

    packets = []
    for index in range(count):
        kind = index % 4
        src = f"10.0.{index % 200}.{1 + index % 250}"
        dst = f"198.51.{index % 100}.{1 + index % 250}"
        if kind in (0, 1):
            payload = bytes(rng.randrange(256) for _ in range(rng.choice([512, 1448, 1449])))
            packet = build_tcp(src, dst, 40000 + index % 1000, 80,
                               payload=payload, seq=index * 1448)
            if kind == 0:
                packet.tcp.options = [TCPOption.timestamp(index, index // 2)]
        elif kind == 2:
            payload = bytes(rng.randrange(256) for _ in range(rng.choice([200, 1200, 1201])))
            packet = build_udp(src, dst, 30000 + index % 1000, 4000, payload=payload)
        else:
            packet = build_icmp(src, dst, ICMPMessage.echo_request(index & 0xFFFF, index, b"ping"))
        packets.append(packet)
    return packets


@_bench("packet_parse")
def _prepare_packet_parse(quick: bool) -> Callable[[], int]:
    from ..packet import Packet

    count = 400 if quick else 2000
    rng = random.Random(0xBEEF)
    wires = [p.to_bytes() for p in _mixed_packets(rng, count)]

    def run() -> int:
        from_bytes = Packet.from_bytes
        for wire in wires:
            from_bytes(wire)
        return len(wires)

    return run


@_bench("packet_serialize")
def _prepare_packet_serialize(quick: bool) -> Callable[[], int]:
    count = 400 if quick else 2000
    rng = random.Random(0xF00D)
    packets = _mixed_packets(rng, count)

    def run() -> int:
        for packet in packets:
            packet.to_bytes()
        return len(packets)

    return run


@_bench("checksum")
def _prepare_checksum(quick: bool) -> Callable[[], int]:
    from ..packet.checksum import internet_checksum

    count = 200 if quick else 1000
    rng = random.Random(0xC0DE)
    sizes = [64, 65, 576, 1447, 1448, 8948, 8949]
    buffers = [bytes(rng.randrange(256) for _ in range(sizes[i % len(sizes)]))
               for i in range(count)]

    def run() -> int:
        for buffer in buffers:
            internet_checksum(buffer)
        return len(buffers)

    return run


@_bench("merge_split")
def _prepare_merge_split(quick: bool) -> Callable[[], int]:
    from ..core.tcp_merge import TcpMergeEngine
    from ..core.tcp_split import TcpSplitEngine
    from ..workload import interleave, make_tcp_sources

    count = 800 if quick else 4000
    sources = make_tcp_sources(16, 1448)
    rng = random.Random(0x5EED)
    stream = [packet for packet, _bound in interleave(sources, count, rng, mean_run=8.0)]

    def run() -> int:
        merge = TcpMergeEngine(8948)
        split = TcpSplitEngine(1500)
        for packet in stream:
            for jumbo in merge.feed(packet):
                split.process(jumbo)
        for jumbo in merge.flush():
            split.process(jumbo)
        return len(stream)

    return run


@_bench("caravan")
def _prepare_caravan(quick: bool) -> Callable[[], int]:
    from ..core.caravan import CaravanMergeEngine, CaravanSplitEngine
    from ..workload import interleave, make_udp_sources

    count = 800 if quick else 4000
    sources = make_udp_sources(8, 1200)
    rng = random.Random(0xCAFE)
    stream = [packet for packet, _bound in interleave(sources, count, rng, mean_run=6.0)]

    def run() -> int:
        merge = CaravanMergeEngine(8972)
        split = CaravanSplitEngine()
        for packet in stream:
            for out in merge.feed(packet):
                split.process(out)
        for out in merge.flush():
            split.process(out)
        return len(stream)

    return run


@_bench("caravan_open_close")
def _prepare_caravan_open_close(quick: bool) -> Callable[[], int]:
    """encode/decode cost alone: one caravan opened and rebuilt per row."""
    from ..core.caravan import decode_caravan, encode_caravan
    from ..packet import build_udp

    bundles = 30 if quick else 150
    records = 6
    inner: List[list] = []
    for bundle in range(bundles):
        inner.append([
            build_udp("10.0.0.1", "198.51.100.9", 31000 + bundle, 4000,
                      payload=bytes(1200), ip_id=(bundle * records + i) & 0xFFFF)
            for i in range(records)
        ])

    def run() -> int:
        for packets in inner:
            decode_caravan(encode_caravan(packets))
        return bundles * records

    return run


@_bench("upf_pipeline")
def _prepare_upf(quick: bool) -> Callable[[], int]:
    from ..packet import build_udp, str_to_ip
    from ..upf import Upf

    flows = 64
    count = 600 if quick else 3000
    dn = str_to_ip("93.184.216.34")
    ue_base = str_to_ip("172.16.0.1")
    downlink = [build_udp(dn, ue_base + (i % flows), 80, 4000, payload=bytes(1400))
                for i in range(count)]

    def run() -> int:
        upf = Upf(n3_address=str_to_ip("10.100.0.1"))
        for index in range(flows):
            upf.sessions.create_session(
                seid=index, ue_ip=ue_base + index, uplink_teid=10_000 + index,
                gnb_teid=20_000 + index, gnb_ip=str_to_ip("10.100.0.2"),
            )
        processed = 0
        for packet in downlink:
            processed += 1
            for encapsulated in upf.process(packet):
                # Reflect the gNB-bound packet back through the uplink
                # path so decap is exercised too.
                processed += 1
                upf.process(encapsulated)
        return processed

    return run


def _run_gateway_world(download: int, upload: int, observed: bool = False) -> int:
    """One border-world pass; ``observed`` attaches per-packet spans.

    The observed variant measures the *datapath* tracking cost (span
    opens/closes and FIFO mirroring on every packet).  Timeline scrapes
    are periodic control-plane work whose cost is interval-bound, not
    packet-bound, so they stay out of this per-packet figure.
    """
    from ..core import GatewayConfig, PXGateway
    from ..net import Topology
    from ..tcpstack import TCPConnection, TCPListener

    topo = Topology(seed=7)
    inside = topo.add_host("inside")
    outside = topo.add_host("outside")
    gateway = PXGateway(topo.sim, "pxgw", config=GatewayConfig(imtu=9000, emtu=1500))
    topo.add_node(gateway)
    topo.link(inside, gateway, mtu=9000, delay=5e-5)
    topo.link(gateway, outside, mtu=1500, delay=5e-5)
    topo.build_routes()
    gateway.mark_internal(gateway.interfaces[0])
    spans = None
    if observed:
        from ..obs import Observability, SpanTracker

        spans = SpanTracker()
        gateway.attach_observability(Observability(spans=spans))

    down_server = TCPListener(outside, 80, mss=1460)
    up_server = TCPListener(inside, 81, mss=8960)
    down = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
    up = TCPConnection(outside, 40001, inside.ip, 81, mss=1460)
    down.connect()
    up.connect()
    topo.run(until=0.2)
    down_server.connections[0].send_bulk(download)
    up_server.connections[0].send_bulk(upload)
    topo.run(until=30.0)
    if spans is not None:
        assert spans.balanced and spans.anomalies == 0, "span balance broke"
        assert spans.opened > 0, "observed gateway world tracked nothing"
    stats = gateway.stats
    assert down.bytes_delivered == download, "gateway world lost download bytes"
    assert up.bytes_delivered == upload, "gateway world lost upload bytes"
    return stats.rx_packets + stats.tx_packets


@_bench("gateway_world")
def _prepare_gateway_world(quick: bool) -> Callable[[], int]:
    """End-to-end: a PXGW border world moving bulk TCP both directions.

    This is the headline packets/sec number — it exercises the
    simulator engine, links, routers, the TCP stack, and the full
    gateway worker pipeline (merge inbound, split outbound) exactly as
    the figure experiments do.
    """
    download = 300_000 if quick else 1_500_000
    upload = 150_000 if quick else 750_000

    def run() -> int:
        return _run_gateway_world(download, upload)

    return run


@_bench("gateway_world_observed")
def _prepare_gateway_world_observed(quick: bool) -> Callable[[], int]:
    """The same border world with the observability stack attached.

    Spans track every packet and an in-sim timeline scrapes the
    registry; the CI span-overhead guard compares this against the
    plain ``gateway_world`` to keep the tracking cost within budget.
    """
    download = 300_000 if quick else 1_500_000
    upload = 150_000 if quick else 750_000

    def run() -> int:
        return _run_gateway_world(download, upload, observed=True)

    return run


@_bench("gateway_stream")
def _prepare_gateway_stream(quick: bool) -> Callable[[], int]:
    """The offline datapath (Figure-5 entry point), packet at a time.

    A seeded Figure-5-style (packet, bound) stream through
    ``GatewayDatapath.process_stream``: no simulator, so the number is
    the dispatch and worker layers alone.
    """
    from ..core import GatewayConfig, GatewayDatapath
    from ..core.config import Bound
    from ..workload import interleave, make_tcp_sources

    count = 6_000 if quick else 30_000
    down = make_tcp_sources(48, 1448, tag=Bound.INBOUND)
    up = make_tcp_sources(48, 8948, tag=Bound.OUTBOUND, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    rng = random.Random(0xBA7C)
    stream = list(interleave(down * 2 + up, count, rng, mean_run=16.0))

    def run() -> int:
        GatewayDatapath(GatewayConfig()).process_stream(stream)
        return len(stream)

    return run


@_bench("event_wheel")
def _prepare_event_wheel(quick: bool) -> Callable[[], int]:
    """Scheduler churn: the event engine under timer pressure.

    A dense mass of non-cancellable data events (``schedule_fast``), a
    population of cancellable timers half of which are cancelled before
    firing (retransmit-timer churn), and a reschedule chain that
    inserts while the queue drains.  The row keeps its PR 8 name and
    plan so the ``BENCH_pr8*.json`` history stays joinable; the plan
    queues all 150,000 events before running any, ~80 times the deepest
    live queue a perfbench world builds, which is why a heap reads
    lower here than the wheel did (EXPERIMENTS.md, PR 15).
    """
    from ..sim import Simulator

    count = 30_000 if quick else 150_000
    rng = random.Random(0x3E11)
    plan = [
        (rng.uniform(1e-6, 2e-3), rng.random() < 0.4, rng.random() < 0.5)
        for _ in range(count)
    ]

    def run() -> int:
        sim = Simulator()
        schedule = sim.schedule
        schedule_fast = sim.schedule_fast

        def nop() -> None:
            pass

        doomed = []
        for delay, cancellable, cancel in plan:
            if cancellable:
                handle = schedule(delay, nop)
                if cancel:
                    doomed.append(handle)
            else:
                schedule_fast(delay, nop)
        for handle in doomed:
            handle.cancel()
        remaining = [count // 10]

        def chain() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                schedule_fast(7.3e-5, chain)

        schedule_fast(0.0, chain)
        sim.run()
        return count

    return run


@_bench("fleet_world")
def _prepare_fleet_world(quick: bool) -> Callable[[], int]:
    """A 4-shard gateway fleet digesting a city-scale flow mix.

    Steering (rendezvous hash per flow) plus per-shard bucketed
    processing over a churning elephant/mice population with bounded
    flow tables — the fleet tier's end-to-end cost per packet.  The
    stream is materialized once outside the timed region; each rep
    builds a fresh fleet so flow tables and merge engines start cold.
    """
    from ..core import GatewayConfig
    from ..fleet import GatewayFleet
    from ..workload import CityScaleProfile, CityScaleWorkload

    count = 6_000 if quick else 30_000
    profile = CityScaleProfile(
        total_flows=count, concurrency=800, seed=0xC17,
    )
    stream = list(CityScaleWorkload(profile).packets(count))

    def run() -> int:
        fleet = GatewayFleet(GatewayConfig(flow_table_capacity=4096), shards=4)
        fleet.process_stream(stream)
        return len(stream)

    return run


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _measure(run: Callable[[], int], reps: int) -> Tuple[List[int], int]:
    """Time *reps* repetitions (after one warmup); returns (ns, packets)."""
    packets = run()  # warmup, also yields the per-rep packet count
    timings: List[int] = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        count = run()
        timings.append(time.perf_counter_ns() - start)
        if count != packets:
            raise RuntimeError("non-deterministic benchmark packet count")
    return timings, packets


def _median(values: List[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _p95(values: List[int]) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
    return float(ordered[index])


def run_benchmarks(
    quick: bool = False,
    reps: Optional[int] = None,
    only: Optional[List[str]] = None,
    registry=None,
) -> dict:
    """Run the suite and return the report dict (see :data:`BENCH_SCHEMA`).

    When *registry* (a :class:`repro.obs.MetricsRegistry`) is given, the
    report rows are mirrored into it as ``px_bench_*`` gauges, so bench
    results export alongside datapath metrics and two runs can be
    compared with ``MetricsRegistry.diff``.
    """
    if reps is None:
        reps = 3 if quick else 5
    if reps < 1:
        raise ValueError("reps must be >= 1")
    selected = bench_names() if only is None else list(only)
    unknown = [name for name in selected if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown} (have {bench_names()})")

    results: List[BenchResult] = []
    for name in selected:
        run = _REGISTRY[name](quick)
        timings, packets = _measure(run, reps)
        median_ns = _median(timings)
        results.append(
            BenchResult(
                bench=name,
                pkts_per_sec=packets / (median_ns / 1e9),
                ns_per_pkt=median_ns / packets,
                reps=reps,
                packets=packets,
                p95_ns_per_pkt=_p95(timings) / packets,
            )
        )
    report = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "results": [result.row() for result in results],
    }
    if registry is not None:
        from ..obs import record_bench_report

        record_bench_report(registry, report)
    return report


def write_report(report: dict, path: str) -> None:
    """Write a bench report as stable, diff-friendly JSON."""
    import json

    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def profile_benchmark(name: str, quick: bool = False, top: int = 25) -> dict:
    """Run one benchmark under cProfile; return a deterministic summary.

    The benchmark runs once untimed (warmup — so lazy imports and
    caches do not dominate the profile) and once under the profiler.
    Rows are the top-*top* functions by cumulative time, tie-broken by
    qualified name so the *ordering* (and, because the workloads are
    seeded, every call count) is deterministic across runs; the time
    columns naturally vary with the machine.

    Returns ``{"bench", "packets", "total_calls", "rows"}`` where each
    row is ``{"ncalls", "tottime", "cumtime", "function"}``.
    """
    import cProfile
    import os

    if name not in _REGISTRY:
        raise ValueError(f"unknown benchmark {name!r} (have {bench_names()})")
    run = _REGISTRY[name](quick)
    run()  # warmup
    profiler = cProfile.Profile()
    profiler.enable()
    packets = run()
    profiler.disable()
    profiler.create_stats()

    rows = []
    total_calls = 0
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in profiler.stats.items():
        total_calls += nc
        where = f"{os.path.basename(filename)}:{lineno}({funcname})"
        rows.append({"ncalls": nc, "tottime": tt, "cumtime": ct, "function": where})
    rows.sort(key=lambda row: (-row["cumtime"], row["function"]))
    return {
        "bench": name,
        "packets": packets,
        "total_calls": total_calls,
        "rows": rows[:top],
    }


def format_profile(summary: dict) -> str:
    """Render a :func:`profile_benchmark` summary as an aligned table."""
    lines = [
        f"profile: {summary['bench']}  "
        f"({summary['packets']} packets, {summary['total_calls']} calls)",
        f"{'ncalls':>10s} {'tottime':>10s} {'cumtime':>10s}  function",
    ]
    for row in summary["rows"]:
        lines.append(
            f"{row['ncalls']:>10d} {row['tottime']:>10.4f} "
            f"{row['cumtime']:>10.4f}  {row['function']}"
        )
    return "\n".join(lines)
