"""Command-line interface: quick demos without writing any code.

::

    python -m repro gateway            # b-network border demo
    python -m repro pmtud              # F-PMTUD vs baselines on one path
    python -m repro upf --mtu 9000     # single-core UPF throughput
    python -m repro survey -n 100000   # fragment-delivery survey
    python -m repro fig5a              # the headline PXGW numbers
    python -m repro metrics            # observed world -> Prometheus text
    python -m repro trace --summary    # observed world -> flow-trace counts
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from . import __version__

__all__ = ["main", "build_parser"]


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _positive(text: str) -> float:
    """An argparse type: a positive float."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PacketExpress (HotNets '25) reproduction demos",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    gateway = commands.add_parser("gateway", help="run a b-network border demo")
    gateway.add_argument("--imtu", type=int, default=9000)
    gateway.add_argument("--emtu", type=int, default=1500)
    gateway.add_argument("--megabytes", type=int, default=2)

    commands.add_parser("pmtud", help="F-PMTUD vs classical vs PLPMTUD")

    upf = commands.add_parser("upf", help="single-core UPF throughput at an MTU")
    upf.add_argument("--mtu", type=int, default=9000)
    upf.add_argument("--flows", type=int, default=800)

    survey = commands.add_parser("survey", help="fragment-delivery survey")
    survey.add_argument("-n", "--population", type=int, default=389_428)
    survey.add_argument("--seed", type=int, default=42)

    commands.add_parser("fig5a", help="PXGW throughput/yield (abridged Figure 5a)")

    metrics = commands.add_parser(
        "metrics",
        help="run the seeded observability world, print its metric export",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus")
    metrics.add_argument("--out", default=None,
                         help="write the export here instead of stdout")

    trace = commands.add_parser(
        "trace",
        help="run the seeded observability world, print its flow trace",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--kind", default=None,
                       help="only events of this kind (ingress, merge, ...)")
    trace.add_argument("--since", type=float, default=None,
                       help="only events at or after this sim time")
    trace.add_argument("--limit", type=_count, default=None,
                       help="print at most the last N events")
    trace.add_argument("--summary", action="store_true",
                       help="print per-kind counts instead of events")
    trace.add_argument("--jsonl", action="store_true",
                       help="force one compact JSON object per line "
                            "(events, or the summary with --summary)")

    spans = commands.add_parser(
        "spans",
        help="run the seeded observability world, print its lifecycle spans",
    )
    spans.add_argument("--seed", type=int, default=0)
    spans.add_argument("--summary", action="store_true",
                       help="print balance/kind/latency aggregates only")
    spans.add_argument("--jsonl", action="store_true",
                       help="one finished span per line instead of one blob")
    spans.add_argument("--limit", type=_count, default=None,
                       help="include at most the last N finished spans")
    spans.add_argument("--out", default=None,
                       help="write the export here instead of stdout")

    flight = commands.add_parser(
        "flight",
        help="run the seeded observability world, dump its black-box "
             "flight-recorder window (spans, trace events, metric "
             "deltas, alert transitions, merged in sim time)",
    )
    flight.add_argument("--seed", type=int, default=0)
    flight.add_argument("--since", type=float, default=None,
                        help="window start in sim time (default: all)")
    flight.add_argument("--until", type=float, default=None,
                        help="window end in sim time (default: all)")
    flight.add_argument("--kind", default=None,
                        choices=("mark", "metrics", "alert", "trace", "span"),
                        help="only entries of this kind")
    flight.add_argument("--summary", action="store_true",
                        help="print per-source entry counts only")
    flight.add_argument("--out", default=None,
                        help="write the dump here instead of stdout")

    incident = commands.add_parser(
        "incident",
        help="build a deterministic incident bundle for one trigger "
             "scenario (or the whole matrix) and dump it as JSON",
    )
    incident.add_argument("--trigger",
                          choices=("alert", "rollback", "shard-loss",
                                   "oracle"),
                          default="alert",
                          help="which stock trigger scenario to run")
    incident.add_argument("--matrix", action="store_true",
                          help="run all four triggers into one document")
    incident.add_argument("--seed", type=int, default=0)
    incident.add_argument("--indent", type=int, default=0,
                          help="JSON indent (0 for compact — the "
                               "byte-deterministic form CI diffs)")
    incident.add_argument("--out", default=None,
                          help="write the bundle here instead of stdout")

    timeline = commands.add_parser(
        "timeline",
        help="run the seeded observability world, print its in-sim "
             "telemetry timeline (windowed per-series deltas)",
    )
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--interval", type=_positive, default=0.05,
                          help="sim-seconds between scrapes")
    timeline.add_argument("--format", choices=("json", "jsonl"),
                          default="json")
    timeline.add_argument("--out", default=None,
                          help="write the export here instead of stdout")

    alerts = commands.add_parser(
        "alerts",
        help="run the seeded observability world, print its SLO alert "
             "rules and sim-time state transitions",
    )
    alerts.add_argument("--seed", type=int, default=0)
    alerts.add_argument("--transitions", action="store_true",
                        help="print only the transition log, one per line")
    alerts.add_argument("--out", default=None,
                        help="write the export here instead of stdout")

    report = commands.add_parser(
        "resilience-report",
        help="run a chaos scenario + discovery/negotiation demos, dump "
             "health transitions and retry counters as JSON",
    )
    report.add_argument("--profile", default="mixed",
                        help="chaos profile (tcp/caravan/mixed/pmtud)")
    report.add_argument("--seed", type=int, default=101)
    report.add_argument("--indent", type=int, default=2,
                        help="JSON indent (0 for compact)")

    attacks = commands.add_parser(
        "attacks",
        help="run the adversarial PMTUD scenarios differentially "
             "(hardened vs unhardened) and print the verdict table",
    )
    attacks.add_argument("--scenario", default=None,
                         help="run one named scenario (default: all)")
    attacks.add_argument("--seed", type=int, default=7)
    attacks.add_argument("--json", action="store_true",
                         help="emit full results as JSON instead of a table")

    canary = commands.add_parser(
        "canary",
        help="run a twin-world canary deploy (baseline vs candidate "
             "under identical offered load) and print the staged "
             "promote/rollback verdict",
    )
    canary.add_argument("--incident", default="benign-candidate",
                        help="named incident from the corpus "
                             "(default: benign-candidate)")
    canary.add_argument("--corpus", action="store_true",
                        help="run every incident and check each verdict "
                             "against its expectation")
    canary.add_argument("--seed", type=int, default=0)
    canary.add_argument("--json", action="store_true",
                        help="emit the full report as JSON instead of "
                             "a table")
    canary.add_argument("--out", default=None,
                        help="write the output here instead of stdout")

    fleet = commands.add_parser(
        "fleet",
        help="sharded gateway fleet: pkts/s scaling across worker counts "
             "plus a worker-loss-under-load drill",
    )
    fleet.add_argument("--workers", default="1,2,4,8",
                       help="comma-separated shard counts (default 1,2,4,8)")
    fleet.add_argument("--quick", action="store_true",
                       help="smaller stream (CI smoke mode)")
    fleet.add_argument("--seed", type=int, default=0xC17)
    fleet.add_argument("--json", action="store_true",
                       help="emit the scaling report as JSON")
    fleet.add_argument("--out", default=None,
                       help="write the output here instead of stdout")
    fleet.add_argument("--loss-drill", action="store_true",
                       help="also run crash + maintenance shard-loss "
                            "scenarios and report the oracle verdict")
    fleet.add_argument("--min-speedup-4", type=float, default=1.6,
                       help="fail if modeled speedup at 4 shards is below "
                            "this (default 1.6; 0 disables)")
    return parser


# ----------------------------------------------------------------------
def _cmd_gateway(args) -> int:
    from .chaos import LinkSpec, WorldSpec, build
    from .core import GatewayConfig
    from .tcpstack import TCPConnection, TCPListener

    world = build(WorldSpec(
        seed=0, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", args.imtu, 10e9, 1e-6),
               LinkSpec("pxgw", "outside", args.emtu, 10e9, 1e-6)),
        config=GatewayConfig(imtu=args.imtu, emtu=args.emtu), inside=("inside",),
    ))
    inside, outside = world.nodes["inside"], world.nodes["outside"]
    server = TCPListener(outside, 80, mss=args.emtu - 40)
    client = TCPConnection(inside, 40000, outside.ip, 80, mss=args.imtu - 40)
    client.connect()
    world.topo.run(until=0.2)
    server.connections[0].send_bulk(args.megabytes * 1_000_000)
    world.topo.run(until=10.0)

    print(f"iMTU {args.imtu} / eMTU {args.emtu}: downloaded "
          f"{client.bytes_delivered:,} B")
    print(f"negotiated MSS (raised by PXGW): {client.send_mss}")
    print(f"jumbo segments spliced: {world.gateway.stats.merged_packets}")
    print(f"conversion yield: {world.gateway.stats.conversion_yield:.1%}")
    return 0


def _cmd_pmtud(args) -> int:
    from .net import Topology
    from .pmtud import (
        ClassicalPmtud,
        FPmtudDaemon,
        FPmtudProber,
        Plpmtud,
        ProbeEchoDaemon,
    )

    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    routers = [topo.add_router(f"r{i}", icmp_blackhole=True) for i in range(2)]
    chain = [client] + routers + [server]
    for index, mtu in enumerate([9000, 1400, 9000]):
        topo.link(chain[index], chain[index + 1], mtu=mtu, delay=0.005)
    topo.build_routes()
    FPmtudDaemon(server)
    ProbeEchoDaemon(server)

    outcomes = {}
    FPmtudProber(client).probe(server.ip, 9000,
                               lambda result: outcomes.__setitem__("f", result))
    Plpmtud(client).discover(server.ip, 9000,
                             lambda result: outcomes.__setitem__("plp", result))
    ClassicalPmtud(client).discover(server.ip, 9000,
                                    lambda result: outcomes.__setitem__("c", result))
    topo.run(until=600.0)

    f, plp, classic = outcomes["f"], outcomes["plp"], outcomes["c"]
    print("path bottleneck: 1400 B, routers are ICMP blackholes")
    print(f"F-PMTUD   : {f.pmtu} B in {f.elapsed * 1e3:.1f} ms (1 probe)")
    print(f"PLPMTUD   : {plp.pmtu} B in {plp.elapsed:.1f} s ({plp.probes_sent} probes)")
    classical_pmtu = classic.pmtu if classic.pmtu is not None else "FAILED (blackhole)"
    print(f"classical : {classical_pmtu} after {classic.elapsed:.1f} s")
    return 0


def _cmd_upf(args) -> int:
    from .cpu import XEON_6554S
    from .packet import build_udp, str_to_ip
    from .upf import Upf

    upf = Upf(n3_address=str_to_ip("10.100.0.1"))
    ue_base = str_to_ip("172.16.0.1")
    for index in range(args.flows):
        upf.sessions.create_session(
            seid=index, ue_ip=ue_base + index, uplink_teid=10_000 + index,
            gnb_teid=20_000 + index, gnb_ip=str_to_ip("10.100.0.2"),
        )
    dn = str_to_ip("93.184.216.34")
    for index in range(3000):
        upf.process(build_udp(dn, ue_base + (index % args.flows), 80, 4000,
                              payload=b"\0" * (args.mtu - 28)))
    tput = upf.account.sustainable_goodput_bps(XEON_6554S, cores=1)
    print(f"UPF @ {args.mtu} B MTU, {args.flows} sessions, 1 core: "
          f"{tput / 1e9:.1f} Gbps "
          f"({upf.account.cycles_per_packet():.0f} cycles/packet)")
    return 0


def _cmd_survey(args) -> int:
    from .pmtud import FragmentSurvey

    result = FragmentSurvey(seed=args.seed).run(args.population)
    print(f"population             : {result.population:,}")
    print(f"fragment delivery OK   : {result.fragment_success_rate:.4%}")
    print(f"last-hop filters       : {result.filtered_last_hop}")
    print(f"unresponsive           : {result.unresponsive}")
    print(f"ICMP PMTUD success     : {result.icmp_success_rate:.1%} (2018 baseline)")
    return 0


def _cmd_fig5a(args) -> int:
    from .core import Bound, GatewayConfig, GatewayDatapath
    from .cpu import XEON_6554S
    from .workload import interleave, make_tcp_sources

    def run(config):
        datapath = GatewayDatapath(config)
        down = make_tcp_sources(400, 1448, tag=Bound.INBOUND)
        up = make_tcp_sources(400, 8948, tag=Bound.OUTBOUND, base_port=30000,
                              client_net="10.1.0", server_net="198.51.100")
        rng = random.Random(1)
        datapath.process_stream(interleave(down * 6 + up, 20_000, rng, 24.0),
                                final_flush=False)
        datapath.reset_measurement()
        datapath.process_stream(interleave(down * 6 + up, 50_000, rng, 24.0),
                                final_flush=False)
        return (datapath.sustainable_throughput_bps(XEON_6554S),
                datapath.conversion_yield)

    for name, config in (
        ("baseline", GatewayConfig(baseline_gro=True, delayed_merge=False,
                                   hairpin_small_flows=False)),
        ("PX", GatewayConfig()),
        ("PX + header-only", GatewayConfig(header_only_dma=True)),
    ):
        tput, cy = run(config)
        print(f"{name:18s} {tput / 1e9:8.0f} Gbps   yield {cy:.1%}")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from .obs import run_observed_world

    world = run_observed_world(seed=args.seed)
    if args.format == "json":
        text = json.dumps(world.obs.registry.to_json(),
                          indent=2, sort_keys=True) + "\n"
    else:
        text = world.obs.registry.to_prometheus_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"{world.obs.registry.series_count()} series "
              f"({args.format}) written to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_trace(args) -> int:
    import json

    from .obs import run_observed_world

    world = run_observed_world(seed=args.seed)
    tracer = world.obs.tracer
    if args.summary:
        summary = {
            "recorded": tracer.recorded,
            "dropped": tracer.dropped,
            "kinds": tracer.kinds(),
        }
        if args.jsonl:
            print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    events = tracer.events(kind=args.kind)
    if args.since is not None:
        events = [event for event in events if event["time"] >= args.since]
    if args.limit is not None:
        events = events[max(len(events) - args.limit, 0):]
    for event in events:
        if args.jsonl:
            print(json.dumps(event, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(event, sort_keys=True))
    return 0


def _cmd_flight(args) -> int:
    import json

    from .obs import run_observed_world

    world = run_observed_world(seed=args.seed)
    recorder = world.flight
    if args.summary:
        _emit_text(json.dumps({
            "name": recorder.name,
            "counts": recorder.counts(),
            "sources": recorder.sources,
        }, indent=2, sort_keys=True), args.out, "flight summary")
        return 0
    kinds = (args.kind,) if args.kind else None
    payload = recorder.to_dict(since=args.since, until=args.until,
                               kinds=kinds)
    _emit_text(json.dumps(payload, sort_keys=True,
                          separators=(",", ":")),
               args.out, "flight dump")
    return 0


def _cmd_incident(args) -> int:
    from .obs.incident import (
        alert_trigger_bundle,
        bundle_to_json,
        oracle_trigger_bundle,
        rollback_trigger_bundle,
        run_trigger_matrix,
        shard_loss_trigger_bundle,
    )

    if args.matrix:
        bundle = run_trigger_matrix(seed=args.seed)
    else:
        builder = {
            "alert": alert_trigger_bundle,
            "rollback": rollback_trigger_bundle,
            "shard-loss": lambda seed: shard_loss_trigger_bundle(
                seed=101 + seed),
            "oracle": lambda seed: oracle_trigger_bundle(seed=101 + seed),
        }[args.trigger]
        bundle = builder(seed=args.seed)
    _emit_text(bundle_to_json(bundle, indent=args.indent or None),
               args.out, "incident bundle")
    return 0


def _emit_text(text: str, out, label: str) -> None:
    """Write an export to a file (with a note) or stdout."""
    if text and not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"{label} written to {out}")
    else:
        print(text, end="")


def _cmd_spans(args) -> int:
    import json

    from .obs import LATENCY_METRICS, run_observed_world

    world = run_observed_world(seed=args.seed)
    tracker = world.obs.spans
    if args.summary:
        text = json.dumps({
            "balance": tracker.balance(),
            "anomalies": tracker.anomalies,
            "shed": tracker.shed,
            "kinds": tracker.kinds(),
            "stages": tracker.stages(),
            "latency": {
                metric: {
                    "count": tracker.latency_count(metric),
                    "median": tracker.latency_median(metric),
                }
                for metric in sorted(LATENCY_METRICS)
            },
        }, indent=2, sort_keys=True)
    elif args.jsonl:
        text = tracker.to_jsonl(limit=args.limit)
    else:
        text = tracker.to_json(limit=args.limit, indent=2)
    _emit_text(text, args.out, "span export")
    return 0


def _cmd_timeline(args) -> int:
    from .obs import run_observed_world

    world = run_observed_world(seed=args.seed, scrape_interval=args.interval)
    if args.format == "jsonl":
        text = world.timeline.to_jsonl()
    else:
        text = world.timeline.to_json(indent=2)
    _emit_text(text, args.out, f"timeline ({world.timeline.ticks} ticks)")
    return 0


def _cmd_alerts(args) -> int:
    import json

    from .obs import run_observed_world

    world = run_observed_world(seed=args.seed)
    if args.transitions:
        text = "\n".join(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in world.alerts.transitions
        )
    else:
        text = world.alerts.to_json(indent=2)
    _emit_text(text, args.out, "alert export")
    return 0


def _cmd_resilience_report(args) -> int:
    """Exercise the resilience layer end to end and emit one JSON blob:
    gateway health transitions under chaos, the PMTU fallback chain's
    retry counters, and a caravan-negotiation round."""
    import json

    from .chaos import LinkSpec, WorldSpec, build, run_scenario
    from .core import GatewayConfig
    from .net import Topology
    from .pmtud import FPmtudDaemon, Plpmtud, ProbeEchoDaemon
    from .resilience import BackoffPolicy, CaravanNegotiator, ResilientPmtud

    # 1. A chaos scenario with the health monitor attached.
    result = run_scenario(args.profile, args.seed)

    # 2. The discovery fallback chain: a clean path (F-PMTUD wins) and
    #    a fragment blackhole (retries, then PLPMTUD) share one resolver
    #    so the counters show the whole chain.
    topo = Topology()
    client = topo.add_host("client")
    clean = topo.add_host("clean")
    dark = topo.add_host("dark")
    r0 = topo.add_router("r0")
    r1 = topo.add_router("r1", filter_fragments=True)
    topo.link(client, r0, mtu=9000, delay=0.0005)
    topo.link(r0, clean, mtu=1400, delay=0.0005)
    topo.link(r0, r1, mtu=1400, delay=0.0005)
    topo.link(r1, dark, mtu=1400, delay=0.0005)
    topo.build_routes()
    for server in (clean, dark):
        FPmtudDaemon(server)
        ProbeEchoDaemon(server)
    resolver = ResilientPmtud(
        client,
        backoff=BackoffPolicy(initial=0.05, multiplier=2.0, max_delay=0.5,
                              jitter=0.0, max_attempts=2),
        fpmtud_timeout=0.2,
        plpmtud=Plpmtud(client, probe_timeout=0.2),
    )
    outcomes = []
    resolver.discover(clean.ip, 9000, outcomes.append)
    resolver.discover(dark.ip, 9000, outcomes.append)
    topo.run(until=30.0)

    # 3. One caravan-negotiation round: a capable inside peer and a
    #    silent (un-upgraded) outside peer.
    world = build(WorldSpec(
        seed=0, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", 9000, 10e9, 1e-6),
               LinkSpec("pxgw", "outside", 1500, 10e9, 1e-6)),
        config=GatewayConfig(), inside=("inside",),
    ))
    inside, outside = world.nodes["inside"], world.nodes["outside"]
    inside.enable_caravan_stack(9000)
    negotiator = CaravanNegotiator(
        world.gateway,
        query_timeout=0.1,
        backoff=BackoffPolicy(initial=0.05, multiplier=2.0, max_delay=0.5,
                              jitter=0.0, max_attempts=2),
    )
    negotiator.allow_caravan(inside.ip, world.topo.sim.now)
    negotiator.allow_caravan(outside.ip, world.topo.sim.now)
    world.topo.run(until=2.0)

    report = {
        "scenario": {
            "profile": result.profile,
            "seed": result.seed,
            "ok": result.ok,
            "violations": result.violations,
            "faults_fired": result.faults_fired,
        },
        "health": result.notes.get("health"),
        "discovery": {
            "outcomes": [
                {"pmtu": o.pmtu, "source": o.source,
                 "fpmtud_attempts": o.fpmtud_attempts,
                 "fpmtud_timeouts": o.fpmtud_timeouts,
                 "elapsed": round(o.elapsed, 4), "trail": o.trail}
                for o in outcomes
            ],
            "counters": resolver.summary(),
        },
        "negotiation": negotiator.summary(),
    }
    print(json.dumps(report, indent=args.indent or None))
    return 0


def _cmd_attacks(args) -> int:
    import json

    from .chaos.attacks import ATTACK_SCENARIOS, run_differential

    names = [args.scenario] if args.scenario else sorted(ATTACK_SCENARIOS)
    rows = []
    for name in names:
        if name not in ATTACK_SCENARIOS:
            print(f"unknown scenario {name!r}; have {sorted(ATTACK_SCENARIOS)}",
                  file=sys.stderr)
            return 2
        hardened, unhardened = run_differential(name, args.seed)
        rows.append((name, hardened, unhardened))

    if args.json:
        payload = [
            {
                "scenario": name,
                "seed": args.seed,
                "hardened": {
                    "compromised": h.compromised,
                    "estimates": h.estimates,
                    "violations": h.violations,
                    "alerts_fired": h.alerts.get("fired", []),
                    "digest": h.digest,
                },
                "unhardened": {
                    "compromised": u.compromised,
                    "estimates": u.estimates,
                    "alerts_fired": u.alerts.get("fired", []),
                    "digest": u.digest,
                },
            }
            for name, h, u in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'scenario':26s} {'hardened':10s} {'unhardened':12s} verdict")
        for name, h, u in rows:
            h_word = "COMPROMISED" if h.compromised else "safe"
            u_word = "COMPROMISED" if u.compromised else "safe"
            defended = (not h.compromised) and (
                u.compromised or name == "benign-control")
            verdict = "defended" if defended else "NOT DEFENDED"
            print(f"{name:26s} {h_word:10s} {u_word:12s} {verdict}")
    bad = [name for name, h, u in rows
           if h.compromised or (not u.compromised and name != "benign-control")]
    return 1 if bad else 0


def _canary_evidence(report: dict) -> str:
    """One-line evidence summary for the failing stage (or '-')."""
    for stage in report["stages"]:
        if stage["status"] == "fail":
            cited = list(stage["alerts"])
            cited += [b["guardrail"] for b in stage["guardrail_breaches"]]
            return f"{stage['name']}: {', '.join(cited)}"
    return "-"


def _cmd_canary(args) -> int:
    from .ops import incident_names, run_corpus, run_incident
    from .ops.canary import report_to_json

    if args.corpus:
        corpus = run_corpus(seed=args.seed)
        if args.json:
            _emit_text(report_to_json(corpus), args.out, "canary corpus report")
        else:
            lines = [f"{'incident':34s} {'verdict':12s} {'expected':12s} "
                     f"{'evidence':44s} ok"]
            for report in corpus["incidents"]:
                lines.append(
                    f"{report['incident']:34s} {report['verdict']:12s} "
                    f"{report['expected']:12s} {_canary_evidence(report):44s} "
                    f"{'ok' if report['ok'] else 'MISMATCH'}"
                )
            _emit_text("\n".join(lines), args.out, "canary corpus table")
        return 0 if corpus["ok"] else 1

    if args.incident not in incident_names():
        print(f"unknown incident {args.incident!r}; "
              f"have {list(incident_names())}", file=sys.stderr)
        return 2
    report = run_incident(args.incident, seed=args.seed)
    if args.json:
        _emit_text(report_to_json(report), args.out, "canary report")
    else:
        lines = [
            f"incident : {report['incident']} (expected {report['expected']})",
            f"baseline : {report['baseline']['name']}",
            f"candidate: {report['candidate']['name']}",
            f"{'stage':12s} {'fraction':>8s} {'horizon':>8s} {'status':12s} "
            f"evidence",
        ]
        for stage in report["stages"]:
            cited = list(stage["alerts"])
            cited += [b["guardrail"] for b in stage["guardrail_breaches"]]
            lines.append(
                f"{stage['name']:12s} {stage['fraction']:8.0%} "
                f"{stage['observe_until']:7.1f}s {stage['status']:12s} "
                f"{', '.join(cited) if cited else '-'}"
            )
        lines.append(f"verdict  : {report['verdict']}")
        if report["rollback"] is not None:
            rollback = report["rollback"]
            lines.append(
                f"rollback : {rollback['mechanism']} "
                f"(zero_loss={rollback['zero_loss']}, "
                f"takeovers={rollback['takeovers']})"
            )
        _emit_text("\n".join(lines), args.out, "canary report")
    return 1 if report["verdict"] == "ROLLED_BACK" else 0


def _cmd_fleet(args) -> int:
    import json

    from .fleet import fleet_world_report, format_fleet_report
    from .fleet.chaos import run_loss_scenario

    try:
        worker_counts = tuple(
            int(piece) for piece in args.workers.split(",") if piece.strip()
        )
    except ValueError:
        worker_counts = ()
    if not worker_counts or min(worker_counts) < 1:
        print(f"bad --workers {args.workers!r}: need a comma-separated list "
              "of shard counts >= 1", file=sys.stderr)
        return 2
    report = fleet_world_report(
        worker_counts=worker_counts, quick=args.quick, seed=args.seed,
    )
    failures = 0
    if args.min_speedup_4 > 0:
        speedup = next((row["speedup_vs_1"] for row in report["rows"]
                        if row["shards"] == 4), None)
        if speedup is None:
            print("note: --min-speedup-4 not applied: --workers needs a "
                  "1-shard and a 4-shard row", file=sys.stderr)
        elif speedup < args.min_speedup_4:
            print(
                f"FAIL: modeled speedup at 4 shards "
                f"{speedup:.2f}x < {args.min_speedup_4}x",
                file=sys.stderr,
            )
            failures += 1

    drill_results = []
    if args.loss_drill:
        for profile, mode in (("mixed", "crash"), ("mixed", "maintenance")):
            result = run_loss_scenario(profile, args.seed, loss_mode=mode)
            drill_results.append(result)
            if not result.ok:
                failures += 1

    if args.json:
        payload = dict(report)
        if drill_results:
            payload["loss_drill"] = [
                {
                    "profile": r.profile, "loss_mode": r.loss_mode,
                    "victim": r.victim, "flows_migrated": r.flows_migrated,
                    "digest": r.digest, "ok": r.ok,
                    "violations": list(r.violations),
                }
                for r in drill_results
            ]
        _emit_text(json.dumps(payload, indent=2), args.out, "fleet report")
    else:
        lines = [format_fleet_report(report)]
        for result in drill_results:
            lines.append(
                f"loss drill ({result.loss_mode}): victim shard "
                f"{result.victim}, {result.flows_migrated} flows migrated, "
                f"{'ok' if result.ok else 'VIOLATIONS: ' + '; '.join(result.violations)}"
            )
        _emit_text("\n".join(lines), args.out, "fleet report")
    return 1 if failures else 0


_COMMANDS = {
    "gateway": _cmd_gateway,
    "fleet": _cmd_fleet,
    "attacks": _cmd_attacks,
    "canary": _cmd_canary,
    "pmtud": _cmd_pmtud,
    "upf": _cmd_upf,
    "survey": _cmd_survey,
    "fig5a": _cmd_fig5a,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "flight": _cmd_flight,
    "incident": _cmd_incident,
    "spans": _cmd_spans,
    "timeline": _cmd_timeline,
    "alerts": _cmd_alerts,
    "resilience-report": _cmd_resilience_report,
}


def main(argv: "Optional[List[str]]" = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
