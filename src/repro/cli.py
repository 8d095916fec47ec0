"""Command-line interface: quick demos without writing any code.

::

    python -m repro gateway            # b-network border demo
    python -m repro pmtud              # F-PMTUD vs baselines on one path
    python -m repro upf --mtu 9000     # single-core UPF throughput
    python -m repro survey -n 100000   # fragment-delivery survey
    python -m repro fig5a              # the headline PXGW numbers
    python -m repro obs metrics        # observed world -> Prometheus text
    python -m repro obs trace --format summary  # -> flow-trace counts
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


#: ``repro obs WHAT``: for each export, its help line and its
#: ``--format`` choices (the first is the default), each with the
#: filters it takes.  Every WHAT takes ``--out`` and ``--format``; a
#: filter the chosen format does not list is a usage error.
_OBS = {
    "metrics": ("the metric registry", {"prometheus": (), "json": ()}),
    "trace": ("the flow trace, one event per line",
              {"lines": ("kind", "since", "limit"),
               "jsonl": ("kind", "since", "limit"), "summary": ()}),
    "spans": ("the finished lifecycle spans",
              {"json": ("limit",), "jsonl": ("limit",), "summary": ()}),
    "flight": ("the black-box flight-recorder window (spans, trace events, "
               "metric deltas, alert transitions, merged in sim time)",
               {"json": ("kind", "since", "until"), "summary": ()}),
    "timeline": ("the in-sim telemetry timeline (windowed per-series deltas)",
                 {"json": ("interval",), "jsonl": ("interval",)}),
    "alerts": ("the SLO alert rules, or (jsonl) their sim-time transitions",
               {"json": (), "jsonl": ()}),
}

#: The filters, each declared once.
_OBS_FILTERS = {
    "kind": dict(default=None, help="only entries of this kind"),
    "since": dict(type=float, default=None,
                  help="only entries at or after this sim time"),
    "until": dict(type=float, default=None,
                  help="only entries at or before this sim time"),
    "limit": dict(type=_count, default=None,
                  help="only the last N entries"),
    "interval": dict(type=_positive, default=0.05,
                     help="sim-seconds between scrapes"),
}


class _ObsExport(argparse.ArgumentParser):
    """The parser of one ``repro obs WHAT``.

    Beyond argparse's own checks it rejects a filter the chosen
    ``--format`` does not take, and a ``--kind`` the WHAT does not
    record.  The kinds live in :mod:`repro.obs`, which is imported only
    when a ``--kind`` is given, so building the parser stays cheap.
    """

    def __init__(self, *args, what, formats, **kwargs):
        super().__init__(*args, **kwargs)
        self.what = what
        self.formats = formats

    def parse_known_args(self, args, namespace):
        namespace, extras = super().parse_known_args(args, namespace)
        taken = self.formats[namespace.format]
        for name, spec in _OBS_FILTERS.items():
            if name not in taken and getattr(namespace, name) != spec["default"]:
                self.error(f"argument --{name}: not taken by "
                           f"--format {namespace.format}")
        if namespace.kind is not None:
            from .obs.codec import EVENTS
            from .obs.flight import _SOURCE_ORDER

            kinds = {"trace": EVENTS, "flight": _SOURCE_ORDER}[self.what]
            if namespace.kind not in kinds:
                self.error(f"argument --kind: invalid choice: "
                           f"{namespace.kind!r} (choose from "
                           f"{', '.join(map(repr, kinds))})")
        return namespace, extras


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

    obs = commands.add_parser(
        "obs", help="run the observed world, print one export")
    exports = obs.add_subparsers(dest="what", metavar="WHAT", required=True,
                                 parser_class=_ObsExport)
    for what, (summary, formats) in _OBS.items():
        export = exports.add_parser(what, help=summary, what=what,
                                    formats=formats)
        # A filter this WHAT does not take reads as its default.
        export.set_defaults(**{name: spec["default"]
                               for name, spec in _OBS_FILTERS.items()})
        export.add_argument("--out", default=None,
                            help="write the export here instead of stdout")
        export.add_argument("--format", choices=tuple(formats),
                            default=next(iter(formats)))
        for name in _OBS_FILTERS:
            if any(name in filters for filters in formats.values()):
                export.add_argument(f"--{name}", **_OBS_FILTERS[name])

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


def _cmd_obs(args) -> int:
    """Print one observability export: the observed world is built once
    per call."""
    import json

    from .obs import LATENCY_METRICS, run_observed_world

    what, fmt = args.what, args.format
    world = run_observed_world(scrape_interval=args.interval)
    label = f"{what} ({fmt})"
    if what == "metrics":
        registry = world.obs.registry
        if fmt == "json":
            text = json.dumps(registry.to_json(), indent=2, sort_keys=True)
        else:
            text = registry.to_prometheus_text()
    elif what == "trace":
        tracer = world.obs.tracer
        if fmt == "summary":
            text = json.dumps({
                "recorded": tracer.recorded,
                "dropped": tracer.dropped,
                "kinds": tracer.kinds(),
            }, indent=2, sort_keys=True)
        else:
            events = tracer.events(kind=args.kind)
            if args.since is not None:
                events = [event for event in events
                          if event["time"] >= args.since]
            if args.limit is not None:
                events = events[max(len(events) - args.limit, 0):]
            separators = (",", ":") if fmt == "jsonl" else None
            text = "\n".join(
                json.dumps(event, sort_keys=True, separators=separators)
                for event in events
            )
    elif what == "spans":
        tracker = world.obs.spans
        if fmt == "summary":
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
        elif fmt == "jsonl":
            text = tracker.to_jsonl(limit=args.limit)
        else:
            text = tracker.to_json(limit=args.limit, indent=2)
    elif what == "flight":
        recorder = world.flight
        if fmt == "summary":
            text = json.dumps({
                "name": recorder.name,
                "counts": recorder.counts(),
                "sources": recorder.sources,
            }, indent=2, sort_keys=True)
        else:
            kinds = (args.kind,) if args.kind else None
            text = json.dumps(
                recorder.to_dict(since=args.since, until=args.until,
                                 kinds=kinds),
                sort_keys=True, separators=(",", ":"))
    elif what == "timeline":
        if fmt == "jsonl":
            text = world.timeline.to_jsonl()
        else:
            text = world.timeline.to_json(indent=2)
        label = f"timeline ({world.timeline.ticks} ticks)"
    else:  # alerts
        if fmt == "jsonl":
            text = "\n".join(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                for event in world.alerts.transitions
            )
        else:
            text = world.alerts.to_json(indent=2)
    _emit_text(text, args.out, label)
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
    "pmtud": _cmd_pmtud,
    "upf": _cmd_upf,
    "survey": _cmd_survey,
    "fig5a": _cmd_fig5a,
    "obs": _cmd_obs,
    "resilience-report": _cmd_resilience_report,
}


def main(argv: "Optional[List[str]]" = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
