"""perfbench: how fast the program runs, and what the modeled gateway does.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--rounds R] [--trace 0|1] [--out FILE]

One run measures each selected workload for about ``--seconds`` seconds,
cut into ``--rounds`` rounds.  Every (workload, round) is a fresh child
process (``child.py``), one at a time, round-robin over the workloads so
slow host drift hits them alike; a reported value is the median over
rounds, and chunk percentiles pool every round's chunks.  With
``--trace 1`` one more, smaller round per workload runs under cProfile
for the per-layer table; end-to-end metrics never come from it.

Two axes, never mixed: *host* metrics (how fast this Python runs here;
noisy) and *modeled* metrics (what the cycle-accounted gateway would do;
they repeat exactly).  Outputs are verified before a number is printed.
For each workload the run prints a table and then one JSON object on one
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from host import calibration_ns, fingerprint
from spec import BENCHMARK, END_TO_END, PER_LAYER, ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PLAIN, OBSERVED = "border_tcp_world", "border_tcp_observed"
#: The traced round is this fraction of an untraced one: cProfile costs
#: about 3.5x, and layer shares and call counts need no more.
TRACED_SHARE = 1 / 3
#: A round whose calibration loop ran this much slower than the
#: invocation's best is flagged noisy (reported, never dropped).
NOISY = 1.10


def calibrate() -> float:
    """The host-noise canary run between children (~30 ms)."""
    return calibration_ns(60_000)


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              host_ns_per_iteration: float) -> dict:
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "host_ns_per_iteration": host_ns_per_iteration, "spawned_at": time.time()}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: {workload} round failed (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


class Cost:
    """Scaled time per gateway packet of some chunks: (wall ns, cpu ns, packets)."""

    def __init__(self, chunks, children_cpu_s: float = 0.0):
        self.packets = sum(packets for _, _, packets in chunks)
        self.wall_s = sum(wall for wall, _, _ in chunks) / 1e9
        self.cpu_s = sum(cpu for _, cpu, _ in chunks) / 1e9 + children_cpu_s
        self.per_packet_us = [wall / packets / 1e3 for wall, _, packets in chunks if packets]

    @property
    def wall_kpps(self) -> float:
        return self.packets / self.wall_s / 1e3

    @property
    def cpu_us_per_pkt(self) -> float:
        return self.cpu_s * 1e6 / self.packets


def best_of(rounds: list) -> Cost:
    """Each chunk position's fastest reading over the rounds.

    Every round of a workload runs identical work (same seed, same
    chunks), and interference only ever slows a chunk down, so the
    minimum per position filters bursts that a median over three rounds
    lets through: round-to-round variation of `fleet_city` fell from
    4.6 % to 1.2 % with it.
    """
    positions = zip(*(r["chunks"] for r in rounds))
    chunks = [(min(c[0] for c in position), min(c[1] for c in position), position[0][2])
              for position in positions]
    return Cost(chunks, min(r["children_cpu_s"] for r in rounds))


def summarize(name: str, rounds: list, traced, plain_rounds: list, drift: float) -> dict:
    """Fold one workload's rounds into named metrics and a verdict."""
    each = [Cost(r["chunks"], r["children_cpu_s"]) for r in rounds]
    best = best_of(rounds)
    pooled = sorted(us for cost in each for us in cost.per_packet_us)

    def entry(value, per_round):
        return {"value": value, "rounds": per_round}

    end_to_end = {
        "setup_s": entry(statistics.median(r["setup_s"] for r in rounds),
                         [r["setup_s"] for r in rounds]),
        "wall_kpps": entry(best.wall_kpps, [cost.wall_kpps for cost in each]),
        "cpu_us_per_pkt": entry(best.cpu_us_per_pkt, [cost.cpu_us_per_pkt for cost in each]),
        "chunk_us_per_pkt_p50": entry(
            statistics.median(best.per_packet_us),
            [statistics.median(cost.per_packet_us) for cost in each]),
        "peak_rss_mb": entry(statistics.median(r["peak_rss_mb"] for r in rounds),
                             [r["peak_rss_mb"] for r in rounds]),
        "modeled_gbps": entry(rounds[0]["modeled_gbps"],
                              [r["modeled_gbps"] for r in rounds]),
    }

    per_layer = {
        counter: statistics.median(r["counters"][counter] for r in rounds)
        for counter in rounds[0]["counters"]
    }
    per_layer.update({
        "core.conversion_yield": rounds[0]["conversion_yield"],
        "run.chunk_us_per_pkt_p95": percentile(pooled, 0.95),
        "run.timed_s": statistics.median(cost.wall_s for cost in each),
        "run.gc_collections": statistics.median(r["gc_collections"] for r in rounds),
        "run.generator_s": statistics.median(r["generator_s"] for r in rounds),
        "host.calib_drift": drift,
        "host.speed_ratio": statistics.median(r["host_speed"] for r in rounds),
    })
    if name == OBSERVED and plain_rounds:
        per_layer["obs.overhead_ratio"] = (
            best.cpu_us_per_pkt / best_of(plain_rounds).cpu_us_per_pkt)
    if traced is not None:
        cost = Cost(traced["chunks"], traced["children_cpu_s"])
        total_s = sum(row["self_s"] for row in traced["layers"].values())
        for layer, row in traced["layers"].items():
            per_layer[f"{layer}.self_us_per_pkt"] = (
                row["self_s"] * 1e6 / cost.packets / traced["host_speed"])
            per_layer[f"{layer}.self_share"] = row["self_s"] / total_s
            per_layer[f"{layer}.calls_per_pkt"] = row["calls"] / cost.packets
        per_layer["all.calls_per_pkt"] = traced["total_calls"] / cost.packets
        per_layer["trace.overhead_ratio"] = cost.cpu_us_per_pkt / best.cpu_us_per_pkt

    # Same seed, same inputs: every round must do the same work, emit the
    # same bytes and the same modeled figures, or something is not
    # deterministic and no number above means anything.
    repeats = len({
        (r["egress_sha256"], r["modeled_gbps"], r["conversion_yield"],
         tuple(packets for _, _, packets in r["chunks"]))
        for r in rounds
    }) == 1
    checked = rounds + ([traced] if traced is not None else [])
    attempted = sum(a for r in checked for a, _ in r["checks"].values())
    failed = sum(f for r in checked for _, f in r["checks"].values())
    return {
        "why": WORKLOADS[name],
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "egress_sha256": sorted({r["egress_sha256"] for r in rounds}),
        "chunk_samples": len(pooled),
        "end_to_end": end_to_end,
        # 0 where a metric does not apply to the workload (no simulator,
        # no fleet, layer not exercised).
        "per_layer": {metric: per_layer.get(metric, 0) for metric in PER_LAYER},
        "rounds": [
            {"noisy": r["noisy"], "host_speed": r["host_speed"],
             "raw_setup_s": r["raw_setup_s"], "raw_timed_wall_s": r["raw_timed_wall_s"],
             "gateway_packets": cost.packets}
            for r, cost in zip(rounds, each)
        ],
    }


def report(name: str, summary: dict, trace: bool) -> None:
    noisy = [index for index, r in enumerate(summary["rounds"]) if r["noisy"]]
    print(f"== {name}: {summary['why']}")
    print(f"   closed loop; {summary['chunk_samples']} chunk samples; "
          f"failed {summary['failed']}/{summary['attempted']}; "
          f"egress_sha256 {' != '.join(d[:16] for d in summary['egress_sha256'])}"
          + (f"; noisy rounds {noisy}" if noisy else ""))
    for metric, declared in END_TO_END.items():
        entry = summary["end_to_end"][metric]
        rounds = "  ".join(f"{value:.4g}" for value in entry["rounds"])
        print(f"   {metric:<28} {entry['value']:>12.4f} {declared['unit']:<8} {rounds}")
    if trace:
        for metric, declared in PER_LAYER.items():
            value = summary["per_layer"][metric]
            if value:
                print(f"   {metric:<36} {value:>12.4f} {declared['unit']}")
        metrics = {metric: {"value": summary["per_layer"][metric], "unit": declared["unit"]}
                   for metric, declared in PER_LAYER.items()}
    else:
        metrics = {metric: {"value": summary["end_to_end"][metric]["value"],
                            "unit": declared["unit"]}
                   for metric, declared in END_TO_END.items()}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="timed seconds per workload, over all rounds")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro is missing; there is no program to measure",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    # obs.overhead_ratio needs the plain world next to the observed one
    # in every round; bring it along when it was not asked for.
    order = list(names)
    if args.trace and OBSERVED in names and PLAIN not in names:
        order.insert(order.index(OBSERVED), PLAIN)

    host = fingerprint()
    per_round = args.seconds / args.rounds
    rounds = {name: [] for name in order}
    traced = {}
    calibrations = [calibrate()]

    def measure(name: str, seconds: float, trace: bool) -> dict:
        result = run_child(name, args.seed, seconds, trace, calibrations[-1])
        calibrations.append(calibrate())
        result["calibration"] = max(calibrations[-2:])
        return result

    for _ in range(args.rounds):
        for name in order:
            rounds[name].append(measure(name, per_round, False))
    if args.trace:
        for name in names:
            traced[name] = measure(name, per_round * TRACED_SHARE, True)
    best = min(calibrations)
    drift = max(calibrations) / best
    for results in rounds.values():
        for result in results:
            result["noisy"] = result["calibration"] > NOISY * best

    summaries = {}
    for name in names:
        summaries[name] = summarize(name, rounds[name], traced.get(name),
                                    rounds.get(PLAIN, []), drift)
        report(name, summaries[name], bool(args.trace))

    if traced:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for name, result in traced.items():
        with open(os.path.join(HERE, "out", f"trace-{name}.json"), "w") as handle:
            json.dump({"workload": name, "seed": args.seed,
                       "layers": result["layers"], "total_calls": result["total_calls"],
                       "gateway_packets": sum(c[2] for c in result["chunks"]),
                       "spans": result["spans"]}, handle, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": "perfbench/1", "seed": args.seed,
                       "seconds": args.seconds, "rounds": args.rounds,
                       "loop": "closed", "host": host,
                       "calibration_ns_per_iteration": calibrations,
                       "workloads": summaries}, handle, indent=1)
            handle.write("\n")
    return 0 if all(summary["correct"] for summary in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
