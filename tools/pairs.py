"""Alternating perfbench pairs: a git ref against the working tree.

    python3 tools/pairs.py [--ref REF] [--pairs N] [--workload NAME] [--seed S]

Exports REF (default ``HEAD``) into a temporary directory with ``git
archive`` (committed files only, as a fresh checkout has them; the
repository's ``.git`` is not touched) and runs
``perfbench/run.py --rounds 1`` N times in it and N times in the working
tree, each at the benchmark's own run length.  Pair *i* runs both sides on seed S + *i*; which side goes first
alternates from pair to pair, so slow drift of the host hits both alike.
Every run compiles from source (``PYTHONDONTWRITEBYTECODE`` and an empty
``PYTHONPYCACHEPREFIX``): cached bytecode in one tree and not the other
shifts ``setup_s`` by ~25 %.

Prints, per workload and end-to-end metric, the median over REF's runs
and over the working tree's, REF's interquartile range, and in how many
pairs the working tree did better; then, per workload, every output that
must repeat exactly under one seed (``egress_sha256``, the count of failed
operations, and each metric ``perfbench/spec.py``'s ``is_exact`` names:
the modeled end-to-end metrics and the per-layer counts) that differed
between the two sides, with the number of pairs it differed in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from spec import END_TO_END, PER_LAYER, WORKLOADS, is_exact  # noqa: E402


def iqr(values) -> float:
    """Interquartile range (inclusive quartiles: defined from two values)."""
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def summarize(base_runs, change_runs, end_to_end=END_TO_END) -> list:
    """One row per (workload, metric) from paired perfbench result files.

    *base_runs* and *change_runs* are equally long lists of parsed
    ``run.py --out`` files, pair *i* at index *i*.  A row is ``(workload,
    metric, base median, change median, base IQR, wins)``; a win is a
    pair whose change value is strictly better in the metric's direction.
    """
    rows = []
    for name in base_runs[0]["workloads"]:
        for metric, declared in end_to_end.items():
            base = [run["workloads"][name]["end_to_end"][metric]["value"] for run in base_runs]
            change = [run["workloads"][name]["end_to_end"][metric]["value"]
                      for run in change_runs]
            sign = 1 if declared["better"] == "lower" else -1
            wins = sum(sign * (after - before) < 0 for before, after in zip(base, change))
            rows.append((name, metric, statistics.median(base), statistics.median(change),
                         iqr(base), wins))
    return rows


def mismatches(base_runs, change_runs, end_to_end=END_TO_END, per_layer=PER_LAYER) -> dict:
    """Per workload: each output that must repeat exactly and differed,
    mapped to the number of pairs it differed in (empty: all equal)."""
    found = {}
    for name in base_runs[0]["workloads"]:
        differed = {}
        for base, change in zip(base_runs, change_runs):
            old, new = base["workloads"][name], change["workloads"][name]
            outputs = [(key, old[key], new[key]) for key in ("egress_sha256", "failed")]
            outputs += [(metric, old["end_to_end"][metric]["value"],
                         new["end_to_end"][metric]["value"])
                        for metric in end_to_end if is_exact(metric)]
            outputs += [(metric, old["per_layer"][metric], new["per_layer"][metric])
                        for metric in per_layer if is_exact(metric)]
            for key, before, after in outputs:
                if before != after:
                    differed[key] = differed.get(key, 0) + 1
        found[name] = differed
    return found


def report(rows, differed, pairs: int) -> None:
    print(f"{'workload':<20} {'metric':<22} {'base':>11} {'change':>11} {'ratio':>7} "
          f"{'base IQR':>9}  wins")
    for name, metric, base, change, spread, wins in rows:
        ratio = change / base if base else float("nan")
        print(f"{name:<20} {metric:<22} {base:>11.4f} {change:>11.4f} {ratio:>6.3f}x "
              f"{spread:>9.4f}  {wins}/{pairs}")
    for name, outputs in differed.items():
        if not outputs:
            print(f"{name}: egress_sha256, failed and every exact metric equal "
                  f"in {pairs}/{pairs} pairs")
        for key, count in outputs.items():
            print(f"{name}: {key} differs in {count}/{pairs} pairs")


def run(tree: str, workload, seed: int, out: str, env: dict) -> dict:
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--rounds", "1", "--seed", str(seed), "--out", out]
    if workload:
        command += ["--workload", workload]
    # run.py exits 1 when an output check fails; its result file still says which.
    subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, check=False)
    with open(out) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="the base side (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="pair i runs on seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (an IQR needs two runs)")

    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        base_tree = os.path.join(scratch, "base")
        os.mkdir(base_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.ref],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=os.path.join(scratch, "no-pycache"))
        env.pop("PYTHONPATH", None)  # run.py finds each tree's own src/
        sides = {"base": (base_tree, []), "change": (ROOT, [])}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                tree, results = sides[side]
                out = os.path.join(scratch, f"{side}-{pair}.json")
                results.append(run(tree, args.workload, args.seed + pair, out, env))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        base_runs, change_runs = sides["base"][1], sides["change"][1]
    print(f"{args.ref} (base) against the working tree, {args.pairs} pairs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    report(summarize(base_runs, change_runs), mismatches(base_runs, change_runs), args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
