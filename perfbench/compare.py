"""Compare two perfbench result files: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric): base, new, new/base, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``within``     — not worse than the base by more than the bound;
* ``worse``      — worse by more than the bound;
* ``unresolved`` — not worse, but the spread between either side's own
  rounds is wider than the bound, so "unchanged" cannot be claimed
  (unless every round of the new side beats every round of the base);
* ``exact`` / ``differs`` — modeled metrics, which must not move at all.

Exits non-zero on any ``worse`` or ``differs`` row, on any rise in failed
operations, and on any difference in an exact per-layer count or in
``egress_sha256``.  Both files must come from the same seed and size.
"""

from __future__ import annotations

import json
import sys

from spec import END_TO_END, PER_LAYER, is_exact


def spread(entry: dict) -> float:
    """(max - min) of a metric's per-round values over its reported value."""
    return (max(entry["rounds"]) - min(entry["rounds"])) / entry["value"]


def verdict(metric: str, base: dict, new: dict) -> str:
    declared = END_TO_END[metric]
    if is_exact(metric):
        return "exact" if base["value"] == new["value"] else "differs"
    lower = declared["better"] == "lower"
    worse_by = (new["value"] - base["value"]) / base["value"] * (1 if lower else -1)
    if worse_by > declared["bound"]:
        return "worse"
    if max(spread(base), spread(new)) > declared["bound"]:
        base_rounds, new_rounds = base["rounds"], new["rounds"]
        clear_win = (max(new_rounds) < min(base_rounds) if lower
                     else min(new_rounds) > max(base_rounds))
        if not clear_win:
            return "unresolved"
    return "within"


def compare(base: dict, new: dict) -> int:
    """Print the table; return the number of blocking findings."""
    problems = 0
    for key in ("seed", "seconds", "rounds"):
        if base[key] != new[key]:
            print(f"not comparable: {key} is {base[key]} in the base and {new[key]} in the new file")
            return 1
    print(f"{'workload':<20} {'metric':<22} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for name, old in base["workloads"].items():
        now = new["workloads"].get(name)
        if now is None:
            print(f"{name:<20} missing from the new file")
            problems += 1
            continue
        for metric in END_TO_END:
            before, after = old["end_to_end"][metric], now["end_to_end"][metric]
            result = verdict(metric, before, after)
            problems += result in ("worse", "differs")
            print(f"{name:<20} {metric:<22} {before['value']:>12.4f} {after['value']:>12.4f} "
                  f"{after['value'] / before['value']:>8.3f}x  {result}")
        if now["failed"] > old["failed"]:
            print(f"{name:<20} failed operations rose: {old['failed']} -> {now['failed']} "
                  f"of {now['attempted']}")
            problems += 1
        if old["egress_sha256"] != now["egress_sha256"]:
            print(f"{name:<20} egress_sha256 differs: {old['egress_sha256']} -> "
                  f"{now['egress_sha256']}")
            problems += 1
        for metric in PER_LAYER:
            before, after = old["per_layer"][metric], now["per_layer"][metric]
            if is_exact(metric) and before != after:
                print(f"{name:<20} exact count {metric} differs: {before} -> {after}")
                problems += 1
    return problems


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base = json.load(handle)
    with open(argv[2]) as handle:
        new = json.load(handle)
    problems = compare(base, new)
    print(f"{problems} blocking finding(s)" if problems else "no blocking findings")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
