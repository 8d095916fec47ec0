"""``tools/pairs.py``'s summary arithmetic on canned perfbench results."""

import runpy
from pathlib import Path

import pytest

PAIRS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "pairs.py"))

END_TO_END = {"cpu_us_per_pkt": {"better": "lower"}, "wall_kpps": {"better": "higher"},
              "modeled_gbps": {"better": "higher"}}
# a count (exact) and a host timing (not exact), as perfbench/spec.py tells them apart
PER_LAYER = {"core.conversion_yield": {}, "run.timed_s": {}}


def result(cpu, kpps, gbps=10.5, sha="aa", failed=0, conversion=0.94, timed=9.0):
    """A ``run.py --out`` file reduced to what the summary reads."""
    values = {"cpu_us_per_pkt": cpu, "wall_kpps": kpps, "modeled_gbps": gbps}
    return {"workloads": {"fleet_city": {
        "egress_sha256": [sha], "failed": failed,
        "end_to_end": {metric: {"value": value} for metric, value in values.items()},
        "per_layer": {"core.conversion_yield": conversion, "run.timed_s": timed}}}}


BASE = [result(2.0, 400), result(2.4, 380), result(2.2, 390), result(2.6, 370)]
CHANGE = [result(1.9, 410), result(2.5, 420), result(2.0, 390), result(2.1, 400, sha="bb")]


def test_medians_iqr_and_wins_follow_each_metrics_direction():
    rows = {row[1]: row[2:] for row in PAIRS["summarize"](BASE, CHANGE, END_TO_END)}
    # base 2.0 2.2 2.4 2.6: median 2.3, inclusive quartiles 2.15 and 2.45
    base, change, spread, wins = rows["cpu_us_per_pkt"]
    assert (base, change, wins) == (2.3, 2.05, 3)
    assert spread == pytest.approx(0.3)
    # higher is better; the tie in pair 3 is no win; quartiles 377.5 and 392.5
    assert rows["wall_kpps"] == (385.0, 405.0, pytest.approx(15.0), 3)
    assert rows["modeled_gbps"][3] == 0


def test_mismatches_count_pairs_per_exact_output():
    def mismatches(change):
        return PAIRS["mismatches"](BASE, change, END_TO_END, PER_LAYER)["fleet_city"]

    assert mismatches(CHANGE) == {"egress_sha256": 1}
    drifted = [result(2.0, 400, gbps=10.6, conversion=0.93)] + CHANGE[1:3] + [
        result(2.1, 400, sha="bb", failed=1, conversion=0.93)]
    assert mismatches(drifted) == {"modeled_gbps": 1, "core.conversion_yield": 2,
                                   "egress_sha256": 1, "failed": 1}
    # host timings may move; wall-clock end-to-end metrics are not compared either
    assert mismatches([result(2.0, 400, timed=8.0)] + BASE[1:]) == {}


def test_iqr_of_two_runs_is_their_distance():
    assert PAIRS["iqr"]([1.0, 3.0]) == pytest.approx(1.0)
