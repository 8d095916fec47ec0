"""Smoke and schema tests for the microbenchmark harness."""

import json
import os
import subprocess
import sys

import pytest

from repro.perf.bench import BENCH_SCHEMA, bench_names, run_benchmarks, write_report
from repro.perf.compare import compare_reports, load_report, validate_report

_HERE = os.path.dirname(__file__)
_REPO = os.path.dirname(os.path.dirname(_HERE))


def test_bench_names_cover_the_required_catalog():
    names = bench_names()
    assert len(names) >= 6
    for required in ("gateway_world", "checksum", "merge_split", "upf_pipeline"):
        assert required in names


def test_quick_run_produces_valid_schema():
    report = run_benchmarks(quick=True, reps=1, only=["checksum", "packet_parse"])
    validate_report(report)
    assert report["schema"] == BENCH_SCHEMA
    rows = {row["bench"]: row for row in report["results"]}
    assert set(rows) == {"checksum", "packet_parse"}
    for row in rows.values():
        assert row["pkts_per_sec"] > 0
        assert row["ns_per_pkt"] > 0
        assert row["packets"] > 0
        assert row["p95_ns_per_pkt"] >= 0


def test_write_report_round_trips(tmp_path):
    report = run_benchmarks(quick=True, reps=1, only=["checksum"])
    out = tmp_path / "bench.json"
    write_report(report, str(out))
    assert load_report(str(out)) == report


def test_committed_artifacts_validate_and_show_speedup():
    baseline = load_report(os.path.join(_REPO, "BENCH_pr3_baseline.json"))
    current = load_report(os.path.join(_REPO, "BENCH_pr3.json"))
    rows = {r["bench"]: r["pkts_per_sec"] for r in current["results"]}
    base = {r["bench"]: r["pkts_per_sec"] for r in baseline["results"]}
    assert len(rows) >= 6
    # The PR's headline acceptance: the end-to-end gateway bench runs
    # at least 1.5x the pre-PR datapath under identical conditions.
    assert rows["gateway_world"] >= 1.5 * base["gateway_world"]


def test_compare_flags_regressions():
    base = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "a", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
            {"bench": "b", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
        ],
    }
    new = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "a", "pkts_per_sec": 65.0, "ns_per_pkt": 2e7, "reps": 3},
            {"bench": "b", "pkts_per_sec": 95.0, "ns_per_pkt": 1.1e7, "reps": 3},
            {"bench": "new-only", "pkts_per_sec": 1.0, "ns_per_pkt": 1e9, "reps": 3},
        ],
    }
    results = {r.bench: r for r in compare_reports(base, new, threshold=0.30)}
    assert results["a"].regressed  # 0.65x < 0.70x floor
    assert not results["b"].regressed
    assert "new-only" not in results  # new benches never fail the gate


def test_compare_flags_dropped_benchmarks_as_failures():
    base = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "a", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
            {"bench": "b", "pkts_per_sec": 200.0, "ns_per_pkt": 5e6, "reps": 3},
        ],
    }
    new = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "a", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
        ],
    }
    results = {r.bench: r for r in compare_reports(base, new, threshold=0.30)}
    assert set(results) == {"a", "b"}
    assert not results["a"].regressed
    dropped = results["b"]
    assert dropped.missing and dropped.regressed
    assert dropped.new_pps == 0.0 and dropped.ratio == 0.0
    assert "MISSING" in dropped.line()
    assert "MISSING" not in results["a"].line()


def test_compare_still_requires_common_benchmarks():
    base = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "a", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
        ],
    }
    new = {
        "schema": BENCH_SCHEMA,
        "results": [
            {"bench": "z", "pkts_per_sec": 100.0, "ns_per_pkt": 1e7, "reps": 3},
        ],
    }
    with pytest.raises(ValueError, match="no common benchmarks"):
        compare_reports(base, new)


def test_validate_rejects_malformed_reports():
    with pytest.raises(ValueError):
        validate_report({"schema": "bogus/9", "results": []})
    with pytest.raises(ValueError):
        validate_report({"schema": BENCH_SCHEMA, "results": []})
    with pytest.raises(ValueError):
        validate_report(
            {
                "schema": BENCH_SCHEMA,
                "results": [{"bench": "a", "pkts_per_sec": -1.0,
                             "ns_per_pkt": 1.0, "reps": 3}],
            }
        )
    with pytest.raises(ValueError):
        validate_report(
            {
                "schema": BENCH_SCHEMA,
                "results": [
                    {"bench": "a", "pkts_per_sec": 1.0, "ns_per_pkt": 1.0, "reps": 3},
                    {"bench": "a", "pkts_per_sec": 2.0, "ns_per_pkt": 1.0, "reps": 3},
                ],
            }
        )


def test_cli_bench_quick_subset(tmp_path):
    out = tmp_path / "bench_cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--quick", "--reps", "1",
         "--only", "checksum", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(_REPO, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["results"][0]["bench"] == "checksum"


def test_bench_names_cover_the_batched_catalog():
    # PR 8 additions: the offline-datapath bench and the event wheel
    # churn bench must stay in the catalog (dropping one is how a
    # deleted fast path escapes the regression gate).
    names = bench_names()
    for required in ("gateway_stream", "event_wheel"):
        assert required in names


def test_profile_benchmark_is_deterministic_and_well_formed():
    from repro.perf import format_profile, profile_benchmark

    first = profile_benchmark("event_wheel", quick=True, top=10)
    second = profile_benchmark("event_wheel", quick=True, top=10)
    assert first["bench"] == "event_wheel"
    assert first["packets"] > 0
    assert 0 < len(first["rows"]) <= 10
    for row in first["rows"]:
        assert set(row) == {"ncalls", "tottime", "cumtime", "function"}
        assert row["ncalls"] >= 1
    # The workload is seeded: call counts replay exactly.  Row *order*
    # is cumtime-sorted (a timing, not a count), so compare the
    # name -> ncalls map over the rows both runs ranked.
    first_counts = {r["function"]: r["ncalls"] for r in first["rows"]}
    second_counts = {r["function"]: r["ncalls"] for r in second["rows"]}
    shared = set(first_counts) & set(second_counts)
    assert shared, "no overlap between two profiles of the same seeded bench"
    for name in shared:
        assert first_counts[name] == second_counts[name], name
    text = format_profile(first)
    assert "event_wheel" in text and "cumtime" in text


def test_speedup_table_renders_measured_rows_only():
    from repro.perf.compare import CompareResult, speedup_table

    rows = [
        CompareResult(bench="a", base_pps=100.0, new_pps=200.0, ratio=2.0,
                      regressed=False, base_ns=10_000_000.0, new_ns=5_000_000.0),
        CompareResult(bench="gone", base_pps=100.0, new_pps=0.0, ratio=0.0,
                      regressed=True, missing=True),
    ]
    table = speedup_table(rows)
    assert "| a |" in table and "2.00x" in table
    assert "gone" not in table  # missing benches are gate failures, not rows


def test_compare_line_reports_speedup_column():
    from repro.perf.compare import CompareResult

    result = CompareResult(bench="a", base_pps=100.0, new_pps=150.0,
                           ratio=1.5, regressed=False)
    assert "speedup" in result.line() and "1.50x" in result.line()
