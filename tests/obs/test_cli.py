"""CLI coverage for `repro obs WHAT`: the six observability exports
behind one verb, and the usage errors its table of formats and filters
implies."""

import json

import pytest

from repro.cli import main
from repro.obs import SpanTracker


def test_metrics_prometheus_to_stdout(capsys):
    assert main(["obs", "metrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE px_gateway_rx_packets_total counter" in out
    assert 'px_gateway_rx_packets_total{gateway="pxgw"}' in out
    assert "# TYPE px_gateway_inbound_packet_bytes histogram" in out


def test_metrics_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "metrics.json"
    assert main(["obs", "metrics", "--format", "json", "--out", str(out_path)]) == 0
    assert "written to" in capsys.readouterr().out
    dump = json.loads(out_path.read_text())
    names = {entry["name"] for entry in dump["series"]}
    assert "px_gateway_rx_packets_total" in names
    assert "px_pmtud_probes_sent_total" in names


def test_trace_summary(capsys):
    assert main(["obs", "trace", "--format", "summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["recorded"] > 0
    assert summary["kinds"]["caravan-built"] == 2


def test_trace_filtered_events_are_json_lines(capsys):
    assert main(["obs", "trace", "--kind", "pmtud-report", "--limit", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert event["kind"] == "pmtud-report"
        assert event["pmtu"] == 1500


def test_trace_jsonl_events_are_compact_lines(capsys):
    assert main(["obs", "trace", "--kind", "pmtud-report", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        assert ": " not in line and ", " not in line  # compact separators
        assert json.loads(line)["kind"] == "pmtud-report"


def test_spans_summary(capsys):
    assert main(["obs", "spans", "--format", "summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    balance = summary["balance"]
    assert balance["opened"] == balance["closed"] + balance["dropped"]
    assert summary["anomalies"] == 0
    assert summary["kinds"]["merged"] > 0
    assert summary["latency"]["px_gateway_residency_seconds"]["count"] > 0


def test_spans_export_and_jsonl(tmp_path, capsys):
    out_path = tmp_path / "spans.json"
    assert main(["obs", "spans", "--out", str(out_path), "--limit", "10"]) == 0
    assert "written to" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert len(doc["spans"]) == 10
    assert main(["obs", "spans", "--format", "jsonl", "--limit", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("sid" in json.loads(line) for line in lines)


def test_timeline_json_and_jsonl(tmp_path, capsys):
    out_path = tmp_path / "timeline.json"
    assert main(["obs", "timeline", "--out", str(out_path)]) == 0
    note = capsys.readouterr().out
    assert "ticks" in note and "written to" in note
    doc = json.loads(out_path.read_text())
    assert doc["ticks"] > 20
    assert doc["samples"]
    assert main(["obs", "timeline", "--format", "jsonl", "--interval", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])["timeline"]
    assert header["interval"] == 0.5
    assert len(lines) == 1 + header["ticks"]


def test_timeline_is_byte_identical_across_invocations(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["obs", "timeline", "--out", str(first)]) == 0
    assert main(["obs", "timeline", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_alerts_default_and_transitions(tmp_path, capsys):
    assert main(["obs", "alerts"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in doc["rules"]} >= {"merge-ratio-floor"}
    assert doc["evaluations"] > 0
    out_path = tmp_path / "alerts.jsonl"
    assert main(["obs", "alerts", "--format", "jsonl", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines
    assert all(json.loads(line)["rule"] for line in lines)


def test_flight_summary(capsys):
    assert main(["obs", "flight", "--format", "summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["name"] == "world"
    assert summary["sources"] == {"spans": True, "tracer": True,
                                  "timeline": True, "alerts": True}
    assert summary["counts"]["span"] > 0


def test_flight_dump_windowed_and_compact(tmp_path, capsys):
    out_path = tmp_path / "flight.json"
    assert main(["obs", "flight", "--since", "0.3", "--until", "0.301",
                 "--kind", "trace", "--out", str(out_path)]) == 0
    assert "written to" in capsys.readouterr().out
    dump = json.loads(out_path.read_text())
    assert dump["schema"] == "repro-flight/1"
    assert dump["window"] == {"since": 0.3, "until": 0.301}
    assert dump["entries"]
    assert all(e["kind"] == "trace" and 0.3 <= e["time"] <= 0.301
               for e in dump["entries"])


def test_flight_dump_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["obs", "flight", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_since_filters_by_sim_time(capsys):
    assert main(["obs", "trace", "--since", "0.3", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(json.loads(line)["time"] >= 0.3 for line in lines)
    capsys.readouterr()
    assert main(["obs", "trace", "--format", "jsonl"]) == 0
    all_lines = capsys.readouterr().out.strip().splitlines()
    assert len(all_lines) > len(lines)


@pytest.mark.parametrize("verb", ["trace", "spans"])
def test_limit_zero_prints_nothing(verb, capsys):
    assert main(["obs", verb, "--limit", "0", "--format", "jsonl"]) == 0
    assert capsys.readouterr().out == ""


def test_limit_zero_exports_no_spans():
    spans = SpanTracker()
    for at in (0.0, 0.5, 1.0):
        spans.sync(at, at + 0.25, "forward")
    assert json.loads(spans.to_json(limit=0))["spans"] == []
    assert spans.to_jsonl(limit=0) == ""
    assert [json.loads(line)["sid"] for line in spans.to_jsonl(limit=2).splitlines()] == [1, 2]
    with pytest.raises(ValueError):
        spans.to_jsonl(limit=-1)


@pytest.mark.parametrize("verb, args", [
    ("trace", ["--limit", "-1"]),
    ("spans", ["--limit", "-1"]),
    ("timeline", ["--interval", "0"]),
    ("timeline", ["--interval", "-1"]),
    ("flight", ["--kind", "bogus"]),
], ids=["trace", "spans", "timeline-zero", "timeline-negative", "flight-kind"])
def test_negative_limit_is_a_usage_error(verb, args, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["obs", verb, *args])
    assert exit_.value.code == 2
    assert args[0] in capsys.readouterr().err


#: What each WHAT takes beyond --out and --format; the tests above pass
#: each of these and check the export it shapes.
TAKES = {
    "metrics": (),
    "trace": ("--kind", "--since", "--limit"),
    "spans": ("--limit",),
    "flight": ("--kind", "--since", "--until"),
    "timeline": ("--interval",),
    "alerts": (),
}
#: A value each filter accepts where it is taken.
FILTER_VALUE = {"--kind": "trace", "--since": "0.5", "--until": "0.5",
                "--limit": "3", "--interval": "0.5"}
#: Flags no WHAT takes any more: there is one observed world, and no
#: incident trigger.
GONE = {"--seed": "0", "--trigger": "oracle"}
#: The filters a ``summary`` format ignores although its WHAT takes them.
SUMMARY_REJECTS = {
    "trace": (["--kind", "merge"], ["--since", "0.5"], ["--limit", "1"]),
    "spans": (["--limit", "1"],),
    "flight": (["--kind", "trace"], ["--since", "0.5"], ["--until", "0.5"]),
}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=" ".join(argv[1:])) for argv, flag in [
        *((["obs", what, flag, FILTER_VALUE[flag]], flag)
          for what, taken in TAKES.items() for flag in FILTER_VALUE
          if flag not in taken),
        *((["obs", what, flag, value], flag)
          for what in TAKES for flag, value in GONE.items()),
        (["obs", "trace", "--kind", "bogus"], "--kind"),
        # Retired with the standby takeover: a worker is lost only as a
        # fleet shard, which the observed world does not run.
        (["obs", "trace", "--kind", "worker-swap"], "--kind"),
        (["obs", "trace", "--kind", "failover-takeover"], "--kind"),
        (["obs", "flight", "--kind", "bogus"], "--kind"),
        (["obs", "flight", "--kind", "mark"], "--kind"),
        (["obs", "trace", "--format", "json"], "--format"),
        (["obs", "metrics", "--format", "jsonl"], "--format"),
        *((["obs", what, "--format", "summary", *filter_], filter_[0])
          for what, filters in SUMMARY_REJECTS.items() for filter_ in filters),
    ]
])
def test_usage_errors_exit_2_and_name_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert flag in capsys.readouterr().err
