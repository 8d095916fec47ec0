"""CLI coverage for `repro metrics`, `repro trace`, and the PR 5 verbs
(`repro spans` / `repro timeline` / `repro alerts`)."""

import json

import pytest

from repro.cli import main
from repro.obs import SpanTracker


def test_metrics_prometheus_to_stdout(capsys):
    assert main(["metrics", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE px_gateway_rx_packets_total counter" in out
    assert 'px_gateway_rx_packets_total{gateway="pxgw"}' in out
    assert "# TYPE px_gateway_inbound_packet_bytes histogram" in out


def test_metrics_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "metrics.json"
    assert main(["metrics", "--format", "json", "--out", str(out_path)]) == 0
    assert "written to" in capsys.readouterr().out
    dump = json.loads(out_path.read_text())
    names = {entry["name"] for entry in dump["series"]}
    assert "px_upf_uplink_packets_total" in names
    assert "px_pmtud_probes_sent_total" in names


def test_trace_summary(capsys):
    assert main(["trace", "--summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["recorded"] > 0
    assert summary["kinds"]["worker-swap"] == 1


def test_trace_filtered_events_are_json_lines(capsys):
    assert main(["trace", "--kind", "pmtud-report", "--limit", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert event["kind"] == "pmtud-report"
        assert event["pmtu"] == 1500


def test_trace_jsonl_events_are_compact_lines(capsys):
    assert main(["trace", "--kind", "pmtud-report", "--jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        assert ": " not in line and ", " not in line  # compact separators
        assert json.loads(line)["kind"] == "pmtud-report"


def test_trace_jsonl_summary_is_one_line(capsys):
    assert main(["trace", "--summary", "--jsonl"]) == 0
    out = capsys.readouterr().out.strip()
    assert "\n" not in out
    assert json.loads(out)["recorded"] > 0


def test_spans_summary(capsys):
    assert main(["spans", "--summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    balance = summary["balance"]
    assert balance["opened"] == balance["closed"] + balance["dropped"]
    assert summary["anomalies"] == 0
    assert summary["kinds"]["merged"] > 0
    assert summary["latency"]["px_gateway_residency_seconds"]["count"] > 0


def test_spans_export_and_jsonl(tmp_path, capsys):
    out_path = tmp_path / "spans.json"
    assert main(["spans", "--out", str(out_path), "--limit", "10"]) == 0
    assert "written to" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert len(doc["spans"]) == 10
    assert main(["spans", "--jsonl", "--limit", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("sid" in json.loads(line) for line in lines)


def test_timeline_json_and_jsonl(tmp_path, capsys):
    out_path = tmp_path / "timeline.json"
    assert main(["timeline", "--out", str(out_path)]) == 0
    note = capsys.readouterr().out
    assert "ticks" in note and "written to" in note
    doc = json.loads(out_path.read_text())
    assert doc["ticks"] > 20
    assert doc["samples"]
    assert main(["timeline", "--format", "jsonl", "--interval", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])["timeline"]
    assert header["interval"] == 0.5
    assert len(lines) == 1 + header["ticks"]


def test_timeline_is_byte_identical_across_invocations(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["timeline", "--out", str(first)]) == 0
    assert main(["timeline", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_alerts_default_and_transitions(tmp_path, capsys):
    assert main(["alerts"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in doc["rules"]} >= {"merge-ratio-floor"}
    assert doc["evaluations"] > 0
    out_path = tmp_path / "alerts.jsonl"
    assert main(["alerts", "--transitions", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines
    assert all(json.loads(line)["rule"] for line in lines)


def test_flight_summary(capsys):
    assert main(["flight", "--summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["name"] == "world0"
    assert summary["sources"] == {"spans": True, "tracer": True,
                                  "timeline": True, "alerts": True}
    assert summary["counts"]["span"] > 0


def test_flight_dump_windowed_and_compact(tmp_path, capsys):
    out_path = tmp_path / "flight.json"
    assert main(["flight", "--since", "0.9", "--until", "0.9",
                 "--kind", "trace", "--out", str(out_path)]) == 0
    assert "written to" in capsys.readouterr().out
    dump = json.loads(out_path.read_text())
    assert dump["schema"] == "repro-flight/1"
    assert dump["window"] == {"since": 0.9, "until": 0.9}
    assert dump["entries"]
    assert all(e["kind"] == "trace" and e["time"] == 0.9
               for e in dump["entries"])


def test_flight_dump_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["flight", "--seed", "3", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_since_filters_by_sim_time(capsys):
    assert main(["trace", "--since", "0.9", "--jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(json.loads(line)["time"] >= 0.9 for line in lines)
    capsys.readouterr()
    assert main(["trace", "--jsonl"]) == 0
    all_lines = capsys.readouterr().out.strip().splitlines()
    assert len(all_lines) > len(lines)


def test_incident_shard_loss_verb(tmp_path, capsys):
    out_path = tmp_path / "incident.json"
    assert main(["incident", "--trigger", "shard-loss",
                 "--out", str(out_path)]) == 0
    assert "written to" in capsys.readouterr().out
    bundle = json.loads(out_path.read_text())
    assert bundle["schema"] == "repro-incident/1"
    assert bundle["trigger"]["kind"] == "shard-loss"
    assert bundle["trace"]["flows"] and bundle["trace"]["consistent"]


@pytest.mark.parametrize("verb", ["trace", "spans"])
def test_limit_zero_prints_nothing(verb, capsys):
    assert main([verb, "--seed", "0", "--limit", "0", "--jsonl"]) == 0
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
        main([verb, *args])
    assert exit_.value.code == 2
    assert args[0] in capsys.readouterr().err
