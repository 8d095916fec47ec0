"""The black-box flight recorder: merged windows over pulled sources,
byte-deterministic dumps."""

import json

from repro.obs import FlightRecorder, FlowTracer, run_observed_world
from repro.obs.spans import SpanTracker


def test_window_merges_sources_in_time_order():
    rec = FlightRecorder(name="merge")
    spans = SpanTracker()
    sid = spans.open(0.5, kind="packet", stage="forward")
    spans.close(sid, 1.5)
    tracer = FlowTracer()
    tracer.on_event(None, 1.0, "flush", worker=0, packets=1)
    tracer.on_event(None, 2.0, "flush", worker=0, packets=2)
    rec.wire(spans=spans, tracer=tracer)
    entries = rec.window()
    assert [e["time"] for e in entries] == [1.0, 1.5, 2.0]
    assert [e["kind"] for e in entries] == ["trace", "span", "trace"]
    # Inclusive [since, until] filtering plus kind selection.
    assert [e["kind"] for e in rec.window(since=1.5)] == ["span", "trace"]
    assert [e["kind"] for e in rec.window(until=1.5)] == ["trace", "span"]
    assert [e["kind"] for e in rec.window(kinds=("span",))] == ["span"]


def test_observed_world_flight_is_wired_and_deterministic():
    one = run_observed_world()
    two = run_observed_world()
    assert one.flight.sources == {
        "spans": True, "tracer": True, "timeline": True, "alerts": True,
    }
    counts = one.flight.counts()
    assert counts["span"] > 0 and counts["trace"] > 0
    assert counts["metrics"] > 0 and counts["alert"] > 0
    assert one.flight.to_json() == two.flight.to_json()


def test_to_json_is_compact_and_sorted():
    tracer = FlowTracer()
    tracer.on_event(None, 1.0, "flush", worker=0, packets=2)
    text = FlightRecorder(name="fmt").wire(tracer=tracer).to_json()
    assert ": " not in text and ", " not in text
    payload = json.loads(text)
    assert payload["schema"] == "repro-flight/1"
    assert sorted(payload) == ["counts", "entries", "name", "schema",
                               "sources", "window"]
    assert payload["entries"][0]["event"]["packets"] == 2


def test_world_flight_window_brackets_the_inbound_burst():
    # The first inbound burst reaches the gateway just after 0.30 s and
    # leaves as one caravan before the merge timeout flushes the rest.
    world = run_observed_world()
    window = world.flight.window(since=0.30, until=0.301, kinds=("trace",))
    assert window and all(0.30 <= e["time"] <= 0.301 for e in window)
    built = [e for e in window if e["event"]["kind"] == "caravan-built"]
    assert [e["event"]["inner"] for e in built] == [8]
