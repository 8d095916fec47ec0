"""Unit tests for the bounded flow tracer."""

import json

import pytest

from repro.obs import FlowTracer
from repro.packet.flow import FlowKey


def test_record_preserves_order_and_fields():
    tracer = FlowTracer()
    tracer.on_event(None, 0.1, "flush", worker=0, packets=2)
    tracer.on_event(None, 0.2, "egress", worker=0, bound="inbound", bytes=9000)
    events = tracer.events()
    assert events == [
        {"time": 0.1, "kind": "flush", "worker": 0, "packets": 2},
        {"time": 0.2, "kind": "egress", "worker": 0, "bound": "inbound", "bytes": 9000},
    ]
    assert tracer.events(kind="egress") == events[1:]
    assert tracer.events(kind="merge") == tracer.events(kind="no-route") == []
    assert tracer.kinds() == {"egress": 1, "flush": 1}


def test_untraced_kinds_and_fields_are_not_kept():
    tracer = FlowTracer()
    tracer.on_event(None, 0.1, "no-route", ingress_at=None)
    tracer.on_event(None, 0.2, "pmtud-report", probe_id=1, pmtu=1500, fragments=2,
                    elapsed=0.05)
    assert tracer.recorded == 1
    assert tracer.events() == [{"time": 0.2, "kind": "pmtud-report", "probe_id": 1,
                                "pmtu": 1500, "fragments": 2}]


def test_ring_keeps_newest_and_counts_shed_events():
    tracer = FlowTracer(capacity=3)
    for index in range(10):
        tracer.on_event(None, float(index), "flush", worker=0, packets=index)
    assert len(tracer) == 3
    assert tracer.recorded == 10
    assert tracer.dropped == 7
    assert [event["packets"] for event in tracer.events()] == [7, 8, 9]


def test_events_are_a_comparable_fingerprint():
    a, b = FlowTracer(), FlowTracer()
    for tracer in (a, b):
        tracer.on_event(None, 0.5, "merge", worker=0, bytes=2, spliced=True)
    assert a.events() == b.events()
    b.on_event(None, 0.6, "merge", worker=0, bytes=3, spliced=False)
    assert a.events() != b.events()


def test_clear_keeps_the_recorded_total():
    tracer = FlowTracer()
    tracer.on_event(None, 0.0, "pmtud-timeout", probe_id=1)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.recorded == 1


def test_to_json_serializes():
    tracer = FlowTracer(capacity=2)
    key = FlowKey(6, 0x01020304, 80, 0x0A000001, 40000)
    tracer.on_event(None, 0.0, "classify", worker=0, flow=key, elephant=False)
    dump = json.loads(json.dumps(tracer.to_json()))
    assert dump["capacity"] == 2
    assert dump["events"][0]["flow"] == str(key)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlowTracer(capacity=0)
