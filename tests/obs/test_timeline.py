"""Unit tests for repro.obs.timeline: in-sim periodic scrapes."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TelemetryTimeline
from repro.sim import Simulator


def _world():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("px_ticks_total", gateway="t")
    return sim, registry, counter


def test_interval_validation():
    sim, registry, _ = _world()
    with pytest.raises(ValueError):
        TelemetryTimeline(sim, registry, interval=0)
    with pytest.raises(ValueError):
        TelemetryTimeline(sim, registry, interval=0.1, max_samples=0)


def test_ticks_record_windowed_deltas():
    sim, registry, counter = _world()
    timeline = TelemetryTimeline(sim, registry, interval=0.1).start()
    # bump the counter between scrape windows
    sim.schedule_at(0.05, counter.inc, 3)
    sim.schedule_at(0.15, counter.inc, 2)
    sim.run(until=0.35)
    timeline.stop()
    assert timeline.ticks == 3
    key = 'px_ticks_total{gateway="t"}'
    deltas = [s["deltas"].get(key, 0.0) for s in timeline.samples]
    assert deltas == [3.0, 2.0, 0.0]
    # samples are stamped in sim time at the scrape instant
    assert [s["time"] for s in timeline.samples] == pytest.approx([0.1, 0.2, 0.3])


def test_start_is_idempotent_and_stop_cancels():
    sim, registry, _ = _world()
    timeline = TelemetryTimeline(sim, registry, interval=0.1)
    assert not timeline.running
    timeline.start()
    handle_pending = sim.pending()
    timeline.start()  # no second tick scheduled
    assert sim.pending() == handle_pending
    assert timeline.running
    timeline.stop()
    assert not timeline.running
    sim.run(until=1.0)
    assert timeline.ticks == 0


def test_max_samples_sheds_oldest():
    sim, registry, counter = _world()
    timeline = TelemetryTimeline(sim, registry, interval=0.1, max_samples=2).start()
    sim.schedule_at(0.05, counter.inc)
    sim.run(until=0.55)
    timeline.stop()
    assert timeline.ticks == 5
    assert len(timeline.samples) == 2
    assert timeline.shed == 3
    assert [s["time"] for s in timeline.samples] == pytest.approx([0.4, 0.5])


def test_totals_and_values_views():
    sim, registry, counter = _world()
    gauge = registry.gauge("px_level", gateway="t")
    timeline = TelemetryTimeline(sim, registry, interval=0.1).start()
    sim.schedule_at(0.05, counter.inc, 5)
    sim.schedule_at(0.05, gauge.set, 7.5)
    sim.schedule_at(0.25, counter.inc, 1)
    sim.schedule_at(0.25, gauge.set, 2.0)
    sim.run(until=0.35)
    timeline.stop()
    key = 'px_ticks_total{gateway="t"}'
    assert timeline.totals() == {key: 6.0, 'px_level{gateway="t"}': 2.0}
    assert timeline.values(key) == [
        (pytest.approx(0.1), 5.0), (pytest.approx(0.2), 5.0), (pytest.approx(0.3), 6.0)
    ]
    assert [v for _, v in timeline.values('px_level{gateway="t"}')] == [7.5, 7.5, 2.0]
    assert [v for _, v in timeline.values("px_absent")] == [0, 0, 0]


def test_values_survive_shedding():
    sim, registry, counter = _world()
    gauge = registry.gauge("px_level", gateway="t")
    timeline = TelemetryTimeline(sim, registry, interval=0.1, max_samples=2).start()
    for step in range(6):
        sim.schedule_at(0.05 + 0.1 * step, counter.inc, step)
        sim.schedule_at(0.05 + 0.1 * step, gauge.set, 10.0 - step)
    sim.run(until=0.55)
    timeline.stop()
    assert timeline.shed == 3
    assert timeline.values('px_ticks_total{gateway="t"}') == [
        (pytest.approx(0.4), 6.0), (pytest.approx(0.5), 10.0)
    ]
    assert [v for _, v in timeline.values('px_level{gateway="t"}')] == [7.0, 6.0]


def test_alert_engine_is_fed_each_tick():
    from repro.obs.alerts import AlertEngine, AlertRule

    sim, registry, counter = _world()
    engine = AlertEngine((
        AlertRule(name="tick-rate", kind="rate",
                  series='px_ticks_total{gateway="t"}', op=">", threshold=10.0),
    ))
    timeline = TelemetryTimeline(
        sim, registry, interval=0.1, alerts=engine
    ).start()
    sim.schedule_at(0.05, counter.inc, 1000)
    sim.run(until=0.25)
    timeline.stop()
    assert engine.evaluations == timeline.ticks == 2
    assert [t["to"] for t in engine.transitions] == ["firing", "ok"]


def test_exports_are_deterministic_and_jsonl_shaped():
    def build():
        sim, registry, counter = _world()
        timeline = TelemetryTimeline(sim, registry, interval=0.1).start()
        sim.schedule_at(0.05, counter.inc, 7)
        sim.run(until=0.25)
        timeline.stop()
        return timeline

    one, two = build(), build()
    assert one.to_json() == two.to_json()
    assert one.to_json(indent=2) == two.to_json(indent=2)
    assert one.to_jsonl() == two.to_jsonl()
    doc = json.loads(one.to_json())
    assert doc["interval"] == 0.1
    assert doc["ticks"] == 2
    assert len(doc["samples"]) == 2
    lines = one.to_jsonl().splitlines()
    assert json.loads(lines[0])["timeline"]["ticks"] == 2
    assert len(lines) == 1 + 2
