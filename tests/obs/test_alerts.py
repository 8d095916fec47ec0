"""Unit tests for repro.obs.alerts: deterministic SLO alerting."""

import json

import pytest

from repro.obs.alerts import (
    FIRING,
    OK,
    PENDING,
    AlertEngine,
    AlertRule,
    default_alert_rules,
)


def test_rule_validation():
    with pytest.raises(ValueError):
        AlertRule(name="x", series="s", op="!!", threshold=1)
    with pytest.raises(ValueError):
        AlertRule(name="x", series="s", op=">", threshold=1, kind="nope")
    with pytest.raises(ValueError):
        AlertRule(name="x", series="s", op=">", threshold=1, kind="ratio")
    with pytest.raises(ValueError):
        AlertRule(name="x", series="s", op=">", threshold=1, for_duration=-1)


def test_engine_rejects_duplicate_names():
    rule = AlertRule(name="dup", series="s", op=">", threshold=1)
    with pytest.raises(ValueError):
        AlertEngine((rule, rule))


def test_value_kind_and_absent_series_reads_zero():
    rule = AlertRule(name="v", series="s", op=">=", threshold=5)
    assert rule.value({"s": 7.0}, {}, None) == 7.0
    assert rule.value({}, {}, None) == 0.0
    assert rule.breached(7.0)
    assert not rule.breached(4.0)
    assert not rule.breached(None)


def test_sum_kind_collapses_label_dimension():
    rule = AlertRule(name="s", series="px_q_depth", op=">", threshold=10, kind="sum")
    snapshot = {
        'px_q_depth{queue="0"}': 4.0,
        'px_q_depth{queue="1"}': 8.0,
        "other": 100.0,
    }
    assert rule.value(snapshot, {}, None) == 12.0


def test_rate_kind_needs_window():
    rule = AlertRule(name="r", series="s", op=">", threshold=1, kind="rate")
    assert rule.value({}, {"s": 5.0}, None) is None
    assert rule.value({}, {"s": 5.0}, 0.5) == 10.0
    assert rule.value({}, {}, 0.5) == 0.0


def test_ratio_kind_no_data_never_breaches():
    rule = AlertRule(name="q", series="num", denominator="den",
                     op="<", threshold=0.5, kind="ratio")
    assert rule.value({"num": 1.0, "den": 4.0}, {}, None) == 0.25
    assert rule.value({"num": 1.0}, {}, None) is None
    assert not rule.breached(None)


def test_immediate_fire_and_resolve():
    engine = AlertEngine((
        AlertRule(name="hot", series="s", op=">", threshold=10),
    ))
    engine.evaluate(1.0, {"s": 20.0})
    assert engine.state("hot") == FIRING
    assert engine.firing() == ["hot"]
    engine.evaluate(2.0, {"s": 5.0})
    assert engine.state("hot") == OK
    assert [t["to"] for t in engine.transitions] == [FIRING, OK]
    assert len(engine.firings()) == 1
    assert len(engine.resolutions()) == 1
    assert engine.resolutions()[0]["time"] == 2.0


def test_for_duration_state_machine():
    engine = AlertEngine((
        AlertRule(name="dwell", series="s", op=">=", threshold=1, for_duration=0.3),
    ))
    engine.evaluate(0.0, {"s": 1.0})
    assert engine.state("dwell") == PENDING
    engine.evaluate(0.2, {"s": 1.0})          # dwell 0.2 < 0.3: still pending
    assert engine.state("dwell") == PENDING
    engine.evaluate(0.3, {"s": 1.0})          # dwell reached: fires
    assert engine.state("dwell") == FIRING
    engine.evaluate(0.4, {"s": 0.0})          # resolves
    assert engine.state("dwell") == OK
    assert [t["to"] for t in engine.transitions] == [PENDING, FIRING, OK]


def test_pending_clears_without_firing():
    engine = AlertEngine((
        AlertRule(name="dwell", series="s", op=">=", threshold=1, for_duration=1.0),
    ))
    engine.evaluate(0.0, {"s": 1.0})
    engine.evaluate(0.1, {"s": 0.0})
    assert engine.state("dwell") == OK
    assert engine.firings() == []
    # a fresh breach restarts the dwell clock
    engine.evaluate(0.2, {"s": 1.0})
    engine.evaluate(0.3, {"s": 1.0})
    assert engine.state("dwell") == PENDING


def test_transition_log_is_complete_and_stamped():
    engine = AlertEngine((
        AlertRule(name="a", series="s", op=">", threshold=0),
    ))
    engine.evaluate(5.0, {"s": 3.0})
    (t,) = engine.transitions
    assert t == {"time": 5.0, "rule": "a", "from": OK, "to": FIRING, "value": 3.0}


def test_to_json_deterministic():
    def build():
        engine = AlertEngine(default_alert_rules())
        engine.evaluate(0.1, {'px_health_state{gateway="pxgw"}': 2.0})
        engine.evaluate(0.2, {'px_health_state{gateway="pxgw"}': 2.0})
        engine.evaluate(0.3, {})
        return engine

    one, two = build().to_json(), build().to_json()
    assert one == two
    doc = json.loads(one)
    assert doc["evaluations"] == 3
    assert {r["name"] for r in doc["rules"]} == {
        "merge-ratio-floor", "drop-rate-ceiling",
        "health-degraded-dwell", "pmtu-cache-miss-spike",
    }
    dwell = [t for t in doc["transitions"] if t["rule"] == "health-degraded-dwell"]
    assert [t["to"] for t in dwell] == [PENDING, FIRING, OK]


def test_for_duration_boundary_equality_fires():
    # The dwell comparison is >=: reaching the boundary exactly fires,
    # one tick short does not.
    engine = AlertEngine((
        AlertRule(name="edge", series="s", op=">=", threshold=1,
                  for_duration=0.25),
    ))
    engine.evaluate(1.00, {"s": 1.0})
    assert engine.state("edge") == PENDING
    engine.evaluate(1.2499999, {"s": 1.0})     # strictly below the dwell
    assert engine.state("edge") == PENDING
    engine.evaluate(1.25, {"s": 1.0})          # now - since == for_duration
    assert engine.state("edge") == FIRING
    fired = [t for t in engine.transitions if t["to"] == FIRING]
    assert fired[0]["time"] == 1.25


def test_flapping_sequence_keeps_every_transition():
    # ok → pending → firing → resolved → pending → firing: six states,
    # five recorded transitions, nothing coalesced or lost.
    engine = AlertEngine((
        AlertRule(name="flap", series="s", op=">=", threshold=1,
                  for_duration=0.1),
    ))
    engine.evaluate(0.0, {"s": 1.0})           # ok -> pending
    engine.evaluate(0.1, {"s": 1.0})           # pending -> firing
    engine.evaluate(0.2, {"s": 0.0})           # firing -> ok (resolved)
    engine.evaluate(0.3, {"s": 1.0})           # ok -> pending (fresh dwell)
    assert engine.state("flap") == PENDING     # dwell restarted, not resumed
    engine.evaluate(0.4, {"s": 1.0})           # pending -> firing
    assert [(t["from"], t["to"]) for t in engine.transitions] == [
        (OK, PENDING), (PENDING, FIRING), (FIRING, OK),
        (OK, PENDING), (PENDING, FIRING),
    ]
    assert len(engine.firings()) == 2
    assert len(engine.resolutions()) == 1

    history = engine.history()
    assert [e["edge"] for e in history] == [
        "pending", "fired", "resolved", "pending", "fired",
    ]
    assert [e["seq"] for e in history] == [0, 1, 2, 3, 4]
    assert [e["time"] for e in history] == [0.0, 0.1, 0.2, 0.3, 0.4]


def test_history_filters_by_rule_and_keeps_global_seq():
    engine = AlertEngine((
        AlertRule(name="a", series="s", op=">", threshold=0),
        AlertRule(name="b", series="t", op=">", threshold=0),
    ))
    engine.evaluate(1.0, {"s": 1.0, "t": 1.0})
    engine.evaluate(2.0, {"s": 0.0, "t": 1.0})
    only_a = engine.history(rule="a")
    assert [e["rule"] for e in only_a] == ["a", "a"]
    # Sequence numbers index the global log, so cross-rule ordering is
    # reconstructible from a filtered view.
    assert [e["seq"] for e in only_a] == [0, 2]
    assert [e["edge"] for e in only_a] == ["fired", "resolved"]


def test_to_json_includes_history():
    engine = AlertEngine((
        AlertRule(name="a", series="s", op=">", threshold=0),
    ))
    engine.evaluate(1.0, {"s": 1.0})
    doc = json.loads(engine.to_json())
    assert doc["history"] == [{
        "time": 1.0, "rule": "a", "from": OK, "to": FIRING,
        "value": 1.0, "seq": 0, "edge": "fired",
    }]


def test_default_rules_are_labelled_per_gateway():
    rules = default_alert_rules(gateway="alpha")
    assert all('{gateway="alpha"}' in r.series for r in rules)
    ratio = next(r for r in rules if r.kind == "ratio")
    assert 'gateway="alpha"' in ratio.denominator
