"""Multi-window burn-rate SLO rules on the AlertEngine (PR 10)."""

import pytest

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    burn_rate_rules,
    default_burn_rules,
)


def _engine():
    return AlertEngine(burn_rate_rules("err", "total"))


def test_burn_rule_validation():
    with pytest.raises(ValueError):
        AlertRule(name="x", kind="burn", series="err", op=">=",
                  threshold=1.0)  # no denominator
    with pytest.raises(ValueError):
        AlertRule(name="x", kind="burn", series="err", op=">=",
                  threshold=1.0, denominator="total",
                  fast_window=5.0, slow_window=1.0)  # fast > slow
    with pytest.raises(ValueError):
        AlertRule(name="x", kind="burn", series="err", op=">=",
                  threshold=1.0, denominator="total",
                  fast_window=1.0, slow_window=5.0, budget=0.0)


def test_factory_shapes():
    fast, slow = burn_rate_rules("err", "total")
    assert (fast.threshold, fast.fast_window, fast.slow_window) == \
        (14.4, 1.0, 5.0)
    assert (slow.threshold, slow.fast_window, slow.slow_window) == \
        (6.0, 5.0, 60.0)
    names = {rule.name for rule in default_burn_rules()}
    assert names == {"error-budget-burn-fast", "error-budget-burn-slow"}


def test_single_scrape_has_no_burn_signal():
    engine = _engine()
    engine.evaluate(0.0, {"err": 0.0, "total": 100.0})
    assert engine.states_at(0.0) == {"error-budget-burn-fast": "ok",
                                     "error-budget-burn-slow": "ok"}


def test_sustained_burn_fires_both_windows():
    engine = _engine()
    # 10% error ratio = 100x a 0.1% budget — far over both thresholds.
    for step in range(8):
        now = float(step)
        total = 1000.0 * (step + 1)
        engine.evaluate(now, {"err": 0.10 * total, "total": total})
    fired = engine.fired_by(8.0)
    assert fired == ["error-budget-burn-fast", "error-budget-burn-slow"]
    # The observed value is min(fast burn, slow burn) = 100.
    firing = [t for t in engine.history() if t["to"] == "firing"]
    assert all(abs(t["value"] - 100.0) < 1e-9 for t in firing)


def test_moderate_burn_trips_only_the_slow_rule():
    """A burn between the two thresholds (here 10x the budget: over the
    slow rule's 6.0, under the fast rule's 14.4) pages only the
    slow-burn rule — the classic multi-window discrimination."""
    engine = _engine()
    # 1% errors = 10x budget: over the slow rule's 6.0, under 14.4.
    for step in range(8):
        now = float(step)
        total = 1000.0 * (step + 1)
        engine.evaluate(now, {"err": 0.01 * total, "total": total})
    assert engine.fired_by(8.0) == ["error-budget-burn-slow"]


def test_burn_resolves_when_errors_stop():
    engine = _engine()
    for step in range(4):
        total = 1000.0 * (step + 1)
        engine.evaluate(float(step), {"err": 0.10 * total, "total": total})
    assert engine.firing_at(3.0)
    # Errors flatline while traffic continues: burn over both windows
    # decays to zero and the alerts resolve.
    errors = 0.10 * 4000.0
    for step in range(4, 70):
        engine.evaluate(float(step),
                        {"err": errors, "total": 1000.0 * (step + 1)})
    assert engine.firing_at(69.0) == []
    resolved = [t for t in engine.history() if t["to"] == "ok"]
    assert resolved


def test_no_denominator_progress_means_no_data():
    engine = _engine()
    engine.evaluate(0.0, {"err": 0.0, "total": 100.0})
    engine.evaluate(1.0, {"err": 50.0, "total": 100.0})  # total frozen
    assert engine.firing_at(1.0) == []


def test_burn_history_is_bounded_to_the_slow_window():
    engine = _engine()
    for step in range(200):
        total = float(step + 1)
        engine.evaluate(float(step), {"err": 0.0, "total": total})
    # Lookback is the slow rule's 60s window: one far-baseline scrape
    # at or before now-60 plus everything after.
    assert len(engine._scrapes) <= 63


def test_value_rules_ignore_burn_fields():
    rule = AlertRule(name="plain", kind="value", series="x", op=">",
                     threshold=1.0)
    payload = rule.to_dict()
    assert "fast_window" not in payload and "budget" not in payload
    burn = burn_rate_rules("err", "total")[0].to_dict()
    assert burn["fast_window"] == 1.0 and burn["budget"] == 1e-3
