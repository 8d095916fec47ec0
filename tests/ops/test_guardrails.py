"""Unit tests for repro.ops.guardrails: tolerance bands and indicators."""

import math

import pytest

from repro.ops.guardrails import (
    Guardrail,
    default_guardrails,
    evaluate_guardrails,
    histogram_quantile,
    snapshot_indicators,
)


def test_direction_and_tolerance_validation():
    with pytest.raises(ValueError):
        Guardrail(name="g", indicator="i", direction="sideways")
    with pytest.raises(ValueError):
        Guardrail(name="g", indicator="i", direction="lower",
                  rel_tolerance=-0.1)


def test_lower_is_better_band():
    rail = Guardrail(name="g", indicator="i", direction="lower",
                     rel_tolerance=0.25, abs_tolerance=0.05)
    assert rail.allowed(1.0) == pytest.approx(1.30)
    assert not rail.breached(1.0, 1.30)
    assert rail.breached(1.0, 1.31)
    # abs_tolerance gives a zero baseline real slack.
    assert not rail.breached(0.0, 0.05)
    assert rail.breached(0.0, 0.06)


def test_higher_is_better_band():
    rail = Guardrail(name="g", indicator="i", direction="higher",
                     rel_tolerance=0.30, abs_tolerance=0.01)
    assert rail.allowed(0.10) == pytest.approx(0.06)
    assert not rail.breached(0.10, 0.06)
    assert rail.breached(0.10, 0.059)


def test_zero_tolerance_means_any_regression_breaches():
    rail = Guardrail(name="g", indicator="i", direction="lower")
    assert not rail.breached(0.0, 0.0)
    assert rail.breached(0.0, 1.0)


def test_no_data_never_breaches():
    rail = Guardrail(name="g", indicator="i", direction="lower")
    assert not rail.breached(None, 5.0)
    assert not rail.breached(5.0, None)


def test_histogram_quantile_cumulative_buckets():
    snapshot = {
        'lat_bucket{le="0.001"}': 50.0,
        'lat_bucket{le="0.01"}': 95.0,
        'lat_bucket{le="0.1"}': 99.0,
        'lat_bucket{le="+Inf"}': 100.0,
        "lat_count": 100.0,
    }
    assert histogram_quantile(snapshot, "lat", 0.50) == 0.001
    assert histogram_quantile(snapshot, "lat", 0.95) == 0.01
    assert histogram_quantile(snapshot, "lat", 0.999) == math.inf
    assert histogram_quantile({}, "lat") is None
    assert histogram_quantile({'lat_bucket{le="+Inf"}': 0.0}, "lat") is None
    # A labelled histogram: ``le`` follows the series' own labels.
    labelled = {
        'lat_bucket{gateway="pxgw",le="0.001"}': 50.0,
        'lat_bucket{gateway="pxgw",le="0.01"}': 95.0,
        'lat_bucket{gateway="pxgw",le="+Inf"}': 100.0,
    }
    assert histogram_quantile(labelled, "lat", 0.95) == 0.01
    with pytest.raises(ValueError):
        histogram_quantile(dict(labelled, **{'lat_bucket{gateway="b",le="+Inf"}': 1.0}),
                           "lat")


def test_snapshot_indicators():
    labels = '{gateway="pxgw"}'
    snapshot = {
        f"px_gateway_rx_packets_total{labels}": 100.0,
        f"px_gateway_tx_packets_total{labels}": 80.0,
        f"px_gateway_merged_packets_total{labels}": 5.0,
        f"px_gateway_dropped_packets_total{labels}": 2.0,
        'px_gateway_residency_seconds_bucket{le="0.001"}': 96.0,
        'px_gateway_residency_seconds_bucket{le="+Inf"}': 100.0,
    }
    indicators = snapshot_indicators(snapshot, oversize_egress=3)
    assert indicators["merge_ratio"] == pytest.approx(0.05)
    assert indicators["drop_count"] == 2.0
    assert indicators["egress_amplification"] == pytest.approx(0.8)
    assert indicators["oversize_egress"] == 3.0
    assert indicators["p95_residency"] == 0.001


def test_snapshot_indicators_no_traffic_is_no_data():
    indicators = snapshot_indicators({})
    assert indicators["merge_ratio"] is None
    assert indicators["egress_amplification"] is None
    assert indicators["p95_residency"] is None


def test_evaluate_guardrails_cites_values_and_bounds():
    rails = default_guardrails()
    baseline = {"merge_ratio": 0.05, "drop_count": 0.0,
                "oversize_egress": 0.0, "egress_amplification": 0.8,
                "p95_residency": 0.001}
    healthy = dict(baseline)
    assert evaluate_guardrails(rails, baseline, healthy) == []

    sick = dict(baseline, drop_count=4.0, merge_ratio=0.0)
    breaches = evaluate_guardrails(rails, baseline, sick)
    assert {b["guardrail"] for b in breaches} == {"merge-ratio",
                                                  "gateway-drops"}
    drops = next(b for b in breaches if b["guardrail"] == "gateway-drops")
    assert drops["baseline"] == 0.0
    assert drops["candidate"] == 4.0
    assert drops["allowed"] == 0.0
    assert drops["description"]


def test_default_guardrails_cover_the_slo_surface():
    indicators = {rail.indicator for rail in default_guardrails()}
    assert indicators == {"merge_ratio", "drop_count", "oversize_egress",
                          "egress_amplification", "p95_residency"}
