"""Incident bundles: schema, trigger validation, determinism, and the
stock trigger scenarios (PR 10)."""

import pytest

from repro.core.config import GatewayConfig
from repro.obs.incident import (
    TRIGGER_KINDS,
    alert_trigger_bundle,
    build_incident_bundle,
    bundle_to_json,
    config_digest,
)


def test_unknown_trigger_kind_rejected():
    with pytest.raises(ValueError):
        build_incident_bundle("solar-flare", 1.0)


def test_minimal_bundle_schema():
    bundle = build_incident_bundle("shard-loss", 2.0, window=0.5,
                                   detail={"shard": 1})
    assert bundle["schema"] == "repro-incident/1"
    assert bundle["trigger"] == {"kind": "shard-loss", "time": 2.0,
                                 "detail": {"shard": 1}}
    assert bundle["window"] == {"since": 1.5, "until": 2.0}
    assert bundle["flight"] == {} and bundle["alerts"] == {}
    assert bundle["trace"]["consistent"] is True
    assert bundle["config"] is None


def test_config_digest_is_stable_and_sensitive():
    base = GatewayConfig(imtu=9000, emtu=1500)
    assert config_digest(base) == config_digest(GatewayConfig(imtu=9000,
                                                              emtu=1500))
    other = config_digest(GatewayConfig(imtu=8900, emtu=1500))
    assert other["sha256"] != config_digest(base)["sha256"]
    assert config_digest(base)["config"]["imtu"] == 9000


def test_alert_trigger_bundle_cites_the_firing_rule():
    bundle = alert_trigger_bundle(seed=0)
    assert bundle["trigger"]["kind"] == "alert-firing"
    assert "merge-ratio-floor" in bundle["trigger"]["detail"]["rules"]
    cited = bundle["alerts"]["world"]
    assert "merge-ratio-floor" in cited["fired"]
    assert any(entry["rule"] == "merge-ratio-floor"
               and entry["to"] == "firing" for entry in cited["history"])
    # The window is cut at the firing instant: nothing cited is later.
    at = bundle["trigger"]["time"]
    assert all(entry["time"] <= at for entry in cited["history"])
    assert bundle["config"]["config"]["delayed_merge"] is False
    assert bundle["metrics"]


def test_alert_trigger_bundle_is_same_seed_identical():
    assert bundle_to_json(alert_trigger_bundle(seed=0)) == \
        bundle_to_json(alert_trigger_bundle(seed=0))


def test_trigger_kinds_cover_the_issue_surface():
    assert set(TRIGGER_KINDS) == {"alert-firing", "shard-loss",
                                  "chaos-oracle"}
