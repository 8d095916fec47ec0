"""The observed world: coverage, determinism, and oracle reconciliation.

The acceptance criteria for the observability layer live here: one
end-to-end run must export a rich multi-layer series set, and two runs
must be byte-identical.
"""

import pytest

from repro.chaos import run_scenario
from repro.chaos.oracle import InvariantOracle
from repro.chaos.world import EMTU, IMTU
from repro.obs import run_observed_world

#: Every instrumented layer must contribute at least one series.
_LAYER_PREFIXES = (
    "px_gateway_",
    "px_worker_",
    "px_health_",      # resilience: health monitor
    "px_pmtu_cache_",  # resilience: PMTU clamp cache
    "px_pmtud_",
)


@pytest.fixture(scope="module")
def world():
    """One run shared by every read-only test in this module."""
    return run_observed_world()


def test_world_exports_every_layer_with_depth(world):
    snapshot = world.obs.registry.snapshot()
    names = {key.split("{")[0] for key in snapshot}
    for prefix in _LAYER_PREFIXES:
        assert any(name.startswith(prefix) for name in names), prefix
    # The headline acceptance bar: a rich export, not a token one.
    assert world.obs.registry.series_count() >= 25
    # The world actually moved traffic through every layer.
    assert snapshot['px_gateway_rx_packets_total{gateway="pxgw"}'] > 0
    assert snapshot['px_gateway_merged_packets_total{gateway="pxgw"}'] > 0
    assert snapshot['px_gateway_split_segments_total{gateway="pxgw"}'] > 0
    assert snapshot['px_gateway_caravans_built_total{gateway="pxgw"}'] > 0
    assert snapshot['px_gateway_caravans_opened_total{gateway="pxgw"}'] > 0
    assert snapshot['px_pmtud_probes_sent_total{agent="fpmtud"}'] == 1
    assert snapshot['px_pmtud_last_pmtu_bytes{agent="fpmtud"}'] == 1500
    # The transfers completed and the PMTU probe resolved.
    assert world.notes["downloaded"] == 48_000
    assert world.notes["uploaded"] == 24_000
    assert world.notes["datagrams_in"] == 24
    assert world.notes["datagrams_out"] == 12
    assert world.notes["pmtu"] == 1500


def test_world_exposes_links_by_role(world):
    assert set(world.links) == {"int_out", "int_in", "ext_out", "ext_in"}
    assert world.links["int_out"].mtu == IMTU
    assert world.links["ext_out"].mtu == EMTU


def test_world_traces_the_whole_flow_lifecycle(world):
    kinds = world.obs.tracer.kinds()
    for kind in ("ingress", "classify", "merge", "split", "egress", "flush",
                 "caravan-built", "caravan-opened", "pmtud-probe", "pmtud-report"):
        assert kinds.get(kind, 0) > 0, kind
    assert world.obs.tracer.dropped == 0


def test_world_counters_never_run_backwards(world):
    # A counter's windowed delta is never negative: a collector that
    # starts reading a fresh, zeroed object mid-run shows up here.
    for sample in world.timeline.samples:
        for key, delta in sample["deltas"].items():
            if key.split("{")[0].endswith("_total"):
                assert delta >= 0, (sample["time"], key, delta)


def test_world_registry_reconciles_with_the_chaos_oracle(world):
    oracle = InvariantOracle()
    oracle.check_registry(world.obs.registry, world.gateway)
    assert oracle.ok, oracle.violations


def test_two_runs_are_byte_identical(world):
    # One fixed world: a second run exports the same series catalog and
    # the same bytes (dashboards and pinned digests rely on both).
    other = run_observed_world()
    assert set(world.obs.registry.snapshot()) == set(other.obs.registry.snapshot())
    assert (world.obs.registry.to_prometheus_text()
            == other.obs.registry.to_prometheus_text())
    assert world.obs.tracer.events() == other.obs.tracer.events()


def test_reconciliation_catches_a_lying_collector():
    # A fresh world: this test deliberately corrupts its registry.
    world = run_observed_world()
    registry = world.obs.registry
    # A collector registered *after* the gateway's overrides its series
    # at the next scrape — the oracle must notice the disagreement.
    registry.register_collector(
        lambda reg: reg.counter(
            "px_gateway_rx_packets_total", gateway="pxgw"
        ).set_total(1)
    )
    oracle = InvariantOracle()
    oracle.check_registry(registry, world.gateway)
    assert not oracle.ok
    assert any("registry-reconciliation" in v for v in oracle.violations)


def test_chaos_scenarios_run_the_registry_check():
    result = run_scenario("mixed", seed=7)
    assert result.ok, result.violations
