"""Fleet chaos: worker-shard loss under city load, corpus-wide."""

import pytest

from repro.fleet.chaos import fleet_corpus, run_loss_scenario

from ..chaos.mutations import stale_checkpoint


class TestFleetCorpus:
    def test_corpus_shape_matches_the_link_chaos_grid(self):
        corpus = fleet_corpus(56)
        assert len(corpus) == 56
        profiles = {entry[0] for entry in corpus}
        assert profiles == {"tcp", "caravan", "mixed", "pmtud"}
        modes = {entry[2] for entry in corpus}
        assert modes == {"crash", "maintenance"}
        seeds = [entry[1] for entry in corpus]
        assert len(set(seeds)) == 56

    @pytest.mark.parametrize(
        "profile,seed,loss_mode", fleet_corpus(56),
        ids=lambda value: str(value),
    )
    def test_loss_scenario_upholds_invariants(self, profile, seed, loss_mode):
        result = run_loss_scenario(profile, seed, loss_mode=loss_mode)
        assert result.ok, result.violations
        assert result.packets == 1000
        assert result.egress > 0
        assert not result.violations

    def test_scenarios_are_deterministic(self):
        first = run_loss_scenario("mixed", 115, loss_mode="crash")
        second = run_loss_scenario("mixed", 115, loss_mode="crash")
        assert first.digest == second.digest
        assert first.flows_migrated == second.flows_migrated

    def test_crash_and_maintenance_diverge(self):
        # The two loss modes replay different checkpoints, so the same
        # seed must not produce identical runs (otherwise the mode knob
        # is dead).
        crash = run_loss_scenario("tcp", 101, loss_mode="crash")
        maintenance = run_loss_scenario("tcp", 101, loss_mode="maintenance")
        assert crash.victim == maintenance.victim
        assert crash.ok and maintenance.ok

    def test_unknown_loss_mode_rejected(self):
        with pytest.raises(ValueError):
            run_loss_scenario("tcp", 101, loss_mode="meteor")


def test_stale_checkpoint_sabotage_trips_the_oracle(monkeypatch):
    """The zero-loss differential has teeth: a recovery that restores the
    lost shard from the first sweep's checkpoint is caught, and the same
    scenario with the real recovery is clean."""
    assert run_loss_scenario("mixed", 101, loss_mode="maintenance").ok
    stale_checkpoint(monkeypatch)
    result = run_loss_scenario("mixed", 101, loss_mode="maintenance")
    kinds = {violation.split(":", 1)[0] for violation in result.violations}
    assert "zero-loss" in kinds, result.violations
