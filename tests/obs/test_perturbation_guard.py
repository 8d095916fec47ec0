"""Perturbation guard: observing a world must not change the world.

Spans are attached to every chaos world and a timeline can be bolted on
top — neither may move a single packet.  The goldens in
``chaos_digests_pr5.json`` were captured *before* the span/timeline
instrumentation landed, so a digest mismatch here means the observability
layer leaked into the datapath (touched an RNG, reordered events, or
perturbed scheduling).
"""

import json
import os

import pytest

from repro.chaos.scenarios import corpus, run_scenario
from repro.obs import TelemetryTimeline

_HERE = os.path.dirname(__file__)


def _golden():
    with open(os.path.join(_HERE, "chaos_digests_pr5.json")) as handle:
        return json.load(handle)


def _attach_timeline(world):
    """Bolt a 50 ms scraper onto a chaos world (spans are already on)."""
    world._timeline = TelemetryTimeline(
        world.topo.sim, world.obs.registry, interval=0.05
    ).start()


@pytest.mark.parametrize(
    "name,seed",
    [pytest.param(name, seed, id=f"{name}:{seed}") for name, seed in corpus()],
)
def test_observed_digest_matches_preobservability_golden(name, seed):
    golden = _golden()
    result = run_scenario(name, seed, mutate=_attach_timeline)
    assert result.digest == golden[f"{name}:{seed}"]


def test_timeline_actually_scraped_during_the_guard():
    # The guard above is vacuous if the timeline never ticks; prove the
    # scraper ran while the digest stayed put.
    golden = _golden()
    captured = {}

    def attach(world):
        _attach_timeline(world)
        captured["world"] = world

    result = run_scenario("mixed", 115, mutate=attach)
    assert result.digest == golden["mixed:115"]
    timeline = captured["world"]._timeline
    assert timeline.ticks > 10
    spans = captured["world"].obs.spans
    assert spans.opened > 0 and spans.balanced
