"""Determinism guard: the fast-path rewrite must not move a single event.

The chaos digests hash every link-tap event stream of a scenario (every
link's tx/rx/drop, in order).  The goldens were captured before the
observability layer landed, so any reordering, dropped notification,
or changed length introduced by a datapath rewrite fails here — not in
a flaky end-to-end run.
"""

import json
import os

import pytest

from repro.chaos.scenarios import corpus, run_scenario

_GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "obs", "chaos_digests_pr5.json")


@pytest.mark.parametrize(
    "name,seed",
    [
        pytest.param(name, seed, id=f"{name}:{seed}")
        for name, seed in corpus()[:8]
    ],
)
def test_chaos_digest_matches_golden(name, seed):
    # The full 56-scenario sweep runs in tests/chaos and
    # tests/obs/test_perturbation_guard.py; here a fast cross-profile
    # slice pins the same goldens so a datapath change that silently
    # perturbs event order is caught in this suite too.
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    result = run_scenario(name, seed)
    assert result.digest == golden[f"{name}:{seed}"]
