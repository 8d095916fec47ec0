"""Deterministic incident bundles: packaged evidence for one trigger.

When something goes wrong — an alert fires, the chaos oracle rejects a
run, a fleet shard dies — the operator's first
question is *what exactly happened*, and the answer must be assembled
from rings that are still warm.  :func:`build_incident_bundle` packages
that answer deterministically:

* the :class:`~repro.obs.flight.FlightRecorder` window around the
  trigger (per world or per shard);
* the firing alerts with their cited transition history;
* the reconstructed cross-shard trace for the implicated flows
  (:class:`~repro.obs.propagation.TracePropagation` journeys joined
  with flow-attributed spans), plus a consistency verdict;
* a registry snapshot;
* a digest of the exact gateway config that was running.

Everything is a pure function of sim state, so two same-seed processes
build byte-identical bundles — the CI ``incident`` job runs the whole
trigger matrix twice and diffs the files.

The three stock trigger scenarios (``alert``, ``shard-loss``,
``oracle``) live here too, behind lazy imports so this module stays
importable from ``repro.obs`` without dragging in the fleet layer at
package-init time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "TRIGGER_KINDS",
    "alert_trigger_bundle",
    "build_incident_bundle",
    "bundle_to_json",
    "config_digest",
    "oracle_trigger_bundle",
    "run_trigger_matrix",
    "shard_loss_trigger_bundle",
]

#: Every trigger the bundle builder recognises, in matrix order.
TRIGGER_KINDS = ("alert-firing", "shard-loss", "chaos-oracle")


def config_digest(config) -> Dict[str, Any]:
    """A stable digest (plus the full dump) of one gateway config."""
    payload = dataclasses.asdict(config)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "config": payload,
    }


def build_incident_bundle(
    kind: str,
    time: float,
    *,
    window: float = 1.0,
    detail: Optional[Dict[str, Any]] = None,
    flights: Sequence = (),
    alerts: Optional[Dict[str, Any]] = None,
    registry=None,
    config=None,
    trace=None,
    trackers: Optional[Dict[Any, Any]] = None,
    flows: Sequence = (),
    owner_of=None,
) -> Dict[str, Any]:
    """Assemble one deterministic incident bundle.

    ``kind`` is one of :data:`TRIGGER_KINDS`; ``time`` is the trigger's
    sim time and ``window`` how many sim-seconds of flight-recorder
    history to cite before it.  ``alerts`` maps a label (world or shard
    name) to its :class:`~repro.obs.alerts.AlertEngine`; ``trace`` is
    the fleet's :class:`TracePropagation` and ``flows`` the implicated
    flows whose journeys the bundle reconstructs against the per-shard
    ``trackers``.  ``owner_of`` is the steering table's non-perturbing
    ownership peek used by the consistency check.
    """
    if kind not in TRIGGER_KINDS:
        raise ValueError(f"unknown trigger kind {kind!r} (use {TRIGGER_KINDS})")
    since = time - window

    bundle: Dict[str, Any] = {
        "schema": "repro-incident/1",
        "trigger": {"kind": kind, "time": time, "detail": detail or {}},
        "window": {"since": since, "until": time},
    }

    bundle["flight"] = {
        recorder.name: recorder.to_dict(since=since, until=time)
        for recorder in flights
    }

    if alerts:
        cited: Dict[str, Any] = {}
        for label in sorted(alerts):
            engine = alerts[label]
            fired = engine.fired_by(time)
            firing = engine.firing_at(time)
            states = engine.states_at(time)
            # Cite every rule that ever fired plus anything not-ok at
            # the cut (a rule still PENDING when a shard died is
            # evidence, not noise).
            interesting = set(fired) | set(firing) | {
                rule for rule, state in states.items() if state != "ok"
            }
            history = [entry for entry in engine.history()
                       if entry["time"] <= time
                       and entry["rule"] in interesting]
            cited[label] = {
                "fired": fired,
                "firing": firing,
                "states": states,
                "history": history,
            }
        bundle["alerts"] = cited
    else:
        bundle["alerts"] = {}

    trace_section: Dict[str, Any] = {
        "flows": [str(flow) for flow in flows],
        "journeys": [],
        "consistent": True,
        "problems": [],
    }
    if trace is not None:
        journeys: List[dict] = []
        for flow in flows:
            journey = trace.reconstruct(flow, trackers)
            if journey is not None:
                journeys.append(journey)
        problems = trace.verify(flows, owner_of=owner_of, trackers=trackers)
        trace_section["journeys"] = journeys
        trace_section["problems"] = problems
        trace_section["consistent"] = not problems
        trace_section["summary"] = trace.summary()
    bundle["trace"] = trace_section

    bundle["metrics"] = (
        dict(sorted(registry.snapshot().items())) if registry is not None
        else {}
    )
    bundle["config"] = config_digest(config) if config is not None else None
    return bundle


def bundle_to_json(bundle: Dict[str, Any],
                   indent: Optional[int] = None) -> str:
    """Byte-deterministic serialization of one bundle (or a matrix)."""
    if indent is None:
        return json.dumps(bundle, sort_keys=True, separators=(",", ":"))
    return json.dumps(bundle, sort_keys=True, indent=indent)


# ----------------------------------------------------------------------
# Stock trigger scenarios — one per trigger class the issue names.
# Imports are lazy: each pulls in exactly the layers its scenario needs.
# ----------------------------------------------------------------------

def alert_trigger_bundle(seed: int = 0) -> Dict[str, Any]:
    """Alert-firing trigger: a merge-disabled world trips the SLO rules.

    Runs the seeded observed world with delayed merging switched off
    and no flow ever promoted to merge-eligible, so the
    ``merge-ratio-floor`` rule deterministically fires; the bundle is
    cut at the first firing transition.
    """
    from dataclasses import replace

    from ..core.config import GatewayConfig
    from .alerts import default_alert_rules, default_burn_rules
    from .world import run_observed_world

    config = replace(
        GatewayConfig(imtu=9000, emtu=1500, header_only_dma=True),
        delayed_merge=False,
        elephant_threshold_packets=1_000_000,
    )
    rules = default_alert_rules("pxgw") + default_burn_rules()
    world = run_observed_world(seed=seed, config=config, alert_rules=rules)
    engine = world.alerts
    firings = engine.firings()
    at = firings[0]["time"] if firings else world.topo.sim.now
    checkpoint = world.failover.last_checkpoint
    flows = [record[0] for record in checkpoint.flows][:8] if checkpoint else []
    worker = world.gateway.worker.index
    return build_incident_bundle(
        "alert-firing",
        at,
        detail={"rules": sorted({t["rule"] for t in firings}), "seed": seed},
        flights=[world.flight],
        alerts={"world": engine},
        registry=world.obs.registry,
        config=world.config,
        trace=world.trace,
        trackers={worker: world.obs.spans},
        flows=flows,
    )


def shard_loss_trigger_bundle(seed: int = 101) -> Dict[str, Any]:
    """Fleet shard-loss trigger: an observed maintenance-mode loss run."""
    from ..fleet.chaos import run_loss_scenario

    result = run_loss_scenario("mixed", seed, loss_mode="maintenance",
                               observe=True)
    if result.incident is None:
        raise RuntimeError("observed loss scenario produced no bundle")
    return result.incident


def oracle_trigger_bundle(seed: int = 101) -> Dict[str, Any]:
    """Chaos-oracle trigger: a sabotaged run the oracle must reject.

    The ``stale-checkpoint`` sabotage restores the victim from a
    checkpoint captured long before the kill, so the maintenance-mode
    zero-loss differential fails and the oracle's violations become the
    bundle's trigger detail.
    """
    from ..fleet.chaos import run_loss_scenario

    result = run_loss_scenario("mixed", seed, loss_mode="maintenance",
                               observe=True, sabotage="stale-checkpoint")
    if result.incident is None:
        raise RuntimeError("sabotaged loss scenario produced no bundle")
    if result.incident["trigger"]["kind"] != "chaos-oracle":
        raise RuntimeError("sabotage did not trip the chaos oracle")
    return result.incident


def run_trigger_matrix(seed: int = 0) -> Dict[str, Any]:
    """All three stock triggers in one deterministic document."""
    return {
        "schema": "repro-incident-matrix/1",
        "seed": seed,
        "bundles": {
            "alert": alert_trigger_bundle(seed=seed),
            "shard-loss": shard_loss_trigger_bundle(seed=101 + seed),
            "oracle": oracle_trigger_bundle(seed=101 + seed),
        },
    }
