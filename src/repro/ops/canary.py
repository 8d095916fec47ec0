"""The staged canary rollout state machine.

``BASELINE → CANARY(1% → 10% → 50%) → PROMOTED | ROLLED_BACK``

The twins run once to the schedule's full horizon; each
:class:`RolloutStage` then maps a traffic fraction to an **observation
horizon** — the sim instant by which that stage's verdict must be in.
Evaluation is retrospective and purely differential:

* **alerts** — rules that fired (or are firing) in the candidate twin
  by the stage horizon but not in the baseline twin.  Differencing
  cancels environmental noise: the scheduled failover takeover, or an
  injected chaos fault hitting both twins, fires identically on both
  sides and never blocks a promote.
* **guardrails** — :mod:`repro.ops.guardrails` tolerance bands over
  the per-horizon registry snapshots plus the egress oversize taps.

The first failing stage rolls the candidate back; the rollback is a
live zero-loss drill, not bookkeeping: the candidate world's
:class:`~repro.resilience.FailoverManager` performs a takeover (the
same flush-don't-drop path ``set_mode`` uses), and the report records
that no merged payload was stranded.  All of it is sim-deterministic:
the same seed yields a byte-identical JSON report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.world import ObservedWorld, WorkloadSchedule, default_workload_schedule
from .guardrails import default_guardrails, evaluate_guardrails, snapshot_indicators
from .twin import Deployment, TwinRun, run_twin_pair

__all__ = ["RolloutStage", "DEFAULT_STAGES", "PROMOTED", "ROLLED_BACK",
           "CanaryController", "report_to_json"]

PROMOTED = "PROMOTED"
ROLLED_BACK = "ROLLED_BACK"


@dataclass(frozen=True)
class RolloutStage:
    """One rung of the rollout ladder.

    ``fraction`` is the share of production traffic the candidate
    would carry at this stage; ``observe_until`` is the sim horizon by
    which the stage must look healthy before the controller widens the
    blast radius.
    """

    name: str
    fraction: float
    observe_until: float

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.observe_until <= 0:
            raise ValueError("observe_until must be > 0")

    def to_dict(self) -> dict:
        return {"name": self.name, "fraction": self.fraction,
                "observe_until": self.observe_until}


DEFAULT_STAGES: Tuple[RolloutStage, ...] = (
    RolloutStage("canary-1", 0.01, 1.0),
    RolloutStage("canary-10", 0.10, 2.0),
    RolloutStage("canary-50", 0.50, 3.0),
)


class CanaryController:
    """Drives one candidate through the staged rollout."""

    def __init__(
        self,
        baseline: Deployment,
        candidate: Deployment,
        seed: int = 0,
        stages: Sequence[RolloutStage] = DEFAULT_STAGES,
        schedule: Optional[WorkloadSchedule] = None,
        environment: Optional[Callable[[ObservedWorld], None]] = None,
    ):
        if not stages:
            raise ValueError("need at least one rollout stage")
        self.baseline = baseline
        self.candidate = candidate
        self.seed = seed
        self.stages = tuple(sorted(stages, key=lambda s: s.observe_until))
        self.guardrails = default_guardrails()
        self.schedule = schedule or default_workload_schedule(seed)
        self.environment = environment
        #: Populated by :meth:`run`.
        self.baseline_run: Optional[TwinRun] = None
        self.candidate_run: Optional[TwinRun] = None

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Run both twins, walk the stages, return the verdict report."""
        horizon = self.schedule.horizon
        snapshot_at = sorted({stage.observe_until for stage in self.stages
                              if stage.observe_until < horizon})
        self.baseline_run, self.candidate_run = run_twin_pair(
            self.baseline, self.candidate, seed=self.seed,
            schedule=self.schedule, snapshot_at=snapshot_at,
            environment=self.environment,
        )

        stage_trace: List[dict] = []
        rolled_back_at: Optional[str] = None
        for stage in self.stages:
            if rolled_back_at is not None:
                stage_trace.append({**stage.to_dict(), "status": "not-reached",
                                    "alerts": [], "alert_evidence": [],
                                    "guardrail_breaches": []})
                continue
            entry = self._evaluate_stage(stage)
            stage_trace.append(entry)
            if entry["status"] == "fail":
                rolled_back_at = stage.name

        verdict = ROLLED_BACK if rolled_back_at is not None else PROMOTED
        rollback = (self._zero_loss_rollback()
                    if verdict == ROLLED_BACK else None)
        bundle = (self._rollback_bundle(rolled_back_at, rollback)
                  if verdict == ROLLED_BACK else None)
        return {
            "schema": "repro-canary/1",
            "seed": self.seed,
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
            "workload": self.schedule.to_dict(),
            "guardrails": [g.to_dict() for g in self.guardrails],
            "stages": stage_trace,
            "verdict": verdict,
            "rolled_back_at": rolled_back_at,
            "rollback": rollback,
            "incident_bundle": bundle,
            "notes": {
                "baseline": self.baseline_run.world.notes,
                "candidate": self.candidate_run.world.notes,
            },
        }

    # ------------------------------------------------------------------
    def _evaluate_stage(self, stage: RolloutStage) -> dict:
        """One stage's differential verdict at its observation horizon."""
        at = stage.observe_until
        base, cand = self.baseline_run, self.candidate_run

        base_engine = base.world.alerts
        cand_engine = cand.world.alerts
        fired = sorted(set(cand_engine.fired_by(at))
                       - set(base_engine.fired_by(at)))
        firing = sorted(set(cand_engine.firing_at(at))
                        - set(base_engine.firing_at(at)))
        cited = sorted(set(fired) | set(firing))
        evidence = [entry for name in cited
                    for entry in cand_engine.history(rule=name)
                    if entry["time"] <= at]

        horizon = self.schedule.horizon
        breaches = evaluate_guardrails(
            self.guardrails,
            snapshot_indicators(base.snapshot_at(at, horizon),
                                oversize_egress=base.oversize.count(at)),
            snapshot_indicators(cand.snapshot_at(at, horizon),
                                oversize_egress=cand.oversize.count(at)),
        )
        status = "pass" if not cited and not breaches else "fail"
        return {**stage.to_dict(), "status": status, "alerts": cited,
                "alert_evidence": evidence, "guardrail_breaches": breaches}

    # ------------------------------------------------------------------
    def _zero_loss_rollback(self) -> dict:
        """Roll the candidate twin back through a live failover takeover.

        Whatever the candidate's merge engines still hold is flushed —
        never dropped — by the checkpoint/restore path, and the world
        runs briefly past the takeover so the flushed packets drain.
        """
        world = self.candidate_run.world
        worker = world.gateway.worker
        pending_bytes = worker.merge.pending_bytes()
        pending_datagrams = worker.caravan_merge.pending_packets()
        world.failover.takeover(reason="canary-rollback")
        sim = world.topo.sim
        world.topo.run(until=sim.now + 0.05)
        still_pending = world.gateway.worker.pending()
        return {
            "mechanism": "failover-takeover",
            "reason": "canary-rollback",
            "pending_bytes_before": pending_bytes,
            "pending_datagrams_before": pending_datagrams,
            "pending_after": bool(still_pending),
            "takeovers": world.failover.takeovers,
            "zero_loss": not still_pending,
        }

    # ------------------------------------------------------------------
    def _rollback_bundle(self, stage_name: Optional[str],
                         rollback: dict) -> dict:
        """Package the rollback as a deterministic incident bundle.

        Cites the candidate twin's flight-recorder window, both twins'
        alert engines (the differential evidence), the candidate's
        registry snapshot, the guardrails, the exact candidate config,
        and the adoption journeys of the flows the rollback takeover
        moved to the standby.
        """
        from ..obs.incident import build_incident_bundle

        world = self.candidate_run.world
        at = world.topo.sim.now
        checkpoint = world.failover.last_checkpoint
        flows = ([record[0] for record in checkpoint.flows][:8]
                 if checkpoint else [])
        return build_incident_bundle(
            "canary-rollback",
            at,
            window=at,
            detail={"stage": stage_name, "seed": self.seed,
                    "candidate": self.candidate.to_dict(),
                    "rollback": rollback},
            flights=[world.flight] if world.flight is not None else [],
            alerts={"baseline": self.baseline_run.world.alerts,
                    "candidate": world.alerts},
            registry=world.obs.registry,
            guardrails=self.guardrails,
            config=world.config,
            trace=world.trace,
            trackers={world.gateway.worker.index: world.obs.spans},
            flows=flows,
        )


def report_to_json(report: dict) -> str:
    """The canonical byte-deterministic rendering of a canary report."""
    return json.dumps(report, sort_keys=True, indent=2)
