"""Chaos harness for the fleet: worker-shard loss under city load.

The single-gateway chaos corpus (:mod:`repro.chaos.scenarios`) proves
the datapath survives link-level abuse; the fleet corpus proves the
*tier* survives losing a member mid-burst.  Each scenario:

1. replays a seeded city-scale burst through an N-shard fleet, with a
   **per-shard** span tracker attached (span FIFO flushes are global
   per tracker, so sharing one across shards would let a dead shard's
   failover flush corrupt the survivors' accounting);
2. checkpoints the fleet periodically, exactly as a
   :class:`~repro.resilience.failover.FailoverManager` would;
3. kills a seeded victim shard mid-burst — ``crash`` mode resumes from
   the last periodic checkpoint (the staleness-bounded model), while
   ``maintenance`` mode checkpoints at the instant of death (provably
   zero-loss);
4. finishes the burst on the survivors and runs the oracle:
   fleet conservation identities, zero-loss packet accounting
   (maintenance mode), per-shard span balance with zero anomalies,
   flow-affinity consistency (every surviving flow record sits on the
   shard steering says owns it), and a deterministic egress digest.

Scenario seeds derive from the same ``(profile, seed)`` corpus grid as
the link-chaos suite, so the 56-scenario machinery is shared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chaos.oracle import InvariantOracle, summarize_packet
from ..chaos.scenarios import PROFILES
from ..core.config import GatewayConfig
from ..core.dispatch import POLL_BATCH
from ..obs.spans import SpanTracker
from ..workload import CityScaleProfile, CityScaleWorkload
from .fleet import GatewayFleet

__all__ = ["FleetScenarioResult", "run_loss_scenario", "fleet_corpus"]

#: Shards in every loss scenario's fleet.
SHARDS = 4
#: Packets in every scenario's city burst.
PACKETS = 1_000
#: Poll batches between periodic fleet checkpoints.
CHECKPOINT_EVERY = 4


def fleet_corpus(count: int = 56) -> "List[Tuple[str, int, str]]":
    """The fleet loss corpus: (profile, seed, loss_mode) grid.

    Reuses the link-chaos profile rotation and seed spacing so the two
    corpora stay aligned; loss mode alternates crash/maintenance.
    """
    return [
        (PROFILES[i % len(PROFILES)], 101 + 7 * i,
         "crash" if i % 2 == 0 else "maintenance")
        for i in range(count)
    ]


def _city_profile(profile: str, seed: int) -> CityScaleProfile:
    """Map a chaos profile name onto a city population shape."""
    if profile == "tcp":
        return CityScaleProfile(
            total_flows=400, concurrency=60, udp_fraction=0.0,
            elephant_fraction=0.25, seed=seed,
        )
    if profile == "caravan":
        return CityScaleProfile(
            total_flows=400, concurrency=60, udp_fraction=1.0,
            elephant_fraction=0.25, seed=seed,
        )
    if profile == "pmtud":
        # Small-payload mice churn: stresses steering + table eviction.
        return CityScaleProfile(
            total_flows=600, concurrency=80, udp_fraction=0.3,
            elephant_fraction=0.02, mouse_mean_packets=3,
            tcp_payload=512, udp_payload=400, seed=seed,
        )
    return CityScaleProfile(  # "mixed"
        total_flows=500, concurrency=70, udp_fraction=0.3,
        elephant_fraction=0.10, seed=seed,
    )


@dataclass
class FleetScenarioResult:
    """One fleet loss scenario's outcome."""

    profile: str
    seed: int
    loss_mode: str
    victim: int
    packets: int
    egress: int
    flows_migrated: int
    digest: str
    violations: List[str] = field(default_factory=list)
    #: Deterministic incident bundle (observe=True runs only).
    incident: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _shard_snapshot(shard) -> "Dict[str, float]":
    """A tiny deterministic per-shard scrape for the alert engines."""
    stats = shard.worker.stats
    return {
        "shard_rx_packets": float(stats.rx_packets),
        "shard_malformed_caravans": float(stats.malformed_caravans),
        "shard_flow_evictions": float(shard.worker.flows.evictions),
    }


def _shard_alert_rules():
    """Per-shard SLO rules for observed fleet runs.

    A burn-rate pair (malformed caravans against ingress), an
    immediately-firing liveness rule, and an eviction-pressure rule
    whose for-duration is far beyond the burst's virtual clock — the
    latter is deliberately left PENDING when a shard dies mid-burst
    (the ``history()`` replay case the tests pin down).
    """
    from ..obs.alerts import AlertRule, burn_rate_rules

    return burn_rate_rules("shard_malformed_caravans", "shard_rx_packets") + (
        AlertRule(
            name="shard-ingress-active", kind="value",
            series="shard_rx_packets", op=">", threshold=0.0,
            description="The shard has seen traffic (fires immediately).",
        ),
        AlertRule(
            name="shard-table-pressure", kind="value",
            series="shard_flow_evictions", op=">", threshold=0.0,
            for_duration=1.0,
            description="Flow-table evictions observed; dwells pending "
                        "far longer than any burst's virtual clock.",
        ),
    )


def run_loss_scenario(
    profile: str,
    seed: int,
    loss_mode: str = "crash",
    flow_table_capacity: int = 256,
    observe: bool = False,
    sabotage: Optional[str] = None,
) -> FleetScenarioResult:
    """One worker-loss-under-load scenario; see the module docstring.

    With ``observe=True`` the run carries the full post-incident layer:
    cross-shard trace propagation on the steering stage, a flight
    recorder per shard plus one for the fleet, and a per-shard
    :class:`~repro.obs.alerts.AlertEngine` evaluated at every
    checkpoint sweep — and the result ships a deterministic incident
    bundle (trigger ``shard-loss``, or ``chaos-oracle`` when the oracle
    found violations).  All of it is bookkeeping off the datapath, so
    the egress digest is identical with or without it.

    ``sabotage="stale-checkpoint"`` restores the victim from the
    checkpoint captured at the *first* sweep regardless of loss mode —
    a deliberately broken recovery that the zero-loss differential
    oracle must reject (the chaos-oracle bundle trigger).
    """
    if loss_mode not in ("crash", "maintenance"):
        raise ValueError(f"unknown loss mode {loss_mode!r}")
    if sabotage not in (None, "stale-checkpoint"):
        raise ValueError(f"unknown sabotage {sabotage!r}")
    config = GatewayConfig(flow_table_capacity=flow_table_capacity)
    fleet = GatewayFleet(config, shards=SHARDS, steering_seed=seed)
    trackers: List[SpanTracker] = []
    for shard in fleet.shards:
        tracker = SpanTracker()
        shard.worker.observers = (tracker,)
        trackers.append(tracker)

    trace = None
    fleet_flight = None
    shard_flights: List[object] = []
    engines: List[object] = []
    if observe:
        from ..obs.alerts import AlertEngine
        from ..obs.flight import FlightRecorder
        from ..obs.propagation import TracePropagation

        trace = TracePropagation(seed=seed).attach(fleet)
        fleet_flight = FlightRecorder(name="fleet")
        shard_flights = [
            FlightRecorder(name=f"shard{shard.id}").wire(spans=tracker)
            for shard, tracker in zip(fleet.shards, trackers)
        ]
        engines = [AlertEngine(_shard_alert_rules()) for _ in fleet.shards]

    workload = CityScaleWorkload(_city_profile(profile, seed))
    stream = list(workload.packets(PACKETS))
    victim = seed % SHARDS
    # Kill mid-burst: after roughly 40% of the poll batches.
    kill_at_batch = max(1, (PACKETS // POLL_BATCH) * 2 // 5)
    state: Dict[str, object] = {
        "killed": False, "checkpoint_at": 0.0,
        "stale": None, "eval_at": 0.0, "prev": None, "loss_at": None,
    }

    def _evaluate_shards(now: float) -> None:
        window = now - float(state["eval_at"])
        prev = state["prev"]
        snaps = [_shard_snapshot(shard) for shard in fleet.shards]
        merged_deltas: Dict[str, float] = {}
        for shard, engine, snap in zip(fleet.shards, engines, snaps):
            if not shard.alive:
                # A dead shard's engine is never evaluated again: rules
                # pending at the loss stay pending in its history.
                continue
            base = prev[shard.id] if prev is not None else {}
            deltas = {k: v - base.get(k, 0.0) for k, v in snap.items()}
            engine.evaluate(now, snap, deltas, window or None)
            for key, value in deltas.items():
                merged_deltas[key] = merged_deltas.get(key, 0.0) + value
        fleet_flight.add_sample(now, merged_deltas)
        state["prev"] = snaps
        state["eval_at"] = now

    def on_batch(batch_index: int, now: float):
        if not state["killed"] and batch_index % CHECKPOINT_EVERY == 0:
            fleet.checkpoint_all(now)
            state["checkpoint_at"] = now
            if state["stale"] is None:
                state["stale"] = fleet.shards[victim].checkpoint
            if observe:
                fleet_flight.note(now, "checkpoint-sweep", batch=batch_index)
                _evaluate_shards(now)
        if not state["killed"] and batch_index >= kill_at_batch:
            state["killed"] = True
            state["loss_at"] = now
            checkpoint = (
                fleet.shards[victim].checkpoint if loss_mode == "crash" else None
            )
            if sabotage == "stale-checkpoint":
                checkpoint = state["stale"]
            if observe:
                fleet_flight.note(
                    now, "shard-loss", shard=victim, mode=loss_mode,
                    sabotage=sabotage,
                )
            return fleet.fail_shard(victim, now, checkpoint=checkpoint)
        return None

    egress = fleet.process_stream(stream, on_batch=on_batch)

    oracle = InvariantOracle()
    errors = fleet.conservation_errors()
    oracle.expect(
        not errors, "fleet-conservation",
        f"identities violated after {loss_mode} loss: {errors}",
    )
    oracle.expect(
        bool(state["killed"]), "scenario-sanity",
        "victim shard was never killed (burst too short for kill point)",
    )
    oracle.expect(
        not fleet.shards[victim].alive, "scenario-sanity",
        "victim shard still alive after fail_shard",
    )
    if loss_mode == "maintenance":
        # Fresh checkpoint at the instant of death: nothing is lost.
        # The differential oracle: a control fleet digests the same
        # stream with no loss; every conservation-relevant counter must
        # match exactly (packets and payload neither vanish nor
        # double-count through the checkpoint/rebalance machinery).
        control = GatewayFleet(config, shards=SHARDS, steering_seed=seed)
        control.process_stream(stream)
        want, got = control.combined_stats(), fleet.combined_stats()
        for counter in (
            "rx_packets", "tcp_payload_in", "tcp_payload_out",
            "udp_datagrams_in", "udp_datagrams_out",
        ):
            oracle.expect(
                getattr(got, counter) == getattr(want, counter), "zero-loss",
                f"{counter} {getattr(got, counter)} != control "
                f"{getattr(want, counter)}",
            )
    for shard, tracker in zip(fleet.shards, trackers):
        oracle.expect(
            tracker.balanced, "span-balance",
            f"shard {shard.id} span balance broken: {tracker.balance()}",
        )
        oracle.expect(
            tracker.anomalies == 0, "span-anomalies",
            f"shard {shard.id} saw {tracker.anomalies} span anomalies",
        )
    for shard in fleet.shards:
        if not shard.alive:
            continue
        for record in shard.worker.flows.snapshot():
            owner = fleet.steering.shard_for(record[0], fleet._virtual_now)
            if owner != shard.id:
                oracle.expect(
                    False, "flow-affinity",
                    f"flow {record[0]} lives on shard {shard.id}, steering "
                    f"says {owner}",
                )
                break

    hasher = hashlib.sha256()
    for packet in egress:
        hasher.update(repr(summarize_packet(packet)).encode())

    incident = None
    if observe:
        from ..obs.collectors import Observability, observe_fleet
        from ..obs.incident import build_incident_bundle
        from ..obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        observe_fleet(Observability(registry=registry), fleet)
        implicated = [
            ctx.flow for ctx in trace.contexts.values()
            if any(hop["kind"] == "rebalance" for hop in ctx.hops)
        ][:8]
        final_now = fleet._virtual_now
        kind = "chaos-oracle" if oracle.violations else "shard-loss"
        incident = build_incident_bundle(
            kind,
            final_now,
            window=final_now,
            detail={
                "profile": profile, "seed": seed, "loss_mode": loss_mode,
                "victim": victim, "sabotage": sabotage,
                "loss_at": state["loss_at"],
                "violations": list(oracle.violations),
            },
            flights=[fleet_flight] + shard_flights,
            alerts={f"shard{shard.id}": engine
                    for shard, engine in zip(fleet.shards, engines)},
            registry=registry,
            config=config,
            trace=trace,
            trackers={shard.id: tracker
                      for shard, tracker in zip(fleet.shards, trackers)},
            flows=implicated,
            owner_of=fleet.steering.owner_of,
        )

    return FleetScenarioResult(
        profile=profile,
        seed=seed,
        loss_mode=loss_mode,
        victim=victim,
        packets=len(stream),
        egress=len(egress),
        flows_migrated=fleet.flows_migrated,
        digest=hasher.hexdigest(),
        violations=list(oracle.violations),
        incident=incident,
    )
