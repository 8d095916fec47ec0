"""Chaos harness for the fleet: worker-shard loss under city load.

The single-gateway chaos corpus (:mod:`repro.chaos.scenarios`) proves
the datapath survives link-level abuse; the fleet corpus proves the
*tier* survives losing a member mid-burst.  Each scenario:

1. replays a seeded city-scale burst through an N-shard fleet, with a
   **per-shard** span tracker attached (span FIFO flushes are global
   per tracker, so sharing one across shards would let a dead shard's
   failover flush corrupt the survivors' accounting);
2. checkpoints the fleet periodically
   (:meth:`~repro.fleet.GatewayFleet.checkpoint_all`);
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
from typing import List, Tuple

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
#: Flow-table slots per shard.
FLOW_TABLE_CAPACITY = 256


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

    @property
    def ok(self) -> bool:
        return not self.violations


def run_loss_scenario(
    profile: str,
    seed: int,
    loss_mode: str = "crash",
) -> FleetScenarioResult:
    """One worker-loss-under-load scenario; see the module docstring."""
    if loss_mode not in ("crash", "maintenance"):
        raise ValueError(f"unknown loss mode {loss_mode!r}")
    config = GatewayConfig(flow_table_capacity=FLOW_TABLE_CAPACITY)
    fleet = GatewayFleet(config, shards=SHARDS, steering_seed=seed)
    trackers: List[SpanTracker] = []
    for shard in fleet.shards:
        tracker = SpanTracker()
        shard.worker.observers = (tracker,)
        trackers.append(tracker)

    workload = CityScaleWorkload(_city_profile(profile, seed))
    stream = list(workload.packets(PACKETS))
    victim = seed % SHARDS
    # Kill mid-burst: after roughly 40% of the poll batches.
    kill_at_batch = max(1, (PACKETS // POLL_BATCH) * 2 // 5)
    killed = False

    def on_batch(batch_index: int, now: float):
        nonlocal killed
        if killed:
            return None
        if batch_index % CHECKPOINT_EVERY == 0:
            fleet.checkpoint_all()
        if batch_index >= kill_at_batch:
            killed = True
            checkpoint = (
                fleet.shards[victim].checkpoint if loss_mode == "crash" else None
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
        killed, "scenario-sanity",
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
            owner = fleet.steering.shard_for(record[0])
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
    )
