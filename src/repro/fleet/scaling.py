"""Fleet scaling measurement: pkts/s versus worker-shard count.

The tentpole claim of the fleet tier is *near-linear scaling*: because
rendezvous steering spreads flows evenly and shards share nothing,
doubling the shard count should nearly double sustained packet rate
until the per-shard batches get too thin to amortize.

The rate reported per shard count is **modeled pkts/s** — the
cycle-accounted rate on a real CPU spec, with one core per shard: total
packets over the *hottest* shard's cycle demand (the most-loaded queue
bounds the fleet, the same bottleneck structure as
:meth:`repro.core.GatewayDatapath.sustainable_throughput_bps`).  It
reflects the parallelism the fleet actually exposes and is a pure
function of the arguments: the simulator executes shards serially, so
wall time cannot show multi-core scaling and is not reported here
(``perfbench``'s ``fleet_city`` workload times the fleet path).

Every shard count digests the *identical* pre-materialized city-scale
stream, so the comparison is pure topology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.config import GatewayConfig
from ..cpu import XEON_6554S, CpuSpec
from ..workload import CityScaleProfile, CityScaleWorkload
from .fleet import GatewayFleet

__all__ = ["FLEET_SCHEMA", "fleet_world_report", "format_fleet_report"]

#: Schema tag stamped into every fleet scaling report.
FLEET_SCHEMA = "repro-fleet-world/1"


def fleet_world_report(
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    quick: bool = False,
    packets: Optional[int] = None,
    spec: CpuSpec = XEON_6554S,
    flow_table_capacity: int = 4096,
    seed: int = 0xC17,
) -> Dict[str, object]:
    """Run the fleet scaling experiment; returns a JSON-friendly report.

    ``speedup_vs_1`` is each row's modeled rate over the 1-shard row's,
    or ``None`` on every row when *worker_counts* has no ``1``.
    """
    if packets is None:
        packets = 8_000 if quick else 40_000
    profile = CityScaleProfile(
        total_flows=packets, concurrency=max(100, packets // 40), seed=seed,
    )
    workload = CityScaleWorkload(profile)
    stream = list(workload.packets(packets))
    config = GatewayConfig(flow_table_capacity=flow_table_capacity)

    rows: List[Dict[str, object]] = []
    for shards in worker_counts:
        fleet = GatewayFleet(config, shards=shards)
        fleet.process_stream(stream)
        errors = fleet.conservation_errors()
        if errors:
            raise RuntimeError(f"fleet({shards}) imbalanced: {errors}")
        rows.append({
            "shards": shards,
            "packets": len(stream),
            "modeled_pkts_per_sec": fleet.sustainable_throughput_pps(spec),
            "speedup_vs_1": None,
            "balance": fleet.shard_balance(),
            "evictions": sum(
                shard.worker.flows.evictions for shard in fleet.shards
            ),
        })
    base = next(
        (row["modeled_pkts_per_sec"] for row in rows if row["shards"] == 1),
        None,
    )
    if base:
        for row in rows:
            row["speedup_vs_1"] = row["modeled_pkts_per_sec"] / base
    return {
        "schema": FLEET_SCHEMA,
        "spec": spec.name,
        "workload": workload.summary(),
        "rows": rows,
    }


def format_fleet_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`fleet_world_report` result."""
    lines = [
        f"fleet_world scaling on {report['spec']} "
        f"({report['rows'][0]['packets']} packets/run)",
        f"{'shards':>6}  {'modeled pkts/s':>16}  {'speedup':>8}  "
        f"{'max/mean':>8}",
    ]
    for row in report["rows"]:
        speedup = row["speedup_vs_1"]
        lines.append(
            f"{row['shards']:>6}  {row['modeled_pkts_per_sec']:>16,.0f}  "
            f"{'-' if speedup is None else f'{speedup:.2f}x':>8}  "
            f"{row['balance']['max_over_mean']:>8.3f}"
        )
    return "\n".join(lines)
