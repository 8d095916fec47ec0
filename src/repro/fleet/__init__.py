"""City-scale gateway fleet: sharded workers, flow steering, rebalance.

The package generalizes the single PXGW instance of :mod:`repro.core`
to a fleet of N worker shards behind a flow-consistent steering stage,
with bounded per-shard flow tables and checkpointed shard-loss
rebalance (:meth:`GatewayFleet.fail_shard`, the one way a worker is lost).
:mod:`repro.fleet.scaling` reports modeled pkts/s versus shard count.
"""

from .fleet import FleetShard, GatewayFleet
from .scaling import FLEET_SCHEMA, fleet_world_report, format_fleet_report
from .steering import FleetSteering

__all__ = [
    "FLEET_SCHEMA",
    "FleetShard",
    "FleetSteering",
    "GatewayFleet",
    "fleet_world_report",
    "format_fleet_report",
]
