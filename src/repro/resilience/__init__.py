"""Degrade-don't-die machinery for the PX datapath (guide: `docs/RESILIENCE.md`).

Three cooperating pieces:

* :mod:`~repro.resilience.health` — the per-gateway HEALTHY → DEGRADED
  → BYPASS state machine driven by watchdog heartbeats;
* :mod:`~repro.resilience.discovery` — the PMTU fallback chain
  (F-PMTUD → PLPMTUD → conservative 1500 B) with retry/backoff and a
  TTL'd :mod:`~repro.resilience.pmtu_cache`;
* :mod:`~repro.resilience.negotiation` — per-peer caravan capability
  negotiation with a negative cache.

A worker is lost only as a fleet shard
(:meth:`repro.fleet.GatewayFleet.fail_shard`).
"""

from .discovery import CONSERVATIVE_PMTU, DiscoveryOutcome, ResilientPmtud
from .health import HealthMonitor, HealthPolicy, HealthState
from .negotiation import CARAVAN_CAP_PORT, CaravanNegotiator
from .pmtu_cache import TRUST_RANK, PmtuCache, PmtuEntry
from .ptb import PtbListener
from .retry import BackoffPolicy, RetryBudget

__all__ = [
    "BackoffPolicy",
    "RetryBudget",
    "PmtuCache",
    "PmtuEntry",
    "PtbListener",
    "TRUST_RANK",
    "HealthState",
    "HealthPolicy",
    "HealthMonitor",
    "CaravanNegotiator",
    "CARAVAN_CAP_PORT",
    "ResilientPmtud",
    "DiscoveryOutcome",
    "CONSERVATIVE_PMTU",
]
