"""Unified observability: metrics registry, flow tracing, exporters
(see ``docs/OBSERVABILITY.md`` for the metric catalog and CLI examples).

The layer the ROADMAP's "production-scale" north star requires: every
quantitative claim the PXGW makes (merge ratios, caravan occupancy,
per-packet cycle cost, F-PMTUD convergence) becomes an exported metric
series or a trace event instead of an ad-hoc counter buried in a
component.

Design rules:

* **Pull, not push** — components keep their cheap ad-hoc counters;
  scrape-time *collectors* mirror them onto the registry.  Attaching a
  registry adds zero per-packet work, so chaos digests and perf
  numbers are unaffected.
* **Sim time only** — nothing in an export ever reads a wall clock, so
  two same-seed runs are byte-identical (the determinism guard diffs
  ``to_prometheus_text()`` directly).
* **Tracing is opt-in** — :class:`FlowTracer`, :class:`SpanTracker`
  and :class:`TracePropagation` subscribe to the one seam (each
  emitter's ``observers`` tuple, empty by default); nothing outside
  this package and the harness worlds imports it.
* **Latency lives in sim time** — :class:`SpanTracker` spans open at
  gateway ingress and close at egress/drop with parent/child causality
  across merge, split, and caravan stages; :class:`TelemetryTimeline`
  scrapes the registry periodically *inside* the simulation; and
  :class:`AlertEngine` turns scrapes into PENDING→FIRING→RESOLVED
  transitions stamped in sim time.  All three export byte-identically
  across same-seed runs.

See ``docs/OBSERVABILITY.md`` for the metric catalog and CLI examples.
"""

from .alerts import (
    AlertEngine,
    AlertRule,
    burn_rate_rules,
    default_alert_rules,
    default_burn_rules,
)
from .collectors import (
    Observability,
    observe_failover,
    observe_fleet,
    observe_gateway,
    observe_nic,
    observe_pmtud,
    observe_spans,
    observe_tcp,
    observe_upf,
)
from .flight import FlightRecorder
from .incident import (
    TRIGGER_KINDS,
    build_incident_bundle,
    bundle_to_json,
    config_digest,
    run_trigger_matrix,
)
from .propagation import TraceContext, TracePropagation
from .registry import (
    LOG2_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import LATENCY_BUCKETS, LATENCY_METRICS, Span, SpanTracker
from .timeline import TelemetryTimeline
from .tracer import FlowTracer
from .world import (
    ObservedWorld,
    WorkloadSchedule,
    default_workload_schedule,
    run_observed_world,
)

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Counter",
    "FlightRecorder",
    "FlowTracer",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "LATENCY_METRICS",
    "LOG2_BUCKETS",
    "MetricsRegistry",
    "Observability",
    "ObservedWorld",
    "Span",
    "SpanTracker",
    "TRIGGER_KINDS",
    "TelemetryTimeline",
    "TraceContext",
    "TracePropagation",
    "build_incident_bundle",
    "bundle_to_json",
    "burn_rate_rules",
    "config_digest",
    "default_alert_rules",
    "default_burn_rules",
    "observe_failover",
    "observe_fleet",
    "observe_gateway",
    "observe_nic",
    "observe_pmtud",
    "observe_spans",
    "observe_tcp",
    "observe_upf",
    "run_observed_world",
    "run_trigger_matrix",
    "WorkloadSchedule",
    "default_workload_schedule",
]
