"""Thin adapters publishing each layer's ad-hoc counters as metrics.

Every ``observe_*`` function registers a scrape-time collector on an
:class:`Observability` bundle's registry.  The collectors close over
the *owning* object (gateway, UPF, NIC model), not over its current
sub-objects, so a late-attached resilience layer is picked up on the
next scrape automatically.

Metric naming convention (see ``docs/OBSERVABILITY.md``)::

    px_<layer>_<noun>[_<unit>]_total   counters
    px_<layer>_<noun>[_<unit>]         gauges
    px_<layer>_<noun>_<unit>           histograms (base unit in name)

Layers: ``gateway``, ``worker``, ``health``, ``pmtu_cache``,
``negotiation``, ``nic``, ``upf``, ``pmtud``, ``tcp``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .registry import MetricsRegistry
from .spans import LATENCY_BUCKETS, LATENCY_METRICS, SpanTracker
from .tracer import FlowTracer

__all__ = [
    "Observability",
    "observe_gateway",
    "observe_nic",
    "observe_spans",
    "observe_upf",
    "observe_pmtud",
    "observe_tcp",
]


class Observability:
    """A registry plus optional tracer and span tracker.

    The tracer and span tracker may be ``None`` for metrics-only
    attachment (the default; chaos worlds add spans explicitly): only
    the ones present subscribe to a gateway (:meth:`attach`), so a
    metrics-only bundle adds zero work to the datapath.  When a span
    tracker is supplied, its latency histograms and balance counters
    are published on the registry via :func:`observe_spans`
    automatically.
    """

    def __init__(
        self,
        tracer: Optional[FlowTracer] = None,
        spans: Optional[SpanTracker] = None,
    ):
        self.registry = MetricsRegistry()
        self.tracer = tracer
        self.spans = spans
        self._gateways: list = []
        if spans is not None:
            observe_spans(self, spans)

    def attach(self, gateway) -> None:
        """What :meth:`PXGateway.attach_observability` does; once per gateway."""
        if gateway in self._gateways:
            return
        self._gateways.append(gateway)
        subscribers = tuple(o for o in (self.tracer, self.spans) if o is not None)
        for emitter in (gateway, gateway.worker, gateway.health):
            if emitter is not None:
                emitter.observers += subscribers
        observe_gateway(self, gateway)


# ----------------------------------------------------------------------
# Span tracker (lifecycle latency)
# ----------------------------------------------------------------------
def observe_spans(obs: Observability, tracker: SpanTracker) -> None:
    """Publish a span tracker's balance counters and latency histograms.

    The four latency histograms use the sub-second ``LATENCY_BUCKETS``
    ladder (not the byte-oriented ``LOG2_BUCKETS`` default) and are
    mirrored idempotently from the tracker's exact value->count maps
    via :meth:`Histogram.load`, keeping scrapes byte-deterministic.
    """

    def collect(registry: MetricsRegistry) -> None:
        registry.counter(
            "px_spans_opened_total", "Spans opened at gateway ingress"
        ).set_total(tracker.opened)
        registry.counter(
            "px_spans_closed_total", "Spans closed at egress"
        ).set_total(tracker.closed)
        registry.counter(
            "px_spans_dropped_total", "Spans closed as dropped"
        ).set_total(tracker.dropped)
        registry.counter(
            "px_spans_anomalies_total", "Span accounting impossibilities"
        ).set_total(tracker.anomalies)
        registry.counter(
            "px_spans_shed_total", "Finished spans evicted from the ring"
        ).set_total(tracker.shed)
        registry.gauge(
            "px_spans_open", "Spans currently open (in flight or buffered)"
        ).set(tracker.open_count())
        for metric in LATENCY_METRICS:
            registry.histogram(
                metric, "Sim-time latency distribution",
                bounds=LATENCY_BUCKETS,
            ).load(tracker.latency_values(metric))

    obs.registry.register_collector(collect)


# ----------------------------------------------------------------------
# Gateway + worker + attached resilience
# ----------------------------------------------------------------------
def observe_gateway(obs: Observability, gateway) -> None:
    """Publish a PXGateway's full counter surface (worker, resilience).

    Reads ``gateway.worker`` (and ``gateway.health`` / ``pmtu_cache`` /
    ``negotiator``) at scrape time, so late resilience attachment is
    always reflected.
    """
    label = gateway.name

    def collect(registry: MetricsRegistry) -> None:
        worker = gateway.worker
        stats = worker.stats

        def counter(metric: str, value, help: str = "", **labels) -> None:
            registry.counter(metric, help, gateway=label, **labels).set_total(value)

        def gauge(metric: str, value, help: str = "", **labels) -> None:
            registry.gauge(metric, help, gateway=label, **labels).set(value)

        counter("px_gateway_rx_packets_total", stats.rx_packets,
                "Packets offered to the worker pipeline.")
        counter("px_gateway_tx_packets_total", stats.tx_packets,
                "Packets emitted by the worker pipeline.")
        counter("px_gateway_merged_packets_total", stats.merged_packets,
                "Full-iMTU segments spliced by the merge engine.")
        counter("px_gateway_split_segments_total", stats.split_segments,
                "Segments produced by outbound splitting.")
        counter("px_gateway_caravans_built_total", stats.caravans_built,
                "PX-caravan bundles assembled.")
        counter("px_gateway_caravans_opened_total", stats.caravans_opened,
                "PX-caravan bundles opened back into datagrams.")
        counter("px_gateway_caravans_suppressed_total", stats.caravans_suppressed,
                "Datagrams sent plain because negotiation withheld bundling.")
        counter("px_gateway_malformed_caravans_total", stats.malformed_caravans,
                "Caravans the split engine refused to open.")
        counter("px_gateway_hairpinned_packets_total", stats.hairpinned,
                "Mice bounced through the NIC hairpin.")
        counter("px_gateway_mss_rewrites_total", stats.mss_rewrites,
                "SYN/SYN-ACK MSS options rewritten.")
        counter("px_gateway_hdo_fallbacks_total", stats.hdo_fallbacks,
                "Header-only DMA packets charged at full-DMA rates.")
        counter("px_gateway_passthrough_packets_total", stats.passthrough_packets,
                "Data packets forwarded unmerged while DEGRADED.")
        counter("px_gateway_bypassed_packets_total", stats.bypassed_packets,
                "Packets hairpinned past the pipeline in BYPASS mode.")
        counter("px_gateway_dropped_packets_total", gateway.dropped,
                "Packets dropped for lack of a route.")
        counter("px_gateway_untranslated_packets_total", gateway.untranslated,
                "Packets forwarded whole to an equal-or-larger-iMTU peer.")
        counter("px_gateway_tcp_payload_bytes_total", stats.tcp_payload_in,
                "TCP payload bytes through the merge/split engines.",
                direction="in")
        counter("px_gateway_tcp_payload_bytes_total", stats.tcp_payload_out,
                direction="out")
        counter("px_gateway_udp_datagrams_total", stats.udp_datagrams_in,
                "UDP datagrams through the caravan engines.", direction="in")
        counter("px_gateway_udp_datagrams_total", stats.udp_datagrams_out,
                direction="out")
        counter("px_gateway_udp_datagrams_malformed_total",
                stats.udp_datagrams_malformed,
                "Datagrams discarded inside damaged caravans.")
        gauge("px_gateway_pending_merge_bytes", worker.merge.pending_bytes(),
              "TCP payload bytes buffered across merge contexts.")
        gauge("px_gateway_pending_caravan_datagrams",
              worker.caravan_merge.pending_packets(),
              "Datagrams buffered across caravan contexts.")
        gauge("px_gateway_conversion_yield", stats.conversion_yield,
              "Fraction of inbound data packets at full iMTU.")
        registry.histogram(
            "px_gateway_inbound_packet_bytes",
            "Sizes of data packets emitted toward the b-network.",
            gateway=label,
        ).load(stats.inbound_size_histogram)

        from ..core.worker import WorkerMode

        gauge("px_worker_mode", WorkerMode.ALL.index(worker.mode),
              "Datapath mode (0=normal, 1=degraded, 2=bypass).")
        gauge("px_worker_index", worker.index,
              "Index of the worker currently serving the datapath.")
        counter("px_worker_cycles_total", worker.account.cycles,
                "CPU cycles charged by the cost model.")
        counter("px_worker_merge_evictions_total", worker.merge.evictions,
                "Merge contexts evicted by capacity pressure.")
        gauge("px_worker_merge_contexts", len(worker.merge),
              "Open TCP merge contexts.")
        gauge("px_worker_caravan_contexts", len(worker.caravan_merge),
              "Open caravan merge contexts.")
        gauge("px_worker_flows", len(worker.flows),
              "Flow-table entries owned by the worker.")

        health = gateway.health
        if health is not None:
            from ..resilience.health import HealthState

            gauge("px_health_state", HealthState.ORDER.index(health.state),
                  "Gateway health (0=healthy, 1=degraded, 2=bypass).")
            counter("px_health_beats_total", health.beats,
                    "Watchdog heartbeats evaluated.")
            counter("px_health_bad_beats_total", health.bad_beats,
                    "Heartbeats with at least one bad signal.")
            counter("px_health_transitions_total", len(health.transitions),
                    "Health state transitions recorded.")
            for signal, count in health.signal_counts.items():
                counter("px_health_signals_total", count,
                        "Beats on which each bad-health signal fired.",
                        signal=signal)

        cache = gateway.pmtu_cache
        if cache is not None:
            counter("px_pmtu_cache_hits_total", cache.hits,
                    "Live PMTU-cache lookups answered.")
            counter("px_pmtu_cache_misses_total", cache.misses,
                    "PMTU-cache lookups that missed or had expired.")
            counter("px_pmtu_cache_expirations_total", cache.expirations,
                    "Entries dropped by TTL expiry.")
            counter("px_pmtu_cache_invalidations_total", cache.invalidations,
                    "Entries flushed by invalidation (route changes).")
            counter("px_pmtu_cache_poison_rejected_total",
                    getattr(cache, "poison_rejected", 0),
                    "Unsolicited learns refused by the hardening policy "
                    "(implausible values or raises over live entries).")
            counter("px_pmtu_cache_contradictions_total",
                    getattr(cache, "contradictions", 0),
                    "Cached entries dropped because a fresh probe "
                    "measurement contradicted them.")
            gauge("px_pmtu_cache_entries", len(cache),
                  "Live PMTU-cache entries.")

        negotiator = gateway.negotiator
        if negotiator is not None:
            counter("px_negotiation_queries_total", negotiator.queries_sent,
                    "Caravan CAP-QUERY probes sent.")
            counter("px_negotiation_acks_total", negotiator.acks_received,
                    "CAP-ACK answers received.")
            counter("px_negotiation_negative_verdicts_total",
                    negotiator.negative_verdicts,
                    "Peers placed in the negative cache after silence.")
            counter("px_negotiation_suppressed_bundles_total",
                    negotiator.suppressed_bundles,
                    "Bundling decisions withheld pending/denied capability.")

    obs.registry.register_collector(collect)


# ----------------------------------------------------------------------
# NIC: receive rings, hairpin, RSS steering
# ----------------------------------------------------------------------
def observe_nic(
    obs: Observability,
    queues: Iterable = (),
    hairpin=None,
    rss=None,
) -> None:
    """Publish RX-ring depth/drops, hairpin traffic, and RSS steering."""
    nic = "nic0"
    rings = list(queues)

    def collect(registry: MetricsRegistry) -> None:
        for ring in rings:
            labels = {"nic": nic, "queue": str(ring.index)}
            registry.gauge("px_nic_queue_depth",
                           "Descriptors waiting in the RX ring.",
                           **labels).set(len(ring))
            registry.gauge("px_nic_queue_peak_depth",
                           "High-water mark of the RX ring.",
                           **labels).set(ring.peak_depth)
            registry.counter("px_nic_queue_enqueued_total",
                             "Packets accepted into the RX ring.",
                             **labels).set_total(ring.enqueued)
            registry.counter("px_nic_queue_dropped_total",
                             "Packets dropped because the RX ring was full.",
                             **labels).set_total(ring.dropped)
        if hairpin is not None:
            registry.gauge("px_nic_hairpin_depth",
                           "Packets waiting in the hairpin ring.",
                           nic=nic).set(len(hairpin))
            registry.counter("px_nic_hairpin_forwarded_total",
                             "Packets the NIC forwarded host-free.",
                             nic=nic).set_total(hairpin.forwarded)
            registry.counter("px_nic_hairpin_dropped_total",
                             "Packets dropped at a full hairpin ring.",
                             nic=nic).set_total(hairpin.dropped)
        if rss is not None:
            for queue, steered in enumerate(rss.steered):
                registry.counter("px_nic_rss_steered_total",
                                 "Steering decisions landing on each RX queue.",
                                 nic=nic, queue=str(queue)).set_total(steered)

    obs.registry.register_collector(collect)


# ----------------------------------------------------------------------
# UPF pipeline
# ----------------------------------------------------------------------
def observe_upf(obs: Observability, upf) -> None:
    """Publish a UPF's pipeline counters and per-rule hit counts."""

    def collect(registry: MetricsRegistry) -> None:
        stats = upf.stats

        def counter(metric: str, value, help: str = "", **labels) -> None:
            registry.counter(metric, help, upf="upf0", **labels).set_total(value)

        counter("px_upf_uplink_packets_total", stats.uplink_packets,
                "Uplink (GTP-U decap) packets forwarded.")
        counter("px_upf_downlink_packets_total", stats.downlink_packets,
                "Downlink (GTP-U encap) packets forwarded.")
        counter("px_upf_dropped_packets_total", stats.dropped_no_match,
                "Packets dropped per cause.", cause="no_match")
        counter("px_upf_dropped_packets_total", stats.dropped_gate,
                cause="gate")
        counter("px_upf_dropped_packets_total", stats.dropped_malformed,
                cause="malformed")
        counter("px_upf_dropped_packets_total", stats.dropped_mbr, cause="mbr")
        counter("px_upf_buffered_packets_total", stats.buffered,
                "Packets parked by a BUFFER FAR.")
        counter("px_upf_cycles_total", upf.account.cycles,
                "CPU cycles charged by the UPF cost model.")
        for (direction, seid, pdr_id), hits in upf.rule_hits.items():
            counter("px_upf_rule_hits_total", hits,
                    "PDR match counts per session rule.",
                    direction=direction, seid=str(seid), pdr=str(pdr_id))

    obs.registry.register_collector(collect)


# ----------------------------------------------------------------------
# PMTUD agents
# ----------------------------------------------------------------------
def observe_pmtud(obs: Observability, prober=None, daemon=None) -> None:
    """Publish F-PMTUD probe/report lifecycle counters."""
    name = "fpmtud"

    def collect(registry: MetricsRegistry) -> None:
        if prober is not None:
            registry.counter("px_pmtud_probes_sent_total",
                             "F-PMTUD probes launched.",
                             agent=name).set_total(prober.probes_sent)
            registry.counter("px_pmtud_reports_received_total",
                             "Daemon reports received by the prober.",
                             agent=name).set_total(prober.reports_received)
            registry.counter("px_pmtud_timeouts_total",
                             "Probes abandoned on timeout.",
                             agent=name).set_total(prober.timeouts)
            registry.gauge("px_pmtud_probes_in_flight",
                           "Probes awaiting a report or timeout.",
                           agent=name).set(prober.pending_probes())
            registry.counter("px_pmtud_rejected_reports_total",
                             "Reports dropped by hardening validation.",
                             agent=name).set_total(
                                 getattr(prober, "rejected_reports", 0))
            for reason, count in sorted(
                    getattr(prober, "rejections", {}).items()):
                registry.counter("px_pmtud_rejections_total",
                                 "Report rejections by validation reason.",
                                 agent=name, reason=reason).set_total(count)
            if prober.last_pmtu is not None:
                registry.gauge("px_pmtud_last_pmtu_bytes",
                               "Most recent discovered path MTU.",
                               agent=name).set(prober.last_pmtu)
        if daemon is not None:
            registry.counter("px_pmtud_daemon_reports_sent_total",
                             "Fragment-size reports sent by the daemon.",
                             agent=name).set_total(daemon.reports_sent)

    obs.registry.register_collector(collect)


# ----------------------------------------------------------------------
# TCP senders
# ----------------------------------------------------------------------
def observe_tcp(obs: Observability, *connections) -> None:
    """Publish TCP sender state, one ``conn="<host>:<local_port>"`` each.

    A gauge appears once it has a finite value (``diff`` would make
    ``inf - inf`` a NaN delta): ``ssthresh`` after the first loss,
    ``srtt`` after the first RTT sample, the window once established.
    """

    def collect(registry: MetricsRegistry) -> None:
        for conn in connections:
            label = f"{conn.host.name}:{conn.local_port}"
            registry.counter("px_tcp_retransmits_total", "Segments retransmitted.",
                             conn=label).set_total(conn.retransmits)
            registry.counter("px_tcp_timeouts_total", "Retransmission timeouts fired.",
                             conn=label).set_total(conn.timeouts)
            cc = conn.cc
            for metric, value, help in (
                ("px_tcp_cwnd_bytes", cc and cc.cwnd, "Congestion window."),
                ("px_tcp_ssthresh_bytes", cc and cc.ssthresh, "Slow-start threshold."),
                ("px_tcp_flight_bytes", conn.flight_size, "Bytes sent, not yet acknowledged."),
                ("px_tcp_srtt_seconds", conn.srtt, "Smoothed round-trip time."),
                ("px_tcp_rto_seconds", conn.rto, "Retransmission timeout."),
            ):
                if value is not None and value != float("inf"):
                    registry.gauge(metric, help, conn=label).set(value)

    obs.registry.register_collector(collect)
