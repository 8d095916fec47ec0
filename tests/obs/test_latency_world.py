"""The latency-aware observability stack end to end.

The PR 5 acceptance criteria live here: the observed world must carry
balanced spans through merge/split/caravan causality, the timeline and
alert engine must be byte-deterministic across runs, and the
F-PMTUD probe-RTT histogram must demonstrate the paper's one-RTT claim
against PLPMTUD on the same path.
"""

import json

import pytest

from repro.obs import run_observed_world
from repro.obs.spans import (
    CARAVAN_BATCH_WAIT_SECONDS,
    GATEWAY_RESIDENCY_SECONDS,
    MERGE_WAIT_SECONDS,
    PROBE_RTT_SECONDS,
    SpanTracker,
)


@pytest.fixture(scope="module")
def world():
    """One run shared by every read-only test in this module."""
    return run_observed_world()


def test_world_spans_balance_with_zero_anomalies(world):
    spans = world.obs.spans
    assert spans.balanced, spans.balance()
    assert spans.anomalies == 0
    assert spans.open_count() == 0  # every packet settled by end of run
    assert spans.pending_merge_bytes() == 0
    assert spans.pending_caravan_datagrams() == 0
    assert spans.opened > 100  # a real workload, not a token one


def test_world_spans_cover_every_causality_shape(world):
    kinds = world.obs.spans.kinds()
    # merge N->1, split 1->N, caravan bundle + open, probe lifecycle
    for kind in ("merged", "split-segment", "caravan", "datagram", "probe"):
        assert kinds.get(kind, 0) > 0, kinds
    stages = world.obs.spans.stages()
    for stage in ("mss", "hairpin", "forward", "split", "caravan-open"):
        assert stages.get(stage, 0) > 0, stages
    # merged/caravan children must point at real parents
    for span in world.obs.spans.finished("merged"):
        assert span.parents
    for span in world.obs.spans.finished("caravan"):
        assert span.parents


def test_world_records_every_latency_metric(world):
    spans = world.obs.spans
    assert spans.latency_count(GATEWAY_RESIDENCY_SECONDS) > 50
    assert spans.latency_count(MERGE_WAIT_SECONDS) > 10
    assert spans.latency_count(CARAVAN_BATCH_WAIT_SECONDS) > 0
    assert spans.latency_count(PROBE_RTT_SECONDS) == 1
    # merge waits are bounded by the engine's flush timeout ballpark
    assert all(0 <= v <= 1.0 for v in spans.latency_values(MERGE_WAIT_SECONDS))


def test_world_spans_surface_in_the_registry(world):
    snapshot = world.obs.registry.snapshot()
    assert snapshot["px_spans_opened_total"] == world.obs.spans.opened
    assert snapshot["px_spans_closed_total"] == world.obs.spans.closed
    assert snapshot["px_spans_anomalies_total"] == 0
    assert snapshot["px_spans_open"] == 0
    text = world.obs.registry.to_prometheus_text()
    for metric in (GATEWAY_RESIDENCY_SECONDS, MERGE_WAIT_SECONDS,
                   CARAVAN_BATCH_WAIT_SECONDS, PROBE_RTT_SECONDS):
        assert f"{metric}_bucket" in text, metric
        assert f"{metric}_count" in text, metric


def test_world_timeline_scrapes_in_sim_time(world):
    timeline = world.timeline
    assert timeline is not None and not timeline.running
    assert timeline.ticks > 20  # 3 s horizon at 0.05 s interval
    times = [s["time"] for s in timeline.samples]
    assert times == sorted(times)
    # traffic ramp shows up as deltas in the early windows
    totals = timeline.totals()
    assert totals.get('px_gateway_rx_packets_total{gateway="pxgw"}', 0) > 0


def test_world_alerts_ride_the_timeline(world):
    alerts = world.alerts
    assert alerts is not None
    assert alerts.evaluations == world.timeline.ticks
    # before the transfers start the merge ratio is floored: the rule
    # goes pending, then resolves once merging begins.
    merge = [t for t in alerts.transitions if t["rule"] == "merge-ratio-floor"]
    assert [t["to"] for t in merge[:2]] == ["pending", "ok"]
    assert alerts.states()["merge-ratio-floor"] == "ok"


def test_two_runs_export_byte_identically():
    first = run_observed_world()
    second = run_observed_world()
    assert first.obs.spans.to_json() == second.obs.spans.to_json()
    assert first.obs.spans.to_jsonl() == second.obs.spans.to_jsonl()
    assert first.timeline.to_json() == second.timeline.to_json()
    assert first.timeline.to_jsonl() == second.timeline.to_jsonl()
    assert first.alerts.to_json() == second.alerts.to_json()
    # and the timeline JSON actually parses into the documented shape
    doc = json.loads(first.timeline.to_json())
    assert set(doc) == {"interval", "started_at", "ticks", "shed", "samples"}


def test_fpmtud_probe_rtt_is_one_path_rtt():
    """The paper's headline: F-PMTUD learns the PMTU in ~one RTT.

    Same path as the ``repro pmtud`` CLI race: 3 links at 5 ms
    propagation each (30 ms RTT), bottleneck 1400 B, ICMP-blackholed
    routers.  The probe-RTT histogram must show the F-PMTUD probe
    resolving in one path RTT (plus serialization), while PLPMTUD's
    search on the identical path takes orders of magnitude longer.
    """
    from repro.net import Topology
    from repro.pmtud import FPmtudDaemon, FPmtudProber, Plpmtud, ProbeEchoDaemon

    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    routers = [topo.add_router(f"r{i}", icmp_blackhole=True) for i in range(2)]
    chain = [client] + routers + [server]
    delay = 0.005
    for index, mtu in enumerate([9000, 1400, 9000]):
        topo.link(chain[index], chain[index + 1], mtu=mtu, delay=delay)
    topo.build_routes()
    FPmtudDaemon(server)
    ProbeEchoDaemon(server)

    outcomes = {}
    prober = FPmtudProber(client)
    spans = SpanTracker()
    prober.observers = (spans,)
    prober.probe(server.ip, 9000, lambda r: outcomes.__setitem__("f", r))
    Plpmtud(client).discover(server.ip, 9000,
                             lambda r: outcomes.__setitem__("plp", r))
    topo.run(until=600.0)

    path_rtt = 2 * 3 * delay  # 30 ms of propagation, both directions
    assert spans.latency_count(PROBE_RTT_SECONDS) == 1
    median = spans.latency_median(PROBE_RTT_SECONDS)
    # one RTT plus sub-millisecond serialization — not a search
    assert path_rtt <= median <= path_rtt * 1.05
    # the probe span closed as a report, not a timeout
    (span,) = spans.finished("probe")
    assert span.outcome == "report"
    # PLPMTUD on the same path: strictly (vastly) slower
    assert outcomes["plp"].elapsed > median * 100
    assert outcomes["plp"].probes_sent > 1


def test_probe_timeout_drops_the_span():
    """A blackholed probe must settle its span as dropped, not leak it."""
    from repro.net import Topology
    from repro.pmtud import FPmtudProber

    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    topo.link(client, server, mtu=1500, delay=0.005)
    topo.build_routes()
    # No FPmtudDaemon on the server: the probe report never comes back.
    outcomes = {}
    prober = FPmtudProber(client)
    spans = SpanTracker()
    prober.observers = (spans,)
    prober.probe(server.ip, 1500, lambda r: outcomes.__setitem__("f", r))
    topo.run(until=60.0)
    assert spans.balanced
    assert spans.open_count() == 0
    done = spans.finished("probe")
    assert done and all(s.outcome == "timeout" for s in done)
    assert spans.latency_count(PROBE_RTT_SECONDS) == 0
