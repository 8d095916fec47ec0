"""Unit tests for repro.obs.spans: the lifecycle-span tracker."""

import json
from types import SimpleNamespace

import pytest

from repro.core.caravan import PX_CARAVAN_TOS
from repro.obs.spans import (
    CARAVAN_BATCH_WAIT_SECONDS,
    GATEWAY_RESIDENCY_SECONDS,
    LATENCY_BUCKETS,
    LATENCY_METRICS,
    MERGE_WAIT_SECONDS,
    PROBE_RTT_SECONDS,
    Span,
    SpanTracker,
)
from repro.packet.flow import FlowKey


def test_latency_bucket_ladder_is_sorted_and_positive():
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
    assert all(b > 0 for b in LATENCY_BUCKETS)
    assert len(set(LATENCY_BUCKETS)) == len(LATENCY_BUCKETS)


def test_latency_metrics_catalog():
    assert set(LATENCY_METRICS) == {
        GATEWAY_RESIDENCY_SECONDS,
        MERGE_WAIT_SECONDS,
        CARAVAN_BATCH_WAIT_SECONDS,
        PROBE_RTT_SECONDS,
    }


def test_open_close_balance_and_duration():
    tracker = SpanTracker()
    sid = tracker.open(1.0, kind="packet", stage="forward")
    assert tracker.open_count() == 1
    assert tracker.balance() == {"opened": 1, "closed": 0, "dropped": 0, "open": 1}
    assert tracker.balanced
    tracker.close(sid, 1.25)
    assert tracker.balance() == {"opened": 1, "closed": 1, "dropped": 0, "open": 0}
    assert tracker.balanced
    (span,) = tracker.finished()
    assert span.sid == sid
    assert span.outcome == "egress"
    assert span.duration == pytest.approx(0.25)


def test_drop_counts_separately_from_close():
    tracker = SpanTracker()
    sid = tracker.open(0.0)
    tracker.drop(sid, 0.1, "no-route")
    assert tracker.dropped == 1
    assert tracker.closed == 0
    assert tracker.balanced
    (span,) = tracker.finished()
    assert span.outcome == "no-route"


def test_close_unknown_sid_is_anomaly_not_crash():
    tracker = SpanTracker()
    tracker.close(999, 1.0)
    tracker.drop(998, 1.0, "x")
    assert tracker.anomalies == 2
    assert tracker.balanced


def test_sync_fast_path_records_residency():
    tracker = SpanTracker()
    tracker.sync(2.0, 2.5, "mss")
    assert tracker.balance() == {"opened": 1, "closed": 1, "dropped": 0, "open": 0}
    assert tracker.latency_values(GATEWAY_RESIDENCY_SECONDS) == {0.5: 1}
    (span,) = tracker.finished()
    assert span.stage == "mss"
    assert span.outcome == "egress"


def test_sync_drop_fast_path():
    tracker = SpanTracker()
    tracker.sync_drop(1.0, 1.0, "malformed-caravan")
    assert tracker.dropped == 1
    assert tracker.balanced
    (span,) = tracker.finished()
    assert span.outcome == "malformed-caravan"
    # drops don't pollute the residency histogram
    assert tracker.latency_count(GATEWAY_RESIDENCY_SECONDS) == 0


class _Packet:
    """What the tracker reads of a packet at the seam."""

    def __init__(self, nbytes=0, flow=None, udp=False, inner=None):
        self.payload = bytes(nbytes)
        self._flow = flow
        self.is_tcp, self.is_udp = not udp, udp
        self.ip = SimpleNamespace(tos=PX_CARAVAN_TOS if inner is not None else 0)
        self.meta = {} if inner is None else {"caravan_inner": inner}

    def flow_key(self):
        return self._flow


KEY = FlowKey(6, 1, 2, 3, 4)


def _feed(tracker, now, nbytes, stage="merge", flow=KEY):
    """A segment (or datagram) the engine buffered; returns its span id."""
    sid = tracker._next_sid
    tracker.on_packet(None, now, None, _Packet(nbytes, flow, stage == "caravan"), 0, None,
                      flow, None, stage, ())
    return sid


def test_split_children_are_born_closed_with_their_ingress_parent():
    tracker = SpanTracker()
    tracker.on_packet(None, 0.5, 0.0, _Packet(9000, KEY), 0, None, KEY, None, "split",
                      (_Packet(),) * 3)
    assert tracker.opened == tracker.closed == 4
    (ingress,) = tracker.finished("packet")
    assert ingress.stage == "split" and ingress.duration == 0.5
    kids = tracker.finished("split-segment")
    assert len(kids) == 3
    assert all(k.parents == (ingress.sid,) for k in kids)
    assert all(k.duration == 0.0 and k.flow == KEY for k in kids)
    assert len(tracker._done) == 1  # one entry for everything the split settled


def test_merge_fifo_full_consume_closes_parents():
    tracker = SpanTracker()
    a = _feed(tracker, 0.0, 1000)
    b = _feed(tracker, 0.001, 500)
    assert tracker.pending_merge_bytes() == 1500
    assert tracker.open_count() == 2 and tracker.balanced
    tracker.on_flush(None, 0.002, [_Packet(1500, KEY)], False)
    assert tracker.pending_merge_bytes() == 0
    assert tracker.open_count() == 0
    merged = {s.sid: s for s in tracker.finished()}
    assert merged[a].outcome == "merged"
    assert merged[b].outcome == "merged"
    assert tracker.finished("merged")[0].parents == (a, b)
    # merge-wait recorded once per drained parent
    assert tracker.latency_values(MERGE_WAIT_SECONDS) == {0.002: 1, 0.001: 1}
    # residency recorded too (ingress -> merged egress)
    assert tracker.latency_count(GATEWAY_RESIDENCY_SECONDS) == 2


def test_merge_fifo_partial_consume_keeps_head_open():
    tracker = SpanTracker()
    a = _feed(tracker, 0.0, 1000)
    tracker.on_flush(None, 0.01, [_Packet(400, KEY)], False)
    # the segment carries part of a's bytes: a is a parent but stays open
    assert tracker.finished("merged")[-1].parents == (a,)
    assert tracker.open_count() == 1
    assert tracker.pending_merge_bytes() == 600
    # the remainder drains later and only then does a close
    tracker.on_flush(None, 0.02, [_Packet(600, KEY)], False)
    assert tracker.finished("merged")[-1].parents == (a,)
    assert tracker.open_count() == 0
    assert tracker.anomalies == 0


def test_merge_fifo_underrun_is_anomaly():
    tracker = SpanTracker()
    tracker.on_flush(None, 1.0, [_Packet(100, KEY)], False)
    assert tracker.finished("merged")[0].parents == ()
    assert tracker.anomalies == 1


def test_caravan_fifo_consume_and_batch_outcomes():
    tracker = SpanTracker()
    sids = [_feed(tracker, 0.1 * i, 0, "caravan") for i in range(3)]
    assert tracker.pending_caravan_datagrams() == 3
    tracker.on_flush(None, 0.5, [_Packet(0, KEY, udp=True, inner=2)], False)
    assert tracker.finished("caravan")[0].parents == tuple(sids[:2])
    assert tracker.pending_caravan_datagrams() == 1
    tracker.on_flush(None, 0.6, [_Packet(0, KEY, udp=True)], False)
    done = {s.sid: s for s in tracker.finished()}
    assert done[sids[0]].outcome == "bundled"
    assert done[sids[2]].outcome == "flushed"
    assert tracker.anomalies == 0
    assert tracker.balanced


def test_caravan_fifo_underrun_is_anomaly():
    tracker = SpanTracker()
    tracker.on_flush(None, 1.0, [_Packet(0, KEY, udp=True, inner=2)], False)
    assert tracker.finished("caravan")[0].parents == ()
    # one anomaly per under-run event (the loop stops at the empty FIFO)
    assert tracker.anomalies == 1


def test_flush_fifos_settles_everything():
    tracker = SpanTracker()
    _feed(tracker, 0.0, 700)
    _feed(tracker, 0.0, 0, "caravan", FlowKey(17, 1, 2, 3, 4))
    assert tracker.open_count() == 2
    tracker.on_retire(None, 1.0)
    assert tracker.pending_merge_bytes() == 0
    assert tracker.pending_caravan_datagrams() == 0
    assert tracker.open_count() == 0
    assert tracker.balanced
    outcomes = {s.outcome for s in tracker.finished()}
    assert outcomes == {"failover"}


def test_a_fifo_span_settles_only_through_the_seam():
    tracker = SpanTracker()
    sid = _feed(tracker, 0.0, 100)
    tracker.close(sid, 1.0)
    assert tracker.anomalies == 1 and tracker.open_count() == 1


def test_observe_and_median():
    tracker = SpanTracker()
    assert tracker.latency_median(PROBE_RTT_SECONDS) is None
    for value in (0.03, 0.01, 0.02):
        tracker.observe(PROBE_RTT_SECONDS, value)
    assert tracker.latency_count(PROBE_RTT_SECONDS) == 3
    assert tracker.latency_median(PROBE_RTT_SECONDS) == 0.02
    # even count -> lower of the two middles
    tracker.observe(PROBE_RTT_SECONDS, 0.04)
    assert tracker.latency_median(PROBE_RTT_SECONDS) == 0.02
    # repeated values collapse into one map entry but count fully
    tracker.observe(PROBE_RTT_SECONDS, 0.04)
    tracker.observe(PROBE_RTT_SECONDS, 0.04)
    assert tracker.latency_values(PROBE_RTT_SECONDS)[0.04] == 3
    assert tracker.latency_median(PROBE_RTT_SECONDS) == 0.03


def test_unknown_metric_raises():
    tracker = SpanTracker()
    with pytest.raises(KeyError):
        tracker.observe("px_not_a_metric", 1.0)


def test_capacity_ring_sheds_but_counters_stay_exact():
    tracker = SpanTracker(capacity=4)
    for i in range(10):
        tracker.sync(float(i), float(i) + 0.5, "forward")
    assert tracker.closed == 10
    assert len(tracker.finished()) == 4
    assert tracker.shed == 6
    assert tracker.balanced
    # latency counters are unaffected by ring shedding
    assert tracker.latency_count(GATEWAY_RESIDENCY_SECONDS) == 10


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SpanTracker(capacity=0)


def test_kinds_and_stages_views():
    tracker = SpanTracker()
    tracker.sync(0.0, 0.1, "forward")
    tracker.sync(0.0, 0.1, "forward")
    tracker.sync(0.0, 0.1, "hairpin")
    tracker.sync(0.2, 0.2, None, kind="caravan")
    assert tracker.kinds() == {"caravan": 1, "packet": 3}
    assert tracker.stages() == {"forward": 2, "hairpin": 1}


def test_to_json_is_deterministic_and_parseable():
    def build():
        tracker = SpanTracker()
        _feed(tracker, 0.0, 100)
        tracker.on_flush(None, 0.01, [_Packet(100, KEY)], False)
        tracker.sync(0.02, 0.03, "forward")
        tracker.observe(PROBE_RTT_SECONDS, 0.02)
        return tracker

    one, two = build().to_json(), build().to_json()
    assert one == two
    doc = json.loads(one)
    assert doc["balance"] == {"opened": 3, "closed": 3, "dropped": 0, "open": 0}
    assert doc["anomalies"] == 0
    assert set(doc["latency"]) == set(LATENCY_METRICS)
    assert doc["latency"][PROBE_RTT_SECONDS] == {"count": 1, "sum": 0.02}
    assert len(doc["spans"]) == 3
    # limit keeps the newest spans
    limited = json.loads(build().to_json(limit=1))
    assert len(limited["spans"]) == 1
    assert limited["spans"][0]["stage"] == "forward"


def test_to_jsonl_one_span_per_line():
    tracker = SpanTracker()
    tracker.sync(0.0, 0.1, "forward")
    tracker.sync(0.2, 0.3, "hairpin")
    lines = tracker.to_jsonl().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["stage"] for l in lines] == ["forward", "hairpin"]
    assert len(tracker.to_jsonl(limit=1).splitlines()) == 1


def test_span_to_dict_roundtrip():
    span = Span(7, "merged", 1.0, 2.0, "egress", (1, 2), None)
    doc = span.to_dict()
    assert doc == {
        "sid": 7, "kind": "merged", "opened_at": 1.0, "closed_at": 2.0,
        "outcome": "egress", "stage": None, "parents": [1, 2],
    }
