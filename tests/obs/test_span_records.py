"""``SpanTracker``'s packed span records against a tuple ring.

The tracker stores a finished span as one packed ``bytes`` record
(``repro.obs.codec``).  The model below is the ring it replaced: every
finished span a flat tuple of its fields, ``(sid, kind, opened_at,
closed_at, outcome, parents, stage, *flow)`` with a ``FlowKey`` as its
five integers, built by the same open/close/FIFO arithmetic.  A
Hypothesis machine drives both with the same calls, drawn from the
seam's contract — flows that are a ``FlowKey`` (any in-range key) or
``None``, float times, ``str`` labels neither has seen, up to 40
parents, a ring of 1 to 8 — and after every step the tracker must read
back exactly what the model holds: ``finished()`` (values and types),
``kinds()``, ``stages()``, ``shed``, ``balance()``, the latency maps,
``to_json()`` and ``to_jsonl(limit)``, and every record must be
``bytes``.  Inputs outside the contract raise (the last tests).
"""

import json
import struct
from collections import Counter, defaultdict, deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from repro.obs.spans import (
    CARAVAN_BATCH_WAIT_SECONDS,
    GATEWAY_RESIDENCY_SECONDS,
    LATENCY_METRICS,
    MERGE_WAIT_SECONDS,
    PROBE_RTT_SECONDS,
    Span,
    SpanTracker,
)
from repro.packet.flow import FlowKey


def _flow_atoms(flow) -> tuple:
    return () if flow is None else flow


def _span(record: tuple) -> Span:
    # A time reads back as a float (an int time is the hot-path test's).
    sid, kind, opened_at, closed_at, outcome, parents, stage = record[:7]
    flow = FlowKey(*record[7:]) if len(record) > 7 else None
    return Span(sid, kind, float(opened_at), float(closed_at), outcome, parents, stage,
                flow)


class TupleRing:
    """The tracker's API over a ring of flat tuples (no worker hooks)."""

    def __init__(self, capacity):
        self.opened = self.closed = self.dropped = self.anomalies = 0
        self._next_sid = 0
        self._open = {}
        self._done = deque(maxlen=capacity)
        self._merge_fifo = defaultdict(deque)
        self._caravan_fifo = defaultdict(deque)
        self._latency = {name: {} for name in LATENCY_METRICS}

    def _observe(self, metric, value):
        bucket = self._latency[metric]
        bucket[value] = bucket.get(value, 0) + 1

    def open(self, opened_at, kind="packet", parents=(), stage=None, flow=None):
        sid = self._next_sid
        self._next_sid += 1
        self.opened += 1
        self._open[sid] = (kind, opened_at, parents, stage) + _flow_atoms(flow)
        return sid

    def _finish(self, sid, at, outcome):
        entry = self._open.pop(sid, None)
        if entry is None:
            self.anomalies += 1
        else:
            self._done.append((sid, entry[0], entry[1], at, outcome) + entry[2:])
        return entry

    def close(self, sid, closed_at, outcome="egress"):
        if self._finish(sid, closed_at, outcome) is not None:
            self.closed += 1

    def drop(self, sid, at, reason):
        if self._finish(sid, at, reason) is not None:
            self.dropped += 1

    def sync(self, opened_at, closed_at, stage, kind="packet", flow=None):
        sid = self._next_sid
        self._next_sid += 1
        self.opened += 1
        self.closed += 1
        self._done.append((sid, kind, opened_at, closed_at, "egress", (), stage)
                          + _flow_atoms(flow))
        self._observe(GATEWAY_RESIDENCY_SECONDS, closed_at - opened_at)
        return sid

    def sync_drop(self, opened_at, at, reason, flow=None):
        sid = self._next_sid
        self._next_sid += 1
        self.opened += 1
        self.dropped += 1
        self._done.append((sid, "packet", opened_at, at, reason, (), "drop")
                          + _flow_atoms(flow))
        return sid

    def derived(self, parents, kind, at, count=1, flow=None):
        first = self._next_sid
        self._next_sid += count
        self.opened += count
        self.closed += count
        for sid in range(first, first + count):
            self._done.append((sid, kind, at, at, "egress", parents, None)
                              + _flow_atoms(flow))

    def merge_enqueue(self, flow, sid, nbytes, at):
        self._merge_fifo[flow].append([sid, nbytes, at])

    def merge_consume(self, flow, nbytes, at):
        fifo = self._merge_fifo.get(flow)
        parents = []
        while nbytes > 0:
            if not fifo:
                self.anomalies += 1
                break
            head = fifo[0]
            take = min(head[1], nbytes)
            head[1] -= take
            nbytes -= take
            parents.append(head[0])
            if head[1] == 0:
                fifo.popleft()
                entry = self._open.pop(head[0], None)
                if entry is None:
                    self.anomalies += 1
                else:
                    self.closed += 1
                    self._done.append((head[0], entry[0], entry[1], at, "merged")
                                      + entry[2:])
                    self._observe(MERGE_WAIT_SECONDS, at - head[2])
                    self._observe(GATEWAY_RESIDENCY_SECONDS, at - entry[1])
        if fifo is not None and not fifo:
            del self._merge_fifo[flow]
        return tuple(parents)

    def caravan_enqueue(self, flow, sid, at):
        self._caravan_fifo[flow].append((sid, at))

    def caravan_consume(self, flow, count, at, outcome="bundled"):
        fifo = self._caravan_fifo.get(flow)
        parents = []
        for _ in range(count):
            if not fifo:
                self.anomalies += 1
                break
            sid, _enqueued_at = fifo.popleft()
            parents.append(sid)
            entry = self._finish(sid, at, outcome)
            if entry is not None:
                self.closed += 1
                self._observe(GATEWAY_RESIDENCY_SECONDS, at - entry[1])
        if fifo is not None and not fifo:
            del self._caravan_fifo[flow]
        return tuple(parents)

    def flush_fifos(self, at, outcome="failover"):
        resident = [entry[0] for fifos in (self._merge_fifo, self._caravan_fifo)
                    for fifo in fifos.values() for entry in fifo]
        for sid in resident:
            self.close(sid, at, outcome)
        self._merge_fifo.clear()
        self._caravan_fifo.clear()
        return len(resident)

    # -- reads ---------------------------------------------------------
    @property
    def shed(self):
        return self.closed + self.dropped - len(self._done)

    def balance(self):
        return {"opened": self.opened, "closed": self.closed,
                "dropped": self.dropped, "open": len(self._open)}

    def finished(self, kind=None):
        return [_span(record) for record in self._done
                if kind is None or record[1] == kind]

    def kinds(self):
        return dict(sorted(Counter(record[1] for record in self._done).items()))

    def stages(self):
        stages = Counter(record[6] for record in self._done)
        stages.pop(None, None)
        return dict(sorted(stages.items()))

    def _dicts(self, limit):
        records = list(self._done)
        if limit is not None:
            records = records[max(len(records) - limit, 0):]
        return [_span(record).to_dict() for record in records]

    def to_json(self, limit=None):
        return json.dumps({
            "balance": self.balance(),
            "anomalies": self.anomalies,
            "shed": self.shed,
            "kinds": self.kinds(),
            "stages": self.stages(),
            "latency": {
                name: {"count": sum(values.values()),
                       "sum": sum(v * n for v, n in sorted(values.items()))}
                for name, values in sorted(self._latency.items())
            },
            "spans": self._dicts(limit),
        }, sort_keys=True, separators=(",", ":"))

    def to_jsonl(self, limit=None):
        return "\n".join(json.dumps(span, sort_keys=True, separators=(",", ":"))
                         for span in self._dicts(limit))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_U8, _U16, _U32 = (st.integers(0, 2**bits - 1) for bits in (8, 16, 32))
# A few keys recur, so the FIFOs see the same flow fed and consumed.
_KEYS = st.one_of(
    st.sampled_from([FlowKey(6, 1, 2, 3, 4), FlowKey(17, 2**32 - 1, 65535, 0, 0),
                     FlowKey(0, 0, 0, 2**32 - 1, 65535)]),
    st.builds(FlowKey, _U8, _U32, _U16, _U32, _U16),
)
# The contract: a flow is a FlowKey or None.
FLOWS = st.one_of(_KEYS, _KEYS, _KEYS, st.none())
TIMES = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 1e-5, 0.1]))
# Known labels and labels no tracker has seen.
LABELS = st.one_of(
    st.sampled_from(["packet", "egress", "merged", "forward", "split-segment",
                     "timeout"]),
    st.text(max_size=3),
)
STAGES = st.one_of(st.none(), LABELS)
# Parent ids: small ones and the whole ``q`` range.
PARENTS = st.one_of(
    st.lists(st.integers(0, 40), max_size=40),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=40),
).map(tuple)


class RecordMachine(RuleBasedStateMachine):
    sids = Bundle("sids")

    @initialize(capacity=st.integers(1, 8))
    def setup(self, capacity):
        self.tracker = SpanTracker(capacity=capacity)
        self.model = TupleRing(capacity)

    def _both(self, method, *args, **kwargs):
        got = getattr(self.tracker, method)(*args, **kwargs)
        want = getattr(self.model, method)(*args, **kwargs)
        assert got == want
        return got

    # -- opens ---------------------------------------------------------
    @rule(target=sids, at=TIMES, kind=LABELS, stage=STAGES, flow=FLOWS,
          parents=PARENTS)
    def open(self, at, kind, stage, flow, parents):
        return self._both("open", at, kind=kind, parents=parents, stage=stage,
                          flow=flow)

    @rule(target=sids, opened=TIMES, closed=TIMES, stage=STAGES, kind=LABELS,
          flow=FLOWS)
    def sync(self, opened, closed, stage, kind, flow):
        return self._both("sync", opened, closed, stage, kind=kind, flow=flow)

    @rule(target=sids, opened=TIMES, at=TIMES, reason=LABELS, flow=FLOWS)
    def sync_drop(self, opened, at, reason, flow):
        return self._both("sync_drop", opened, at, reason, flow=flow)

    @rule(parents=PARENTS, kind=LABELS,
          at=TIMES, count=st.integers(0, 4), flow=FLOWS)
    def derived(self, parents, kind, at, count, flow):
        self._both("derived", parents, kind, at, count=count, flow=flow)

    # -- worker hooks: the one-in-one-out tail and a buffered feed ------
    @rule(ingress_at=st.one_of(st.none(), TIMES), now=TIMES,
          stage=st.sampled_from(["forward", "hairpin", "mss", "passthrough"]),
          key=FLOWS)
    def forward(self, ingress_at, now, stage, key):
        at = now if ingress_at is None else ingress_at
        self.tracker.on_packet(None, now, ingress_at, _Packet(0), 0, None, key,
                               None, stage, (_PACKET,))
        self.model.sync(at, now, stage, flow=key)

    @rule(ingress_at=st.one_of(st.none(), TIMES), now=TIMES, key=FLOWS,
          nbytes=st.integers(0, 3000))
    def feed(self, ingress_at, now, key, nbytes):
        at = now if ingress_at is None else ingress_at
        self.tracker.on_packet(None, now, ingress_at, _Packet(nbytes), 0, None, key,
                               None, "merge", ())
        sid = self.model.open(at, flow=key)
        self.model.merge_enqueue(key, sid, nbytes, now)

    # -- closes ----------------------------------------------------------
    @rule(sid=st.one_of(sids, st.integers(-1, 60)), at=TIMES, outcome=LABELS)
    def close(self, sid, at, outcome):
        self._both("close", sid, at, outcome=outcome)

    @rule(sid=st.one_of(sids, st.integers(-1, 60)), at=TIMES, reason=LABELS)
    def drop(self, sid, at, reason):
        self._both("drop", sid, at, reason)

    # -- FIFOs -------------------------------------------------------------
    @rule(flow=FLOWS, sid=sids, nbytes=st.integers(0, 3000), at=TIMES)
    def merge_enqueue(self, flow, sid, nbytes, at):
        self._both("merge_enqueue", flow, sid, nbytes, at)

    @rule(flow=FLOWS, nbytes=st.integers(0, 9000), at=TIMES)
    def merge_consume(self, flow, nbytes, at):
        self._both("merge_consume", flow, nbytes, at)

    @rule(flow=FLOWS, sid=sids, at=TIMES)
    def caravan_enqueue(self, flow, sid, at):
        self._both("caravan_enqueue", flow, sid, at)

    @rule(flow=FLOWS, count=st.integers(0, 5), at=TIMES, outcome=LABELS)
    def caravan_consume(self, flow, count, at, outcome):
        self._both("caravan_consume", flow, count, at, outcome=outcome)

    @rule(at=TIMES, outcome=LABELS)
    def flush_fifos(self, at, outcome):
        self._both("flush_fifos", at, outcome=outcome)

    # -- reads ---------------------------------------------------------
    @invariant()
    def reads_back_the_model(self):
        tracker, model = self.tracker, self.model
        assert all(type(record) is bytes for record in tracker._done)
        assert _fields(tracker.finished()) == _fields(model.finished())
        for kind in {record[1] for record in model._done} | {"merged", "nobody"}:
            assert _fields(tracker.finished(kind)) == _fields(model.finished(kind))
        assert tracker.kinds() == model.kinds()
        assert tracker.stages() == model.stages()
        assert tracker.shed == model.shed
        assert tracker.balance() == model.balance()
        assert tracker.anomalies == model.anomalies
        for metric in (GATEWAY_RESIDENCY_SECONDS, MERGE_WAIT_SECONDS,
                       CARAVAN_BATCH_WAIT_SECONDS, PROBE_RTT_SECONDS):
            assert repr(tracker.latency_values(metric)) == repr(model._latency[metric])
        assert tracker.to_json() == model.to_json()
        for limit in (None, 0, 1, 3, 9):
            assert tracker.to_jsonl(limit) == model.to_jsonl(limit)


class _Packet:
    """What the tracker reads of a fed packet: its payload length."""

    def __init__(self, nbytes):
        self.payload = bytes(nbytes)


_PACKET = _Packet(0)  # a passed-through output is the ingress packet itself


def _fields(spans):
    """Every field of every span, types included (``repr``)."""
    return [repr((s.sid, s.kind, s.opened_at, s.closed_at, s.outcome, s.parents,
                  s.stage, s.flow)) for s in spans]


TestSpanRecordsAgainstTupleRing = RecordMachine.TestCase
TestSpanRecordsAgainstTupleRing.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)


@pytest.mark.parametrize("at, now", [(0.5, 1.5), (0.5, 1), (1, 1.5), (1, 2)])
def test_each_hot_path_keeps_its_times_and_outcome(at, now):
    # The one-in-one-out tail (twice: the first interns its stage), a
    # buffered segment closed by a merge, and the merged child: each
    # packed, an int time read back as its float.
    key = FlowKey(6, 1, 2, 3, 4)
    tracker, model = SpanTracker(), TupleRing(16)
    for _ in range(2):
        tracker.on_packet(None, now, at, _Packet(0), 0, None, key, None, "forward",
                          (_PACKET,))
        model.sync(at, now, "forward", flow=key)
    for nbytes in (700, 300):
        tracker.on_packet(None, now, at, _Packet(nbytes), 0, None, key, None,
                          "merge", ())
        model.merge_enqueue(key, model.open(at, flow=key), nbytes, now)
    for side in (tracker, model):
        side.derived(side.merge_consume(key, 1000, now), "merged", now, flow=key)
    assert _fields(tracker.finished()) == _fields(model.finished())
    assert [span.outcome for span in tracker.finished()] == [
        "egress", "egress", "merged", "merged", "egress"]
    assert tracker.to_json() == model.to_json()


# ----------------------------------------------------------------------
# Outside the contract: raise where the span is packed, count nothing
# ----------------------------------------------------------------------
_WIDE_KEYS = [FlowKey(-1, 1, 2, 3, 4), FlowKey(256, 1, 2, 3, 4), FlowKey(6, 2**32, 2, 3, 4),
              FlowKey(6, 1, 2, 3, 2**16)]


@pytest.mark.parametrize("flow, error", [
    ("flowA", TypeError), ((6, 1, 2, 3, 4), TypeError), (17, TypeError),
    *[(key, struct.error) for key in _WIDE_KEYS],
])
def test_a_flow_the_layout_cannot_carry_raises(flow, error):
    tracker = SpanTracker()
    with pytest.raises(error):
        tracker.sync(0.0, 0.5, "forward", flow=flow)
    with pytest.raises(error):
        tracker.open(0.0, flow=flow)
    with pytest.raises(error):
        tracker.derived((), "merged", 0.5, flow=flow)
    with pytest.raises(error):
        tracker.on_packet(None, 0.5, 0.0, _Packet(0), 0, None, flow, None, "forward",
                          (_PACKET,))
    with pytest.raises(error):
        tracker.on_packet(None, 0.5, 0.0, _Packet(10), 0, None, flow, None, "merge", ())
    assert (tracker.opened, tracker.open_count(), tracker.finished()) == (0, 0, [])


@pytest.mark.parametrize("label", [1, 1.0, True, ("x",), ["x"]])
def test_a_label_that_is_not_a_str_raises(label):
    tracker = SpanTracker()
    with pytest.raises(TypeError):
        tracker.sync(0.0, 0.5, label)
    with pytest.raises(TypeError):
        tracker.open(0.0, kind=label)
    with pytest.raises(TypeError):
        tracker.sync_drop(0.0, 0.5, label)
    sid = tracker.open(0.0)
    with pytest.raises(TypeError):
        tracker.close(sid, 0.5, outcome=label)
    assert tracker.open_count() == 1 and tracker.finished() == []
    tracker.close(sid, 0.5)
    assert tracker.balanced and len(tracker.finished()) == 1


@pytest.mark.parametrize("at", ["0.5", None])
def test_a_time_that_is_not_a_number_raises(at):
    tracker = SpanTracker()
    with pytest.raises(struct.error):
        tracker.sync(at, 0.5, "forward")
    with pytest.raises(struct.error):
        tracker.open(at)
    sid = tracker.open(0.0)
    with pytest.raises(struct.error):
        tracker.close(sid, at)
    assert tracker.open_count() == 1 and tracker.finished() == []


@pytest.mark.parametrize("parents", [(-2**63 - 1,), (2**63,), (2**64, 0)])
def test_a_parent_id_out_of_range_raises(parents):
    tracker = SpanTracker()
    with pytest.raises(struct.error):
        tracker.derived(parents, "merged", 0.5)
    assert (tracker.opened, tracker.finished()) == (0, [])
