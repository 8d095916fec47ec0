"""``SpanTracker``'s packed ring entries against a tuple ring.

The tracker packs what one worker call settles as one ``bytes`` entry
(``repro.obs.codec``) in a ring bounded by spans.  The model below is the
ring it replaced: every finished span a flat tuple of its fields,
``(sid, kind, opened_at, closed_at, outcome, parents, stage, *flow)``
with a ``FlowKey`` as its five integers, in a ``deque(maxlen=capacity)``,
built by the parent's open/close/FIFO arithmetic.  A Hypothesis machine
drives both with the same calls, drawn from the seam's contract — the
public open/close API, and ``on_packet`` / ``on_flush`` / ``on_retire``
with stub packets (merged outputs settling whole and partly consumed
FIFO heads, timer flushes, splits, caravan builds and opens,
passthrough, failover) — with flows that are a ``FlowKey`` (any in-range
key) or ``None``, float times, ``str`` labels neither has seen, up to 40
parents, fan-outs of up to 12 and a ring of 1 to 8, so one entry can
hold more spans than the ring.  After every step the tracker must read
back exactly what the model holds: ``finished()`` (values and types),
``kinds()``, ``stages()``, ``shed``, ``balance()``, the FIFO totals, the
latency maps, ``to_json()`` and ``to_jsonl(limit)``; every entry must be
``bytes`` whose first field counts its spans.  Inputs outside the
contract raise (the last tests).
"""

import json
import struct
from collections import Counter, defaultdict, deque
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from repro.core.caravan import PX_CARAVAN_TOS
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
    """The tracker's API and worker hooks over a ring of flat tuples."""

    def __init__(self, capacity):
        self.opened = self.closed = self.dropped = self.anomalies = 0
        self._next_sid = 0
        self._open = {}
        self._resident = set()  # sids waiting in a FIFO: only the seam settles them
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
        entry = None if sid in self._resident else self._open.pop(sid, None)
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
        self._resident.add(sid)
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
                self._resident.discard(head[0])
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
        self._resident.add(sid)
        self._caravan_fifo[flow].append((sid, at))

    def caravan_consume(self, flow, count, at, outcome="bundled"):
        fifo = self._caravan_fifo.get(flow)
        parents = []
        for _ in range(count):
            if not fifo:
                self.anomalies += 1
                break
            sid, _enqueued_at = fifo.popleft()
            self._resident.discard(sid)
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
        self._resident.clear()
        for sid in resident:
            self.close(sid, at, outcome)
        self._merge_fifo.clear()
        self._caravan_fifo.clear()
        return len(resident)

    # -- the seam, in the terms above -------------------------------------
    def on_packet(self, worker, now, ingress_at, packet, size, bound, key, state,
                  stage, outputs):
        at = now if ingress_at is None else ingress_at
        if stage in ("merge", "caravan"):
            if not any(out is packet for out in outputs):
                sid = self.open(at, flow=key)
                if stage == "merge":
                    self.merge_enqueue(key, sid, len(packet.payload), now)
                else:
                    self.caravan_enqueue(key, sid, now)
            for out in outputs:
                if out is packet:
                    self.sync(at, now, "passthrough", flow=key)
                else:
                    self._settle(out, now)
        elif stage in ("split", "caravan-open"):
            sid = self.sync(at, now, stage, flow=key)
            if stage == "split":
                self.derived((sid,), "split-segment", now, len(outputs), key)
            else:
                self.derived((sid,), "datagram", now, len(outputs))
        elif stage == "malformed-caravan":
            self.sync_drop(at, now, stage, flow=key)
        else:
            self.sync(at, now, stage, flow=key)

    def on_flush(self, worker, now, flushed, batch):
        for out in flushed:
            self._settle(out, now)

    def on_retire(self, worker, now):
        self.flush_fifos(now, "failover")

    def _settle(self, out, now):
        flow = out.flow_key()
        if out.is_tcp:
            self.derived(self.merge_consume(flow, len(out.payload), now), "merged", now,
                         flow=flow)
            return
        bundled = out.ip.tos == PX_CARAVAN_TOS
        parents = self.caravan_consume(flow, out.meta["caravan_inner"] if bundled else 1,
                                       now, "bundled" if bundled else "flushed")
        if "caravan_first_at" in out.meta:
            self._observe(CARAVAN_BATCH_WAIT_SECONDS, now - out.meta["caravan_first_at"])
        if bundled:
            self.derived(parents, "caravan", now, flow=flow)

    # -- reads ---------------------------------------------------------
    def pending(self):
        return (sum(entry[1] for fifo in self._merge_fifo.values() for entry in fifo),
                sum(len(fifo) for fifo in self._caravan_fifo.values()))

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


# The flows a FIFO is fed and drained under: few, so they meet.
FIFO_FLOWS = st.one_of(st.sampled_from([FlowKey(6, 1, 2, 3, 4), FlowKey(17, 5, 6, 7, 8),
                                        None]), FLOWS)
INGRESS = st.one_of(st.none(), TIMES)


class _Packet:
    """What the tracker reads of a packet: payload length, flow, protocol
    and, for a caravan, its inner count and first enqueue time."""

    def __init__(self, nbytes=0, flow=None, udp=False, inner=None, first_at=None):
        self.payload = bytes(nbytes)
        self._flow = flow
        self.is_tcp, self.is_udp = not udp, udp
        self.ip = SimpleNamespace(tos=PX_CARAVAN_TOS if inner is not None else 0)
        self.meta = {}
        if inner is not None:
            self.meta["caravan_inner"] = inner
        if first_at is not None:
            self.meta["caravan_first_at"] = first_at

    def flow_key(self):
        return self._flow


_PACKET = _Packet(0)  # a passed-through output is the ingress packet itself
# A merge-engine output: a spliced segment of its flow's bytes.
MERGED = st.builds(_Packet, st.integers(0, 6000), FIFO_FLOWS)
# A caravan-engine output: a caravan of 0-6 datagrams or one flushed datagram.
CARAVANS = st.builds(_Packet, st.just(0), FIFO_FLOWS, st.just(True),
                     st.one_of(st.none(), st.integers(0, 6)), st.one_of(st.none(), TIMES))


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

    # -- closes ----------------------------------------------------------
    @rule(sid=st.one_of(sids, st.integers(-1, 60)), at=TIMES, outcome=LABELS)
    def close(self, sid, at, outcome):
        self._both("close", sid, at, outcome=outcome)

    @rule(sid=st.one_of(sids, st.integers(-1, 60)), at=TIMES, reason=LABELS)
    def drop(self, sid, at, reason):
        self._both("drop", sid, at, reason)

    # -- the worker seam ---------------------------------------------------
    def _packet(self, now, ingress_at, packet, key, stage, outputs):
        for side in (self.tracker, self.model):
            side.on_packet(None, now, ingress_at, packet, 0, None, key, None, stage,
                           tuple(outputs))

    @rule(ingress_at=INGRESS, now=TIMES, key=FLOWS,
          stage=st.sampled_from(["forward", "hairpin", "mss", "passthrough",
                                 "malformed-caravan"]))
    def forward(self, ingress_at, now, stage, key):
        self._packet(now, ingress_at, _PACKET, key, stage, (_PACKET,))

    @rule(ingress_at=INGRESS, now=TIMES, key=FIFO_FLOWS, nbytes=st.integers(0, 3000),
          spliced=st.lists(MERGED, max_size=3), through=st.booleans())
    def merge(self, ingress_at, now, key, nbytes, spliced, through):
        # Buffered (and maybe splicing older bytes out), or handed back.
        packet = _Packet(nbytes, key)
        self._packet(now, ingress_at, packet, key, "merge", spliced + [packet] * through)

    @rule(ingress_at=INGRESS, now=TIMES, key=FIFO_FLOWS,
          built=st.lists(CARAVANS, max_size=2), through=st.booleans())
    def caravan(self, ingress_at, now, key, built, through):
        packet = _Packet(0, key, udp=True)
        self._packet(now, ingress_at, packet, key, "caravan", built + [packet] * through)

    @rule(ingress_at=INGRESS, now=TIMES, key=FLOWS,
          stage=st.sampled_from(["split", "caravan-open"]), count=st.integers(0, 12))
    def fan_out(self, ingress_at, now, key, stage, count):
        self._packet(now, ingress_at, _PACKET, key, stage, [_Packet()] * count)

    @rule(now=TIMES, flushed=st.lists(st.one_of(MERGED, CARAVANS), max_size=4),
          batch=st.booleans())
    def flush(self, now, flushed, batch):
        for side in (self.tracker, self.model):
            side.on_flush(None, now, flushed, batch)

    @rule(now=TIMES)
    def retire(self, now):
        for side in (self.tracker, self.model):
            side.on_retire(None, now)

    # -- reads ---------------------------------------------------------
    @invariant()
    def reads_back_the_model(self):
        tracker, model = self.tracker, self.model
        assert all(type(record) is bytes for record in tracker._done)
        counts = [int.from_bytes(record[:2], "little") for record in tracker._done]
        assert sum(counts) == tracker._held
        assert not counts or tracker._held - counts[0] < tracker.capacity
        assert _fields(tracker.finished()) == _fields(model.finished())
        for kind in {record[1] for record in model._done} | {"merged", "nobody"}:
            assert _fields(tracker.finished(kind)) == _fields(model.finished(kind))
        assert tracker.kinds() == model.kinds()
        assert tracker.stages() == model.stages()
        assert tracker.shed == model.shed
        assert tracker.balance() == model.balance()
        assert tracker.anomalies == model.anomalies
        assert (tracker.pending_merge_bytes(),
                tracker.pending_caravan_datagrams()) == model.pending()
        for metric in (GATEWAY_RESIDENCY_SECONDS, MERGE_WAIT_SECONDS,
                       CARAVAN_BATCH_WAIT_SECONDS, PROBE_RTT_SECONDS):
            assert repr(tracker.latency_values(metric)) == repr(model._latency[metric])
        assert tracker.to_json() == model.to_json()
        for limit in (None, 0, 1, 3, 9):
            assert tracker.to_jsonl(limit) == model.to_jsonl(limit)


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
    # The one-in-one-out tail (twice: the first interns its form),
    # buffered segments settled by a merged output with its child, and a
    # split: each packed, an int time read back as its float.
    key = FlowKey(6, 1, 2, 3, 4)
    tracker, model = SpanTracker(), TupleRing(16)
    for side in (tracker, model):
        for _ in range(2):
            side.on_packet(None, now, at, _PACKET, 0, None, key, None, "forward",
                           (_PACKET,))
        for nbytes in (700, 300):
            side.on_packet(None, now, at, _Packet(nbytes, key), 0, None, key, None,
                           "merge", ())
        side.on_flush(None, now, [_Packet(1000, key)], True)
        side.on_packet(None, now, at, _PACKET, 0, None, key, None, "split",
                       (_Packet(),) * 2)
    assert _fields(tracker.finished()) == _fields(model.finished())
    assert [span.outcome for span in tracker.finished()] == [
        "egress", "egress", "merged", "merged"] + ["egress"] * 4
    assert len(tracker._done) == 4  # the tail twice, the merge, the split
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
        tracker.on_packet(None, 0.5, 0.0, _PACKET, 0, None, flow, None, "split",
                          (_Packet(),))
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
        tracker.open(0.5, parents=parents)
    assert (tracker.opened, tracker.open_count(), tracker.finished()) == (0, 0, [])
