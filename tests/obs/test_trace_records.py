"""``FlowTracer``'s packed event records against a tuple ring.

The tracer stores each event as one ``bytes`` record in its kind's fixed
layout (``repro.obs.codec.EVENTS``).  The model below is the ring it
replaced: every event a ``(time, kind, values)`` tuple, values in the
order of ``FIELDS`` (this file's own copy of each kind's field names),
rendered only on read.  A Hypothesis machine drives both with the same
calls — every kind through ``on_event`` with every field drawn across
its whole range (ints over 32 bits, any ``str`` label, any float, flows
``FlowKey`` / ``None`` / ``"-"``, ``pmtu=None``), and the worker hooks
with stub packets — and after every step the tracer must read back
exactly what the model holds: ``events()`` (values and types),
``events(kind)``, ``kinds()``, ``to_json()``, and every record must be
``bytes``.  Inputs outside the seam's contract must raise instead.
"""

import struct
from collections import Counter, deque
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.worker import WorkerMode
from repro.obs import FlowTracer
from repro.obs.codec import EVENTS
from repro.packet.flow import FlowKey

_U8, _U16, _U32 = (st.integers(0, 2**bits - 1) for bits in (8, 16, 32))
INTS = st.one_of(_U32, st.sampled_from([0, 1, 2**32 - 1]))
LABELS = st.one_of(
    st.sampled_from(["inbound", "outbound", "normal", "degraded", "bypass",
                     "healthy", "pxgw", "bounds", "unknown-id", "failover"]),
    st.text(max_size=4),
)
FLOATS = st.floats()  # every float: signed zeros, infinities, NaN
BOOLS = st.booleans()
FLOWS = st.one_of(
    st.builds(FlowKey, _U8, _U32, _U16, _U32, _U16),
    st.just(FlowKey(6, 1, 2, 3, 4)), st.none(), st.just("-"),
)
OPTIONAL_INTS = st.one_of(st.none(), INTS)

# Each kind's fields in order, as the tuple ring stored them, and what
# each field carries.
FIELDS = {
    "ingress": (("worker", INTS), ("bound", LABELS), ("proto", INTS), ("bytes", INTS),
                ("flow", FLOWS)),
    "classify": (("worker", INTS), ("flow", FLOWS), ("elephant", BOOLS)),
    "merge": (("worker", INTS), ("bytes", INTS), ("spliced", BOOLS)),
    "split": (("worker", INTS), ("segments", INTS), ("bytes", INTS)),
    "caravan-built": (("worker", INTS), ("inner", INTS), ("bytes", INTS)),
    "caravan-opened": (("worker", INTS), ("inner", INTS)),
    "egress": (("worker", INTS), ("bound", LABELS), ("bytes", INTS)),
    "flush": (("worker", INTS), ("packets", INTS)),
    "mode-transition": (("worker", INTS), ("from_mode", LABELS), ("to_mode", LABELS)),
    "stall": (("gateway", LABELS), ("until", FLOATS)),
    "stall-drain": (("gateway", LABELS), ("queued", INTS)),
    "health-transition": (("gateway", LABELS), ("from_state", LABELS),
                          ("to_state", LABELS), ("reason", LABELS)),
    "pmtud-probe": (("probe_id", INTS), ("dst", INTS), ("size", INTS)),
    "pmtud-report": (("probe_id", INTS), ("pmtu", INTS), ("fragments", INTS)),
    "pmtud-report-rejected": (("probe_id", INTS), ("reason", LABELS),
                              ("pmtu", OPTIONAL_INTS)),
    "pmtud-timeout": (("probe_id", INTS),),
}


def _render(value):
    if type(value) is FlowKey:
        return str(value)
    return value


class TupleTracer:
    """The tracer's reads over a ring of ``(time, kind, values)`` tuples."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.ring = deque(maxlen=capacity)
        self.recorded = 0

    def add(self, time, kind, *values):
        self.ring.append((time, kind, values))
        self.recorded += 1

    def on_event(self, now, kind, fields):
        if kind in FIELDS:
            self.add(now, kind, *[fields[name] for name, _ in FIELDS[kind]])

    def on_packet(self, worker, now, packet, size, bound, key, state, stage, outputs):
        index = worker.index
        self.add(now, "ingress", index, bound, packet.ip.protocol, size, key)
        if state is not None:
            self.add(now, "classify", index, key, state.is_elephant)
        if stage == "merge":
            for out in outputs:
                self.add(now, "merge", index, out.total_len, bool(out.meta.get("spliced")))
        elif stage == "split" and worker.mode != WorkerMode.BYPASS:
            self.add(now, "split", index, len(outputs), size)
        elif stage == "caravan-open":
            self.add(now, "caravan-opened", index, len(outputs))
        for out in outputs:
            self.add(now, "egress", index, bound, out.total_len)

    def on_flush(self, worker, now, flushed, batch):
        if batch and flushed:
            self.add(now, "flush", worker.index, len(flushed))
        for out in flushed:
            self.add(now, "egress", worker.index, "inbound", out.total_len)

    def events(self, kind=None):
        events = []
        for time, name, values in self.ring:
            if kind is None or name == kind:
                event = {"time": float(time), "kind": name}
                for (field, _), value in zip(FIELDS[name], values):
                    # An absent flow reads as "-" in every kind.
                    event[field] = "-" if field == "flow" and value is None else _render(value)
                events.append(event)
        return events

    def kinds(self):
        return dict(sorted(Counter(name for _, name, _ in self.ring).items()))

    def to_json(self):
        return {"capacity": self.capacity, "recorded": self.recorded,
                "dropped": self.recorded - len(self.ring), "events": self.events()}


def _event(kind):
    return st.fixed_dictionaries({name: values for name, values in FIELDS[kind]})


def _out(total_len, spliced):
    return SimpleNamespace(total_len=total_len, meta={"spliced": spliced} if spliced else {},
                           is_udp=False)


OUTPUTS = st.lists(st.builds(_out, INTS, BOOLS), max_size=3)


class TraceMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 8))
    def setup(self, capacity):
        self.tracer = FlowTracer(capacity=capacity)
        self.model = TupleTracer(capacity)

    @rule(data=st.data(), kind=st.sampled_from(sorted(FIELDS)), now=FLOATS)
    def event(self, data, kind, now):
        fields = data.draw(_event(kind))
        self.tracer.on_event(None, now, kind, **fields)
        self.model.on_event(now, kind, fields)

    @rule(now=FLOATS, index=INTS, mode=st.sampled_from([WorkerMode.NORMAL, WorkerMode.BYPASS]),
          proto=INTS, size=INTS, bound=LABELS, key=FLOWS.filter(lambda key: key != "-"),
          elephant=st.one_of(st.none(), BOOLS),
          stage=st.sampled_from(["merge", "split", "caravan-open", "forward", "mss"]),
          outputs=OUTPUTS)
    def packet(self, now, index, mode, proto, size, bound, key, elephant, stage, outputs):
        worker = SimpleNamespace(index=index, mode=mode)
        packet = SimpleNamespace(ip=SimpleNamespace(protocol=proto))
        state = None if elephant is None else SimpleNamespace(is_elephant=elephant)
        self.tracer.on_packet(worker, now, None, packet, size, bound, key, state, stage,
                              outputs)
        self.model.on_packet(worker, now, packet, size, bound, key, state, stage, outputs)

    @rule(now=FLOATS, index=INTS, flushed=OUTPUTS, batch=BOOLS)
    def flush(self, now, index, flushed, batch):
        worker = SimpleNamespace(index=index)
        self.tracer.on_flush(worker, now, flushed, batch)
        self.model.on_flush(worker, now, flushed, batch)

    @rule(now=FLOATS, index=INTS, old=LABELS, new=LABELS)
    def mode(self, now, index, old, new):
        self.tracer.on_mode(SimpleNamespace(index=index), now, old, new)
        self.model.add(now, "mode-transition", index, old, new)

    @invariant()
    def reads_back_the_model(self):
        tracer, model = self.tracer, self.model
        assert all(type(record) is bytes for record in tracer._events)
        assert repr(tracer.events()) == repr(model.events())
        for kind in [*FIELDS, "nobody"]:
            assert repr(tracer.events(kind)) == repr(model.events(kind))
        assert tracer.kinds() == model.kinds()
        assert repr(tracer.to_json()) == repr(model.to_json())
        assert (len(tracer), tracer.dropped) == (len(model.ring), model.recorded - len(model.ring))


TestTraceRecordsAgainstTupleRing = TraceMachine.TestCase
TestTraceRecordsAgainstTupleRing.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_every_layout_kind_is_modelled():
    assert list(EVENTS) == list(FIELDS)
    for kind, layout in EVENTS.items():
        assert [name for name, _ in layout.fields] == [name for name, _ in FIELDS[kind]]


# ----------------------------------------------------------------------
# Outside the contract: raise at the append, store nothing
# ----------------------------------------------------------------------
_GOOD = {
    "ingress": dict(worker=0, bound="inbound", proto=6, bytes=1500,
                    flow=FlowKey(6, 1, 2, 3, 4)),
    "pmtud-report-rejected": dict(probe_id=7, reason="bounds", pmtu=None),
    "stall": dict(gateway="pxgw", until=1.5),
}
_BAD = [
    ("ingress", "flow", (6, 1, 2, 3, 4), TypeError),     # shaped like a key, but not one
    ("ingress", "flow", "flowA", TypeError),
    ("ingress", "flow", FlowKey(6, -1, 2, 3, 4), struct.error),
    ("ingress", "flow", FlowKey(256, 1, 2, 3, 4), struct.error),
    ("ingress", "bound", 1, TypeError),                  # a label that is not a str
    ("ingress", "bound", ["inbound"], TypeError),
    ("ingress", "bytes", -1, struct.error),
    ("ingress", "bytes", 2**32, struct.error),
    ("ingress", "bytes", 1.5, struct.error),
    ("ingress", "bytes", [500, 500], struct.error),      # a list-valued field
    ("pmtud-report-rejected", "pmtu", "1500", struct.error),
    ("stall", "until", "soon", struct.error),
    ("stall", "gateway", None, None),                    # None is a label
]


@pytest.mark.parametrize("kind, field, value, error", _BAD)
def test_out_of_contract_fields_raise_and_store_nothing(kind, field, value, error):
    tracer = FlowTracer()
    fields = dict(_GOOD[kind], **{field: value})
    if error is None:
        tracer.on_event(None, 0.5, kind, **fields)
        assert tracer.events()[0][field] == value
        return
    with pytest.raises(error):
        tracer.on_event(None, 0.5, kind, **fields)
    assert (tracer.recorded, len(tracer)) == (0, 0)


@pytest.mark.parametrize("now", ["0.5", None])
def test_a_time_that_is_not_a_number_raises(now):
    tracer = FlowTracer()
    with pytest.raises(struct.error):
        tracer.on_event(None, now, "pmtud-timeout", probe_id=1)
    with pytest.raises(struct.error):
        tracer.on_mode(SimpleNamespace(index=0), now, "normal", "bypass")
    assert (tracer.recorded, len(tracer)) == (0, 0)


def test_an_int_time_reads_back_as_a_float():
    tracer = FlowTracer()
    tracer.on_event(None, 2, "pmtud-timeout", probe_id=1)
    (event,) = tracer.events()
    assert type(event["time"]) is float and event["time"] == 2.0
