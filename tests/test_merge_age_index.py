"""The merge engines' age index against the full-table scan it replaced.

``flush_older_than`` used to scan every live context at every poll-batch
boundary; it now pops a shared lazy-deletion heap (``AgeIndex`` in
``repro.core.tcp_merge``).  The scan survives here as the oracle: the same
random script is run once with the real method and once with the scan,
and every step must emit the same bytes in the same order — IP IDs are
drawn at flush time, so order is part of the output.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tcp_merge
from repro.core.caravan import CaravanMergeEngine
from repro.core.tcp_merge import TcpMergeEngine
from repro.packet import FlowKey, TCPFlags, build_tcp, build_udp

TARGET = 100  # TCP target payload: small, so scripts drain full segments
CARAVAN_PAYLOAD = 300
FLOWS = 4


def scan_flush_older_than(engine, now, max_age):
    """The deleted implementation: filter the whole table by age."""
    stale = [key for key, context in engine._contexts.items()
             if now - context.created_at >= max_age]
    emitted = []
    for key in stale:
        emitted.extend(engine._flush_key(key))
    return emitted


def index_within_bound(engine):
    return len(engine._ages) <= 2 * len(engine) + 64


# A step is (op, flow, size, dt).  ``dt`` moves the clock before the op:
# mostly forward, often not at all, occasionally backwards.
_DT = st.sampled_from([0.0, 0.0, 0.0004, 0.002, 0.02, -0.003])
_FLOW = st.integers(min_value=0, max_value=FLOWS - 1)


def _steps(ops, sizes):
    return st.lists(
        st.tuples(st.sampled_from(ops), _FLOW, sizes, _DT), min_size=1, max_size=80
    )


_SHAPE = dict(
    max_contexts=st.sampled_from([2, 3, 64]),
    max_age=st.sampled_from([0.0, 0.001, 0.01]),
    frozen=st.booleans(),  # every ``now`` is 0.0
)


def _clock(now, dt, frozen):
    return 0.0 if frozen else now + dt


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------
_TCP_OPS = ["data"] * 12 + ["gap", "fin", "rst", "flush-key", "flush-all"] + ["older"] * 3


def _run_tcp(steps, max_contexts, max_age, frozen, oracle, monkeypatch):
    ids = itertools.count(1)
    monkeypatch.setattr(tcp_merge, "next_ip_id", lambda: next(ids) & 0xFFFF)
    engine = TcpMergeEngine(TARGET, max_contexts=max_contexts)
    next_seq = [0] * FLOWS
    evictions = 0
    now = 0.0
    seen = []
    for op, flow, size, dt in steps:
        now = _clock(now, dt, frozen)
        key = FlowKey(6, 0xC6336409, 5000 + flow, 0x0A010009, 80)
        if op in ("data", "gap", "fin", "rst"):
            if op == "gap":
                next_seq[flow] += 1000
            flags = {"fin": TCPFlags.FIN, "rst": TCPFlags.RST}.get(op, 0) | TCPFlags.ACK
            packet = build_tcp(key.src_ip, key.dst_ip, key.src_port, key.dst_port,
                               payload=bytes([flow]) * size, seq=next_seq[flow],
                               flags=flags, ip_id=7)
            next_seq[flow] += size
            if op in ("data", "gap") and key not in engine._contexts:
                evictions += len(engine) >= max_contexts
            out = engine.feed(packet, now)
        elif op == "flush-key":
            out = engine.flush(key)
        elif op == "flush-all":
            out = engine.flush()
        elif oracle:
            out = scan_flush_older_than(engine, now, max_age)
        else:
            out = engine.flush_older_than(now, max_age)
        if not oracle and op in ("flush-key", "flush-all", "older"):
            assert index_within_bound(engine)
        seen.append(([p.to_bytes() for p in out], engine.pending_bytes(), len(engine)))
    assert engine.evictions == evictions
    return seen


@settings(max_examples=200, deadline=None)
@given(steps=_steps(_TCP_OPS, st.sampled_from([1, 5, 10, 20, 30, 30, 45, 70, 130, 260])),
       **_SHAPE)
def test_tcp_index_flushes_what_the_scan_flushed(steps, max_contexts, max_age, frozen):
    with pytest.MonkeyPatch.context() as monkeypatch:
        real = _run_tcp(steps, max_contexts, max_age, frozen, False, monkeypatch)
        scan = _run_tcp(steps, max_contexts, max_age, frozen, True, monkeypatch)
    assert real == scan


# ----------------------------------------------------------------------
# Caravan
# ----------------------------------------------------------------------
_UDP_OPS = ["data"] * 7 + ["skip-id", "flush-all"] + ["older"] * 4


def _run_caravan(steps, max_contexts, max_age, frozen, oracle):
    engine = CaravanMergeEngine(CARAVAN_PAYLOAD, max_contexts=max_contexts)
    next_id = [1] * FLOWS
    evictions = 0
    now = 0.0
    seen = []
    for op, flow, size, dt in steps:
        now = _clock(now, dt, frozen)
        key = FlowKey(17, 0xC6336409, 5000 + flow, 0x0A010009, 443)
        if op in ("data", "skip-id"):
            if op == "skip-id":
                next_id[flow] += 5  # not consecutive: flush and restart
            packet = build_udp(key.src_ip, key.dst_ip, key.src_port, key.dst_port,
                               payload=bytes([flow]) * size, ip_id=next_id[flow] & 0xFFFF)
            next_id[flow] += 1
            if key not in engine._contexts:
                evictions += len(engine) >= max_contexts
            out = engine.feed(packet, now)
        elif op == "flush-all":
            out = engine.flush()
        elif oracle:
            out = scan_flush_older_than(engine, now, max_age)
        else:
            out = engine.flush_older_than(now, max_age)
        if not oracle and op in ("flush-all", "older"):
            assert index_within_bound(engine)
        seen.append(([p.to_bytes() for p in out], engine.pending_bytes(),
                     engine.pending_packets(), len(engine)))
    assert engine.evictions == evictions
    return seen


@settings(max_examples=200, deadline=None)
@given(steps=_steps(_UDP_OPS, st.sampled_from([40, 40, 40, 40, 25, 60])), **_SHAPE)
def test_caravan_index_flushes_what_the_scan_flushed(steps, max_contexts, max_age, frozen):
    real = _run_caravan(steps, max_contexts, max_age, frozen, False)
    scan = _run_caravan(steps, max_contexts, max_age, frozen, True)
    assert real == scan


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def _datagram(flow, ip_id, size=40):
    return build_udp("198.51.100.9", "10.1.0.9", 5000 + flow, 443,
                     payload=bytes([flow]) * size, ip_id=ip_id)


def _segment(flow, seq, size=10):
    return build_tcp("198.51.100.9", "10.1.0.9", 5000 + flow, 80,
                     payload=bytes([flow]) * size, seq=seq, flags=TCPFlags.ACK)


def test_stale_contexts_leave_in_lru_order_not_age_order():
    """Flow 0 is older, but was touched after flow 1 opened."""
    tcp = TcpMergeEngine(TARGET)
    tcp.feed(_segment(0, 0), now=0.0)
    tcp.feed(_segment(1, 0), now=0.001)
    tcp.feed(_segment(0, 10), now=0.002)
    assert [p.tcp.src_port for p in tcp.flush_older_than(1.0, 0.01)] == [5001, 5000]

    caravan = CaravanMergeEngine(CARAVAN_PAYLOAD)
    caravan.feed(_datagram(0, 1), now=0.0)
    caravan.feed(_datagram(1, 1), now=0.001)
    caravan.feed(_datagram(0, 2), now=0.002)
    assert [p.udp.src_port for p in caravan.flush_older_than(1.0, 0.01)] == [5001, 5000]


def test_a_reopened_or_redated_context_is_judged_by_its_new_age():
    """The superseded entry is old enough to expire; the context is not."""
    reopened = TcpMergeEngine(TARGET)
    reopened.feed(_segment(0, 0), now=0.0)
    reopened.flush(_segment(0, 0).flow_key())
    reopened.feed(_segment(0, 10), now=0.005)
    assert reopened.flush_older_than(0.0105, 0.01) == []
    assert len(reopened.flush_older_than(0.016, 0.01)) == 1

    drained = TcpMergeEngine(TARGET)
    drained.feed(_segment(0, 0, size=60), now=0.0)
    assert len(drained.feed(_segment(0, 60, size=70), now=0.005)) == 1  # keeps 30 bytes
    assert drained.flush_older_than(0.0105, 0.01) == []
    assert len(drained.flush_older_than(0.016, 0.01)) == 1


def test_caravan_counts_lru_evictions():
    engine = CaravanMergeEngine(CARAVAN_PAYLOAD, max_contexts=2)
    assert engine.feed(_datagram(0, 1)) == []
    assert engine.feed(_datagram(1, 1)) == []
    assert engine.evictions == 0
    out = engine.feed(_datagram(2, 1))
    assert [p.udp.src_port for p in out] == [5000]
    assert engine.evictions == 1 and len(engine) == 2


@pytest.mark.parametrize("flush", ["key", "older"])
def test_index_stays_bounded_when_now_never_advances(flush):
    """Open/flush churn at a constant ``now=0.0`` expires nothing."""
    engine = TcpMergeEngine(TARGET, max_contexts=8)
    for round_ in range(2000):
        packet = build_tcp("198.51.100.9", "10.1.0.9", 5000 + round_ % 40, 80,
                           payload=b"x" * 10, seq=round_ * 10, flags=TCPFlags.ACK)
        engine.feed(packet)
        if flush == "key":
            engine.flush(packet.flow_key())
        else:
            assert engine.flush_older_than(0.0, 0.001) == []
        assert index_within_bound(engine)


def test_index_entries_name_contexts_by_key_only():
    """An entry outlives its context; it must not keep the payload alive."""
    engine = CaravanMergeEngine(CARAVAN_PAYLOAD)
    engine.feed(_datagram(0, 1))
    engine.feed(_datagram(0, 2, size=25))  # shorter: terminal, flushes
    assert len(engine) == 0 and len(engine._ages) == 1
    created_at, seq, key = engine._ages._heap[0]
    assert (type(created_at), type(seq), type(key)) == (float, int, FlowKey)
