"""``CaravanMergeEngine`` against a per-flow datagram FIFO.

The model keeps, per flow, every datagram fed in order, and opens and
closes bundles by the rules the paper's prototype is configured with
(UDP_GRO): a datagram joins the flow's open bundle if it fits the budget,
is no larger than the first, and (when required) carries the next IP ID;
a shorter datagram, or no room for another full one, closes the bundle;
otherwise the open bundle closes and the datagram opens a new one.  Ages,
explicit flushes and LRU eviction at ``max_contexts`` close bundles too.

After every step, what the engine has emitted, opened with
``decode_caravan`` and concatenated per flow, must be a prefix of that
flow's FIFO, cut where the model cut it; what it still holds must be
exactly the rest (``pending_packets()``, ``pending_bytes()``, the
context count); and every caravan must fit ``max_payload`` and keep the
UDP_GRO rule: equal sizes, a shorter datagram only last, consecutive IP
IDs (mod 2**16).
"""

from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.caravan import CaravanMergeEngine, decode_caravan, is_caravan
from repro.packet import PX_CARAVAN_TOS, IPProto, IPv4Header, Packet, build_tcp, build_udp
from repro.packet.udp import UDP_HEADER_LEN

FLOWS = 4
_PORTS = [40_000 + flow for flow in range(FLOWS)]
# Zero-length payloads, sizes that fill a small caravan unevenly, and
# repeats so that equal-size runs form.
_SIZES = st.sampled_from([0, 1, 7, 7, 40, 40, 40, 100, 100, 172])
_ID_STEP = st.sampled_from([1, 1, 1, 1, 0, 2, 300])  # consecutive, repeated, gapped
_DT = st.sampled_from([0.0, 0.0, 0.0002, 0.001, 0.02])  # 0.0: a stalled clock


def _record_bytes(records):
    return sum(UDP_HEADER_LEN + len(payload) for payload, _ip_id in records)


class _Bundle:
    def __init__(self, record, now):
        self.records = [record]
        self.created_at = now


class CaravanMachine(RuleBasedStateMachine):
    @initialize(
        max_payload=st.sampled_from([16, 200, 500, 8972]),
        max_contexts=st.sampled_from([1, 2, 3, 64]),
        consecutive=st.booleans(),
        first_ids=st.lists(st.sampled_from([0, 0xFFFD, 0xFFFF, 1234]),
                           min_size=FLOWS, max_size=FLOWS),
    )
    def setup(self, max_payload, max_contexts, consecutive, first_ids):
        self.engine = CaravanMergeEngine(max_payload, max_contexts=max_contexts,
                                         require_consecutive_ids=consecutive)
        self.max_payload = max_payload
        self.max_contexts = max_contexts
        self.consecutive = consecutive
        self.now = 0.0
        self.next_id = list(first_ids)  # wraps at 2**16 from 0xFFFD / 0xFFFF
        self.serial = 0
        self.fifo = {port: [] for port in _PORTS}  # (payload, ip_id) per datagram fed
        self.open = OrderedDict()  # port -> _Bundle, least recently touched first
        self.cuts = {port: [] for port in _PORTS}  # the model's closed bundle sizes
        self.emitted = {port: [] for port in _PORTS}  # payloads out, in order
        self.units = {port: [] for port in _PORTS}  # the engine's emitted bundle sizes
        self.caravans = 0
        self.evictions = 0

    # -- the model --------------------------------------------------------
    def _close(self, port):
        self.cuts[port].append(len(self.open.pop(port).records))

    def _model_feed(self, port, record):
        payload, ip_id = record
        bundle = self.open.get(port)
        if bundle is not None:
            first = len(bundle.records[0][0])
            total = _record_bytes(bundle.records) + UDP_HEADER_LEN + len(payload)
            follows = (bundle.records[-1][1] + 1) & 0xFFFF == ip_id
            if (total <= self.max_payload and len(payload) <= first
                    and (follows or not self.consecutive)):
                bundle.records.append(record)
                self.open.move_to_end(port)
                if len(payload) < first or total + UDP_HEADER_LEN + first > self.max_payload:
                    self._close(port)
                return
            self._close(port)
        elif len(self.open) >= self.max_contexts:
            self.evictions += 1
            self._close(next(iter(self.open)))
        self.open[port] = _Bundle(record, self.now)

    # -- the engine -------------------------------------------------------
    def _absorb(self, packets):
        for packet in packets:
            port = packet.flow_key().src_port
            start = len(self.emitted[port])
            if is_caravan(packet):
                self.caravans += 1
                datagrams = decode_caravan(packet)
                members = self.fifo[port][start:start + len(datagrams)]
                assert packet.meta["caravan_inner"] == len(datagrams) >= 2
                assert len(packet.payload) <= self.max_payload
                assert len(packet.payload) == _record_bytes(members)
                sizes = [len(payload) for payload, _ip_id in members]
                assert all(size == sizes[0] for size in sizes[:-1])
                assert sizes[-1] <= sizes[0]
                if self.consecutive:
                    ids = [ip_id for _payload, ip_id in members]
                    assert all((a + 1) & 0xFFFF == b for a, b in zip(ids, ids[1:]))
                # The outer header is the first member's, ToS aside.
                assert packet.ip.identification == members[0][1]
            else:
                datagrams = [packet]
            self.emitted[port].extend(datagram.payload for datagram in datagrams)
            self.units[port].append(len(datagrams))

    @rule(flow=st.integers(min_value=0, max_value=FLOWS - 1), size=_SIZES,
          step=_ID_STEP, dt=_DT, keyed=st.booleans())
    def feed(self, flow, size, step, dt, keyed):
        self.now += dt
        port = _PORTS[flow]
        ip_id = (self.next_id[flow] + step - 1) & 0xFFFF
        self.next_id[flow] = (ip_id + 1) & 0xFFFF
        self.serial += 1
        payload = (self.serial.to_bytes(4, "big") * (size // 4 + 1))[:size]
        packet = build_udp("198.51.100.7", "10.1.0.2", port, 443, payload=payload, ip_id=ip_id)
        if keyed:
            packet.flow_key()  # as the worker leaves it
        self.fifo[port].append((payload, ip_id))
        self._model_feed(port, (payload, ip_id))
        self._absorb(self.engine.feed(packet, self.now))

    @rule(kind=st.sampled_from(["tcp", "fragment", "caravan"]))
    def feed_what_never_merges(self, kind):
        if kind == "tcp":
            packet = build_tcp("198.51.100.7", "10.1.0.2", _PORTS[0], 443, payload=b"tcp")
        elif kind == "fragment":
            ip = IPv4Header(src=1, dst=2, protocol=IPProto.UDP, more_fragments=True)
            packet = Packet(ip=ip, l4=None, payload=bytes(16))
        else:
            packet = build_udp("198.51.100.7", "10.1.0.2", _PORTS[0], 443,
                               payload=b"x", ip_id=1)
            packet.ip.tos = PX_CARAVAN_TOS
        assert self.engine.feed(packet, self.now) == [packet]

    @rule(dt=_DT, max_age=st.sampled_from([0.0, 0.0005, 0.005]))
    def flush_older_than(self, dt, max_age):
        self.now += dt
        for port in [p for p, bundle in self.open.items()
                     if self.now - bundle.created_at >= max_age]:
            self._close(port)
        self._absorb(self.engine.flush_older_than(self.now, max_age))

    @rule()
    def flush(self):
        for port in list(self.open):
            self._close(port)
        self._absorb(self.engine.flush())

    @rule()
    def export_pending_is_the_rest_of_each_fifo(self):
        exported = {port: [] for port in _PORTS}
        for packet in self.engine.export_pending():
            exported[packet.flow_key().src_port] += [d.payload for d in decode_caravan(packet)]
        for port in _PORTS:
            rest = self.fifo[port][len(self.emitted[port]):]
            assert exported[port] == [payload for payload, _ip_id in rest]

    @invariant()
    def emitted_is_the_models_prefix_and_pending_is_the_rest(self):
        engine = self.engine
        pending = bytes_held = 0
        for port in _PORTS:
            fed = self.fifo[port]
            out = self.emitted[port]
            assert out == [payload for payload, _ip_id in fed[:len(out)]]
            assert self.units[port] == self.cuts[port]
            rest = fed[len(out):]
            bundle = self.open.get(port)
            assert rest == (bundle.records if bundle is not None else [])
            pending += len(rest)
            bytes_held += _record_bytes(rest)
        assert engine.pending_packets() == pending
        assert engine.pending_bytes() == bytes_held
        assert len(engine) == len(self.open) <= self.max_contexts
        assert engine.built == self.caravans
        assert engine.evictions == self.evictions


TestCaravanAgainstFifo = CaravanMachine.TestCase
TestCaravanAgainstFifo.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)


def test_ip_ids_wrap_inside_one_caravan():
    engine = CaravanMergeEngine(8972)
    for ip_id in (0xFFFE, 0xFFFF, 0, 1):
        assert engine.feed(build_udp("198.51.100.7", "10.1.0.2", 1, 2,
                                     payload=bytes(100), ip_id=ip_id)) == []
    [caravan] = engine.flush()
    assert caravan.meta["caravan_inner"] == 4 and caravan.ip.identification == 0xFFFE


def test_sixteen_byte_budget_holds_two_empty_datagrams_at_most():
    # max_payload 16 is the smallest the engine accepts: two 8-byte records.
    engine = CaravanMergeEngine(16)
    first = build_udp("198.51.100.7", "10.1.0.2", 1, 2, payload=b"", ip_id=9)
    assert engine.feed(first) == []
    [caravan] = engine.feed(build_udp("198.51.100.7", "10.1.0.2", 1, 2, payload=b"", ip_id=10))
    assert len(caravan.payload) == 16 and caravan.meta["caravan_inner"] == 2
    with pytest.raises(ValueError):
        CaravanMergeEngine(15)
