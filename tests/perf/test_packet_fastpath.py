"""Unit tests for the zero-copy packet fast paths.

``fork()`` gives routers a cheap forwarding copy (private IP header,
copy-on-write L4); ``own_l4()`` materializes the L4 header before any
in-place mutation; the cached flow key must survive both.  The merge
engine's deque-backed ``take`` must drain partially-consumed chunks
byte-exactly.  A packet with nothing to say owns no container: TCP
options are a shared tuple and an empty ``meta`` is the shared
``EMPTY_META``, so an annotation must never reach another packet.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tcp_merge import StreamContext, TcpMergeEngine
from repro.net import Topology
from repro.nic import segment_tcp
from repro.packet import (
    FlowKey, Packet, TCPFlags, TCPOption, build_tcp, build_udp, fragment_packet,
)
from repro.packet.packet import EMPTY_META
from repro.tcpstack import TCPConnection

NO_OPTIONS = ()


def test_fork_shares_l4_and_payload():
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1000, 2000, payload=b"x" * 64)
    forked = packet.fork()
    assert forked.l4 is packet.l4
    assert forked.payload is packet.payload
    assert forked.ip is not packet.ip
    forked.ip.ttl -= 1
    assert packet.ip.ttl == 64 and forked.ip.ttl == 63
    assert forked.total_len == packet.total_len


def test_fork_copies_every_ip_field():
    # fork() fills the private IP header field by field rather than
    # through IPv4Header.copy(); every slot is set off its default here
    # so a field it forgot would show.
    packet = build_udp("10.0.0.1", "10.0.0.2", 53, 5353, payload=b"q" * 64, tos=4, ttl=9)
    ip = packet.ip
    ip.identification = 0xBEEF
    ip.dont_fragment = ip.more_fragments = True
    ip.fragment_offset = 185
    ip.options = b"\x01\x01\x01\x00"
    forked_ip = packet.fork().ip
    assert forked_ip == ip
    assert all(getattr(forked_ip, name) == getattr(ip, name) for name in type(ip).__slots__)


def test_own_l4_materializes_shared_header():
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1000, 2000, seq=7, mss=1460)
    forked = packet.fork()
    owned = forked.own_l4()
    assert owned is forked.l4
    assert owned is not packet.l4
    owned.seq = 99
    assert packet.tcp.seq == 7  # the original is untouched
    # A second call is a no-op once the header is private.
    assert forked.own_l4() is owned


def test_own_l4_without_fork_returns_header_unchanged():
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1000, 2000)
    assert packet.own_l4() is packet.l4


def test_flow_key_cached_and_survives_fork_and_copy():
    packet = build_udp("10.0.0.1", "10.0.0.2", 53, 5353, payload=b"q")
    key = packet.flow_key()
    assert key is packet.flow_key()  # cached, not recomputed
    assert packet.fork().flow_key() == key
    assert packet.copy().flow_key() == key


def test_flow_keys_are_flow_key_tuples():
    key = build_tcp("10.0.0.1", "10.0.0.2", 1000, 2000).flow_key()
    assert type(key) is FlowKey and type(key.reversed()) is FlowKey
    assert key.src_port == 1000 and key.reversed().src_port == 2000


def test_copy_is_fully_private():
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc", flags=TCPFlags.ACK)
    dup = packet.copy()
    assert dup.l4 is not packet.l4
    dup.tcp.seq = 123
    dup.annotate("tag", True)
    assert packet.tcp.seq == 0
    assert "tag" not in packet.meta


def _segment(seq, payload):
    return build_tcp(
        "10.0.0.1", "10.0.0.2", 1000, 2000,
        payload=payload, seq=seq, flags=TCPFlags.ACK,
    )


def test_stream_context_take_partial_chunks():
    context = StreamContext(_segment(0, b"abcdef"), now=0.0)
    context.append(_segment(6, b"ghij"), now=0.0)
    assert context.buffered == 10
    assert context.take(4) == b"abcd"
    assert context.take(4) == b"efgh"
    assert context.buffered == 2
    assert context.take(10) == b"ij"  # over-ask drains what's left
    assert context.buffered == 0


def test_stream_context_export_with_partial_head():
    context = StreamContext(_segment(0, b"abcdef"), now=0.0)
    context.append(_segment(6, b"ghij"), now=0.0)
    context.take(3)
    exported = context.export_segment()
    assert exported.payload == b"defghij"
    assert context.buffered == 7  # export never consumes


def test_merge_engine_resegments_across_chunks():
    engine = TcpMergeEngine(target_payload=5)
    assert engine.feed(_segment(0, b"abc")) == []
    (out,) = engine.feed(_segment(3, b"defg"))
    assert out.payload == b"abcde"
    assert engine.pending_bytes() == 2
    flushed = engine.flush()
    assert [p.payload for p in flushed] == [b"fg"]
    assert engine.pending_bytes() == 0


def _connection():
    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    topo.link(client, server, mtu=1500, bandwidth_bps=1e9)
    topo.build_routes()
    return TCPConnection(client, 40000, server.ip, 80)


def test_option_less_packets_share_the_empty_options_and_meta():
    built = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"z" * 3000, flags=TCPFlags.ACK)
    parsed = Packet.from_bytes(built.to_bytes())
    with_ip_options = built.copy()
    with_ip_options.ip.options = b"\x01\x01\x01\x00"  # parsed header by header
    reparsed = Packet.from_bytes(with_ip_options.to_bytes())
    sent = _connection()._build(TCPFlags.ACK, 0, payload=b"q")
    packets = [built, parsed, reparsed, sent, built.copy(), built.fork()]
    packets += segment_tcp(built, 1000) + segment_tcp(parsed, 1000)
    for packet in packets:
        assert packet.tcp.options is NO_OPTIONS
        assert packet.meta is EMPTY_META


def test_merge_segment_shares_options_and_owns_only_its_mark():
    template = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc", flags=TCPFlags.ACK,
                         mss=1460)
    context = StreamContext(template, now=0.0)
    segment = context.make_segment(context.take(3))
    assert segment.tcp.options is template.tcp.options
    assert segment.meta is not EMPTY_META and type(segment.meta) is dict
    assert segment.meta == {"spliced": True}
    assert template.meta is EMPTY_META


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["copy", "fork", "segment", "fragment", "annotate"]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(["a", "b", "c"]),
        st.integers(),
    ),
    max_size=20,
)


@given(steps=_STEPS)
@settings(max_examples=150, deadline=None)
def test_annotations_never_reach_another_packet(steps):
    # DF clear, so fragment_packet cuts what does not fit.
    packets = [build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 2500,
                         dont_fragment=False)]
    expected = [{}]  # what each packet's meta must read
    for op, pick, key, value in steps:
        index = pick % len(packets)
        packet = packets[index]
        if op == "annotate":
            packet.annotate(key, value)
            expected[index][key] = value
        else:
            if op == "segment":  # a fragment has no TCP header to cut
                made = segment_tcp(packet, 1000) if packet.l4 is not None else []
            elif op == "fragment":
                made = fragment_packet(packet, 576)
            else:
                made = [getattr(packet, op)()]
            made = [new for new in made if new is not packet]  # it already fit
            packets += made
            expected += [dict(expected[index]) for _ in made]
        for each, meta in zip(packets, expected):
            assert dict(each.meta) == meta
            assert (each.meta is EMPTY_META) == (not meta)
        private = [id(each.meta) for each in packets if each.meta is not EMPTY_META]
        assert len(set(private)) == len(private)  # no two packets share a dict


def test_empty_meta_refuses_writes():
    packet = build_udp("10.0.0.1", "10.0.0.2", 53, 5353)
    for write in (lambda m: m.__setitem__("k", 1), lambda m: m.update(k=1),
                  lambda m: m.setdefault("k", 1), lambda m: m.pop("k", None)):
        with pytest.raises(TypeError):
            write(packet.meta)
    assert EMPTY_META == {} and packet.meta.get("k") is None


def test_parsed_syn_equals_built_syn():
    built = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, flags=TCPFlags.SYN, mss=1460)
    parsed = Packet.from_bytes(built.to_bytes())
    assert parsed.tcp == built.tcp
    assert type(parsed.tcp.options) is tuple and type(built.tcp.options) is tuple
    options = (TCPOption.mss(8960), TCPOption.window_scale(7))
    sent = _connection()._build(TCPFlags.SYN, 5, options=options)
    assert sent.tcp.options is options
    assert Packet.from_bytes(sent.to_bytes()).tcp == sent.tcp


def test_pickle_and_deepcopy_round_trip():
    plain = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc", mss=1460)
    marked = build_udp("10.0.0.1", "10.0.0.2", 53, 5353, payload=b"q")
    marked.annotate("spliced", True)
    for packet in (plain, marked):
        for clone in (pickle.loads(pickle.dumps(packet)), copy.deepcopy(packet)):
            assert clone.to_bytes() == packet.to_bytes()
            assert clone.l4 == packet.l4
            assert clone.meta == packet.meta
            assert (clone.meta is EMPTY_META) == (packet.meta is EMPTY_META)
            # The not-yet-computed flow key comes back unset, not as a stranger.
            assert type(clone.flow_key()) is FlowKey
            assert clone.flow_key() == packet.flow_key()
    clone = pickle.loads(pickle.dumps(plain))
    clone.annotate("tag", 1)
    assert plain.meta is EMPTY_META and EMPTY_META == {}
