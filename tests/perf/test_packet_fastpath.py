"""Unit tests for the zero-copy packet fast paths.

``fork()`` gives routers a cheap forwarding copy (private IP header,
copy-on-write L4); ``own_l4()`` materializes the L4 header before any
in-place mutation; the cached flow key must survive both.  The merge
engine's deque-backed ``take`` must drain partially-consumed chunks
byte-exactly.
"""

from repro.core.tcp_merge import StreamContext, TcpMergeEngine
from repro.packet import TCPFlags, build_tcp, build_udp


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


def test_copy_is_fully_private():
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc", flags=TCPFlags.ACK)
    dup = packet.copy()
    assert dup.l4 is not packet.l4
    dup.tcp.seq = 123
    dup.meta["tag"] = True
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
