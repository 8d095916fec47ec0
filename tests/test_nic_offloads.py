"""Tests for LRO/GRO coalescing, UDP GRO, and TSO segmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic import TcpCoalescer, UdpGroCoalescer, segment_tcp
from repro.packet import TCPFlags, build_tcp, build_udp


def tcp_seg(seq, payload_len, flow=0, flags=TCPFlags.ACK, payload_byte=b"a"):
    return build_tcp(
        "10.0.0.1",
        "10.0.0.2",
        1000 + flow,
        80,
        payload=payload_byte * payload_len,
        seq=seq,
        flags=flags,
    )


def stream(count, size=1000, flow=0, start_seq=0):
    return [tcp_seg(start_seq + i * size, size, flow=flow) for i in range(count)]


class TestTcpCoalescer:
    def test_contiguous_segments_merge(self):
        lro = TcpCoalescer(max_bytes=10000)
        emitted = []
        for packet in stream(5):
            emitted.extend(lro.feed(packet))
        assert emitted == []  # still aggregating
        merged = lro.flush()
        assert len(merged) == 1
        assert len(merged[0].payload) == 5000
        assert merged[0].meta["merged_from"] == 5

    def test_max_bytes_triggers_flush(self):
        lro = TcpCoalescer(max_bytes=3000)
        emitted = []
        for packet in stream(7):
            emitted.extend(lro.feed(packet))
        # Every 3 segments fills 3000 B and flushes.
        assert len(emitted) == 2
        assert all(len(p.payload) == 3000 for p in emitted)

    def test_out_of_order_flushes(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 1000))
        lro.feed(tcp_seg(1000, 1000))
        emitted = lro.feed(tcp_seg(5000, 1000))  # gap
        assert len(emitted) == 1
        assert len(emitted[0].payload) == 2000
        # The out-of-order packet starts a fresh context.
        assert len(lro.flush()) == 1

    def test_psh_flushes_immediately(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 1000))
        emitted = lro.feed(tcp_seg(1000, 1000, flags=TCPFlags.ACK | TCPFlags.PSH))
        assert len(emitted) == 1
        assert emitted[0].payload == b"a" * 2000
        assert emitted[0].tcp.psh

    def test_control_flags_pass_through_and_flush(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 1000))
        fin = tcp_seg(1000, 0, flags=TCPFlags.ACK | TCPFlags.FIN)
        emitted = lro.feed(fin)
        assert len(emitted) == 2
        assert emitted[1] is fin

    def test_pure_acks_pass_through_without_flushing(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 1000))
        ack = tcp_seg(1000, 0)
        assert lro.feed(ack) == [ack]
        assert len(lro.flush()) == 1  # context survived

    def test_different_flows_do_not_merge(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 1000, flow=0))
        lro.feed(tcp_seg(0, 1000, flow=1))
        merged = lro.flush()
        assert len(merged) == 2
        assert all(p.meta.get("merged_from", 1) == 1 for p in merged)

    def test_context_eviction_under_interleaving(self):
        # 8 flows through a 4-context LRO: evictions cut aggregation.
        lro = TcpCoalescer(max_contexts=4)
        emitted = []
        for round_index in range(4):
            for flow in range(8):
                emitted.extend(lro.feed(tcp_seg(round_index * 500, 500, flow=flow)))
        emitted.extend(lro.flush())
        assert lro.stats_evictions > 0
        # With evictions, mean aggregation is well below the 4-round max.
        mean = sum(p.meta.get("merged_from", 1) for p in emitted) / len(emitted)
        assert mean < 4

    def test_merged_header_takes_last_ack_window(self):
        lro = TcpCoalescer()
        first = tcp_seg(0, 500)
        first.tcp.ack, first.tcp.window = 10, 100
        second = tcp_seg(500, 500)
        second.tcp.ack, second.tcp.window = 20, 50
        lro.feed(first)
        lro.feed(second)
        merged = lro.flush()[0]
        assert merged.tcp.ack == 20
        assert merged.tcp.window == 50
        assert merged.tcp.seq == 0

    def test_flush_older_than(self):
        lro = TcpCoalescer()
        lro.feed(tcp_seg(0, 500, flow=0), now=0.0)
        lro.feed(tcp_seg(0, 500, flow=1), now=1.0)
        old = lro.flush_older_than(now=1.5, max_age=1.0)
        assert len(old) == 1
        assert len(lro) == 1

    def test_non_tcp_passthrough(self):
        lro = TcpCoalescer()
        udp = build_udp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"u")
        assert lro.feed(udp) == [udp]

    def test_merged_total_length_consistent(self):
        lro = TcpCoalescer()
        for packet in stream(3, size=1448):
            lro.feed(packet)
        merged = lro.flush()[0]
        assert merged.total_len == 20 + 20 + 3 * 1448
        assert merged.total_len == len(merged.to_bytes())

    @settings(max_examples=25)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=1460), min_size=1, max_size=40))
    def test_no_bytes_lost_property(self, sizes):
        lro = TcpCoalescer(max_bytes=9000)
        seq = 0
        total_in = 0
        emitted = []
        for size in sizes:
            emitted.extend(lro.feed(tcp_seg(seq, size)))
            seq += size
            total_in += size
        emitted.extend(lro.flush())
        assert sum(len(p.payload) for p in emitted) == total_in


class TestUdpGro:
    def udp(self, length, flow=0):
        return build_udp("10.0.0.1", "10.0.0.2", 2000 + flow, 443, payload=b"q" * length)

    def test_equal_length_datagrams_merge(self):
        gro = UdpGroCoalescer()
        for _ in range(4):
            assert gro.feed(self.udp(1200)) == []
        bundles = gro.flush()
        assert len(bundles) == 1
        assert bundles[0].meta["merged_from"] == 4
        assert bundles[0].meta["gso_size"] == 1200

    def test_short_datagram_terminates_bundle(self):
        gro = UdpGroCoalescer()
        gro.feed(self.udp(1200))
        gro.feed(self.udp(1200))
        emitted = gro.feed(self.udp(300))
        assert len(emitted) == 1
        assert emitted[0].meta["merged_from"] == 3
        assert len(emitted[0].payload) == 2700

    def test_longer_datagram_starts_new_bundle(self):
        gro = UdpGroCoalescer()
        gro.feed(self.udp(500))
        emitted = gro.feed(self.udp(1200))
        assert len(emitted) == 1  # the 500 B bundle flushed alone
        assert emitted[0].meta.get("merged_from", 1) == 1

    def test_flows_kept_separate(self):
        gro = UdpGroCoalescer()
        gro.feed(self.udp(1000, flow=0))
        gro.feed(self.udp(1000, flow=1))
        assert len(gro.flush()) == 2

    def test_max_bytes_respected(self):
        gro = UdpGroCoalescer(max_bytes=2500)
        gro.feed(self.udp(1000))
        gro.feed(self.udp(1000))
        emitted = gro.feed(self.udp(1000))  # would exceed 2500
        assert len(emitted) == 1
        assert emitted[0].meta["merged_from"] == 2


class TestSegmentTcp:
    def big(self, payload_len, flags=TCPFlags.ACK, seq=1_000_000):
        return build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"m" * payload_len,
                         seq=seq, flags=flags)

    def test_small_packet_unchanged(self):
        packet = self.big(1000)
        assert segment_tcp(packet, 1460) == [packet]

    def test_segment_count_and_sizes(self):
        segments = segment_tcp(self.big(9000), 1460)
        assert len(segments) == 7  # ceil(9000/1460)
        assert [len(s.payload) for s in segments[:-1]] == [1460] * 6
        assert len(segments[-1].payload) == 9000 - 6 * 1460

    def test_sequence_numbers_advance(self):
        segments = segment_tcp(self.big(5000, seq=100), 1000)
        assert [s.tcp.seq for s in segments] == [100, 1100, 2100, 3100, 4100]

    def test_seq_wraps_around(self):
        segments = segment_tcp(self.big(3000, seq=0xFFFFFF00), 1000)
        assert segments[1].tcp.seq == (0xFFFFFF00 + 1000) & 0xFFFFFFFF

    def test_fin_psh_only_on_last(self):
        segments = segment_tcp(self.big(3000, flags=TCPFlags.ACK | TCPFlags.FIN | TCPFlags.PSH), 1000)
        assert all(not s.tcp.fin and not s.tcp.psh for s in segments[:-1])
        assert segments[-1].tcp.fin and segments[-1].tcp.psh

    def test_cwr_only_on_first(self):
        segments = segment_tcp(self.big(3000, flags=TCPFlags.ACK | TCPFlags.CWR), 1000)
        assert segments[0].tcp.flags & TCPFlags.CWR
        assert all(not (s.tcp.flags & TCPFlags.CWR) for s in segments[1:])

    def test_fresh_ip_ids_for_tail_segments(self):
        segments = segment_tcp(self.big(3000), 1000)
        ids = [s.ip.identification for s in segments]
        assert len(set(ids)) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            segment_tcp(self.big(100), 0)
        with pytest.raises(ValueError):
            segment_tcp(build_udp("1.1.1.1", "2.2.2.2", 1, 2), 1000)

    @given(
        payload_len=st.integers(min_value=1, max_value=70000),
        mss=st.integers(min_value=536, max_value=9000),
    )
    @settings(max_examples=30)
    def test_split_preserves_bytes_property(self, payload_len, mss):
        if payload_len + 40 > 65535:
            payload_len = 65000
        packet = self.big(payload_len)
        segments = segment_tcp(packet, mss)
        assert b"".join(s.payload for s in segments) == packet.payload
        assert all(len(s.payload) <= mss for s in segments)

    @given(
        payload=st.binary(min_size=1, max_size=20000),
        mss=st.integers(min_value=1, max_value=9000),
        seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=60, deadline=None)
    def test_segments_conserve_bytes_and_sequence_space(self, payload, mss, seq):
        packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=payload, seq=seq,
                           flags=TCPFlags.ACK)
        segments = segment_tcp(packet, mss)
        assert b"".join(s.payload for s in segments) == payload
        assert sum(len(s.payload) for s in segments) == len(payload)
        assert all(0 < len(s.payload) <= mss for s in segments)
        expected = seq
        for segment in segments:
            assert segment.tcp.seq == expected
            expected = (expected + len(segment.payload)) & 0xFFFFFFFF

    def test_split_then_merge_is_identity(self):
        packet = self.big(9000)
        segments = segment_tcp(packet, 1460)
        lro = TcpCoalescer(max_bytes=20000)
        emitted = []
        for segment in segments:
            emitted.extend(lro.feed(segment))
        emitted.extend(lro.flush())
        assert len(emitted) == 1
        assert emitted[0].payload == packet.payload
        assert emitted[0].tcp.seq == packet.tcp.seq
