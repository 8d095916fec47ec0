"""Tests for the Packet object, flow keys, builders, and addresses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet import (
    FlowKey,
    ICMPMessage,
    IPProto,
    Packet,
    TCPFlags,
    build_icmp,
    build_tcp,
    build_udp,
    ip_to_str,
    str_to_ip,
)
from repro.packet.address import in_subnet, make_subnet


class TestAddress:
    def test_roundtrip(self):
        assert ip_to_str(str_to_ip("192.168.1.42")) == "192.168.1.42"

    def test_ordering_is_big_endian(self):
        assert str_to_ip("1.0.0.0") > str_to_ip("0.255.255.255")

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            str_to_ip(bad)

    def test_subnet_membership(self):
        network, mask = make_subnet("10.1.0.0/16")
        assert in_subnet(str_to_ip("10.1.200.7"), network, mask)
        assert not in_subnet(str_to_ip("10.2.0.1"), network, mask)

    def test_zero_prefix_matches_everything(self):
        network, mask = make_subnet("0.0.0.0/0")
        assert in_subnet(str_to_ip("255.255.255.255"), network, mask)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_property(self, value):
        assert str_to_ip(ip_to_str(value)) == value


class TestFlowKey:
    def test_reversed(self):
        key = FlowKey(IPProto.TCP, 1, 1000, 2, 80)
        assert key.reversed() == FlowKey(IPProto.TCP, 2, 80, 1, 1000)
        assert key.reversed().reversed() == key

    def test_canonical_is_direction_independent(self):
        key = FlowKey(IPProto.TCP, 9, 1000, 2, 80)
        assert key.canonical() == key.reversed().canonical()

    def test_hashable(self):
        assert len({FlowKey(6, 1, 2, 3, 4), FlowKey(6, 1, 2, 3, 4)}) == 1


class TestPacket:
    def test_tcp_roundtrip(self):
        packet = build_tcp("10.0.0.1", "10.0.0.2", 1234, 80, payload=b"GET /", seq=42,
                           flags=TCPFlags.PSH | TCPFlags.ACK)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.is_tcp
        assert parsed.tcp.seq == 42
        assert parsed.payload == b"GET /"
        assert parsed.total_len == packet.total_len

    def test_udp_roundtrip(self):
        packet = build_udp("10.0.0.1", "10.0.0.2", 5000, 6000, payload=b"datagram")
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.is_udp
        assert parsed.payload == b"datagram"

    def test_icmp_roundtrip(self):
        packet = build_icmp("10.0.0.1", "10.0.0.2", ICMPMessage.echo_request(1, 2, b"abc"))
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.is_icmp
        assert parsed.icmp.payload == b"abc"

    def test_flow_key_none_for_icmp(self):
        packet = build_icmp("10.0.0.1", "10.0.0.2", ICMPMessage.echo_request(1, 2))
        assert packet.flow_key() is None

    def test_flow_key_matches_fields(self):
        packet = build_udp("10.0.0.1", "10.0.0.2", 5000, 6000)
        key = packet.flow_key()
        assert key == FlowKey(IPProto.UDP, str_to_ip("10.0.0.1"), 5000, str_to_ip("10.0.0.2"), 6000)

    def test_total_len_matches_serialization(self):
        packet = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x" * 777, mss=8960)
        assert packet.total_len == len(packet.to_bytes())

    def test_wire_len_adds_ethernet_overhead(self):
        packet = build_udp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x" * 1000)
        assert packet.wire_len == packet.total_len + 38

    def test_copy_is_independent(self):
        packet = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"abc", mss=1460)
        clone = packet.copy()
        clone.tcp.replace_mss(9000)
        clone.ip.ttl = 1
        clone.annotate("tag", 1)
        assert packet.tcp.mss_option == 1460
        assert packet.ip.ttl == 64
        assert "tag" not in packet.meta

    def test_accessor_type_errors(self):
        packet = build_udp("1.1.1.1", "2.2.2.2", 1, 2)
        with pytest.raises(TypeError):
            _ = packet.tcp
        with pytest.raises(TypeError):
            _ = packet.icmp

    def test_tcp_sets_df_by_default(self):
        assert build_tcp("1.1.1.1", "2.2.2.2", 1, 2).ip.dont_fragment
        assert not build_udp("1.1.1.1", "2.2.2.2", 1, 2).ip.dont_fragment

    @given(payload=st.binary(max_size=4096))
    def test_udp_roundtrip_property(self, payload):
        packet = build_udp("10.9.8.7", "1.2.3.4", 1111, 2222, payload=payload)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == payload
        assert parsed.udp.length == 8 + len(payload)
