"""Round-trip and field tests for Ethernet/IP/TCP/UDP/ICMP/GTP-U headers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet import (
    EthernetHeader,
    EtherType,
    GTPUHeader,
    ICMPMessage,
    ICMPType,
    IPProto,
    IPv4Header,
    TCPFlags,
    TCPHeader,
    TCPOption,
    UDPHeader,
    str_to_ip,
)
from repro.packet.ethernet import mac_to_str, str_to_mac, wire_bytes_for_payload


class TestEthernet:
    def test_roundtrip(self):
        header = EthernetHeader(
            dst=str_to_mac("aa:bb:cc:dd:ee:ff"),
            src=str_to_mac("11:22:33:44:55:66"),
            ethertype=EtherType.IPV4,
        )
        assert EthernetHeader.unpack(header.pack()) == header

    def test_mac_string_roundtrip(self):
        assert mac_to_str(str_to_mac("de:ad:be:ef:00:01")) == "de:ad:be:ef:00:01"

    def test_bad_mac_rejected(self):
        with pytest.raises(ValueError):
            str_to_mac("not-a-mac")

    def test_wire_bytes_includes_framing_overhead(self):
        # 1500 B payload -> 1500 + 14 hdr + 4 FCS + 8 preamble + 12 IFG
        assert wire_bytes_for_payload(1500) == 1538

    def test_wire_bytes_pads_to_minimum(self):
        assert wire_bytes_for_payload(10) == wire_bytes_for_payload(46)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 10)


class TestIPv4:
    def test_roundtrip_basic(self):
        header = IPv4Header(
            src=str_to_ip("10.0.0.1"),
            dst=str_to_ip("10.0.0.2"),
            protocol=IPProto.UDP,
            identification=0x1234,
            ttl=17,
            tos=0x04,
        )
        wire = header.pack(payload_len=100)
        parsed = IPv4Header.unpack(wire + b"\x00" * 100)
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.total_length == 120
        assert parsed.ttl == 17
        assert parsed.tos == 0x04

    def test_flags_roundtrip(self):
        header = IPv4Header(dont_fragment=True, more_fragments=True, fragment_offset=185)
        parsed = IPv4Header.unpack(header.pack(payload_len=0))
        assert parsed.dont_fragment and parsed.more_fragments
        assert parsed.fragment_offset == 185

    def test_checksum_detects_corruption(self):
        wire = bytearray(IPv4Header(src=1, dst=2).pack(payload_len=0))
        wire[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(ValueError, match="checksum"):
            IPv4Header.unpack(bytes(wire))

    def test_options_must_be_word_aligned(self):
        header = IPv4Header(options=b"\x01\x01\x01")
        with pytest.raises(ValueError, match="options"):
            header.pack(payload_len=0)

    def test_oversized_packet_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            IPv4Header().pack(payload_len=70000)

    def test_is_fragment(self):
        assert IPv4Header(more_fragments=True).is_fragment
        assert IPv4Header(fragment_offset=1).is_fragment
        assert not IPv4Header().is_fragment

    @given(
        src=st.integers(min_value=0, max_value=0xFFFFFFFF),
        dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
        ident=st.integers(min_value=0, max_value=0xFFFF),
        offset=st.integers(min_value=0, max_value=0x1FFF),
        ttl=st.integers(min_value=1, max_value=255),
        tos=st.integers(min_value=0, max_value=255),
        payload_len=st.integers(min_value=0, max_value=9000),
    )
    def test_roundtrip_property(self, src, dst, ident, offset, ttl, tos, payload_len):
        header = IPv4Header(
            src=src,
            dst=dst,
            identification=ident,
            fragment_offset=offset,
            ttl=ttl,
            tos=tos,
        )
        wire = header.pack(payload_len=payload_len)
        parsed = IPv4Header.unpack(wire)
        assert (parsed.src, parsed.dst, parsed.identification) == (src, dst, ident)
        assert parsed.fragment_offset == offset
        assert parsed.total_length == 20 + payload_len


class TestTCP:
    def test_roundtrip_with_options(self):
        header = TCPHeader(
            src_port=4242,
            dst_port=80,
            seq=1000,
            ack=2000,
            flags=TCPFlags.SYN | TCPFlags.ACK,
            window=8192,
            options=[TCPOption.mss(8960), TCPOption.sack_permitted(), TCPOption.window_scale(7)],
        )
        wire = header.pack(b"", src_ip=1, dst_ip=2)
        parsed, hdr_len = TCPHeader.unpack(wire)
        assert hdr_len == header.header_len
        assert parsed.mss_option == 8960
        assert parsed.find_option(TCPOption.WINDOW_SCALE).data == b"\x07"
        assert parsed.syn and parsed.ack_flag

    def test_replace_mss(self):
        header = TCPHeader(flags=TCPFlags.SYN, options=[TCPOption.mss(1460)])
        assert header.replace_mss(8960)
        assert header.mss_option == 8960

    def test_replace_mss_absent_returns_false(self):
        assert not TCPHeader().replace_mss(8960)

    def test_options_are_not_aliased_to_the_callers_list(self):
        given = []
        header = TCPHeader(options=given)
        given.append(TCPOption.mss(1460))
        assert header.options == () and header.mss_option is None
        assert header.header_len == 20 and len(header.pack()) == 20

    def test_checksum_covers_payload(self):
        a = TCPHeader(src_port=1, dst_port=2).pack(b"hello", src_ip=10, dst_ip=20)
        b = TCPHeader(src_port=1, dst_port=2).pack(b"world", src_ip=10, dst_ip=20)
        assert a[16:18] != b[16:18]

    def test_flag_properties(self):
        header = TCPHeader(flags=TCPFlags.FIN | TCPFlags.PSH | TCPFlags.RST)
        assert header.fin and header.psh and header.rst
        assert not header.syn

    @given(
        seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
        ack=st.integers(min_value=0, max_value=0xFFFFFFFF),
        flags=st.integers(min_value=0, max_value=255),
        window=st.integers(min_value=0, max_value=0xFFFF),
        mss=st.integers(min_value=536, max_value=65535),
    )
    def test_roundtrip_property(self, seq, ack, flags, window, mss):
        header = TCPHeader(
            src_port=1234, dst_port=5678, seq=seq, ack=ack, flags=flags,
            window=window, options=[TCPOption.mss(mss)],
        )
        parsed, _ = TCPHeader.unpack(header.pack())
        assert (parsed.seq, parsed.ack, parsed.flags, parsed.window) == (seq, ack, flags, window)
        assert parsed.mss_option == mss


class TestUDP:
    def test_roundtrip(self):
        header = UDPHeader(src_port=5000, dst_port=53)
        wire = header.pack(b"query", src_ip=1, dst_ip=2)
        parsed = UDPHeader.unpack(wire)
        assert parsed.src_port == 5000
        assert parsed.length == 8 + 5

    def test_checksum_verifies(self):
        payload = b"x" * 100
        header = UDPHeader(src_port=1, dst_port=2)
        header.pack(payload, src_ip=0x0A000001, dst_ip=0x0A000002)
        assert header.verify(payload, 0x0A000001, 0x0A000002)
        assert not header.verify(b"y" * 100, 0x0A000001, 0x0A000002)

    def test_zero_checksum_means_disabled(self):
        header = UDPHeader(src_port=1, dst_port=2, checksum=0)
        assert header.verify(b"anything", 1, 2)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            UDPHeader.unpack(b"\x00" * 4)


class TestICMP:
    def test_frag_needed_carries_mtu(self):
        msg = ICMPMessage.frag_needed(1400, original=b"\x45" + b"\x00" * 40)
        parsed = ICMPMessage.unpack(msg.pack())
        assert parsed.is_frag_needed
        assert parsed.next_hop_mtu == 1400
        assert len(parsed.payload) == 28  # IP header + 8 bytes echoed

    def test_echo_roundtrip(self):
        request = ICMPMessage.echo_request(ident=7, seq=3, data=b"ping")
        reply = ICMPMessage.echo_reply(request)
        assert reply.icmp_type == ICMPType.ECHO_REPLY
        assert reply.payload == b"ping"
        parsed = ICMPMessage.unpack(reply.pack())
        assert parsed.rest == request.rest


class TestGTPU:
    def test_roundtrip(self):
        header = GTPUHeader(teid=0xDEADBEEF)
        parsed = GTPUHeader.unpack(header.pack(payload_len=1452))
        assert parsed.teid == 0xDEADBEEF
        assert parsed.length == 1452

    def test_bad_version_rejected(self):
        data = bytearray(GTPUHeader(teid=1).pack(payload_len=0))
        data[0] = 0x50  # version 2
        with pytest.raises(ValueError, match="version"):
            GTPUHeader.unpack(bytes(data))
