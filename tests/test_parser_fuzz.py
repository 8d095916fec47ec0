"""Fuzz the wire parsers: hostile bytes must fail cleanly (ValueError),
never with an unhandled struct/index error — middleboxes parse
attacker-controlled input."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import decode_caravan
from repro.packet import Packet, UDPHeader, build_tcp, build_udp
from repro.packet.checksum import internet_checksum
from repro.packet.gtpu import GTPUHeader
from repro.packet.ip import IPv4Header
from repro.packet.tcp import TCPHeader


def _assert_self_consistent(packet):
    """What parses must agree with itself on every length it carries."""
    assert packet.ip.total_length == packet.total_len
    if isinstance(packet.l4, UDPHeader):
        assert packet.l4.length == 8 + len(packet.payload)


# Random bytes rarely get past the version nibble; an IPv4-looking
# prefix (version 4, IHL 5, a small total length, TCP/UDP/ICMP) lets
# the fuzzer reach the length checks and the L4 parsers.
_ipv4_like = st.builds(
    lambda total, proto, rest: bytes([0x45, 0, 0, total, 0, 0, 0, 0, 64, proto]) + rest,
    st.integers(min_value=0, max_value=120),
    st.sampled_from([1, 6, 17]),
    st.binary(min_size=10, max_size=110),
)


@st.composite
def _header_block_like(draw):
    """28-80 bytes that take the parser's header-block branch: version/IHL
    0x45, TCP or UDP, fragment bits clear, a total length that fits, and
    a right or wrong IPv4 checksum.  Sometimes the TCP data offset or the
    UDP length agrees too, so that some of them parse."""
    size = draw(st.integers(min_value=28, max_value=80))
    data = bytearray(draw(st.binary(min_size=size, max_size=size)))
    data[0] = 0x45
    data[6] &= 0xC0  # DF and the reserved bit may stay; MF and the offset go
    data[7] = 0
    data[9] = draw(st.sampled_from([6, 17]))
    total = draw(st.one_of(st.just(size), st.integers(min_value=0, max_value=size)))
    struct.pack_into("!H", data, 2, total)
    if draw(st.booleans()):
        if data[9] == 6 and size >= 40:
            data[32] = 0x50 | data[32] & 0x0F  # a 20-byte TCP header
        elif data[9] == 17:
            struct.pack_into("!H", data, 24, max(total - 20, 0))
    if draw(st.booleans()):
        struct.pack_into("!H", data, 10, 0)
        struct.pack_into("!H", data, 10, internet_checksum(bytes(data[:20])))
    return bytes(data)


@settings(max_examples=400)
@given(data=st.one_of(st.binary(max_size=256), _ipv4_like, _header_block_like()),
       verify=st.booleans())
def test_packet_from_bytes_fails_cleanly(data, verify):
    try:
        packet = Packet.from_bytes(data, verify=verify)
    except ValueError:
        return
    _assert_self_consistent(packet)
    assert packet.ip.total_length <= len(data)


@settings(max_examples=200)
@given(data=st.binary(max_size=128))
def test_header_parsers_fail_cleanly(data):
    for parser in (IPv4Header.unpack, TCPHeader.unpack, UDPHeader.unpack,
                   GTPUHeader.unpack):
        try:
            parser(data)
        except ValueError:
            pass


@settings(max_examples=150)
@given(mutation=st.binary(min_size=1, max_size=64),
       offset=st.integers(min_value=0, max_value=200))
def test_corrupted_caravan_fails_cleanly(mutation, offset):
    from repro.core import encode_caravan

    packets = [build_udp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x" * 100, ip_id=i)
               for i in range(3)]
    caravan = encode_caravan(packets)
    body = bytearray(caravan.payload)
    start = min(offset, max(0, len(body) - len(mutation)))
    body[start : start + len(mutation)] = mutation
    caravan.payload = bytes(body)
    try:
        datagrams = decode_caravan(caravan)
    except ValueError:
        return
    # If it still parses, every piece must be internally consistent.
    assert all(d.udp.length == 8 + len(d.payload) for d in datagrams)


@settings(max_examples=100)
@given(truncate_to=st.integers(min_value=0, max_value=60),
       tcp=st.booleans())
def test_truncated_real_packet_fails_cleanly(truncate_to, tcp):
    build = build_tcp if tcp else build_udp
    wire = build("10.0.0.1", "10.0.0.2", 5, 6, payload=b"hello world" * 3).to_bytes()
    assert truncate_to < len(wire)
    # Anything short of total_length must be refused, never parsed
    # into a packet whose headers claim bytes that are not there.
    with pytest.raises(ValueError):
        Packet.from_bytes(wire[:truncate_to])
    _assert_self_consistent(Packet.from_bytes(wire))
