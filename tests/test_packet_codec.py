"""The wire codec (``Packet.to_bytes`` / ``from_bytes``) against independent oracles.

The serializer never builds the bytes its checksums cover: it adds the
header fields as integers and reads the payload once.  These tests
check its output the slow way — the RFC 1071 word-at-a-time oracle from
``tests/perf/test_checksum_property.py`` summed over the real
pseudo-header bytes and the serialized segment — and pin the parser's
length validation and the serializer's field write-back and errors.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encode_caravan
from repro.packet import (
    PX_CARAVAN_TOS,
    ICMPMessage,
    ICMPType,
    IPProto,
    IPv4Header,
    Packet,
    TCPHeader,
    TCPOption,
    UDPHeader,
)
from repro.packet.builder import build_icmp, build_tcp, build_udp
from repro.packet.checksum import pseudo_header, verify_checksum

from .perf.test_checksum_property import rfc1071_sum

# Zero and all-ones addresses are drawn often: (0, 0) is the "not yet
# addressed, skip the checksum" case, and 0xFFFFFFFF sums to a
# ones' complement zero.
ip_addr = st.one_of(st.sampled_from([0, 0xFFFFFFFF]),
                    st.integers(min_value=0, max_value=0xFFFFFFFF))
port = st.integers(min_value=0, max_value=0xFFFF)
word32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
# Empty, odd and even lengths, and buffers that sum to either zero.
payload = st.one_of(
    st.binary(max_size=200),
    st.sampled_from([b"", b"\x00", b"\xff", b"\x00" * 33, b"\xff" * 33, b"\xff" * 64]),
)
# No IPv4 options (the header block) or 1-10 whole words of them.
ip_options = st.one_of(st.just(b""), st.integers(min_value=1, max_value=10).flatmap(
    lambda words: st.binary(min_size=4 * words, max_size=4 * words)))
# No explicit NOPs: the parser drops padding, so they do not round-trip.
extra_options = st.lists(
    st.sampled_from([
        TCPOption.window_scale(7),
        TCPOption.sack_permitted(),
        TCPOption.timestamp(0xDEADBEEF, 1),
    ]),
    max_size=3,
)


@st.composite
def tcp_packets(draw):
    packet = build_tcp(
        draw(ip_addr), draw(ip_addr), draw(port), draw(port),
        payload=draw(payload),
        seq=draw(word32), ack=draw(word32),
        flags=draw(st.integers(min_value=0, max_value=0xFF)),
        window=draw(port),
        mss=draw(st.one_of(st.none(), st.integers(min_value=536, max_value=9000))),
        tos=draw(st.integers(min_value=0, max_value=0xFF)),
        ip_id=draw(port),
    )
    packet.tcp.options += tuple(draw(extra_options))
    packet.tcp.urgent = draw(port)
    packet.ip.options = draw(ip_options)
    return packet


@st.composite
def udp_packets(draw):
    packet = build_udp(
        draw(ip_addr), draw(ip_addr), draw(port), draw(port),
        payload=draw(payload), ip_id=draw(port),
    )
    packet.ip.options = draw(ip_options)
    return packet


@st.composite
def icmp_packets(draw):
    return build_icmp(
        draw(ip_addr), draw(ip_addr),
        ICMPMessage(
            icmp_type=draw(st.sampled_from([ICMPType.ECHO_REPLY, ICMPType.ECHO_REQUEST,
                                            ICMPType.DEST_UNREACHABLE])),
            code=draw(st.integers(min_value=0, max_value=4)),
            rest=draw(word32),
            payload=draw(st.binary(max_size=65)),
        ),
    )


@st.composite
def fragments(draw):
    # A first or middle fragment: l4 is None, the payload is raw bytes.
    ip = IPv4Header(
        src=draw(ip_addr), dst=draw(ip_addr), protocol=IPProto.UDP,
        identification=draw(port), more_fragments=True,
        fragment_offset=draw(st.integers(min_value=0, max_value=512)),
    )
    return Packet(ip=ip, l4=None, payload=draw(st.binary(min_size=8, max_size=64)))


any_packet = st.one_of(tcp_packets(), udp_packets(), icmp_packets(), fragments())


def _checksum_field(wire: bytes, offset: int) -> int:
    return struct.unpack_from("!H", wire, offset)[0]


# ---------------------------------------------------------------------------
# Serializer output against the oracle
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(any_packet)
def test_round_trip_reserializes_to_the_same_bytes(packet):
    wire = packet.to_bytes()
    assert Packet.from_bytes(wire).to_bytes() == wire


@settings(max_examples=150, deadline=None)
@given(any_packet)
def test_ip_header_sums_to_ffff_under_the_oracle(packet):
    wire = packet.to_bytes()
    assert rfc1071_sum(wire[: packet.ip.header_len]) == 0xFFFF


@settings(max_examples=200, deadline=None)
@given(st.one_of(tcp_packets(), udp_packets()))
def test_l4_segment_sums_to_ffff_under_the_oracle(packet):
    wire = packet.to_bytes()
    segment = wire[packet.ip.header_len :]
    ip = packet.ip
    if not (ip.src or ip.dst):
        # Not yet addressed: no checksum is computed, zero is stored.
        assert packet.l4.checksum == 0
        return
    pseudo = pseudo_header(ip.src, ip.dst, ip.protocol, len(segment))
    assert rfc1071_sum(pseudo + segment) == 0xFFFF


@settings(max_examples=60, deadline=None)
@given(icmp_packets())
def test_icmp_message_sums_to_ffff_under_the_oracle(packet):
    wire = packet.to_bytes()
    assert rfc1071_sum(wire[packet.ip.header_len :]) == 0xFFFF


@settings(max_examples=100, deadline=None)
@given(any_packet)
def test_to_bytes_writes_lengths_and_checksum_back(packet):
    # Later code reads these fields off the headers (UDP verify, the
    # incremental MSS rewrite, length accounting), so serializing must
    # leave them equal to what went on the wire.
    packet.ip.total_length = 0
    wire = packet.to_bytes()
    assert packet.ip.total_length == len(wire) == packet.total_len
    start = packet.ip.header_len
    if isinstance(packet.l4, TCPHeader):
        assert packet.l4.checksum == _checksum_field(wire, start + 16)
    elif isinstance(packet.l4, UDPHeader):
        assert packet.l4.length == 8 + len(packet.payload)
        assert packet.l4.checksum == _checksum_field(wire, start + 6)
        assert packet.l4.verify(packet.payload, packet.ip.src, packet.ip.dst)


def test_zero_ip_skips_the_l4_checksum():
    for packet in (build_tcp(0, 0, 1, 2, payload=b"xy", ip_id=7),
                   build_udp(0, 0, 1, 2, payload=b"xy", ip_id=7)):
        packet.l4.checksum = 0x1234
        wire = packet.to_bytes()
        offset = 20 + (16 if packet.is_tcp else 6)
        assert packet.l4.checksum == _checksum_field(wire, offset) == 0


def test_udp_checksum_that_computes_to_zero_is_sent_as_ffff():
    # RFC 768: a computed 0 is transmitted as 0xFFFF.  Solve for the
    # payload word that drives the ones' complement sum to 0xFFFF.
    probe = build_udp("10.0.0.1", "10.0.0.2", 5, 5, payload=b"\x00\x00", ip_id=3)
    pseudo = pseudo_header(probe.ip.src, probe.ip.dst, IPProto.UDP, 10)
    head = struct.pack("!HHHH", 5, 5, 10, 0)  # length 10, zero checksum field
    word = 0xFFFF - rfc1071_sum(pseudo + head)
    magic = build_udp("10.0.0.1", "10.0.0.2", 5, 5,
                      payload=word.to_bytes(2, "big"), ip_id=3)
    wire = magic.to_bytes()
    assert magic.l4.checksum == _checksum_field(wire, 26) == 0xFFFF
    assert rfc1071_sum(pseudo + wire[20:]) == 0xFFFF
    assert Packet.from_bytes(wire).udp.verify(magic.payload, magic.ip.src, magic.ip.dst)


def test_rfc1071_worked_example_as_a_udp_payload():
    # RFC 1071 §3: the words 0001 f203 f4f5 f6f7 sum to 0xDDF2.
    data = bytes.fromhex("0001f203f4f5f6f7")
    packet = build_udp("10.0.0.1", "10.0.0.2", 7, 9, payload=data, ip_id=1)
    wire = packet.to_bytes()
    pseudo = pseudo_header(packet.ip.src, packet.ip.dst, IPProto.UDP, 16)
    head = struct.pack("!HHHH", 7, 9, 16, 0)
    expected = 0xFFFF - rfc1071_sum(pseudo + head, 0xDDF2)
    assert _checksum_field(wire, 26) == expected


def test_fragment_offset_and_tcp_option_limits_are_enforced():
    with pytest.raises(ValueError, match="fragment offset"):
        Packet(ip=IPv4Header(fragment_offset=0x2000), payload=b"").to_bytes()
    with pytest.raises(ValueError, match="40 bytes"):
        TCPHeader(options=[TCPOption.timestamp(1, 2)] * 5).pack()
    # 44 bytes of IPv4 options would need an IHL of 16: it must not
    # spill into the version nibble.
    with pytest.raises(ValueError, match="IPv4 options exceed 40 bytes"):
        IPv4Header(options=bytes(44)).pack(payload_len=0)
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"x")
    packet.ip.options = bytes(44)
    with pytest.raises(ValueError, match="IPv4 options exceed 40 bytes"):
        packet.to_bytes()


@pytest.mark.parametrize("make, field", [
    (lambda: build_tcp("1.1.1.1", "2.2.2.2", 1, 2, window=70000), "window"),
    (lambda: build_tcp("1.1.1.1", "2.2.2.2", 70000, 2), "src_port"),
    (lambda: build_tcp("1.1.1.1", "2.2.2.2", 1, 2, flags=0x1FF), "flags"),
    (lambda: build_tcp("1.1.1.1", "2.2.2.2", 1, 2, tos=300), "tos"),
    (lambda: build_tcp("1.1.1.1", "2.2.2.2", 1, 2, ttl=-1), "ttl"),
    (lambda: build_udp("1.1.1.1", "2.2.2.2", 1, -2), "dst_port"),
    (lambda: build_udp(1 << 32, "2.2.2.2", 1, 2), "src"),
    (lambda: build_icmp("1.1.1.1", "2.2.2.2", ICMPMessage(icmp_type=256)), "icmp_type"),
    (lambda: build_icmp("1.1.1.1", "2.2.2.2", ICMPMessage(rest=1 << 32)), "rest"),
])
def test_out_of_range_field_raises_value_error_naming_it(make, field):
    with pytest.raises(ValueError, match=rf"\.{field}="):
        make().to_bytes()


# ---------------------------------------------------------------------------
# Parser length validation
# ---------------------------------------------------------------------------


def test_truncation_below_total_length_is_refused():
    wire = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 100).to_bytes()
    assert len(wire) == 140
    with pytest.raises(ValueError, match="truncated"):
        Packet.from_bytes(wire[:80])
    datagram = build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 50).to_bytes()
    with pytest.raises(ValueError, match="truncated"):
        Packet.from_bytes(datagram[:40])


def test_total_length_shorter_than_the_header_is_refused():
    header = IPv4Header(src=1, dst=2, protocol=IPProto.UDP, total_length=12)
    with pytest.raises(ValueError, match="shorter than"):
        Packet.from_bytes(header.pack() + b"\x00" * 20)


@pytest.mark.parametrize("claimed", [58, 12])
def test_udp_length_that_disagrees_with_the_ip_payload_is_refused(claimed):
    # 12 bytes of payload: UDP length should read 20.
    wire = bytearray(build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 12).to_bytes())
    struct.pack_into("!H", wire, 24, claimed)
    with pytest.raises(ValueError, match="UDP length"):
        Packet.from_bytes(bytes(wire), verify=False)


def test_bytes_past_total_length_are_link_padding():
    # A 46-byte Ethernet minimum pads short packets; the parser stops
    # at total_length and the TCP header may not reach into the padding.
    packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"hi", mss=1460)
    wire = packet.to_bytes()
    parsed = Packet.from_bytes(wire + b"\x00" * 6)
    assert parsed.payload == b"hi" and parsed.total_len == len(wire)
    assert parsed.to_bytes() == wire
    lying = bytearray(wire[:40] + b"\x00" * 20)
    struct.pack_into("!H", lying, 2, 40)  # total_length: headers only
    lying[32] = 0xF0  # data offset 60 bytes, past total_length
    with pytest.raises(ValueError, match="data offset"):
        Packet.from_bytes(bytes(lying), verify=False)


def test_parser_accepts_any_bytes_like_input():
    wire = build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc").to_bytes()
    for view in (bytearray(wire), memoryview(wire)):
        parsed = Packet.from_bytes(view)
        assert type(parsed.payload) is bytes and parsed.payload == b"abc"


@settings(max_examples=100, deadline=None)
@given(any_packet)
def test_parsed_packet_has_every_slot_of_a_constructed_one(packet):
    parsed = Packet.from_bytes(packet.to_bytes())
    fresh = Packet(ip=parsed.ip, l4=parsed.l4, payload=parsed.payload)
    for name in Packet.__slots__:
        assert getattr(parsed, name) == getattr(fresh, name), name
    assert parsed.flow_key() == packet.flow_key()


# ---------------------------------------------------------------------------
# IPv4 header verification from the unpacked fields
# ---------------------------------------------------------------------------


@st.composite
def ipv4_headers(draw):
    """Packed IPv4 headers with 0-40 B of options, any field values, and
    some trailing bytes so that a corrupted IHL can still fit."""
    header = IPv4Header(
        src=draw(word32), dst=draw(word32),
        protocol=draw(st.integers(min_value=0, max_value=0xFF)),
        identification=draw(port),
        dont_fragment=draw(st.booleans()), more_fragments=draw(st.booleans()),
        fragment_offset=draw(st.integers(min_value=0, max_value=0x1FFF)),
        ttl=draw(st.integers(min_value=0, max_value=0xFF)),
        tos=draw(st.integers(min_value=0, max_value=0xFF)),
        options=draw(ip_options),
    )
    return header.pack(draw(st.integers(min_value=0, max_value=64))), draw(
        st.binary(max_size=48))


def _unpack_error(data, verify):
    try:
        IPv4Header.unpack(data, verify=verify)
    except ValueError as error:
        return str(error)
    return None


@settings(max_examples=400, deadline=None)
@given(ipv4_headers(), st.one_of(st.none(), st.integers(min_value=0, max_value=479)))
def test_ipv4_verify_matches_the_byte_sum_over_the_header(header_and_tail, bit):
    header, tail = header_and_tail
    data = bytearray(header + tail)
    if bit is not None and bit < 8 * len(header):
        data[bit // 8] ^= 0x80 >> bit % 8  # one flipped bit anywhere in the header
    data = bytes(data)
    unverified = _unpack_error(data, verify=False)
    verified = _unpack_error(data, verify=True)
    assert unverified is None or "checksum" not in unverified
    if unverified is not None:
        # A bad version or IHL is refused before any checksum is read.
        assert verified == unverified
        return
    header_len = (data[0] & 0x0F) * 4
    # The byte-reading expression verification used before it summed the fields.
    bytes_verify = verify_checksum(data[:header_len])
    assert verified == (None if bytes_verify else "IPv4 header checksum mismatch")
    if bit is None or bit >= 8:
        # A flipped bit moves the sum by 2**k, never a multiple of 0xFFFF
        # (a flipped IHL also moves the bytes summed, so it is left out).
        assert bytes_verify == (bit is None or bit >= 8 * len(header))


def test_all_zero_ipv4_header_is_refused_either_way():
    assert not verify_checksum(bytes(20))
    for verify in (True, False):
        with pytest.raises(ValueError, match="not an IPv4 packet"):
            IPv4Header.unpack(bytes(20), verify=verify)


def test_ipv4_header_whose_words_sum_to_zero_mod_ffff_verifies():
    # Only the version/IHL word is nonzero besides the checksum, which
    # must make the sum 0xFFFF exactly: 0x4500 + 0xBAFF.
    data = bytearray(20)
    data[0] = 0x45
    struct.pack_into("!H", data, 10, 0xBAFF)
    assert verify_checksum(bytes(data))
    assert IPv4Header.unpack(bytes(data)).total_length == 0
    for off_by_one in (0xBAFE, 0xBB00):  # the sum misses 0xFFFF by -1 / +1
        struct.pack_into("!H", data, 10, off_by_one)
        assert not verify_checksum(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            IPv4Header.unpack(bytes(data))


# ---------------------------------------------------------------------------
# encode_caravan against the per-record body it replaced
# ---------------------------------------------------------------------------


def parent_caravan_error(packets):
    """The ValueError the per-record encoder raised, or None."""
    if not packets:
        return "cannot build an empty caravan"
    key = packets[0].flow_key()
    for packet in packets:
        if not packet.is_udp:
            return "caravans carry UDP only"
        if packet.flow_key() != key:
            return "caravan members must share one flow"
    return None


def parent_caravan(packets):
    """The per-record encoder: a UDPHeader per datagram, header + payload copied, then joined."""
    body = b"".join(
        UDPHeader(src_port=p.udp.src_port, dst_port=p.udp.dst_port).pack(p.payload) + p.payload
        for p in packets
    )
    first = packets[0]
    return Packet(ip=first.ip.copy(tos=PX_CARAVAN_TOS),
                  l4=UDPHeader(src_port=first.udp.src_port, dst_port=first.udp.dst_port),
                  payload=body)


@st.composite
def caravan_lists(draw):
    """Same-flow UDP lists, sometimes spoiled by a TCP packet or another
    flow; members are built or parsed, keyed or not."""
    src, dst, sport, dport = draw(ip_addr), draw(ip_addr), draw(port), draw(port)
    options = draw(st.sampled_from([b"", b"\x01\x01\x01\x00"]))
    packets = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        packet = build_udp(src, dst, sport, dport, payload=draw(payload), ip_id=draw(port))
        packet.ip.options = options
        packets.append(packet)
    if draw(st.booleans()):
        intruder = draw(st.sampled_from(["tcp", "port", "address"]))
        if intruder == "tcp":
            stranger = build_tcp(src, dst, sport, dport, payload=b"t")
        elif intruder == "port":
            stranger = build_udp(src, dst, sport ^ 1, dport, payload=b"u")
        else:
            stranger = build_udp(src, dst ^ 1, sport, dport, payload=b"u")
        packets.insert(draw(st.integers(min_value=0, max_value=len(packets))), stranger)
    out = []
    for packet in packets:
        if draw(st.booleans()):
            packet = Packet.from_bytes(packet.to_bytes())
        if draw(st.booleans()):
            packet.flow_key()
        out.append(packet)
    return out


@settings(max_examples=300, deadline=None)
@given(caravan_lists())
def test_encode_caravan_matches_the_per_record_encoder(packets):
    expected_error = parent_caravan_error(packets)
    if expected_error is not None:
        with pytest.raises(ValueError) as raised:
            encode_caravan(packets)
        assert str(raised.value) == expected_error
        return
    caravan = encode_caravan(packets)
    if len(packets) == 1:
        assert caravan is packets[0]
        return
    oracle = parent_caravan(packets)
    assert caravan.meta == {"caravan_inner": len(packets)}
    assert caravan.ip.total_length == caravan.total_len
    assert caravan.udp.length == 8 + len(caravan.payload)
    assert caravan.payload == oracle.payload
    assert caravan.to_bytes() == oracle.to_bytes()


# ---------------------------------------------------------------------------
# The header block against the per-header codec it replaced
# ---------------------------------------------------------------------------


def parent_to_bytes(packet):
    """The per-header serializer: each header's own ``pack``, joined."""
    ip = packet.ip
    l4 = packet.l4
    payload = packet.payload
    cls = l4.__class__
    if cls is TCPHeader or cls is UDPHeader:
        head = l4.pack(payload, ip.src, ip.dst)
    elif cls is ICMPMessage:
        head = l4.pack_header()
        payload = l4.payload
    else:
        head = b""
    return b"".join((ip.pack(len(head) + len(payload)), head, payload))


def parent_from_bytes(data, verify=True):
    """The per-header parser: ``IPv4Header.unpack``, then the L4 header's own."""
    ip = IPv4Header.unpack(data, verify=verify)
    start = ip.header_len
    end = ip.total_length
    if end > len(data):
        raise ValueError(
            f"truncated packet: total length {end} exceeds the {len(data)} bytes given"
        )
    if end < start:
        raise ValueError(f"IPv4 total length {end} shorter than its {start}-byte header")
    if end < len(data):
        data = data[:end]
    l4, hdr_len = None, 0
    if not (ip.fragment_offset or ip.more_fragments):
        protocol = ip.protocol
        if protocol == IPProto.TCP:
            l4, hdr_len = TCPHeader.unpack(data, start)
        elif protocol == IPProto.UDP:
            l4 = UDPHeader.unpack(data, start)
            if l4.length != end - start:
                raise ValueError(
                    f"UDP length {l4.length} disagrees with the "
                    f"{end - start}-byte IP payload"
                )
            hdr_len = 8
        elif protocol == IPProto.ICMP:
            return Packet(ip=ip, l4=ICMPMessage.unpack(data, start))
    return Packet(ip=ip, l4=l4, payload=bytes(data[start + hdr_len :]))


def _outcome(call, *args):
    """What *call* returned, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return type(error), str(error)


# Fields pushed out of their wire width (or out of type), IP and L4 ones
# both, so that two of them at once check which header is named first.
# ``seq``/``ack`` are masked to 32 bits, so theirs must still pack.
SPOILERS = [
    ("ip", "tos", 0x100), ("ip", "ttl", -1), ("ip", "protocol", 300),
    ("ip", "identification", 1 << 16), ("ip", "src", 1 << 32), ("ip", "dst", -1),
    ("ip", "fragment_offset", 0x2000), ("ip", "fragment_offset", -1),
    ("ip", "ttl", None), ("ip", "more_fragments", True),
    ("l4", "src_port", 1 << 16), ("l4", "dst_port", -1), ("l4", "window", 70000),
    ("l4", "flags", 0x1FF), ("l4", "urgent", -5), ("l4", "seq", -1),
    ("l4", "ack", 1 << 40), ("l4", "window", None),
]


def _serialize_both(packet, spoiled=(), oversize=None):
    """Serialize copies of *packet* both ways; assert equal bytes (or
    equal errors) and equal headers afterwards."""
    for where, name, value in spoiled:
        header = packet.ip if where == "ip" else packet.l4
        if name in getattr(type(header), "__slots__", ()):
            setattr(header, name, value)
    if oversize is not None:
        packet.payload = bytes(oversize)  # total length either side of 65535
    # Stale values, so a write-back the other path skips shows.
    packet.ip.total_length = 0
    if isinstance(packet.l4, (TCPHeader, UDPHeader)):
        packet.l4.checksum = 0x1234
    if isinstance(packet.l4, UDPHeader):
        packet.l4.length = 0
    block, oracle = packet.copy(), packet.copy()
    assert _outcome(block.to_bytes) == _outcome(parent_to_bytes, oracle)
    # Written back, or left alone, exactly as the per-header path does:
    # total length, L4 checksum and UDP length included.
    assert block.ip == oracle.ip
    assert block.l4 == oracle.l4


@settings(max_examples=600, deadline=None)
@given(st.one_of(tcp_packets(), udp_packets(), any_packet),
       st.lists(st.sampled_from(SPOILERS), max_size=2),
       st.one_of(st.none(), st.integers(min_value=65440, max_value=65520)))
def test_to_bytes_matches_the_per_header_serializer(packet, spoiled, oversize):
    _serialize_both(packet, spoiled, oversize)


@pytest.mark.parametrize("make", [
    lambda: build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"tcp"),
    lambda: build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"tcp", mss=1460),
    lambda: build_tcp(0, 0, 1, 2, payload=b"tcp"),
    lambda: build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"udp"),
    lambda: build_udp(0, 0, 1, 2, payload=b"udp"),
])
def test_every_spoiled_field_and_pair_fails_as_the_per_header_serializer(make):
    for first in SPOILERS:
        _serialize_both(make(), [first])
        for second in SPOILERS:
            _serialize_both(make(), [first, second])
    for oversize in (65495, 65496, 65507, 65508):
        _serialize_both(make(), oversize=oversize)


def test_header_block_sends_an_ipv4_checksum_of_zero():
    # Choose the IP ID that makes the header's words a multiple of 0xFFFF:
    # the checksum is then 0x0000, never 0xFFFF (RFC 1071).
    for make in (build_tcp, build_udp):
        packet = make("10.0.0.1", "10.0.0.2", 1, 2, payload=b"z", ip_id=0)
        wire = parent_to_bytes(packet.copy())
        words = rfc1071_sum(wire[:10] + wire[12:20])
        packet.ip.identification = 0xFFFF - words
        wire = packet.to_bytes()
        assert wire == parent_to_bytes(packet.copy())
        assert _checksum_field(wire, 10) == 0
        assert Packet.from_bytes(wire).ip == packet.ip


@st.composite
def wire_inputs(draw):
    """Serialized packets whole, cut short, with one byte changed, or with
    link padding, as ``bytes``, ``bytearray`` or ``memoryview``."""
    wire = parent_to_bytes(draw(any_packet))
    mangle = draw(st.sampled_from(["whole", "truncate", "corrupt", "pad"]))
    if mangle == "truncate":
        wire = wire[: draw(st.integers(min_value=0, max_value=len(wire) - 1))]
    elif mangle == "corrupt":
        # Mostly in the headers, where every check the parser makes reads.
        index = draw(st.one_of(st.integers(min_value=0, max_value=min(47, len(wire) - 1)),
                               st.integers(min_value=0, max_value=len(wire) - 1)))
        wire = wire[:index] + bytes([draw(st.integers(min_value=0, max_value=0xFF))]) \
            + wire[index + 1 :]
    elif mangle == "pad":
        wire += draw(st.binary(min_size=1, max_size=24))
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(wire)


def _parsed(parse, data, verify):
    """Every slot of the parsed packet, or the parser's ValueError message."""
    try:
        packet = parse(data, verify)
    except ValueError as error:
        return str(error)
    assert type(packet.payload) is bytes
    return [getattr(packet, name) for name in Packet.__slots__]


@settings(max_examples=500, deadline=None)
@given(wire_inputs(), st.booleans())
def test_from_bytes_matches_the_per_header_parser(data, verify):
    # ``ip``, ``l4``, ``payload`` and the rest are equal, and ``_fkey`` is
    # the same unset sentinel (an identity comparison).
    assert _parsed(Packet.from_bytes, data, verify) == _parsed(parent_from_bytes, data, verify)


def _with_word(wire, offset, value, fix_checksum):
    """*wire* with the 16-bit word at *offset* set to *value*, and the
    IPv4 checksum recomputed when *fix_checksum* (so ``verify`` passes)."""
    data = bytearray(wire)
    struct.pack_into("!H", data, offset, value)
    if fix_checksum:
        header_len = (data[0] & 0x0F) * 4
        struct.pack_into("!H", data, 10, 0)
        struct.pack_into("!H", data, 10, 0xFFFF - rfc1071_sum(bytes(data[:header_len])))
    return bytes(data)


@pytest.mark.parametrize("wire", [
    build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 30).to_bytes(),
    build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"p" * 5, mss=1460).to_bytes(),
    build_tcp("10.0.0.1", "10.0.0.2", 1, 2).to_bytes() + bytes(6),
    build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"u" * 12).to_bytes(),
    build_udp("10.0.0.1", "10.0.0.2", 1, 2).to_bytes() + bytes(18),
], ids=["tcp", "tcp-mss", "tcp-padded", "udp", "udp-padded"])
def test_from_bytes_matches_the_per_header_parser_on_every_length_field(wire):
    # Each header field the block parse tests, swept across its edges:
    # version/IHL, fragment bits, protocol, total length, then the UDP
    # length or the TCP data offset.
    cases = [(0, vihl << 8 | wire[1]) for vihl in (0x45, 0x46, 0x44, 0x55, 0x35, 0x4F)]
    cases += [(6, bits) for bits in (0, 0x4000, 0x8000, 0x2000, 0x1000, 0x0100, 0x0001)]
    cases += [(8, wire[8] << 8 | protocol) for protocol in (0, 1, 6, 17, 0xFF)]
    cases += [(2, total) for total in range(len(wire) + 3)]
    if wire[9] == IPProto.UDP:
        cases += [(24, length) for length in range(48)]
    else:
        cases += [(32, nibble << 12 | wire[33]) for nibble in range(16)]
    for offset, value in cases:
        for fix_checksum in (True, False):
            data = _with_word(wire, offset, value, fix_checksum)
            for verify in (True, False):
                assert _parsed(Packet.from_bytes, data, verify) == _parsed(
                    parent_from_bytes, data, verify), (offset, value, fix_checksum, verify)
