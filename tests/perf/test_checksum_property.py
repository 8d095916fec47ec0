"""Property tests: the big-integer checksum equals the RFC 1071 oracle.

``ones_complement_sum`` reads the buffer as one big-endian integer and
reduces it mod 0xFFFF; the oracle below walks 16-bit words and folds
the carries, as RFC 1071 words it.  The oracle lives here, outside
``src/``, so the library has one implementation and the tests an
independent one.  Any divergence between the two is a wire-format bug.
"""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.packet.checksum import (
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)


def rfc1071_sum(data: bytes, initial: int = 0) -> int:
    """Word-at-a-time ones' complement sum (RFC 1071 directly)."""
    total = initial
    if len(data) % 2:
        total += data[-1] << 8
        data = data[:-1]
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@given(st.binary(max_size=4096))
def test_vectorized_matches_scalar(data):
    assert ones_complement_sum(data) == rfc1071_sum(data)


# Serializers pass the unfolded sum of their header fields as
# ``initial``, so it ranges well past 16 bits.
@given(
    st.one_of(st.binary(max_size=1024), st.sampled_from([b"\x00" * 63, b"\xff" * 63])),
    st.one_of(st.integers(min_value=0, max_value=1 << 40),
              st.sampled_from([0, 0xFFFF, 0x1FFFE, 0xFFFF0000])),
)
def test_vectorized_matches_scalar_with_initial(data, initial):
    assert ones_complement_sum(data, initial) == rfc1071_sum(
        data, initial
    )


@given(st.binary(min_size=1, max_size=513).filter(lambda d: len(d) % 2 == 1))
def test_odd_length_pads_on_the_right(data):
    # RFC 1071: the odd trailing byte occupies the high half of the
    # final word.
    padded = data + b"\x00"
    assert ones_complement_sum(data) == ones_complement_sum(padded)
    assert ones_complement_sum(data) == rfc1071_sum(data)


@given(st.binary(max_size=512), st.binary(max_size=512))
def test_chained_sums_equal_concatenated_sum(first, second):
    # Chaining via ``initial`` must equal one pass over the whole
    # buffer — this is how pseudo-header + segment checksums compose.
    # Word alignment matters, so only even-length first halves chain.
    if len(first) % 2:
        first = first + b"\x00"
    chained = ones_complement_sum(second, ones_complement_sum(first))
    assert chained == ones_complement_sum(first + second)


def test_empty_buffer():
    assert ones_complement_sum(b"") == 0
    assert ones_complement_sum(b"", 0x1234) == 0x1234
    assert internet_checksum(b"") == 0xFFFF


def test_all_zeros_and_all_ones():
    assert ones_complement_sum(b"\x00" * 64) == 0
    # 32 words of 0xFFFF sum (with end-around carry) back to 0xFFFF.
    assert ones_complement_sum(b"\xff" * 64) == 0xFFFF
    assert ones_complement_sum(b"\xff" * 64) == rfc1071_sum(
        b"\xff" * 64
    )
    # The residue mod 0xFFFF is 0 for both; only the all-zero input,
    # with a zero ``initial``, may fold to 0.
    assert ones_complement_sum(b"\x00" * 64, 0xFFFF) == 0xFFFF
    assert ones_complement_sum(b"\xff" * 63) == 0xFF00
    assert ones_complement_sum(b"", 0x1FFFE) == 0xFFFF


def test_known_rfc1071_vector():
    # The worked example from RFC 1071 §3: 0001 f203 f4f5 f6f7.
    data = bytes.fromhex("0001f203f4f5f6f7")
    assert ones_complement_sum(data) == 0xDDF2
    assert rfc1071_sum(data) == 0xDDF2
    assert internet_checksum(data) == 0x220D


@given(st.binary(min_size=2, max_size=1024).filter(lambda d: len(d) % 2 == 0))
def test_checksummed_buffer_verifies(data):
    checksum = internet_checksum(data)
    wire = data + struct.pack("!H", checksum)
    assert verify_checksum(wire)
