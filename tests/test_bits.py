import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bits import (
    pack_bits,
    read_bit_array,
    read_section,
    read_uvarint,
    unpack_bits,
    write_section,
    write_uvarint,
)
from hivc.bitstream import BitstreamError, LengthMismatch, Truncated
from hivc.entropy import decode_symbols, encode_symbols
from oracles import BitWriter


def _bits_of(data: bytes, nbits: int) -> str:
    return "".join(f"{byte:08b}" for byte in data)[:nbits]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(0, (1 << 24) - 1)), max_size=80))
def test_bit_round_trip(chunks):
    # pack_bits keeps only the low `width` bits of each value
    bits = pack_bits([value for _, value in chunks], [nbits for nbits, _ in chunks])
    expected = "".join(f"{value & ((1 << n) - 1):0{n}b}" for n, value in chunks if n)
    assert bits.dtype == np.uint8
    assert "".join(map(str, bits.tolist())) == expected
    widths = [nbits for nbits, _ in chunks]
    assert unpack_bits(bits, widths).tolist() == [value & ((1 << n) - 1) for n, value in chunks]
    out = bytearray()
    write_section(out, bits)
    (nbits,) = struct.unpack_from("<I", out)
    data = bytes(out[4:])
    assert nbits == len(expected)
    assert len(data) == (len(expected) + 7) // 8
    assert _bits_of(data, nbits) == expected
    # the final partial byte is zero-padded
    assert set("".join(f"{b:08b}" for b in data)[len(expected) :]) <= {"0"}
    w = BitWriter()
    for n, value in chunks:
        w.write_bits(value, n)
    assert data == w.getvalue()


def test_single_bits_and_padding():
    out = bytearray()
    write_section(out, np.array([1, 0, 1, 1, 0], dtype=np.uint8))
    assert bytes(out) == struct.pack("<I", 5) + bytes([0b10110000])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), max_size=70), max_size=6),
    st.binary(max_size=5),
    st.binary(max_size=5),
)
def test_section_round_trip(sections, head, tail):
    out = bytearray(head)
    for bits in sections:
        write_section(out, np.array(bits, dtype=np.uint8))
    out += tail
    data = bytes(out)
    pos = len(head)
    for bits in sections:
        body, nbits, nxt = read_section(data, pos)
        assert nbits == len(bits)
        assert nxt == pos + 4 + (nbits + 7) // 8
        assert _bits_of(body, nbits) == "".join(map(str, bits))
        pos = nxt
    assert data[pos:] == tail


@pytest.mark.parametrize("cut", [0, 1, 3])
def test_section_truncated_in_length_prefix(cut):
    with pytest.raises(Truncated):
        read_section(b"\x00" * cut, 0)
    with pytest.raises(Truncated):
        read_section(b"\xff" + struct.pack("<I", 9)[:cut], 1)


@pytest.mark.parametrize("nbits,present", [(1, 0), (8, 0), (9, 1), (17, 2), (2**32 - 1, 64)])
def test_section_truncated_in_body(nbits, present):
    data = struct.pack("<I", nbits) + b"\xaa" * present
    with pytest.raises(Truncated):
        read_section(data, 0)


@pytest.mark.parametrize("nbits", [1, 3, 7, 9, 15, 21])
def test_section_rejects_set_padding_bits(nbits):
    out = bytearray()
    write_section(out, pack_bits([(1 << nbits) - 1], [nbits]))
    assert read_section(bytes(out), 0)[1] == nbits
    for pad in range(8 - nbits % 8):
        bad = bytearray(out)
        bad[-1] |= 1 << pad
        with pytest.raises(BitstreamError):
            read_section(bytes(bad), 0)


@pytest.mark.parametrize("nbits", [0, 1, 7, 8, 12])
def test_bit_array_reads_a_run_and_checks_its_padding(nbits):
    bits = np.arange(nbits, dtype=np.uint8) % 3 == 0
    data = b"\xee" + np.packbits(bits).tobytes() + b"\xee"
    got, pos = read_bit_array(data, 1, nbits)
    assert got.dtype == np.uint8 and got.tolist() == bits.tolist()
    assert pos == 1 + (nbits + 7) // 8
    with pytest.raises(Truncated, match="cut short"):
        read_bit_array(data[:pos - 1], 1, nbits or 1)
    if nbits % 8:
        bad = bytearray(data)
        bad[pos - 1] |= 1
        with pytest.raises(LengthMismatch, match=f"bits set after the {nbits} bits"):
            read_bit_array(bytes(bad), 1, nbits)


def test_fse_section_with_a_set_padding_bit_is_rejected():
    # 19 FSE bits: the last byte holds 3 of them and 5 padding bits
    syms = [1, 2, 3, 1, 1, 2, 0, 5, 1, 1]
    data = bytearray(encode_symbols(syms))
    assert decode_symbols(bytes(data), 0, len(syms))[0].tolist() == syms
    data[-1] |= 1
    with pytest.raises(BitstreamError):
        decode_symbols(bytes(data), 0, len(syms))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1 << 40), max_size=20))
def test_uvarint_round_trip(values):
    out = bytearray()
    for v in values:
        write_uvarint(out, v)
    pos = 0
    for v in values:
        got, pos = read_uvarint(bytes(out), pos)
        assert got == v
    assert pos == len(out)


def test_uvarint_truncation():
    out = bytearray()
    write_uvarint(out, 300)
    with pytest.raises(Truncated):
        read_uvarint(bytes(out[:1]), 0)
