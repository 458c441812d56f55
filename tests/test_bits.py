import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bits import (
    iter_bits,
    pack_bits,
    read_bit_array,
    read_bits,
    read_uvarint,
    unpack_bits,
    write_uvarint,
)
from hivc.bitstream import LengthMismatch, Truncated
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
    data = np.packbits(bits).tobytes()
    nbits = len(expected)
    assert read_bits(data, 0, nbits) == (data, (nbits + 7) // 8)
    assert _bits_of(data, nbits) == expected
    # the final partial byte is zero-padded
    assert set("".join(f"{b:08b}" for b in data)[len(expected) :]) <= {"0"}
    w = BitWriter()
    for n, value in chunks:
        w.write_bits(value, n)
    assert data == w.getvalue()


def test_single_bits_and_padding():
    # a run stores no length: five bits are one zero-padded byte
    data = np.packbits(pack_bits([0b10110], [5])).tobytes()
    assert data == bytes([0b10110000])
    assert read_bits(data + b"\xff", 0, 5) == (data, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), max_size=70), max_size=6),
    st.binary(max_size=5),
    st.binary(max_size=5),
)
def test_section_round_trip(sections, head, tail):
    # runs back to back, each read by the length its reader knows
    out = bytearray(head)
    for bits in sections:
        out += np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    out += tail
    data = bytes(out)
    pos = len(head)
    for bits in sections:
        body, nxt = read_bits(data, pos, len(bits))
        assert nxt == pos + (len(bits) + 7) // 8
        assert _bits_of(body, len(bits)) == "".join(map(str, bits))
        pos = nxt
    assert data[pos:] == tail


@pytest.mark.parametrize("nbits,present", [(1, 0), (8, 0), (9, 1), (17, 2), (2**32 - 1, 64)])
def test_section_truncated_in_body(nbits, present):
    with pytest.raises(Truncated, match="cut short"):
        read_bits(b"\xaa" * present, 0, nbits)


@pytest.mark.parametrize("nbits", [1, 3, 7, 9, 15, 21])
def test_section_rejects_set_padding_bits(nbits):
    data = np.packbits(pack_bits([(1 << nbits) - 1], [nbits])).tobytes()
    assert read_bits(data, 0, nbits) == (data, len(data))
    for pad in range(8 - nbits % 8):
        bad = bytearray(data)
        bad[-1] |= 1 << pad
        with pytest.raises(LengthMismatch, match=f"bits set after the {nbits} bits"):
            read_bits(bytes(bad), 0, nbits)


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
    with pytest.raises(LengthMismatch, match="bits set after the 19 bits"):
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


def test_uvarint_longer_than_ten_bytes_is_a_corrupt_stream():
    out = bytearray()
    write_uvarint(out, (1 << 64) - 1)
    assert len(out) == 10 and read_uvarint(bytes(out), 0) == ((1 << 64) - 1, 10)
    with pytest.raises(LengthMismatch, match="varint longer than 10 bytes"):
        read_uvarint(b"\xff" * 10 + b"\x01", 0)


def test_bit_iterator_stops_at_its_bound_or_the_last_byte():
    data = b"\xee\xa5\x0f" + b"\xff" * 200
    # 12 bits round up to two whole bytes
    assert list(iter_bits(data, 1, 12)) == [1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1]
    assert list(iter_bits(data, 1, 0)) == []
    # across chunks, up to the last byte
    assert sum(iter_bits(data, 1, 10**9)) == 4 + 4 + 8 * 200
    assert list(iter_bits(data, len(data), 10**9)) == []
