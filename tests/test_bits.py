import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bits import BitReader, BitWriter, read_uvarint, write_uvarint
from hivc.bitstream import Truncated


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(0, (1 << 24) - 1)), max_size=80))
def test_bit_round_trip(chunks):
    w = BitWriter()
    expected = []
    for nbits, value in chunks:
        value &= (1 << nbits) - 1 if nbits else 0
        w.write_bits(value, nbits)
        expected.append((nbits, value))
    data = w.getvalue()
    r = BitReader(data)
    for nbits, value in expected:
        assert r.read_bits(nbits) == value


def test_single_bits_and_padding():
    w = BitWriter()
    for b in (1, 0, 1, 1, 0):
        w.write_bit(b)
    data = w.getvalue()
    assert len(data) == 1
    r = BitReader(data)
    assert [r.read_bit() for _ in range(5)] == [1, 0, 1, 1, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=60), st.binary(max_size=12))
def test_read_bit_interleaves_with_read_bits(counts, data):
    bits = "".join(f"{byte:08b}" for byte in data)
    r = BitReader(data)
    pos = 0
    for c in counts:
        if pos + c > len(bits):
            with pytest.raises(Truncated):
                r.read_bit() if c == 1 else r.read_bits(c)
            return
        got = r.read_bit() if c == 1 else r.read_bits(c)
        assert got == int(bits[pos : pos + c] or "0", 2)
        pos += c
        assert r.position == pos


def test_reader_truncation():
    r = BitReader(b"\xff")
    r.read_bits(8)
    with pytest.raises(Truncated):
        r.read_bits(1)


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
