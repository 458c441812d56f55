"""Bit-level and varint serialization helpers.

Every run of bits in a stream is stored MSB first and zero-padded to
whole bytes. A run whose length the decoder cannot compute (subdivision
trees, FSE bits) is a bit section: a u32 bit count, then the bits. A run
whose length it can (skip maps, the extra bits of signed values) has no
count. read_bits, the one reader of a run, checks it and its padding.
"""

from __future__ import annotations

import struct

import numpy as np

from hivc.bitstream import LengthMismatch, Truncated, read_fields


def _bit_shifts(widths):
    """(field ends, each bit's shift in its field) of MSB-first fields."""
    ends = np.cumsum(widths)
    # bit i, inside the field that ends at bit e, is that field's bit e - 1 - i
    return ends, np.repeat(ends - 1, widths) - np.arange(widths.sum())


def pack_bits(values, widths) -> np.ndarray:
    """The low `width` bits of each nonnegative value, MSB first, as one
    0/1 uint8 array; a width may be 0."""
    widths = np.asarray(widths, dtype=np.int64)
    _, shifts = _bit_shifts(widths)
    return ((np.repeat(np.asarray(values, dtype=np.int64), widths) >> shifts) & 1).astype(np.uint8)


def unpack_bits(bits: np.ndarray, widths) -> np.ndarray:
    """Inverse of pack_bits: the int64 values of the consecutive fields of
    `widths` bits (each at most 62) that make up the 0/1 array `bits`."""
    widths = np.asarray(widths, dtype=np.int64)
    ends, shifts = _bit_shifts(widths)
    # a field's value is a difference of running sums; 0 for a zero width
    sums = np.concatenate(([0], np.cumsum(bits.astype(np.int64) << shifts)))
    return sums[ends] - sums[ends - widths]


def write_section(out: bytearray, bits: np.ndarray):
    """Append a bit section: the bit count of the 0/1 uint8 array `bits`
    as a u32, then the bits, zero-padded to whole bytes."""
    out += struct.pack("<I", bits.size)
    out += np.packbits(bits).tobytes()


def read_bits(data: bytes, pos: int, nbits: int):
    """(bytes, next position) of the `nbits` bits at `pos`; a run cut short
    raises Truncated, and a set padding bit in its last byte LengthMismatch."""
    (body,), end = read_fields(f"<{(nbits + 7) // 8}s", data, pos, f"run of {nbits} bits")
    if nbits % 8 and body[-1] & (0xFF >> nbits % 8):
        raise LengthMismatch(f"bits set after the {nbits} bits of a run")
    return body, end


def read_bit_array(data: bytes, pos: int, nbits: int):
    """(the `nbits` bits at `pos` as a 0/1 uint8 array, next position);
    checked as read_bits checks them."""
    body, pos = read_bits(data, pos, nbits)
    return np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=nbits), pos


def read_section(data: bytes, pos: int):
    """Inverse of write_section; returns (bytes, bit count, next position)."""
    (nbits,), pos = read_fields("<I", data, pos, "bit section length")
    body, pos = read_bits(data, pos, nbits)
    return body, nbits, pos


def write_uvarint(out: bytearray, value: int):
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("uvarint needs value >= 0")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, pos: int):
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise Truncated("varint runs past end of buffer")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")
