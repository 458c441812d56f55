"""Bit-level and varint serialization helpers.

Every run of bits in a stream is stored MSB first and zero-padded to
whole bytes. A run whose length the decoder cannot compute (subdivision
trees, FSE bits) is a bit section: a u32 bit count, then the bits. A run
whose length it can (the extra bits of signed values) has no count.
"""

from __future__ import annotations

import struct

import numpy as np

from hivc.bitstream import LengthMismatch, Truncated


def pack_bits(values, widths) -> np.ndarray:
    """The low `width` bits of each nonnegative value, MSB first, as one
    0/1 uint8 array; a width may be 0."""
    widths = np.asarray(widths, dtype=np.int64)
    ends = np.cumsum(widths)
    # bit i, inside the value that ends at bit e, is that value's bit e - 1 - i
    shifts = np.repeat(ends - 1, widths) - np.arange(widths.sum())
    return ((np.repeat(np.asarray(values, dtype=np.int64), widths) >> shifts) & 1).astype(np.uint8)


def write_section(out: bytearray, bits: np.ndarray):
    """Append a bit section: the bit count of the 0/1 uint8 array `bits`
    as a u32, then the bits, zero-padded to whole bytes."""
    out += struct.pack("<I", bits.size)
    out += np.packbits(bits).tobytes()


def read_bits(data: bytes, pos: int, nbits: int):
    """(bytes, next position) of the `nbits` bits at `pos`; the padding
    bits of the last byte must be zero, as the writer leaves them."""
    end = pos + (nbits + 7) // 8
    if end > len(data):
        raise Truncated("bit section cut short")
    if nbits % 8 and data[end - 1] & (0xFF >> nbits % 8):
        raise LengthMismatch(f"bits set after the {nbits} bits of a section")
    return data[pos:end], end


def read_section(data: bytes, pos: int):
    """Inverse of write_section; returns (bytes, bit count, next position)."""
    if pos + 4 > len(data):
        raise Truncated("bit section length cut short")
    (nbits,) = struct.unpack_from("<I", data, pos)
    body, pos = read_bits(data, pos + 4, nbits)
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
