"""Bit-level and varint serialization helpers.

Every run of bits in a stream has one layout: MSB first, zero-padded to
whole bytes, and no stored length. Its reader computes the length from
what it has read: a skip map has one bit per tile, extra bits follow
their categories, subdivision trees end at their last leaf and FSE bits
at the last of their symbols. read_bits, the one reader of a run,
checks it and its padding; a reader that learns the length only by
walking the bits (iter_bits for trees, the FSE decoder's own loop)
closes the run with read_bits once it has walked it.
"""

from __future__ import annotations

from itertools import chain

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


def read_bits(data: bytes, pos: int, nbits: int):
    """(bytes, next position) of the `nbits` bits at `pos`; a run cut short
    raises Truncated, and a set padding bit in its last byte LengthMismatch."""
    (body,), end = read_fields(f"<{(nbits + 7) // 8}s", data, pos, f"run of {nbits} bits")
    if nbits % 8 and body[-1] & (0xFF >> nbits % 8):
        raise LengthMismatch(f"bits set after the {nbits} bits of a run")
    return body, end


def iter_bits(data: bytes, pos: int, max_bits: int):
    """The bits at `pos` as an iterator of ints, for a reader that finds a
    run's end by walking it: at most `max_bits`, rounded up to whole bytes,
    and no more than the bytes left. They are unpacked as the walk takes
    them, in chunks of 16, 32, 64 and then 128 bytes: few bytes for a short
    run, few calls for a long one. read_bits then closes the run."""
    end = pos + min(-(-max_bits // 8), len(data) - pos)
    return chain.from_iterable(_bit_chunks(data, pos, end))


def _bit_chunks(data: bytes, pos: int, end: int):
    step = 16
    while pos < end:
        yield np.unpackbits(np.frombuffer(data[pos : min(pos + step, end)], dtype=np.uint8)).tolist()
        pos, step = pos + step, min(2 * step, 128)


def read_bit_array(data: bytes, pos: int, nbits: int):
    """(the `nbits` bits at `pos` as a 0/1 uint8 array, next position);
    checked as read_bits checks them."""
    body, pos = read_bits(data, pos, nbits)
    return np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=nbits), pos


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
    """(value, next position) of the varint at `pos`; one cut short raises
    Truncated, and one of more than 10 bytes LengthMismatch."""
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
            raise LengthMismatch("varint longer than 10 bytes")
