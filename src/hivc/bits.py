"""Bit-level and varint serialization helpers.

Every run of bits in a stream (subdivision trees, FSE bits, extra bits)
is stored as one bit section: a u32 bit count, then the bits MSB first,
zero-padded to whole bytes.
"""

from __future__ import annotations

import struct

from hivc.bitstream import LengthMismatch, Truncated


class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int):
        self.write_bits(bit & 1, 1)

    def write_bits(self, value: int, count: int):
        acc = (self._acc << count) | (value & ((1 << count) - 1))
        nbits = self._nbits + count
        while nbits >= 8:
            nbits -= 8
            self._bytes.append((acc >> nbits) & 0xFF)
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def __len__(self):
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Byte string, final partial byte zero-padded."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)


def write_section(out: bytearray, writer: BitWriter):
    """Append a bit section: its bit count as a u32, then the bits,
    zero-padded to whole bytes."""
    out += struct.pack("<I", len(writer))
    out += writer.getvalue()


def read_section(data: bytes, pos: int):
    """Inverse of write_section; returns (bytes, bit count, next position).

    Padding bits after the last counted bit must be zero, as the writer
    leaves them.
    """
    if pos + 4 > len(data):
        raise Truncated("bit section length cut short")
    (nbits,) = struct.unpack_from("<I", data, pos)
    pos += 4
    end = pos + (nbits + 7) // 8
    if end > len(data):
        raise Truncated("bit section cut short")
    if nbits % 8 and data[end - 1] & (0xFF >> nbits % 8):
        raise LengthMismatch(f"bits set after the {nbits} bits of a section")
    return data[pos:end], nbits, end


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
