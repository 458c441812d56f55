"""Bit-level and varint serialization helpers."""

from __future__ import annotations

from hivc.bitstream import Truncated


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


class BitReader:
    """MSB-first bit reader over a byte string."""

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self._pos = 0
        self._limit = len(data) * 8 if bit_length is None else bit_length
        if self._limit > len(data) * 8:
            raise Truncated("bit length exceeds buffer")
        self._acc = 0
        self._have = 0
        self._byte = 0

    @property
    def position(self):
        return self._pos

    def read_bit(self) -> int:
        # read_bits(1) without its loop; the tree parsers call this per bit
        if self._pos >= self._limit:
            raise Truncated("bit stream exhausted")
        have = self._have
        if have:
            acc = self._acc
        else:
            acc = self._data[self._byte]
            self._byte += 1
            have = 8
        have -= 1
        self._acc = acc & ((1 << have) - 1)
        self._have = have
        self._pos += 1
        return acc >> have

    def read_bits(self, count: int) -> int:
        if count == 0:
            return 0
        if self._pos + count > self._limit:
            raise Truncated("bit stream exhausted")
        acc, have, b = self._acc, self._have, self._byte
        data = self._data
        while have < count:
            acc = (acc << 8) | data[b]
            b += 1
            have += 8
        have -= count
        value = acc >> have
        self._acc = acc & ((1 << have) - 1)
        self._have = have
        self._byte = b
        self._pos += count
        return value


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
