"""Symbol coding back-end: JPEG-style categories plus a tANS entropy coder.

Quantized integers are split into a category (the bit length of the
magnitude) and raw extra bits giving sign and offset, following the
JPEG convention where a negative value v is stored as v + 2^k - 1 in k
bits. Category symbols are entropy coded with a lightweight tabled
asymmetric-numeral-system coder (the scheme behind Finite State
Entropy): a normalized histogram spread over a power-of-two state
table; encoding walks the table backwards emitting state bits, decoding
walks forward. Extra bits are appended raw after the coded stream.

Payloads store nothing the decoder can compute: the caller knows the
symbol count from the structure before it, and the table size follows
from that count and the alphabet size. Layouts (see also the README):
  symbols: [alphabet size + normalized counts: varints][final state: u16]
           [FSE bits: as many as the symbols take, zero-padded to a byte]
  signed:  [symbols of the categories][extra bits: sum of the categories]
  values:  [lo, hi: i32 each][symbols of the quantizer indices]
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from hivc.bits import (
    pack_bits,
    read_bit_array,
    read_bits,
    read_uvarint,
    unpack_bits,
    write_uvarint,
)
from hivc.bitstream import CodecError, Truncated, read_fields
from hivc.quantize import uniform_dequantize, uniform_quantize

MAX_MAGNITUDE = (1 << 15) - 1
MAX_CATEGORY = MAX_MAGNITUDE.bit_length()


class EntropyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Category layer
# ---------------------------------------------------------------------------


def to_categories(values):
    """(categories, extra-bits values) of signed integers; bijective.

    The category of v is the bit length of |v| (frexp's exponent), and a
    negative v is stored as v + 2^k - 1 in its k extra bits.
    """
    values = np.asarray(values, dtype=np.int64)
    over = (values > MAX_MAGNITUDE) | (values < -MAX_MAGNITUDE)
    if over.any():
        raise EntropyError(f"magnitude overflow: {values[over][0]}")
    cats = np.frexp(np.abs(values))[1].astype(np.int64)
    return cats, np.where(values < 0, values + (1 << cats) - 1, values)


# ---------------------------------------------------------------------------
# tANS tables
# ---------------------------------------------------------------------------


def normalize_counts(histogram, table_log: int) -> np.ndarray:
    """Scale a histogram to sum to 2^table_log, every present symbol >= 1.

    Largest-remainder rounding with ties broken by symbol index; if the
    guaranteed minimum counts overshoot the table, the largest counts
    are decremented first (smallest index on ties).
    """
    if not 5 <= table_log <= 12:
        raise EntropyError("table_log out of range [5, 12]")
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.ndim != 1 or hist.size == 0 or (hist < 0).any():
        raise EntropyError("bad histogram")
    total = hist.sum()
    if total <= 0:
        raise EntropyError("histogram has no counts")
    size = 1 << table_log
    if int((hist > 0).sum()) > size:
        raise EntropyError("alphabet larger than table")
    ideal = hist / total * size
    norm = np.floor(ideal).astype(np.int64)
    norm[(hist > 0) & (norm == 0)] = 1
    diff = size - int(norm.sum())
    if diff > 0:
        remainder = ideal - np.floor(ideal)
        order = np.lexsort((np.arange(hist.size), -remainder))
        i = 0
        while diff > 0:
            s = order[i % hist.size]
            if hist[s] > 0:
                norm[s] += 1
                diff -= 1
            i += 1
    while diff < 0:
        candidates = np.flatnonzero(norm > 1)
        s = candidates[np.argmax(norm[candidates])]
        norm[s] -= 1
        diff += 1
    return norm


class FseTable:
    """Encode/decode state tables for one normalized symbol distribution."""

    def __init__(self, norm_counts, table_log: int):
        self.table_log = table_log
        self.counts = np.asarray(norm_counts, dtype=np.int64)
        size = 1 << table_log
        if int(self.counts.sum()) != size:
            raise EntropyError("normalized counts must sum to table size")
        step = (size >> 1) + (size >> 3) + 3
        slots = (np.arange(size, dtype=np.int64) * step) & (size - 1)
        spread = np.empty(size, dtype=np.int64)
        spread[slots] = np.repeat(np.arange(self.counts.size), self.counts)
        # decode tables: slot -> (symbol, counter x, bit count); x counts
        # the occurrences of the slot's symbol in slot order, offset by
        # the symbol's normalized count
        self.decode_sym = spread
        order = np.argsort(spread, kind="stable")
        group_starts = np.repeat(np.cumsum(self.counts) - self.counts, self.counts)
        occurrence = np.arange(size, dtype=np.int64) - group_starts
        self.decode_x = np.empty(size, dtype=np.int64)
        self.decode_x[order] = np.repeat(self.counts, self.counts) + occurrence
        self.decode_nb = (table_log + 1) - np.frexp(self.decode_x)[1]
        # slots grouped by symbol, in slot order: the encoder's state table
        self.order = order


def fse_encode(symbols: np.ndarray, table: FseTable):
    """Encode a symbol sequence; returns (its bits as a 0/1 array, final state).

    Symbols are processed in reverse so the decoder emits them forward;
    per-symbol bit chunks are therefore written in reverse order too.
    """
    size = 1 << table.table_log
    # symbol s holds the x of counts[s] .. 2 * counts[s] - 1 in its group
    # of `order`, so the slot of (s, x) is order[x + delta[s]]
    delta = (np.cumsum(table.counts) - 2 * table.counts).tolist()
    order = table.order.tolist()
    counts = table.counts.tolist()
    state = size
    values, widths = [], []
    for s in reversed(symbols.tolist()):
        c = counts[s]
        if c == 0:
            raise EntropyError(f"symbol {s} absent from table")
        nb = state.bit_length() - c.bit_length()
        if (state >> nb) >= 2 * c:
            nb += 1
        elif nb > 0 and (state >> nb) < c:
            nb -= 1
        values.append(state & ((1 << nb) - 1))
        widths.append(nb)
        state = size + order[(state >> nb) + delta[s]]
    return pack_bits(values[::-1], widths[::-1]), state


@lru_cache(maxsize=32)
def _decode_table(counts: tuple, table_log: int):
    """FseTable(counts, table_log)'s decode tables as tuples: the symbol,
    x and bit count of each slot.

    A payload of a few values has a tiny table that costs more to build
    than to decode with, and such tables recur, so the last 32 are kept:
    at most 32 tables of 2^12 slots.
    """
    table = FseTable(counts, table_log)
    return tuple(tuple(a.tolist()) for a in (table.decode_sym, table.decode_x, table.decode_nb))


def fse_decode(data: bytes, pos: int, state: int, count: int, counts: tuple, table_log: int):
    """Decode `count` symbols, also 0, from the bits at byte `pos` of
    `data`, starting from the stored final encoder state, with the table
    of normalized `counts`; returns (the symbols, the number of bits
    they took). Bits that run out raise Truncated."""
    size = 1 << table_log
    if not size <= state < 2 * size:
        raise CodecError("corrupt stream: final state out of range")
    sym, xs, nbs = _decode_table(counts, table_log)
    out = [0] * count
    # MSB-first bit reading inlined; this loop dominates decode time
    acc = have = 0
    b = pos
    try:
        for i in range(count):
            slot = state - size
            out[i] = sym[slot]
            nb = nbs[slot]
            if nb:
                while have < nb:
                    acc = (acc << 8) | data[b]
                    b += 1
                    have += 8
                have -= nb
                state = (xs[slot] << nb) | (acc >> have)
                acc &= (1 << have) - 1
            else:
                state = xs[slot]
    except IndexError:
        raise Truncated("FSE bits run out") from None
    if state != size:
        raise CodecError("corrupt stream: final state mismatch")
    return np.asarray(out, dtype=np.int64), 8 * (b - pos) - have


# ---------------------------------------------------------------------------
# Self-contained payloads
# ---------------------------------------------------------------------------


def _encode_header(counts: np.ndarray) -> bytearray:
    out = bytearray()
    write_uvarint(out, counts.size)
    for c in counts:
        write_uvarint(out, int(c))
    return out


def _decode_header(data: bytes, pos: int, expected: int):
    """(counts as a tuple, table_log, next position) of a payload of
    `expected` symbols."""
    nsym, pos = read_uvarint(data, pos)
    table_log = _auto_table_log(nsym, expected)
    if nsym == 0 or nsym > (1 << table_log):
        raise CodecError("bad alphabet size")
    counts = []
    for _ in range(nsym):
        c, pos = read_uvarint(data, pos)
        counts.append(c)
    if sum(counts) != 1 << table_log:
        raise CodecError("normalized counts must sum to table size")
    return tuple(counts), table_log, pos


def _auto_table_log(alphabet: int, n: int) -> int:
    """Small streams get small tables (header cost), long skewed streams
    get larger ones (precision). Table must still fit the alphabet."""
    need = max(1, (alphabet - 1).bit_length()) if alphabet > 1 else 1
    tl = max(5, need + 1)
    if n >= 4096:
        tl = max(tl, 10)
    if n >= 65536:
        tl = max(tl, 11)
    return min(tl, 12)


def encode_symbols(symbols) -> bytes:
    """Self-contained FSE payload of a nonnegative integer symbol stream."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and symbols.min() < 0:
        raise EntropyError("symbols must be nonnegative")
    hist = np.bincount(symbols) if symbols.size else np.array([1])
    table_log = _auto_table_log(hist.size, symbols.size)
    counts = normalize_counts(hist, table_log)
    bits, state = fse_encode(symbols, FseTable(counts, table_log))
    out = _encode_header(counts)
    out += struct.pack("<H", state)
    out += np.packbits(bits).tobytes()
    return bytes(out)


def decode_symbols(data: bytes, pos: int, expected: int):
    """Inverse of encode_symbols; returns (symbols, next position).

    `expected` is the symbol count the caller knows from the payload's
    structure (mask points, tree leaves, coded blocks).
    """
    counts, table_log, pos = _decode_header(data, pos, expected)
    (state,), pos = read_fields("<H", data, pos, "entropy final state")
    symbols, nbits = fse_decode(data, pos, state, expected, counts, table_log)
    _, pos = read_bits(data, pos, nbits)
    return symbols, pos


def encode_signed_values(values) -> bytes:
    """Category + extra-bits + FSE payload for signed integer streams."""
    cats, extra = to_categories(values)
    return encode_symbols(cats) + np.packbits(pack_bits(extra, cats)).tobytes()


def decode_signed_values(data: bytes, pos: int, expected: int):
    """Inverse of encode_signed_values; returns (values, next position).

    `expected` is the value count, as for decode_symbols.
    """
    cats, pos = decode_symbols(data, pos, expected)
    if cats.size and cats.max() > MAX_CATEGORY:
        raise CodecError(f"category {cats.max()} above {MAX_CATEGORY}")
    bits, pos = read_bit_array(data, pos, int(cats.sum()))
    extra = unpack_bits(bits, cats)
    # inverse of to_categories: an extra value below 2^(k-1) is negative
    return np.where(extra >= (1 << cats) >> 1, extra, extra - (1 << cats) + 1), pos


def encode_value_block(values, levels: int) -> bytes:
    """Real values quantized uniformly to `levels` levels over an integer
    range: lo = floor(min), hi = max(ceil(max), lo + 1), stored as i32s,
    then the FSE payload of the quantizer indices."""
    values = np.asarray(values, dtype=np.float64)
    lo = int(np.floor(values.min()))
    hi = max(int(np.ceil(values.max())), lo + 1)
    idx = uniform_quantize(values, float(lo), float(hi), levels)
    return struct.pack("<ii", lo, hi) + encode_symbols(idx)


def decode_value_block(data: bytes, pos: int, levels: int, expected: int):
    """Inverse of encode_value_block, up to quantization; returns (values,
    next position). `expected` is the value count, as for decode_symbols."""
    (lo, hi), pos = read_fields("<ii", data, pos, "value block range")
    if not lo < hi:
        raise CodecError("need lo < hi")
    idx, pos = decode_symbols(data, pos, expected)
    return uniform_dequantize(idx, float(lo), float(hi), levels), pos
