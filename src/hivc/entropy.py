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
           [FSE bits: bit section, a u32 bit count and the bits]
  signed:  [symbols of the categories][extra bits: sum of the categories]
  values:  [lo, hi: i32 each][symbols of the quantizer indices]
"""

from __future__ import annotations

import struct

import numpy as np

from hivc.bits import pack_bits, read_bits, read_section, read_uvarint, write_section, write_uvarint
from hivc.bitstream import Truncated
from hivc.quantize import uniform_dequantize, uniform_quantize

MAX_MAGNITUDE = (1 << 15) - 1


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


def fse_decode(data: bytes, nbits: int, state: int, count: int, table: FseTable):
    """Decode `count` symbols from the first `nbits` bits of `data`,
    starting from the stored final encoder state."""
    size = 1 << table.table_log
    if not size <= state < 2 * size:
        raise EntropyError("corrupt stream: initial state out of range")
    sym = table.decode_sym.tolist()
    xs = table.decode_x.tolist()
    nbs = table.decode_nb.tolist()
    out = [0] * count
    # MSB-first bit reading inlined; this loop dominates decode time
    acc = have = b = pos = 0
    for i in range(count):
        slot = state - size
        out[i] = sym[slot]
        nb = nbs[slot]
        if nb:
            pos += nb
            if pos > nbits:
                raise Truncated("bit stream exhausted")
            while have < nb:
                acc = (acc << 8) | data[b]
                b += 1
                have += 8
            have -= nb
            state = (xs[slot] << nb) | (acc >> have)
            acc &= (1 << have) - 1
        else:
            state = xs[slot]
    if state != size:
        raise EntropyError("corrupt stream: final state mismatch")
    if pos != nbits:
        raise EntropyError(f"corrupt stream: {nbits - pos} unused FSE bits")
    return np.asarray(out, dtype=np.int64)


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
    """(counts, table_log, next position) of a payload of `expected` symbols."""
    nsym, pos = read_uvarint(data, pos)
    table_log = _auto_table_log(nsym, expected)
    if nsym == 0 or nsym > (1 << table_log):
        raise EntropyError("bad alphabet size")
    counts = np.empty(nsym, dtype=np.int64)
    for i in range(nsym):
        c, pos = read_uvarint(data, pos)
        if c > (1 << table_log):
            raise EntropyError("normalized count exceeds table size")
        counts[i] = c
    return counts, table_log, pos


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
    write_section(out, bits)
    return bytes(out)


def decode_symbols(data: bytes, pos: int, expected: int):
    """Inverse of encode_symbols; returns (symbols, next position).

    `expected` is the symbol count the caller knows from the payload's
    structure (mask points, tree leaves, coded blocks).
    """
    counts, table_log, pos = _decode_header(data, pos, expected)
    if pos + 2 > len(data):
        raise Truncated("entropy payload truncated")
    (state,) = struct.unpack_from("<H", data, pos)
    body, nbits, pos = read_section(data, pos + 2)
    # built first, so the counts of an empty payload are checked too
    table = FseTable(counts, table_log)
    if not expected:
        if nbits:
            raise EntropyError(f"corrupt stream: {nbits} FSE bits for no symbols")
        if state != 1 << table_log:
            raise EntropyError("corrupt stream: final state mismatch")
        return np.empty(0, dtype=np.int64), pos
    return fse_decode(body, nbits, state, expected, table), pos


def encode_signed_values(values) -> bytes:
    """Category + extra-bits + FSE payload for signed integer streams."""
    cats, extra = to_categories(values)
    return encode_symbols(cats) + np.packbits(pack_bits(extra, cats)).tobytes()


def decode_signed_values(data: bytes, pos: int, expected: int):
    """Inverse of encode_signed_values; returns (values, next position).

    `expected` is the value count, as for decode_symbols.
    """
    cats, pos = decode_symbols(data, pos, expected)
    if np.any(cats > 16):
        raise EntropyError("bad category in stream")
    bit_len = int(cats.sum())
    body, pos = read_bits(data, pos, bit_len)
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))[:bit_len].astype(np.int64)
    ends = np.cumsum(cats)
    starts = ends - cats
    values = np.zeros(cats.size, dtype=np.int64)
    # the categories present; np.unique would import numpy.ma on first use
    for k in np.flatnonzero(np.bincount(cats)).tolist():
        if k == 0:
            continue
        sel = np.flatnonzero(cats == k)
        extra = bits[starts[sel][:, None] + np.arange(k)] @ (1 << np.arange(k - 1, -1, -1))
        half = 1 << (k - 1)
        values[sel] = np.where(extra >= half, extra, extra - (1 << k) + 1)
    return values, pos


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
    if pos + 8 > len(data):
        raise Truncated("value block truncated")
    lo, hi = struct.unpack_from("<ii", data, pos)
    idx, pos = decode_symbols(data, pos + 8, expected)
    if idx.size and idx.max() >= levels:
        raise EntropyError(f"quantizer index {idx.max()} of {levels} levels")
    return uniform_dequantize(idx, float(lo), float(hi), levels), pos
