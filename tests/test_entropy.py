import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bits import write_uvarint
from hivc.bitstream import BitstreamError, LengthMismatch, Truncated
from hivc.entropy import (
    EntropyError,
    FseTable,
    MAX_MAGNITUDE,
    _auto_table_log,
    _decode_header,
    decode_signed_values,
    decode_symbols,
    decode_value_block,
    encode_signed_values,
    encode_symbols,
    encode_value_block,
    fse_encode,
    normalize_counts,
    to_categories,
)
from hivc.quantize import QuantizeError, uniform_quantize
import oracles
from oracles import from_category, fse_build_table, to_category


def test_category_known_values():
    cats, extra = to_categories([0, 5, -1, -6])
    assert cats.tolist() == [0, 3, 1, 3]
    assert extra.tolist() == [0, 0b101, 0, 0b001]


def test_category_bijection_exhaustive():
    values = list(range(-1024, 1025)) + [MAX_MAGNITUDE, -MAX_MAGNITUDE]
    cats, extra = to_categories(values)
    for v, cat, x in zip(values, cats.tolist(), extra.tolist()):
        assert (cat, x) == to_category(v)
        assert from_category(cat, x) == v


def test_category_overflow_rejected():
    # -2^63 has no int64 magnitude, so it is checked against both bounds
    for bad in (MAX_MAGNITUDE + 1, -MAX_MAGNITUDE - 1, -(1 << 63), (1 << 63) - 1):
        with pytest.raises(EntropyError):
            to_category(bad)
        with pytest.raises(EntropyError, match="overflow"):
            to_categories([0, 1, bad, -1])


def test_normalize_counts_uniform():
    counts = normalize_counts(np.ones(256, dtype=np.int64), 8)
    assert counts.tolist() == [1] * 256


def test_normalize_counts_skewed_keeps_rare_symbols():
    counts = normalize_counts(np.array([900, 90, 10], dtype=np.int64), 8)
    assert counts.sum() == 256
    assert np.all(counts >= 1)


def test_normalize_counts_rejects_empty():
    with pytest.raises(EntropyError):
        normalize_counts(np.zeros(4, dtype=np.int64), 8)


def test_single_symbol_stream_is_small():
    data = encode_symbols([7] * 4000)
    assert len(data) < 64
    decoded, _ = decode_symbols(data, 0, 4000)
    assert decoded.tolist() == [7] * 4000


def test_empty_stream_round_trip():
    data = encode_symbols([])
    decoded, pos = decode_symbols(data, 0, 0)
    assert decoded.size == 0
    assert pos == len(data)


def test_empty_stream_rejects_a_final_state_other_than_the_table_size():
    data = encode_symbols([])
    table_log = _auto_table_log(1, 0)
    at = len(data) - 4 - 2  # the u16 state, then an empty FSE section
    assert struct.unpack_from("<H", data, at) == (1 << table_log,)
    for state in (7, (1 << table_log) + 1, 0xFFFF):
        bad = bytearray(data)
        struct.pack_into("<H", bad, at, state)
        with pytest.raises(EntropyError, match="final state"):
            decode_symbols(bytes(bad), 0, 0)


def test_empty_stream_rejects_counts_that_do_not_fill_the_table():
    # counts (7, 0, 1) sum to 8, not to the 32 entries that a 3-symbol
    # alphabet implies; with no symbols to decode they must still be valid
    table_log = _auto_table_log(3, 0)
    assert 1 << table_log == 32
    out = bytearray()
    for v in (3, 7, 0, 1):
        write_uvarint(out, v)
    out += struct.pack("<H", 1 << table_log) + struct.pack("<I", 0)
    with pytest.raises(EntropyError, match="table size"):
        decode_symbols(bytes(out), 0, 0)


def test_symbols_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(0, 3000))
        syms = rng.integers(0, int(rng.integers(1, 40)), n)
        data = encode_symbols(syms.tolist())
        decoded, pos = decode_symbols(data, 0, n)
        assert decoded.tolist() == syms.tolist()
        assert pos == len(data)


def test_signed_values_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(0, 2000))
        vals = rng.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE + 1, n)
        data = encode_signed_values(vals)
        decoded, pos = decode_signed_values(data, 0, n)
        assert decoded.tolist() == vals.tolist()
        assert pos == len(data)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE), max_size=200))
def test_signed_values_round_trip_property(values):
    data = encode_signed_values(np.array(values, dtype=np.int64))
    decoded, _ = decode_signed_values(data, 0, len(values))
    assert decoded.tolist() == values


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 31), max_size=300))
def test_symbols_are_byte_identical_to_the_scalar_oracle(symbols):
    assert encode_symbols(symbols) == oracles.encode_symbols(symbols)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE), max_size=300))
def test_signed_values_are_byte_identical_to_the_scalar_oracle(values):
    assert encode_signed_values(values) == oracles.encode_signed_values(values)


_LAPLACE = np.rint(np.random.default_rng(4).laplace(0, 40, 5000)).astype(np.int64)
EDGE_STREAMS = {
    "empty": [],
    "all-zero": [0] * 300,
    "single": [1],
    "one-symbol": [3] * 4000,
    "extremes": [MAX_MAGNITUDE, -MAX_MAGNITUDE, 0, MAX_MAGNITUDE, -1, 1],
    "laplace": _LAPLACE.tolist(),
}


@pytest.mark.parametrize("name", EDGE_STREAMS)
def test_edge_streams_are_byte_identical_to_the_scalar_oracle(name):
    values = EDGE_STREAMS[name]
    assert encode_signed_values(values) == oracles.encode_signed_values(values)
    symbols = np.abs(np.asarray(values, dtype=np.int64)) % 32
    assert encode_symbols(symbols) == oracles.encode_symbols(symbols)
    # the FSE bits at every table size a payload may derive
    for table_log in range(5, 13) if symbols.size else ():
        table = FseTable(normalize_counts(np.bincount(symbols), table_log), table_log)
        bits, state = fse_encode(symbols, table)
        writer, want_state = oracles.fse_encode(symbols.tolist(), table)
        assert (np.packbits(bits).tobytes(), bits.size, state) == (
            writer.getvalue(),
            len(writer),
            want_state,
        )


def test_compression_near_entropy_on_large_stream():
    rng = np.random.default_rng(2)
    n = 1 << 17  # 128 Ki symbols
    syms = rng.choice(3, size=n, p=[0.9, 0.09, 0.01])
    data = encode_symbols(syms.tolist())
    p = np.bincount(syms, minlength=3) / n
    entropy = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
    # Allow the fixed-size header on top of the 2% rate tolerance.
    assert len(data) * 8 <= n * entropy * 1.02 + 64 * 8


def test_decoder_rejects_corrupt_streams():
    rng = np.random.default_rng(3)
    syms = rng.integers(0, 16, 500)
    data = bytearray(encode_symbols(syms.tolist()))
    for _ in range(300):
        mutated = bytearray(data)
        i = int(rng.integers(len(mutated)))
        mutated[i] ^= int(rng.integers(1, 256))
        try:
            decoded, _ = decode_symbols(bytes(mutated), 0, syms.size)
        except (EntropyError, BitstreamError, ValueError, struct.error):
            continue
        assert isinstance(decoded, np.ndarray)  # wrong data allowed, crash is not


def test_decoder_rejects_truncation():
    syms = list(range(32)) * 20
    data = encode_symbols(syms)
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises((EntropyError, Truncated)):
            decode_symbols(data[:cut], 0, len(syms))


def _with_fse_bit_count(payload, expected, nbits):
    """`payload` of `expected` symbols with its FSE section relabelled as
    `nbits` bits long, zero bytes appended to the section as far as the
    new count needs."""
    _, _, at = _decode_header(payload, 0, expected)
    at += 2  # final state
    (old,) = struct.unpack_from("<I", payload, at)
    end = at + 4 + (old + 7) // 8
    body = payload[at + 4 : end].ljust((nbits + 7) // 8, b"\0")
    return payload[:at] + struct.pack("<I", nbits) + body + payload[end:]


def test_decoder_rejects_unused_fse_bits():
    syms = [1, 2, 3, 1, 1, 2, 0, 5, 1, 1]
    data = encode_symbols(syms)
    assert _with_fse_bit_count(data, len(syms), 19) == data
    for nbits in (20, 27, 40):
        with pytest.raises(EntropyError, match="unused"):
            decode_symbols(_with_fse_bit_count(data, len(syms), nbits), 0, len(syms))
    # a stream of no symbols holds no FSE bits
    for nbits in (1, 8):
        with pytest.raises(EntropyError):
            decode_symbols(_with_fse_bit_count(encode_symbols([]), 0, nbits), 0, 0)


def test_table_invariants():
    table = fse_build_table(np.array([900, 90, 10], dtype=np.int64), 8)
    assert table.counts.sum() == 256
    assert np.all(table.counts >= 1)


def huge_count_payload(count=1 << 63):
    """Payload of one symbol whose header claims an impossible normalized
    count; one symbol of a 2-symbol alphabet gets a 32-entry table."""
    out = bytearray()
    write_uvarint(out, 2)
    write_uvarint(out, count)
    write_uvarint(out, 1)
    out += struct.pack("<HI", 32, 0)
    return bytes(out)


@pytest.mark.parametrize("count", [257, (1 << 63) - 1, 1 << 63, (1 << 64) - 1])
def test_decoder_rejects_count_above_table_size(count):
    with pytest.raises(EntropyError):
        decode_symbols(huge_count_payload(count), 0, 1)


def test_payload_stores_no_table_log_symbol_count_or_extra_bit_count():
    # a one-symbol stream: its alphabet size and count, the final state
    # and an empty FSE section, whatever its length
    for n in (1, 100, 5000):
        table = 1 << _auto_table_log(1, n)
        head = bytearray()
        write_uvarint(head, 1)
        write_uvarint(head, table)
        assert encode_symbols([0] * n) == bytes(head) + struct.pack("<HI", table, 0)
    # signed values: the categories' payload, then exactly sum(cats) bits
    values = [5, -1, 0, 300, -7]
    cats, _ = to_categories(values)
    assert len(encode_signed_values(values)) == len(encode_symbols(cats)) + -(-int(cats.sum()) // 8)


def test_table_log_follows_alphabet_and_count():
    assert [_auto_table_log(a, 10) for a in (1, 2, 16, 17, 256, 511, 4096)] == [5, 5, 5, 6, 9, 10, 12]
    assert [_auto_table_log(2, n) for n in (4095, 4096, 65535, 65536)] == [5, 10, 10, 11]
    # the decoder derives it: the same counts read with another expected
    # count mean another table, which the counts no longer fill
    data = encode_symbols(list(range(16)) * 300)  # 4800 symbols, 1024 states
    assert decode_symbols(data, 0, 4800)[0].size == 4800
    with pytest.raises(EntropyError):
        decode_symbols(data, 0, 4000)


def test_signed_extra_bits_are_checked():
    values = [5, -3, 2]  # categories 3, 2, 2: seven extra bits in one byte
    data = encode_signed_values(values)
    assert decode_signed_values(data, 0, 3)[0].tolist() == values
    with pytest.raises(Truncated):
        decode_signed_values(data[:-1], 0, 3)
    with pytest.raises(LengthMismatch, match="bits set after"):
        decode_signed_values(data[:-1] + bytes([data[-1] | 1]), 0, 3)


def test_value_block_range_is_integer_and_exact():
    rng = np.random.default_rng(5)
    for levels in (16, 256, 511):
        values = rng.uniform(-200.5, 300.25, 50)
        data = encode_value_block(values, levels)
        lo, hi = struct.unpack_from("<ii", data)
        assert (lo, hi) == (int(np.floor(values.min())), int(np.ceil(values.max())))
        idx = uniform_quantize(values, float(lo), float(hi), levels)
        assert data[8:] == encode_symbols(idx)
        decoded, pos = decode_value_block(data, 0, levels, values.size)
        assert pos == len(data)
        assert np.max(np.abs(decoded - values)) <= 0.5 * (hi - lo) / (levels - 1) + 1e-9


@pytest.mark.parametrize("values", [[40.0] * 3, [1000.0, 1000.0 + 1e-5], [-33.0], [7.5, 7.5]])
def test_value_block_of_constant_or_clustered_values(values):
    data = encode_value_block(values, 256)
    lo, hi = struct.unpack_from("<ii", data)
    assert hi == lo + 1 or hi == int(np.ceil(max(values)))
    decoded, _ = decode_value_block(data, 0, 256, len(values))
    assert np.max(np.abs(decoded - values)) <= 0.5 / 255


def test_value_block_rejects_an_empty_range():
    data = bytearray(encode_value_block([3.0, 4.0], 16))
    struct.pack_into("<ii", data, 0, 4, 4)
    with pytest.raises(QuantizeError):
        decode_value_block(bytes(data), 0, 16, 2)
    with pytest.raises(Truncated):
        decode_value_block(bytes(data[:7]), 0, 16, 2)


def test_value_block_rejects_an_index_past_the_last_level():
    data = struct.pack("<ii", 0, 255) + encode_symbols([255, 3])
    assert decode_value_block(data, 0, 256, 2)[0].tolist() == [255.0, 3.0]
    with pytest.raises(EntropyError, match="index 255 of 255 levels"):
        decode_value_block(data, 0, 255, 2)
