import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bits import write_uvarint
from hivc.bitstream import Truncated
from hivc.entropy import (
    EntropyError,
    MAX_MAGNITUDE,
    _decode_header,
    decode_signed_values,
    decode_symbols,
    encode_signed_values,
    encode_symbols,
    normalize_counts,
    to_categories,
)
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
    table_log = data[0]
    at = len(data) - 4 - 2  # the u16 state, then an empty FSE section
    assert struct.unpack_from("<H", data, at) == (1 << table_log,)
    for state in (7, (1 << table_log) + 1, 0xFFFF):
        bad = bytearray(data)
        struct.pack_into("<H", bad, at, state)
        with pytest.raises(EntropyError, match="final state"):
            decode_symbols(bytes(bad), 0, 0)


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
@given(st.lists(st.integers(0, 31), max_size=300), st.sampled_from([None, *range(5, 13)]))
def test_symbols_are_byte_identical_to_the_scalar_oracle(symbols, table_log):
    assert encode_symbols(symbols, table_log) == oracles.encode_symbols(symbols, table_log)


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
    for table_log in [None, *range(5, 13)]:
        assert encode_symbols(symbols, table_log) == oracles.encode_symbols(symbols, table_log)


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
        except (EntropyError, Truncated, ValueError, struct.error):
            continue
        assert isinstance(decoded, np.ndarray)  # wrong data allowed, crash is not


def test_decoder_rejects_truncation():
    syms = list(range(32)) * 20
    data = encode_symbols(syms)
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises((EntropyError, Truncated)):
            decode_symbols(data[:cut], 0, len(syms))


def _with_fse_bit_count(payload, nbits):
    """`payload` with its FSE section relabelled as `nbits` bits long,
    zero bytes appended to the section as far as the new count needs."""
    _, _, at = _decode_header(payload, 0)
    at += 6  # symbol count and final state
    (old,) = struct.unpack_from("<I", payload, at)
    end = at + 4 + (old + 7) // 8
    body = payload[at + 4 : end].ljust((nbits + 7) // 8, b"\0")
    return payload[:at] + struct.pack("<I", nbits) + body + payload[end:]


def test_decoder_rejects_unused_fse_bits():
    syms = [1, 2, 3, 1, 1, 2, 0, 5, 1, 1]
    data = encode_symbols(syms)
    assert _with_fse_bit_count(data, 19) == data
    for nbits in (20, 27, 40):
        with pytest.raises(EntropyError, match="unused"):
            decode_symbols(_with_fse_bit_count(data, nbits), 0, len(syms))
    # a stream of no symbols holds no FSE bits
    for nbits in (1, 8):
        with pytest.raises(EntropyError):
            decode_symbols(_with_fse_bit_count(encode_symbols([]), nbits), 0, 0)


def test_table_invariants():
    table = fse_build_table(np.array([900, 90, 10], dtype=np.int64), 8)
    assert table.counts.sum() == 256
    assert np.all(table.counts >= 1)


def huge_count_payload(count=1 << 63):
    """Entropy payload whose header claims an impossible normalized count."""
    out = bytearray([8])
    write_uvarint(out, 2)
    write_uvarint(out, count)
    write_uvarint(out, 1)
    out += struct.pack("<IHI", 1, 256, 0)
    return bytes(out)


def claimed_count_payload(count):
    """Entropy payload of a single symbol 0 whose count field says `count`."""
    out = bytearray([8])
    write_uvarint(out, 1)
    write_uvarint(out, 256)
    out += struct.pack("<IHI", count, 256, 0)
    return bytes(out)


def test_decoder_rejects_count_other_than_expected():
    assert decode_symbols(claimed_count_payload(1), 0, 1)[0].tolist() == [0]
    for count in (0, 2, (1 << 28) - 1, (1 << 32) - 1):
        with pytest.raises(EntropyError, match="expected"):
            decode_symbols(claimed_count_payload(count), 0, 1)
        with pytest.raises(EntropyError, match="expected"):
            decode_signed_values(claimed_count_payload(count), 0, 1)


@pytest.mark.parametrize("count", [257, (1 << 63) - 1, 1 << 63, (1 << 64) - 1])
def test_decoder_rejects_count_above_table_size(count):
    with pytest.raises(EntropyError):
        decode_symbols(huge_count_payload(count), 0, 1)

