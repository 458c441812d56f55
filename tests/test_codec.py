import collections
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import moving_clip, smooth_texture, two_motion_clip
from hivc import bitstream, codec, entropy, prediction
from hivc.bitstream import (
    HEADER_SIZE,
    BitstreamError,
    ChecksumMismatch,
    LengthMismatch,
    StreamHeader,
    UnsupportedVersion,
    read_stream,
    write_stream,
)
from hivc.cli import main
from hivc.codec import CodecError, EncoderConfig, decode, encode, encode_target_ratio
from hivc.flow import FlowField, compress_flow
from hivc.frame import Frame, FrameError, psnr
from hivc.quantize import deadzone_indices, deadzone_step
from hivc.subdivision import parse_mask, write_trees
from hivc.video_io import read_y4m, write_y4m


GOLDEN = Path(__file__).resolve().parent / "golden"
COLOR = GOLDEN / "color.hivc"
LOSSLESS = EncoderConfig(
    gop_size=1, intra_mask_fraction=1.0, intra_levels=256, self_check=True
)


def _mean_psnr(origs, decs):
    return float(np.mean([psnr(a, b) for a, b in zip(origs, decs)]))


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(intra_mask_fraction=0.0)
    with pytest.raises(ValueError):
        EncoderConfig(intra_mask_fraction=1.1)
    with pytest.raises(ValueError):
        EncoderConfig(residual_points=0)
    with pytest.raises(TypeError):
        EncoderConfig(flow_method="brox")
    with pytest.raises(ValueError):
        EncoderConfig(gop_size=0)
    # the header's own rules, for every field it stores
    for kw in (
        {"gop_size": 256},
        {"intra_levels": 1},
        {"intra_levels": 300},
        {"flow_levels": 1},
        {"flow_levels": 257},
        {"residual_levels": 1},
        {"residual_levels": 4},
        {"residual_levels": 257},
        {"fps_num": 0},
        {"fps_num": 65536},
        {"fps_den": 0},
    ):
        with pytest.raises(ValueError):
            EncoderConfig(**kw)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="residual_lambda"):
            EncoderConfig(residual_lambda=lam)
    EncoderConfig(gop_size=255, intra_levels=256, flow_levels=2, residual_levels=255)


def test_encode_rejects_empty_and_mixed_geometry():
    with pytest.raises(FrameError):
        encode([])
    a = moving_clip(1, 16, 16)[0]
    b = moving_clip(1, 16, 24)[0]
    with pytest.raises(FrameError):
        encode([a, b])


def test_encode_rejects_frames_over_pixel_limit_before_flows(monkeypatch, tmp_path, capsys):
    def no_flow(*args):
        raise AssertionError("flow computed for a frame the stream cannot hold")

    monkeypatch.setattr(codec, "flow_brox", no_flow)
    # 70,000 pixels pass the pixel limit, but the u16 height field cannot
    # hold 70,000
    tall = [Frame((np.full((70000, 1), v, dtype=np.int32),), colorspace="gray") for v in (0, 9)]
    with pytest.raises(FrameError, match="height out of range"):
        encode(tall, EncoderConfig(gop_size=2))
    with pytest.raises(FrameError, match="height out of range"):
        encode_target_ratio(tall, EncoderConfig(gop_size=2), 10.0)
    write_y4m(tmp_path / "tall.y4m", tall)
    out = tmp_path / "tall.hivc"
    assert main(["encode", str(tmp_path / "tall.y4m"), str(out), "--gop-size", "2"]) == 3
    err = capsys.readouterr().err
    assert "codec error: height out of range" in err and "Traceback" not in err
    assert not out.exists()

    monkeypatch.setattr(bitstream, "MAX_PIXELS", 16 * 16 - 1)
    clip = moving_clip(2, 16, 16)
    with pytest.raises(FrameError, match="pixel limit"):
        encode(clip, EncoderConfig(gop_size=2))
    with pytest.raises(FrameError, match="pixel limit"):
        encode_target_ratio(clip, EncoderConfig(gop_size=2), 10.0)


def test_decode_rejects_header_over_pixel_limit_before_parsing(monkeypatch):
    stream = encode(moving_clip(1, 16, 16), EncoderConfig(gop_size=1))

    def no_parse(*args):
        raise AssertionError("mask parsed for a frame the stream cannot hold")

    monkeypatch.setattr(prediction, "parse_mask", no_parse)
    monkeypatch.setattr(codec, "parse_mask", no_parse)
    monkeypatch.setattr(bitstream, "MAX_PIXELS", 16 * 16 - 1)
    with pytest.raises(BitstreamError, match="pixel limit"):
        decode(stream)


def test_lossless_round_trip_three_frames():
    clip = moving_clip(3, 64, 64, seed=1)
    stream = encode(clip, LOSSLESS)
    out = decode(stream)
    assert len(out) == 3
    for a, b in zip(clip, out):
        assert a == b


def test_lossless_round_trip_noise_frame():
    rng = np.random.default_rng(2)
    f = Frame(tuple(rng.integers(0, 256, (32, 32)).astype(np.int32) for _ in range(3)))
    out = decode(encode([f], LOSSLESS))
    assert out[0] == f


def test_gray_round_trip():
    clip = moving_clip(4, 48, 48, seed=3)
    gray = [Frame((f.planes[0],), colorspace="gray") for f in clip]
    cfg = EncoderConfig(gop_size=4, intra_mask_fraction=0.2, self_check=True)
    out = decode(encode(gray, cfg))
    assert len(out) == 4
    assert all(f.colorspace == "gray" for f in out)
    assert _mean_psnr(gray, out) >= 28.0


def test_lossy_round_trip_quality_and_self_check():
    clip = moving_clip(6, 64, 96, seed=4)
    cfg = EncoderConfig(gop_size=6, intra_mask_fraction=0.15, residual_points=8, self_check=True)
    out = decode(encode(clip, cfg))
    assert _mean_psnr(clip, out) >= 30.0


def test_decode_is_deterministic():
    clip = moving_clip(4, 48, 64, seed=5)
    stream = encode(clip, EncoderConfig(gop_size=4))
    a = decode(stream)
    b = decode(stream)
    assert all(x == y for x, y in zip(a, b))


def test_encode_is_deterministic():
    clip = moving_clip(3, 40, 56, seed=6)
    cfg = EncoderConfig(gop_size=3)
    assert encode(clip, cfg) == encode(clip, cfg)


def test_static_video_inter_frames_nearly_free():
    # Constant (flat) video: the intra frame pays for its mask budget
    # while the inter frame reduces to a zero flow and an empty residual.
    flat = Frame(
        tuple(np.full((160, 240), v, dtype=np.int32) for v in (90, 120, 60)),
        colorspace="rgb",
    )
    clip = [flat, flat]
    cfg = EncoderConfig(gop_size=2, intra_mask_fraction=0.1, self_check=True)
    stream = encode(clip, cfg)
    header, gops = read_stream(stream)
    intra_bytes, inter_bytes = (
        9 + len(pred) + len(res) for _, pred, res in codec.frame_records(header, gops[0], 0)
    )
    assert inter_bytes < 0.10 * intra_bytes


def test_multi_gop_stream():
    clip = moving_clip(7, 40, 48, seed=8)
    cfg = EncoderConfig(gop_size=3, intra_mask_fraction=0.2, self_check=True)
    stream = encode(clip, cfg)
    _, gops = read_stream(stream)
    assert len(gops) == 3
    assert len(decode(stream)) == 7


def test_rate_distortion_monotonicity():
    # Rising budgets must not reduce quality and must not raise the
    # compression ratio; median over two clips and three budget levels.
    budgets = [
        EncoderConfig(gop_size=4, intra_mask_fraction=0.02, residual_points=2, flow_points=20, residual_levels=31),
        EncoderConfig(gop_size=4, intra_mask_fraction=0.08, residual_points=6, flow_points=80, residual_levels=63),
        EncoderConfig(gop_size=4, intra_mask_fraction=0.32, residual_points=18, flow_points=320, residual_levels=127),
    ]
    ratios = {0: [], 1: [], 2: []}
    quality = {0: [], 1: [], 2: []}
    for seed in (10, 11):
        clip = moving_clip(4, 48, 64, seed=seed)
        raw = 4 * 48 * 64 * 3
        for i, cfg in enumerate(budgets):
            stream = encode(clip, cfg)
            ratios[i].append(raw / len(stream))
            quality[i].append(_mean_psnr(clip, decode(stream)))
    med = lambda xs: float(np.median(xs))
    assert med(quality[0]) <= med(quality[1]) <= med(quality[2])
    assert med(ratios[0]) >= med(ratios[1]) >= med(ratios[2])


def test_target_ratio_mode():
    clip = moving_clip(6, 48, 96, seed=12)
    cfg = EncoderConfig(gop_size=6)
    stream, ratio, used = encode_target_ratio(clip, cfg, 15.0)
    raw = 6 * 48 * 96 * 3
    assert abs(raw / len(stream) - 15.0) / 15.0 <= 0.10
    assert ratio == pytest.approx(raw / len(stream))
    assert isinstance(used, EncoderConfig)


def test_target_ratio_passes_share_intra_orders_without_changing_a_byte(monkeypatch):
    # each group head's intra splits are sorted once, before the passes;
    # searching afresh in every pass gives the same streams
    clip = moving_clip(5, 40, 56, seed=14)
    cfg = EncoderConfig(gop_size=3)
    searches = []
    real_search = prediction.subdivide_by_error

    def counted_search(planes, points, min_error=None):
        searches.append(points)
        return real_search(planes, points, min_error)

    monkeypatch.setattr(prediction, "subdivide_by_error", counted_search)
    shared = encode_target_ratio(clip, cfg, 20.0)
    assert not searches
    monkeypatch.setattr(codec, "_gop_intra_orders", lambda frames, cfg: [None, None])
    fresh = encode_target_ratio(clip, cfg, 20.0)
    # two groups of two plane groups in every pass
    assert len(searches) % 4 == 0 and len(searches) >= 8
    assert shared == fresh


def _fake_passes(monkeypatch, proxy_ratio):
    """Replace the encoder under encode_target_ratio by one whose stream
    gives proxy_ratio(m) unfitted and 0.95 times it fitted; returns the
    list that receives each pass's (m, fitted). The first byte of a
    stream tells the passes apart."""
    raw = 2 * 64 * 64 * 3
    passes = []

    def fake_encode(frames, m, _flows=None, _recons=None, _orders=None, _fit=True):
        passes.append((m, _fit))
        ratio = proxy_ratio(m) * (0.95 if _fit else 1.0)
        return bytes([len(passes)]) + bytes(round(raw / ratio) - 1)

    monkeypatch.setattr(codec, "_compute_gop_flows", lambda *args: None)
    monkeypatch.setattr(codec, "_scaled_config", lambda cfg, m, pixels: m)
    monkeypatch.setattr(codec, "encode", fake_encode)
    return passes


def test_target_ratio_search_steps_along_log_log_secants(monkeypatch):
    # a ratio that is a power of the budget multiplier m, 30 * m^-0.6,
    # lands in the 3% band on the third unfitted pass; the fit's 5% then
    # misses it once, and one secant step along the unfitted passes'
    # slope lands the second fitted pass
    passes = _fake_passes(monkeypatch, lambda m: 30.0 * m**-0.6)
    rate = []
    stream, ratio, m = encode_target_ratio(moving_clip(2, 64, 64), EncoderConfig(), 100.0, rate)
    assert [fit for _, fit in passes] == [False] * 3 + [True] * 2
    assert passes[1][0] == pytest.approx(0.3, rel=1e-3)
    assert passes[3][0] == passes[2][0]
    assert abs(ratio - 100.0) <= 3.0 and stream[0] == 5 and m == passes[-1][0]
    assert [(p.multiplier, p.fitted) for p in rate] == passes
    assert [p.returned for p in rate] == [False] * 4 + [True]
    assert rate[3].ratio == pytest.approx(0.95 * rate[2].ratio, rel=0.01)


def test_target_ratio_search_bounds_a_flat_secant():
    # two close passes of a 336x144 pan, at m = 0.2242 and 0.2134, read
    # 95.61 and 95.87: their secant, slope -0.055, stepped m down 2.1x to
    # a ratio of 137.3. At MIN_SLOPE the next step stays within 1.5x.
    ratios = iter([95.61, 95.87, 100.0])
    ms = []

    def fake_encode(m):
        ms.append(m)
        return next(ratios), None

    history, slope = codec._search_multiplier(fake_encode, 0.2242, 100.0, 3, slope=-0.91)
    assert ms[1] == pytest.approx(0.2134, rel=1e-3)
    assert slope == -codec.MIN_SLOPE and len(history) == 3
    assert ms[1] / 1.5 <= ms[2] < ms[1]


def test_target_ratio_search_returns_the_closest_pass_when_none_lands(monkeypatch):
    # the unfitted ratio lands at 102 between m = 0.28 and m = 1; fitted,
    # that reads 96.9, and below m = 0.28 it jumps to 104.5, so no fitted
    # pass lands: the search stops at the cap and returns the first
    # fitted pass, the closest and the earliest of its ties
    passes = _fake_passes(
        monkeypatch, lambda m: 30.0 if m >= 1.0 else 102.0 if m >= 0.28 else 110.0
    )
    stream, ratio, m = encode_target_ratio(moving_clip(2, 64, 64), EncoderConfig(), 100.0)
    assert len(passes) == 1 + codec.TARGET_RATIO_PASSES
    assert [fit for _, fit in passes] == [False] * 2 + [True] * (len(passes) - 2)
    assert m == passes[1][0] == passes[2][0] and stream[0] == 3
    assert ratio == pytest.approx(0.95 * 102.0, rel=0.005)
    fitted_ms = [pm for pm, _ in passes[2:]]
    assert sum(pm < 0.28 for pm in fitted_ms) >= 2 and sum(pm >= 0.28 for pm in fitted_ms) >= 2


def test_target_ratio_search_fits_once_at_the_closest_unfitted_pass_when_none_lands(monkeypatch):
    # the unfitted ratio jumps over the 3% band at m = 1, as stream sizes
    # can: the unfitted passes use up all but one encode, and the last is
    # a fitted pass at the closest of them, the first below m = 1
    passes = _fake_passes(monkeypatch, lambda m: 103.2 if m < 1.0 else 95.8)
    stream, ratio, m = encode_target_ratio(moving_clip(2, 64, 64), EncoderConfig(), 100.0)
    assert len(passes) == 1 + codec.TARGET_RATIO_PASSES
    assert [fit for _, fit in passes] == [False] * codec.TARGET_RATIO_PASSES + [True]
    assert passes[0][0] == 1.0 and all(pm < 1.0 for pm, _ in passes[1:])
    assert m == passes[-1][0] == passes[1][0] and stream[0] == len(passes)
    assert ratio == pytest.approx(0.95 * 103.2, rel=0.003)


def test_target_ratio_unfitted_passes_run_no_tonal_fit(monkeypatch):
    # on a real clip: each fitted pass fits the group head's two plane
    # groups (Y, then U and V), and no unfitted pass calls the fit
    clip = moving_clip(3, 32, 48, seed=14)
    fits, kinds = [], []
    real_fit, real_encode = prediction.optimize_mask_values, codec.encode

    def counted_fit(planes, mask):
        fits.append(len(planes))
        return real_fit(planes, mask)

    def counted_encode(*args, _fit=True, **kwargs):
        kinds.append(_fit)
        before = len(fits)
        stream = real_encode(*args, _fit=_fit, **kwargs)
        assert len(fits) - before == (2 if _fit else 0)
        return stream

    monkeypatch.setattr(prediction, "optimize_mask_values", counted_fit)
    monkeypatch.setattr(codec, "encode", counted_encode)
    rate = []
    stream, ratio, _ = encode_target_ratio(clip, EncoderConfig(gop_size=3), 15.0, rate)
    assert kinds.count(False) >= 1 and kinds.count(True) >= 1
    assert kinds == sorted(kinds)  # every unfitted pass comes first
    assert fits == [1, 2] * kinds.count(True)
    assert [p.fitted for p in rate] == kinds and sum(p.returned for p in rate) == 1
    returned = next(p for p in rate if p.returned)
    assert returned.fitted and returned.ratio == ratio == 3 * 32 * 48 * 3 / len(stream)


def test_target_ratio_self_checks_only_the_returned_stream(monkeypatch):
    clip = moving_clip(3, 32, 48, seed=14)
    cfg = EncoderConfig(gop_size=3, self_check=True)
    decodes, encodes = [], []
    real_decode, real_encode = codec.iter_decode, codec.encode

    def counted_decode(data, timings=None):
        decodes.append(data)
        return real_decode(data, timings)

    def counted_encode(*args, **kwargs):
        encodes.append(args[1])
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(codec, "iter_decode", counted_decode)
    monkeypatch.setattr(codec, "encode", counted_encode)
    stream, _, used = encode_target_ratio(clip, cfg, 15.0)
    assert len(encodes) > 1 and not any(c.self_check for c in encodes)
    assert decodes == [stream] and used.self_check

    def wrong_decode(data, timings=None):
        for i, frame in enumerate(real_decode(data, timings)):
            if i == 1:
                planes = [p.copy() for p in frame.planes]
                planes[0][0, 0] ^= 1
                frame = Frame(tuple(planes), colorspace=frame.colorspace)
            yield frame

    monkeypatch.setattr(codec, "iter_decode", wrong_decode)
    with pytest.raises(CodecError, match="self-check failed at frame 1"):
        encode_target_ratio(clip, cfg, 15.0)


def test_a_decoder_fault_is_not_reported_as_a_corrupt_stream(monkeypatch, tmp_path, capsys):
    # a ValueError that no reader raised is a fault of the decoder: it
    # reaches the caller as it was raised, and the CLI exits 3, not 4
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(codec, "reconstruct_blocks", boom)
    with pytest.raises(ValueError, match="boom") as info:
        decode(COLOR.read_bytes())
    assert not isinstance(info.value, BitstreamError)
    assert main(["decode", str(COLOR), str(tmp_path / "o.y4m")]) == 3
    err = capsys.readouterr().err
    assert "codec error: boom" in err and "Traceback" not in err


def _texture_clip(n, h, w):
    return [
        Frame(
            tuple(np.rint(smooth_texture(h, w, 7 * t + c)).astype(np.int32) for c in range(3)),
            colorspace="rgb",
        )
        for t in range(n)
    ]


@pytest.mark.parametrize("shape", [(8, 8), (9, 11)])
def test_frames_smaller_than_the_flow_budget_code_with_a_flow(shape):
    # 64 and 99 pixels, fewer than the default 100 flow points
    clip = _texture_clip(2, *shape)
    out = decode(encode(clip, EncoderConfig(gop_size=2, self_check=True)))
    assert len(out) == 2


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (3, 1), (1, 1)])
def test_frames_one_pixel_wide_or_tall_code_with_a_flow(shape):
    clip = _texture_clip(3, *shape)
    out = decode(encode(clip, EncoderConfig(gop_size=3, self_check=True)))
    assert [f.planes[0].shape for f in out] == [shape] * 3


def test_non_uniform_motion_codes_no_worse_than_before():
    # two halves panning apart; the bounds are the stream size and mean
    # PSNR this encode gave with 30 Jacobi sweeps and 5 fixed-point steps
    clip = two_motion_clip(6, 48, 64, seed=5)
    stream = encode(clip, EncoderConfig(gop_size=6))
    assert len(stream) <= 7679
    assert _mean_psnr(clip, decode(stream)) >= 28.81


def test_target_ratio_rejects_bad_target(monkeypatch):
    clip = moving_clip(2, 16, 16)

    def no_flow(*args):
        raise AssertionError("flow computed for an illegal target")

    monkeypatch.setattr(codec, "flow_brox", no_flow)
    for target in (1.0, 0.5, 0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite number above 1"):
            encode_target_ratio(clip, EncoderConfig(gop_size=2), target)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_frames_without_pixels_are_refused_before_any_flow(monkeypatch, shape):
    def no_flow(*args):
        raise AssertionError("flow computed for frames without pixels")

    monkeypatch.setattr(codec, "flow_brox", no_flow)
    frames = [Frame((np.zeros(shape, np.int32),), colorspace="gray")] * 2
    cfg = EncoderConfig(gop_size=2)
    with pytest.raises(FrameError, match="hold no pixels"):
        encode(frames, cfg)
    with pytest.raises(FrameError, match="hold no pixels"):
        encode_target_ratio(frames, cfg, 50.0)


def test_encode_at_the_largest_residual_lambda_raises_no_warning():
    # lam * bits overflows for any block at lam = 1e308 unless capped
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stream = encode(moving_clip(2, 16, 16), EncoderConfig(gop_size=2, residual_lambda=1e308))
    assert len(decode(stream)) == 2


def test_target_ratio_search_keeps_a_huge_residual_lambda_finite():
    # 1e300 / m^6 overflows below m = 1
    cfg = EncoderConfig(gop_size=2, residual_lambda=1e300)
    stream, ratio, used = encode_target_ratio(moving_clip(2, 16, 16), cfg, 3.0)
    assert used.residual_lambda < float("inf") and len(decode(stream)) == 2


def test_truncated_stream_reports_error():
    clip = moving_clip(2, 32, 32, seed=13)
    stream = encode(clip, EncoderConfig(gop_size=2))
    with pytest.raises(BitstreamError):
        decode(stream[:-3])
    with pytest.raises(BitstreamError):
        decode(stream[:10])


def test_corrupt_interior_never_hangs():
    # 1-3 byte XORs inside a group payload whose CRC32 is then rebuilt, so
    # each trial gets past the checksum to the parsers: the stream decodes
    # or raises a corrupt-stream error, and never hangs
    rng = np.random.default_rng(0)
    outcomes = collections.Counter()
    for name in ("color", "gray", "multigop", "odd"):
        header, payloads = read_stream((GOLDEN / f"{name}.hivc").read_bytes())
        for _ in range(150):
            gi = int(rng.integers(len(payloads)))
            payload = bytearray(payloads[gi])
            for i in rng.integers(len(payload), size=int(rng.integers(1, 4))).tolist():
                payload[i] ^= int(rng.integers(1, 256))
            mutated = [*payloads[:gi], bytes(payload), *payloads[gi + 1 :]]
            try:
                decode(write_stream(header, mutated))
                outcomes["decoded"] += 1
            except BitstreamError as e:
                outcomes[type(e).__name__] += 1
    assert "ChecksumMismatch" not in outcomes
    assert outcomes["CodecError"] and outcomes["Truncated"]


def _edit_records(stream, edit):
    """Stream rebuilt from its frame records, passed through
    edit(frame index, ftype, pred, res) -> (pred, res)."""
    header, payloads = read_stream(stream)
    groups = []
    for gi, payload in enumerate(payloads):
        records = list(codec.frame_records(header, payload, gi))
        group = bytearray(struct.pack("<H", len(records)))
        for fi, (ftype, pred, res) in enumerate(records):
            pred, res = edit(fi, ftype, bytearray(pred), bytearray(res))
            group += struct.pack("<BI", ftype, len(pred)) + pred
            group += struct.pack("<I", len(res)) + res
        groups.append(bytes(group))
    return bitstream.write_stream(header, groups)


def _residual_trees(res):
    """(payload, start, tile sizes, tile shape) of the luma residual trees of
    a 24x32 frame: after the marker, the two scales and the skip map."""
    sizes = codec._tiles(24, 32)[2]
    start = 1 + 8 + (len(sizes) + 7) // 8
    coded = np.unpackbits(np.frombuffer(bytes(res[9:start]), dtype=np.uint8), count=len(sizes))
    return res, start, sizes[coded == 1].tolist(), (8, 8)


# frame, where its first tree section starts: the intra payload's luma
# trees, the inter payload's u flow tree, and the luma residual trees
_TREE_SECTIONS = {
    "intra": (0, lambda pred, res: (pred, 0, [(32, 24)], (24, 32))),
    "flow": (1, lambda pred, res: (pred, 0, [(32, 24)], (24, 32))),
    "residual": (1, lambda pred, res: _residual_trees(res)),
}


@pytest.mark.parametrize("section", sorted(_TREE_SECTIONS))
def test_tree_section_with_a_bit_past_its_trees_is_rejected(tmp_path, section):
    # the 24x32 golden colour stream: 3 frames, coded residual blocks
    stream = COLOR.read_bytes()
    assert _edit_records(stream, lambda fi, ft, pred, res: (pred, res)) == stream
    frame, locate = _TREE_SECTIONS[section]

    def one_more_bit(fi, ftype, pred, res):
        if fi == frame:
            buf, pos, sizes, shape = locate(pred, res)
            masks, end = parse_mask(bytes(buf), pos, sizes, shape)
            # the trees end at their last leaf; the bit after them lies
            # in the padding of the section's last byte
            nbits = 2 * int(masks.sum()) - len(sizes)
            assert nbits % 8 and end == pos + (nbits + 7) // 8
            buf[end - 1] |= 0x80 >> nbits % 8
        return pred, res

    mutated = _edit_records(stream, one_more_bit)
    assert len(mutated) == len(stream) and mutated != stream
    with pytest.raises(LengthMismatch, match="bits set after"):
        decode(mutated)
    path = tmp_path / "m.hivc"
    path.write_bytes(mutated)
    assert main(["decode", str(path), str(tmp_path / "o.y4m")]) == 4


def test_a_set_padding_bit_in_a_skip_map_is_rejected(tmp_path):
    # the 24x32 luma plane has 12 tiles: the skip map's second byte holds
    # 4 tile bits and 4 padding bits
    def set_padding_bit(fi, ftype, pred, res):
        if fi == 0:
            assert res[0] == 1  # a coded residual: marker, scales, skip map
            res[1 + 8 + 1] |= 1
        return pred, res

    mutated = _edit_records(COLOR.read_bytes(), set_padding_bit)
    with pytest.raises(LengthMismatch, match="bits set after the 12 bits"):
        decode(mutated)
    path = tmp_path / "m.hivc"
    path.write_bytes(mutated)
    assert main(["decode", str(path), str(tmp_path / "o.y4m")]) == 4


def _one_block_residual(tiles, offset):
    """Residual payload of one gray plane of `tiles` tiles in which only
    tile 0 is coded: a one-leaf tree, weight index 0 and offset index
    `offset`."""
    out = bytearray(b"\x01" + struct.pack("<II", 1 << 16, 1 << 16))
    out += np.packbits(np.arange(tiles) == 0).tobytes()
    write_trees(out, [np.zeros(1, dtype=np.uint8)])
    out += entropy.encode_signed_values([0]) + entropy.encode_signed_values([offset])
    return bytes(out)


def test_a_residual_index_outside_the_dead_zone_levels_is_rejected(tmp_path):
    # 63 levels hold indices -31..31
    for offset in (-31, 31):
        payload = _one_block_residual(1, offset)
        assert codec._decode_residual(payload, 0, (8, 8), 1, 63)[1] == len(payload)
    for offset in (-32, 32, 30000):
        with pytest.raises(CodecError, match=f"index {offset} of 63 levels"):
            codec._decode_residual(_one_block_residual(1, offset), 0, (8, 8), 1, 63)
    # as frame 0's residual in the 24x32 gray golden stream, 12 tiles
    mutated = _edit_records(
        (GOLDEN / "gray.hivc").read_bytes(),
        lambda fi, ft, pred, res: (pred, _one_block_residual(12, 30000) if fi == 0 else res),
    )
    with pytest.raises(CodecError, match="index 30000 of 63 levels"):
        decode(mutated)
    path = tmp_path / "m.hivc"
    path.write_bytes(mutated)
    assert main(["decode", str(path), str(tmp_path / "o.y4m")]) == 4


# 3 frames in groups of 2 and 1: zero, fewer than gop_size with frames
# left, more than gop_size, past frame_count
@pytest.mark.parametrize(
    "group,count", [(0, 0), (0, 1), (0, 3), (0, 0xFFFF), (1, 0), (1, 2)]
)
def test_decode_checks_group_frame_count_first(monkeypatch, group, count):
    header, payloads = read_stream(encode(moving_clip(3, 16, 24, seed=3), EncoderConfig(gop_size=2)))
    payload = bytearray(payloads[group])
    struct.pack_into("<H", payload, 0, count)
    payloads[group] = bytes(payload)
    data = write_stream(header, payloads)  # with the edited group's CRC32
    intra_calls = []
    real = codec.decode_intra
    monkeypatch.setattr(codec, "decode_intra", lambda *a: intra_calls.append(1) or real(*a))
    with pytest.raises(CodecError, match=f"group {group} claims {count} frames"):
        decode(data)
    # rejected before any frame of the group was decoded
    assert len(intra_calls) == group


def test_decode_timings_structure(bench_clip):
    clip = bench_clip[:2]
    stream = encode(clip, EncoderConfig(gop_size=2, intra_mask_fraction=0.03))
    timings = {}
    decode(stream, timings=timings)
    for key in ("intra_solve", "flow_parse", "warp", "residual_parse", "residual_transform", "finalize", "total"):
        assert key in timings
        assert timings[key] >= 0.0


def test_empty_stream_rejected():
    with pytest.raises(BitstreamError):
        decode(b"")


def test_residual_keep_step_reconstructs_each_channel_group_once(monkeypatch):
    calls = []
    real = codec.reconstruct_blocks

    def counting(w, a, scale):
        calls.append(len(w))
        return real(w, a, scale)

    monkeypatch.setattr(codec, "reconstruct_blocks", counting)
    rng = np.random.default_rng(12)
    planes = [rng.integers(-30, 31, (20, 27)) for _ in range(3)]
    assert codec._encode_residual(planes, 4, 63, 0.0)[0] == 1
    assert calls == [12, 24]  # Y's 12 tiles, then U and V together


@pytest.mark.parametrize("lam", [0.0, 20.0, 100.0])
def test_residual_keep_step_matches_per_block_decisions(lam):
    # one block and one plane at a time, as the decisions are defined
    rng = np.random.default_rng(13)
    nplanes, n, levels, c_scale, a_scale = 2, 40, 15, 3.5, 20.0
    masks = rng.uniform(size=(n, 64)) < rng.uniform(0.02, 0.3, (n, 1))
    masks[:, 0] = True
    qc = rng.integers(-2, 3, (nplanes, n, 64)) * masks
    qa = rng.integers(-3, 4, (nplanes, n))
    qc[:, ::5] = 0
    qa[:, ::10] = 0  # nothing survived quantization in these blocks
    # residuals near each block's own reconstruction, noisier in some
    c_step, a_step = deadzone_step(c_scale, levels), deadzone_step(a_scale, levels)
    w = deadzone_indices(qc, levels)
    a_hat = deadzone_indices(qa, levels) * a_step
    rec = codec.reconstruct_blocks(w.reshape(-1, 8, 8), a_hat.ravel(), c_step).reshape(nplanes, n, 8, 8)
    fb = np.rint(rec + 4 * rng.normal(0, 1, (nplanes, n, 1, 1)) * rng.normal(0, 1, rec.shape))
    keep = codec._keep_blocks(fb, np.ones((n, 8, 8)), masks, qc, qa, levels, c_scale, a_scale, lam)

    expect = []
    for i in range(n):
        if not (qc[:, i].any() or qa[:, i].any()):
            continue
        gain = 0.0
        for ci in range(nplanes):
            w = deadzone_indices(qc[ci, i], levels)
            a_hat = deadzone_indices(qa[ci, i : i + 1], levels) * a_step
            rec = codec.reconstruct_blocks(w.reshape(1, 8, 8), a_hat, c_step)[0]
            r = fb[ci, i]
            gain += float(np.sum(r * r) - np.sum((r - rec) ** 2))
        cost_bits = 8 + nplanes * (int(masks[i].sum()) + 1) * 4
        if gain > lam * cost_bits:
            expect.append(i)
    assert keep.tolist() == expect
    assert 0 < len(expect) < n


@pytest.mark.parametrize("points", [1, 4, 48])
def test_plan_group_trees_match_float_copy_oracle(points):
    # integer residuals with untouched regions, so some tiles are skipped;
    # the codec searches all tiles of one size at once, the oracle each
    # tile alone, with its own exact errors
    h, w = 37, 45
    planes = []
    for c in range(3):
        r = np.rint(smooth_texture(h, w, 40 + c, sigma=1.0, lo=-40, hi=40)).astype(np.int64)
        r[: h // 3, : w // 2] = 0
        planes.append(r)
    tiles = oracles.block_grid(h, w)
    for group in ([planes[0]], planes[1:]):
        coded, trees, masks, blocks = codec._plan_group(group, points)
        want = oracles.plan_group(group, tiles, points)
        assert coded.tolist() == want[0] and 0 < len(coded) < len(tiles)
        assert len(trees) == len(want[1])
        assert all(np.array_equal(a, b) for a, b in zip(trees, want[1]))
        assert masks.shape == (len(coded), 8, 8) and np.array_equal(masks, want[2])
        assert blocks.shape == (len(group), len(coded), 8, 8)
        assert np.array_equal(blocks, np.stack(want[3], axis=1))


def _still_stream(n):
    """A 64x48 gray stream of n frames in one group: an intra record with
    a one-leaf tree and one value, then n - 1 copies of one inter record
    with zero flow and an empty residual."""
    h, w = 48, 64
    intra = b"\x00" + entropy.encode_value_block([0.0], 256)
    flow = compress_flow(FlowField(np.zeros((h, w)), np.zeros((h, w))), 1, 256)
    empty_residual = struct.pack("<IB", 1, 0)  # length 1, marker 0
    record = lambda ftype, pred: struct.pack("<BI", ftype, len(pred)) + pred + empty_residual
    group = struct.pack("<H", n) + record(0, intra) + record(1, flow) * (n - 1)
    return bitstream.write_stream(StreamHeader(w, h, n, 25, 1, 255, 1, 256, 256, 63), [group])


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_decode_memory_does_not_grow_with_the_stream(tmp_path):
    frame_bytes = 48 * 64 * 8  # the frame as one float64 plane
    peaks = {}
    for n in (4, 64):
        data = _still_stream(n)
        path = tmp_path / f"still{n}.hivc"
        path.write_bytes(data)
        out = tmp_path / f"still{n}.y4m"
        report = tmp_path / "report.txt"
        argv = ["decode", str(path), str(out), "--report", str(report)]
        bench = argv + ["--bench", "5"]
        assert main(argv) == 0  # warm: imports and caches are not counted
        assert len(read_y4m(out)[0]) == n
        peaks[n] = (
            _traced_peak(lambda: collections.deque(codec.iter_decode(data), maxlen=0)),
            _traced_peak(lambda: main(argv)),
            _traced_peak(lambda: main(bench)),
        )
    for small, large in zip(peaks[4], peaks[64]):
        assert abs(large - small) <= frame_bytes


def test_keep_decision_counts_only_the_pixels_of_an_edge_tile():
    # a 5x5 plane is one edge tile: 25 true pixels in an 8x8 block. Its
    # flat residual decodes to a flat block, which gains 25 * 20^2 on the
    # true pixels; on the 39 padding pixels the decoder crops, it would
    # count as 39 * 20^2 of error and drop the block
    plane = np.full((5, 5), 20, dtype=np.int64)
    payload = codec._encode_residual([plane], 4, 63, 1.0)
    assert payload[0] == 1
    (res,), used = codec._decode_residual(payload, 0, (5, 5), 1, 63)
    assert used == len(payload)
    assert np.abs(res - 20).max() < 1.0


def test_every_byte_flip_past_the_header_is_a_corrupt_stream():
    stream = COLOR.read_bytes()
    silent = []
    for pos in range(HEADER_SIZE, len(stream)):
        mutated = bytearray(stream)
        for x in range(1, 256):
            mutated[pos] = stream[pos] ^ x
            try:
                decode(bytes(mutated))
            except BitstreamError:
                continue
            silent.append((pos, x))
    assert silent == []


def test_a_byte_flip_in_a_group_payload_fails_its_checksum(tmp_path, capsys):
    stream = bytearray(COLOR.read_bytes())
    stream[len(stream) // 2] ^= 0x10
    with pytest.raises(ChecksumMismatch, match="group payload 0"):
        read_stream(bytes(stream))
    path = tmp_path / "flip.hivc"
    path.write_bytes(bytes(stream))
    assert main(["decode", str(path), str(tmp_path / "o.y4m")]) == 4
    assert main(["inspect", str(path)]) == 4
    err = capsys.readouterr().err
    assert "ChecksumMismatch" in err and "Traceback" not in err


def _assert_unsupported(tmp_path, version):
    stream = bytearray(COLOR.read_bytes())
    assert stream[4] == bitstream.VERSION == 4
    stream[4] = version
    with pytest.raises(UnsupportedVersion):
        decode(bytes(stream))
    path = tmp_path / f"v{version}.hivc"
    path.write_bytes(bytes(stream))
    assert main(["decode", str(path), str(tmp_path / "o.y4m")]) == 4
    assert main(["inspect", str(path)]) == 4


def test_a_version_1_stream_is_unsupported(tmp_path):
    _assert_unsupported(tmp_path, 1)


def test_a_version_2_stream_is_unsupported(tmp_path):
    # version 3 solves the intra planes to another tolerance, so a
    # version-2 stream would decode into other frames
    _assert_unsupported(tmp_path, 2)


def test_a_version_3_stream_is_unsupported(tmp_path):
    # version 4 drops the bit count in front of every tree section and
    # FSE run, so a version-3 stream would be misread
    _assert_unsupported(tmp_path, 3)
