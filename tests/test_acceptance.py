"""Acceptance gate: one test per release criterion, one verdict line each.

Each test prints "[criterion NN] name: PASS/FAIL" and asserts the same
condition, so the -s / captured output gives a compact scoreboard.
"""

import dataclasses
import struct
import time

import numpy as np
import pytest

from conftest import moving_clip, shifted_pair, smooth_texture, static_clip
from hivc import codec as codec_mod
from hivc import entropy
from hivc.bitstream import StreamHeader, write_stream
from hivc.cli import main as cli_main
from hivc.codec import EncoderConfig, decode, encode, encode_target_ratio
from hivc.flow import (
    _compress_plane,
    _decompress_plane,
    bilinear_warp,
    compress_flow,
    decompress_flow,
    flow_brox,
    warp_planes,
)
from hivc.frame import Frame, psnr, rct_forward, rct_inverse
from hivc.homogeneous import solve_homogeneous
from hivc.pseudodiff import reconstruct_blocks, solve_block_coefficients_batch
from hivc.quantize import deadzone_indices, deadzone_quantize, deadzone_step
from oracles import dense_laplacian, flow_horn_schunck, greens_matrix_dense


def _verdict(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _dense_inpaint_8x8(f_block, mask):
    """Direct dense solve of the block inpainting equation with A = -L."""
    lap = dense_laplacian(8, 8)
    m = mask.ravel().astype(np.float64)
    n = 64
    system = np.diag(m) + (np.eye(n) - np.diag(m)) @ lap
    u = np.linalg.solve(system, m * f_block.ravel())
    return u.reshape(8, 8)


def test_criterion_01_dct_dense_oracle_equivalence():
    # the codec's fit and reconstruction, one block at a time, against
    # G M c + a with G = pinv(-L) and against a direct dense inpainting
    rng = np.random.default_rng(101)
    g_dense = greens_matrix_dense(8, 8)
    t0 = time.perf_counter()
    max_dev = 0.0
    max_rms = 0.0
    for _ in range(1000):
        f = rng.uniform(-127.0, 127.0, (8, 8))
        k = int(rng.integers(1, 65))
        mask = np.zeros(64, dtype=bool)
        mask[rng.permutation(64)[:k]] = True
        c, a = solve_block_coefficients_batch(f[None], mask.reshape(1, 8, 8))
        mc = np.zeros((1, 64))
        mc[0, mask] = c[0]
        via_dct = reconstruct_blocks(mc.reshape(1, 8, 8), a)[0]
        via_dense = (g_dense @ mc[0] + a[0]).reshape(8, 8)
        mask = mask.reshape(8, 8)
        max_dev = max(max_dev, float(np.max(np.abs(via_dct - via_dense))))
        ref = _dense_inpaint_8x8(f, mask)
        max_rms = max(max_rms, float(np.sqrt(np.mean((via_dct - ref) ** 2))))
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-8 and max_rms <= 1e-6 and elapsed < 10.0
    _verdict(
        1,
        "DCT/dense reconstruction equivalence",
        ok,
        f"max_inf={max_dev:.2e} max_rms={max_rms:.2e} t={elapsed:.1f}s",
    )


def test_criterion_02_greens_pseudo_inverse_identities():
    worst = 0.0
    worst_sym = 0.0
    worst_col = 0.0
    for w in range(1, 17):
        for h in range(1, 17):
            g = greens_matrix_dense(w, h)
            neg_l = -dense_laplacian(w, h)
            worst = max(worst, float(np.max(np.abs(g @ neg_l @ g - g))))
            worst = max(worst, float(np.max(np.abs(neg_l @ g @ neg_l - neg_l))))
            worst_sym = max(worst_sym, float(np.max(np.abs(g - g.T))))
            worst_col = max(worst_col, float(np.max(np.abs(g.sum(axis=0)))))
    ok = worst <= 1e-8 and worst_sym <= 1e-8 and worst_col <= 1e-8
    _verdict(
        2,
        "Green's function pseudo-inverse identities to 16x16",
        ok,
        f"identities={worst:.2e} symmetry={worst_sym:.2e} colsum={worst_col:.2e}",
    )


def test_criterion_03_cascadic_vs_dense_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for w in range(1, 13):
        for h in range(1, 13):
            lap = dense_laplacian(w, h)
            n = w * h
            eye = np.eye(n)
            for _ in range(50):
                mask = rng.uniform(size=(h, w)) < rng.uniform(0.05, 0.9)
                if not mask.any():
                    mask[rng.integers(h), rng.integers(w)] = True
                f = rng.uniform(0.0, 255.0, (h, w))
                m = mask.ravel().astype(np.float64)
                system = np.diag(m) + (eye - np.diag(m)) @ lap
                ref = np.linalg.solve(system, m * f.ravel()).reshape(h, w)
                u = solve_homogeneous(f, mask, tol=1e-9)
                worst = max(worst, float(np.sqrt(np.mean((u - ref) ** 2))))
    ok = worst <= 1e-5
    _verdict(3, "cascadic solver matches dense LU on all planes <= 12x12", ok, f"max_rms={worst:.2e}")


def test_criterion_04_lossless_degenerate_path():
    clip = moving_clip(3, 64, 64, seed=104)
    cfg = EncoderConfig(gop_size=1, intra_mask_fraction=1.0, intra_levels=256, self_check=True)
    out = decode(encode(clip, cfg))
    ok = len(out) == 3 and all(a == b for a, b in zip(clip, out))
    _verdict(4, "lossless full-mask/256-level round trip", ok)


def test_criterion_05_entropy_round_trip_and_rate():
    rng = np.random.default_rng(105)
    failures = 0
    for i in range(10_000):
        n = int(rng.integers(0, 120))
        if i % 2 == 0:
            syms = rng.integers(0, int(rng.integers(1, 64)), n)
            dec, _ = entropy.decode_symbols(entropy.encode_symbols(syms.tolist()), 0, n)
        else:
            bound = int(rng.choice([1, 7, 255, entropy.MAX_MAGNITUDE]))
            syms = rng.integers(-bound, bound + 1, n)
            dec, _ = entropy.decode_signed_values(entropy.encode_signed_values(syms), 0, n)
        if dec.tolist() != syms.tolist():
            failures += 1

    n = 100_000
    stream = rng.choice(3, size=n, p=[0.9, 0.09, 0.01])
    data = entropy.encode_symbols(stream.tolist())
    p = np.bincount(stream, minlength=3) / n
    # Order-0 entropy of the emitted stream; the nominal distribution
    # gives H = 0.516 bits/symbol.
    h0 = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
    size_ok = len(data) * 8 <= n * h0 * 1.02 + 64 * 8
    ok = failures == 0 and size_ok
    _verdict(
        5,
        "entropy coder round trips and near-optimal rate",
        ok,
        f"fuzz_failures={failures} bits={len(data) * 8} limit={n * h0 * 1.02 + 512:.0f}",
    )


def test_criterion_06_deadzone_zero_preservation():
    bad = []
    for levels in range(3, 256, 2):  # every legal residual quantizer config
        idx = deadzone_quantize(np.array([0.0]), 1.0, levels)
        val = deadzone_indices(idx, levels) * deadzone_step(1.0, levels)
        if int(idx[0]) != 0 or float(val[0]) != 0.0:
            bad.append(levels)
    _verdict(6, "dead-zone quantizer maps zero to zero for all configs", not bad, f"bad={bad}")


def test_criterion_07_rct_exhaustive_round_trip():
    t0 = time.perf_counter()
    mismatches = 0
    chunk = 1 << 22
    for start in range(0, 1 << 24, chunk):
        v = np.arange(start, start + chunk, dtype=np.int64)
        r = (v >> 16) & 255
        g = (v >> 8) & 255
        b = v & 255
        y = (r + 2 * g + b) >> 2
        u = b - g
        vv = r - g
        g2 = y - ((u + vv) >> 2)
        r2 = vv + g2
        b2 = u + g2
        mismatches += int(np.count_nonzero((r2 != r) | (g2 != g) | (b2 != b)))
    # spot-check the Frame-level API agrees with the vectorized sweep
    rng = np.random.default_rng(107)
    f = Frame(tuple(rng.integers(0, 256, (64, 64)).astype(np.int32) for _ in range(3)))
    api_ok = rct_inverse(rct_forward(f)) == f
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and api_ok and elapsed < 60.0
    _verdict(7, "reversible color transform over all 2^24 triples", ok, f"mismatches={mismatches} t={elapsed:.1f}s")


def test_criterion_08_flow_quality_properties():
    cur, prev = shifted_pair(96, 128, dx=2, dy=0, seed=108)
    flow = flow_brox(cur, prev)
    interior = (slice(5, -5), slice(5, -5))
    shift_err = abs(float(flow.u[interior].mean()) - 2.0)
    shift_ok = shift_err <= 0.2 and abs(float(flow.v[interior].mean())) <= 0.2

    h, w, margin = 128, 128, 6
    tex_a = smooth_texture(h + 2 * margin, w + 2 * margin, 208, sigma=1.5)
    tex_b = smooth_texture(h + 2 * margin, w + 2 * margin, 209, sigma=1.5)
    prev2 = np.zeros((h, w))
    cur2 = np.zeros((h, w))
    prev2[:, : w // 2] = tex_a[margin : margin + h, margin : margin + w // 2]
    cur2[:, : w // 2] = tex_a[margin : margin + h, margin + 2 : margin + 2 + w // 2]
    prev2[:, w // 2 :] = tex_b[margin : margin + h, margin : margin + w // 2]
    cur2[:, w // 2 :] = tex_b[margin + 2 : margin + 2 + h, margin : margin + w // 2]

    def pred_mse(fl):
        err = (bilinear_warp(prev2, fl.u, fl.v) - cur2)[margin:-margin, margin:-margin]
        return float(np.mean(err * err))

    mse_brox = pred_mse(flow_brox(cur2, prev2))
    mse_hs = pred_mse(flow_horn_schunck(cur2, prev2))
    ok = shift_ok and mse_brox < mse_hs
    _verdict(
        8,
        "Brox flow accuracy and advantage over Horn-Schunck",
        ok,
        f"shift_err={shift_err:.3f}px mse_brox={mse_brox:.1f} mse_hs={mse_hs:.1f}",
    )


# ---------------------------------------------------------------------------
# Shared 100:1 operating point for criteria 9 and 10
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ratio_stream(bench_clip):
    cfg = EncoderConfig(gop_size=len(bench_clip))
    stream, ratio, used_cfg = encode_target_ratio(bench_clip, cfg, 100.0)
    return stream, ratio, used_cfg


def _baseline_intra_payload(planes, budget):
    """Piecewise-constant intra frame: trees + quantized leaf averages."""
    out = b""
    chroma = max(1, -(-budget // 2))
    for ci, p in enumerate(planes):
        out += _compress_plane(np.asarray(p, dtype=np.float64), budget if ci == 0 else chroma, 256)
    return out


def _baseline_decode_intra(data, shape, channels):
    planes = []
    pos = 0
    for _ in range(channels):
        p, pos = _decompress_plane(data, pos, shape, 256)
        planes.append(p)
    return planes


def _baseline_encode(frames, flows, intra_budget, flow_points, flow_levels):
    """Flow + leaf-average codec with zero residual, same container."""
    yuv = [codec_mod._to_yuv_planes(f) for f in frames]
    shape = (frames[0].height, frames[0].width)
    payload = bytearray(struct.pack("<H", len(frames)))
    recons = []
    intra = _baseline_intra_payload(yuv[0], intra_budget)
    payload += struct.pack("<BI", 0, len(intra)) + intra + struct.pack("<I", 0)
    recons.append(_baseline_decode_intra(intra, shape, frames[0].channels))
    for fi in range(1, len(frames)):
        fl = compress_flow(flows[fi - 1], flow_points, flow_levels)
        payload += struct.pack("<BI", 1, len(fl)) + fl + struct.pack("<I", 0)
        flow, _ = decompress_flow(fl, 0, shape, flow_levels)
        recons.append(warp_planes(recons[-1], flow.u, flow.v))
    header = StreamHeader(
        width=frames[0].width,
        height=frames[0].height,
        frame_count=len(frames),
        fps_num=25,
        fps_den=1,
        gop_size=max(1, len(frames)),
        channels=frames[0].channels,
        intra_levels=256,
        flow_levels=flow_levels,
        residual_levels=3,
    )
    stream = write_stream(header, [bytes(payload)])
    out_frames = [
        Frame(
            tuple(
                np.clip(p, 0, 255).astype(np.int32)
                for p in rct_inverse(
                    Frame(
                        tuple(
                            np.clip(np.rint(pl), 0 if ci == 0 else -255, 255).astype(np.int32)
                            for ci, pl in enumerate(planes)
                        ),
                        colorspace="yuv",
                    )
                ).planes
            ),
            colorspace="rgb",
        )
        for planes in recons
    ]
    return stream, out_frames


def test_criterion_09_rate_distortion_vs_piecewise_baseline(bench_clip, ratio_stream):
    stream, ratio, used_cfg = ratio_stream
    raw = len(bench_clip) * bench_clip[0].width * bench_clip[0].height * 3
    ratio_ok = abs(ratio - 100.0) / 100.0 <= 0.10

    main_psnr = float(np.mean([psnr(a, b) for a, b in zip(bench_clip, decode(stream))]))

    # Same-budget baseline: binary-search the leaf budget so the
    # baseline stream lands within 5% of the codec's byte size (never
    # materially below, which would handicap it).
    yuv_y = [codec_mod._to_yuv_planes(f)[0].astype(np.float64) for f in bench_clip]
    flows = [
        flow_brox(yuv_y[i + 1], yuv_y[i]) for i in range(len(bench_clip) - 1)
    ]
    target_bytes = len(stream)
    lo, hi = 1, bench_clip[0].width * bench_clip[0].height
    best = None
    for _ in range(24):
        mid = (lo + hi) // 2
        base_stream, base_frames = _baseline_encode(
            bench_clip, flows, mid, used_cfg.flow_points, used_cfg.flow_levels
        )
        if best is None or abs(len(base_stream) - target_bytes) < abs(best[0] - target_bytes):
            best = (len(base_stream), base_frames, mid)
        if len(base_stream) > target_bytes:
            hi = mid - 1
        else:
            lo = mid + 1
        if lo > hi:
            break
    base_bytes, base_frames, base_budget = best
    budget_ok = abs(base_bytes - target_bytes) / target_bytes <= 0.05
    base_psnr = float(np.mean([psnr(a, b) for a, b in zip(bench_clip, base_frames)]))
    margin = main_psnr - base_psnr
    ok = ratio_ok and budget_ok and margin >= 1.0
    _verdict(
        9,
        "100:1 rate within 10% and >= 1 dB over piecewise-constant baseline",
        ok,
        f"ratio={ratio:.1f} codec={main_psnr:.2f}dB baseline={base_psnr:.2f}dB "
        f"(bytes {len(stream)} vs {base_bytes})",
    )


def test_criterion_10_decoder_throughput(tmp_path, ratio_stream):
    stream, _, _ = ratio_stream
    path = tmp_path / "bench.hivc"
    path.write_bytes(stream)
    report = tmp_path / "bench.txt"
    rc = cli_main(["decode", str(path), str(tmp_path / "out.y4m"), "--bench", "--report", str(report)])
    rep = dict(line.split("=", 1) for line in report.read_text().splitlines())
    fps = float(rep["bench_median_fps"])
    runs = int(rep["bench_runs"])
    parse_share = float(rep["bench_stage_residual_parse_share"])
    transform_share = float(rep["bench_stage_residual_transform_share"])
    ok = rc == 0 and runs >= 5 and fps >= 24.0 and transform_share >= parse_share
    _verdict(
        10,
        "real-time decode at 480x205 with transform-dominated residual path",
        ok,
        f"median_fps={fps:.1f} runs={runs} threads={rep['threads']} "
        f"residual transform/parse shares={transform_share:.3f}/{parse_share:.3f}",
    )


def test_criterion_11_closed_loop_bit_identity():
    rng = np.random.default_rng(111)
    clips = {
        "moving": (moving_clip(5, 48, 64, seed=31), EncoderConfig(gop_size=5)),
        "static": (static_clip(3, 40, 40, seed=32), EncoderConfig(gop_size=3)),
        "noise": (
            [Frame(tuple(rng.integers(0, 256, (24, 24)).astype(np.int32) for _ in range(3)))],
            EncoderConfig(gop_size=1),
        ),
        "gray": (
            [Frame((f.planes[0],), colorspace="gray") for f in moving_clip(4, 33, 47, seed=33)],
            EncoderConfig(gop_size=2),
        ),
        "odd-size": (moving_clip(3, 37, 61, seed=34), EncoderConfig(gop_size=3)),
        "lossless": (
            moving_clip(2, 32, 32, seed=35),
            EncoderConfig(gop_size=1, intra_mask_fraction=1.0, intra_levels=256),
        ),
    }
    failed = []
    for name, (clip, cfg) in clips.items():
        checked = dataclasses.replace(cfg, self_check=True)
        try:
            stream = encode(clip, checked)  # raises if encoder recon != decoder output
            a = decode(stream)
            b = decode(stream)
            if not all(x == y for x, y in zip(a, b)):
                failed.append(name)
        except Exception as exc:  # noqa: BLE001 - verdict output wants the clip name
            failed.append(f"{name} ({exc})")
    _verdict(11, "encoder/decoder closed-loop bit identity on all CI clips", not failed, f"failed={failed}")
