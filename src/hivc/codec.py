"""Encoder and decoder orchestration.

Frame pipeline: reversible color transform, intra prediction by
diffusion inpainting of a sparse subdivision mask (first frame of each
group) or motion compensation along a compressed flow field (remaining
frames), then blockwise coding of the integer prediction residual with
Green's function interpolation, dead-zone quantization and entropy
coding.

The encoder reconstructs every frame with the decoder's own two
steps, `_predict` and `_add_residual`, so predictions never drift:
decoding a stream reproduces the encoder's reconstructions bit for bit.

Frame record layout inside a group payload, after a u16 frame count
that is min(gop_size, frames left):

    type      u8    0 intra, 1 inter
    pred_len  u32   intra payload or compressed flow field
    pred      bytes
    res_len   u32
    res       bytes

Residual payload: a u8 marker, 0 when every plane is zero and nothing
follows. After a 1, two u32 scales (weights, constants; value * 65536),
then per plane group (`frame.plane_groups`: Y, then U and V jointly):

    skip map   ceil(tiles / 8) bytes, 1 bit per tile of `_tiles`, 1 = coded
    trees      each coded tile's subdivision tree, zero-padded to a byte
    weights    signed values at each coded block's mask points, plane-major
    constants  signed values, one per coded block, plane-major

`_decode_blocks` turns the quantized weights and constants into blocks
for the encoder's keep decision and for the decoder alike.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from hivc import entropy
from hivc.bits import read_bit_array
from hivc.bitstream import (
    HEADER_SIZE,
    BitstreamError,
    CodecError,
    StreamHeader,
    read_fields,
    read_stream,
    write_stream,
)
from hivc.flow import compress_flow, decompress_flow, flow_brox
from hivc.frame import Frame, FrameError, clip_plane, plane_groups, rct_forward, rct_inverse
from hivc.prediction import decode_intra, encode_intra, intra_bytes, intra_orders, predict_inter
from hivc.pseudodiff import BLOCK, reconstruct_blocks, solve_block_coefficients_batch
from hivc.quantize import coefficient_scale, deadzone_indices, deadzone_quantize, deadzone_step
from hivc.subdivision import leaf_masks, parse_mask, subdivide_by_error, write_trees

MAX_RESIDUAL_POINTS = 48
_SCALE_FP = 65536.0
# encode_target_ratio stops within this relative distance of the target,
# or after this many encodes past the first
TARGET_RATIO_TOL = 0.03
TARGET_RATIO_PASSES = 14
MAX_LOG_STEP = math.log(4.0)  # largest multiplier step between passes
# flattest slope of log ratio in log m that a step follows. Two close
# passes can read nearly the same ratio: on one 336x144 pan, passes at
# m = 0.2242 and 0.2134 read 95.61 and 95.87, a slope of -0.055, and the
# step it took landed at 137.3. Other secants on ten such pans read
# -0.24 to -1.06.
MIN_SLOPE = 0.25
# slope of the first step of the full encodes, from where the byte model
# lands. The model leaves out the residual bytes, which fall steeply with
# m, so its own secants (-0.12 to -0.55 near 100:1) are flatter than the
# full encodes'. On 336x144 pans at 100:1 the full ratio read 83-88 at
# the model's landing, and the secant from there to the target read
# -0.34 to -0.59 on ten of them. Of first slopes from -0.35 to -0.6,
# -0.45 took the fewest full encodes on 22 pans (median 2, at most 5).
FULL_SLOPE = -0.45


@dataclass(frozen=True)
class EncoderConfig:
    gop_size: int = 16
    intra_mask_fraction: float = 0.09
    residual_points: int = 4
    flow_points: int = 100
    intra_levels: int = 256
    flow_levels: int = 256
    residual_levels: int = 63
    residual_lambda: float = 1.0
    fps_num: int = 25
    fps_den: int = 1
    self_check: bool = False

    def __post_init__(self):
        if not 0.0 < self.intra_mask_fraction <= 1.0:
            raise ValueError("intra_mask_fraction must lie in (0, 1]")
        if not 1 <= self.residual_points <= MAX_RESIDUAL_POINTS:
            raise ValueError(f"residual_points must lie in [1, {MAX_RESIDUAL_POINTS}]")
        if self.flow_points < 1:
            raise ValueError("flow_points must be >= 1")
        if not 0.0 <= self.residual_lambda < math.inf:
            raise ValueError("residual_lambda must be a finite number >= 0")
        # the header's own rules, on a probe header that takes every field
        # this config shares with it and 1 for the rest (frame geometry)
        try:
            StreamHeader(**{f.name: getattr(self, f.name, 1) for f in fields(StreamHeader)})
        except BitstreamError as e:
            raise ValueError(str(e)) from e


# ---------------------------------------------------------------------------
# Residual coding
# ---------------------------------------------------------------------------


def _tiles(h, w, planes=1, dtype=np.float64):
    """The 8x8 tile layout of h x w planes, the one source of it.

    Returns a zero array of `planes` planes of `dtype`, each padded to
    whole tiles; its (planes, rows, cols, 8, 8) view of the tiles, raster
    order within a plane; and each tile's (width, height), as an (n, 2)
    int array.
    """
    nby, nbx = -(-h // BLOCK), -(-w // BLOCK)
    padded = np.zeros((planes, nby * BLOCK, nbx * BLOCK), dtype=dtype)
    view = padded.reshape(planes, nby, BLOCK, nbx, BLOCK).transpose(0, 1, 3, 2, 4)
    widths = np.minimum(BLOCK, w - BLOCK * np.arange(nbx))
    heights = np.minimum(BLOCK, h - BLOCK * np.arange(nby))
    return padded, view, np.stack(np.meshgrid(widths, heights), axis=-1).reshape(-1, 2)


def _plan_group(planes, points):
    """Choose coded tiles and their masks for one channel group.

    Tiles whose residual is zero in every plane of the group are skipped.
    The coded tiles of one size are searched together, in one call on
    their integer planes with a leading tile axis. Returns (coded tile
    indices, tree bits, (n, 8, 8) masks, and the (planes, n, 8, 8)
    float64 blocks of the coded tiles, each tile at the top-left of its
    block).
    """
    h, w = planes[0].shape
    padded, view, sizes = _tiles(h, w, len(planes), dtype=np.int64)
    padded[:, :h, :w] = planes
    blocks = view.reshape(len(planes), -1, BLOCK, BLOCK)
    coded = np.flatnonzero(blocks.any(axis=(0, 2, 3)))
    blocks, sizes = blocks[:, coded], sizes[coded]
    trees = [None] * len(coded)
    masks = np.zeros((len(coded), BLOCK, BLOCK), dtype=bool)
    for bw, bh in np.unique(sizes, axis=0).tolist():
        sel = np.flatnonzero((sizes[:, 0] == bw) & (sizes[:, 1] == bh))
        bits, leaves = subdivide_by_error(
            [b[sel, :bh, :bw] for b in blocks], min(points, bh * bw)
        )
        masks[sel] = leaf_masks(leaves, (BLOCK, BLOCK))
        for i, tree in zip(sel.tolist(), bits):
            trees[i] = tree
    return coded, trees, masks, blocks.astype(np.float64)


def _solve_coded(f_blocks, masks):
    """Coefficient fits for coded blocks, batched by mask point count.

    masks: (n, 64) bool. Returns the weights scattered onto their mask
    positions, (n, 64), and the constants, (n,).
    """
    n = len(masks)
    c = np.zeros((n, BLOCK * BLOCK))
    a = np.zeros(n)
    ks = masks.sum(axis=1)
    for k in np.unique(ks):
        sel = np.flatnonzero(ks == k)
        cs, a[sel] = solve_block_coefficients_batch(f_blocks[sel], masks[sel])
        rows, cols = np.nonzero(masks[sel])
        c[sel[rows], cols] = cs.ravel()
    return c, a


def _decode_blocks(qc, qa, levels, c_scale, a_scale):
    """Decoded residual blocks, (planes, n, 8, 8), of quantized weights on
    their mask positions, qc: (planes, n, 64), and quantized constants,
    qa: (planes, n). The weights enter the product as indices, scaled by
    their step after it. Off-mask zeros dequantize to exact zeros."""
    w = deadzone_indices(qc, levels).reshape(-1, BLOCK, BLOCK)
    a_hat = deadzone_indices(qa, levels).ravel() * deadzone_step(a_scale, levels)
    rec = reconstruct_blocks(w, a_hat, deadzone_step(c_scale, levels))
    return rec.reshape(*qa.shape, BLOCK, BLOCK)


def _block_bits(nplanes, points, levels):
    """The bits _keep_blocks prices a coded block at: 8, and per plane
    its weights at `points` mask points and its constant, each at
    ceil(log2(levels)) bits."""
    return 8 + nplanes * (points + 1) * max(1, int(np.ceil(np.log2(levels))))


def _keep_blocks(fb, inside, masks, qc, qa, levels, c_scale, a_scale, lam):
    """Coded blocks whose decoded residual is worth their bits.

    A block is kept when the error drop from its decoded residual,
    summed over the group's planes, exceeds lam times its bit cost:
    coarse dead zones can otherwise paint a poorly fitted constant
    across the whole tile and add noise. Only the tile's own pixels
    count, marked by `inside`; the decoder crops the rest. A block whose
    indices all quantized to zero decodes to exact zeros, so its gain is
    exactly 0 and it is dropped for any lam >= 0. fb: (planes, n, 8, 8),
    inside: (n, 8, 8), masks: (n, 64), qc: (planes, n, 64), qa: (planes, n).
    """
    nplanes, n = qa.shape
    rec = _decode_blocks(qc, qa, levels, c_scale, a_scale)
    rec *= inside
    gain = np.zeros(n)
    for r, u in zip(fb, rec):
        gain += np.sum(r * r, axis=(1, 2)) - np.sum((r - u) ** 2, axis=(1, 2))
    cost_bits = _block_bits(nplanes, masks.sum(axis=1), levels)
    # cost_bits >= 8, so a lam above every gain drops every block; capping
    # lam at the largest gain keeps that decision and keeps lam * cost_bits
    # finite for any finite lam
    lam = min(lam, gain.max(initial=0.0))
    return np.flatnonzero(gain > lam * cost_bits)


def _encode_residual(planes, points, levels, lam=0.0):
    """Serialize integer residual planes, one section set per plane group
    (frame.plane_groups); see the module docstring for the layout."""
    h, w = planes[0].shape
    # a block gains at most its tile's residual energy and costs at least
    # _block_bits of one point, so where no tile's energy exceeds lam
    # times that, _keep_blocks keeps no block and the payload is empty.
    # The energies are exact sums of whole-number squares, and no float
    # gain of _keep_blocks exceeds its tile's.
    for group in plane_groups(len(planes)):
        padded, view, _ = _tiles(h, w, len(group))
        padded[:, :h, :w] = [planes[i] for i in group]
        energy = np.sum(view * view, axis=(0, 3, 4))
        if np.any(energy > lam * _block_bits(len(group), 1, levels)):
            break
    else:
        return b"\x00"
    plans = []
    for group in plane_groups(len(planes)):
        coded, trees, masks, fb = _plan_group([planes[i] for i in group], points)
        masks = masks.reshape(len(coded), BLOCK * BLOCK)
        plans.append((coded, trees, masks, [_solve_coded(f, masks) for f in fb], fb))

    c_flat = np.concatenate([c[m] for _, _, m, fits, _ in plans for c, _ in fits])
    a_flat = np.concatenate([a for *_, fits, _ in plans for _, a in fits])
    c_scale = coefficient_scale(c_flat) if c_flat.size else 1.0
    a_scale = coefficient_scale(a_flat) if a_flat.size else 1.0
    c_fp = min(int(round(c_scale * _SCALE_FP)), 0xFFFFFFFF) or 1
    a_fp = min(int(round(a_scale * _SCALE_FP)), 0xFFFFFFFF) or 1
    c_scale, a_scale = c_fp / _SCALE_FP, a_fp / _SCALE_FP

    # each tile's true pixels inside its padded 8x8 block
    padded, view, sizes = _tiles(h, w)
    padded[:, :h, :w] = 1.0
    inside = view.reshape(-1, BLOCK, BLOCK)

    kept_total = 0
    out = bytearray(struct.pack("<II", c_fp, a_fp))
    for coded, trees, masks, fits, fb in plans:
        # quantized weights on their mask positions, (planes, n, 64)
        qc = np.zeros((len(fb), len(coded), BLOCK * BLOCK), dtype=np.int64)
        qa = np.zeros((len(fb), len(coded)), dtype=np.int64)
        for ci, (c, a) in enumerate(fits):
            qc[ci][masks] = deadzone_quantize(c[masks], c_scale, levels)
            qa[ci] = deadzone_quantize(a, a_scale, levels)
        keep = _keep_blocks(fb, inside[coded], masks, qc, qa, levels, c_scale, a_scale, lam)
        kept_total += keep.size
        coded_bits = np.zeros(len(sizes), dtype=np.uint8)
        coded_bits[coded[keep]] = 1
        out += np.packbits(coded_bits).tobytes()

        write_trees(out, [trees[i] for i in keep])

        # plane-major layout: all of one plane's block coefficients, then
        # the next plane's, so the decoder can scatter without a loop
        out += entropy.encode_signed_values(qc[:, keep][:, masks[keep]].ravel())
        out += entropy.encode_signed_values(qa[:, keep].ravel())
    if kept_total == 0:
        # nothing survived quantization anywhere: 1-byte empty marker
        return b"\x00"
    return b"\x01" + bytes(out)


def _decode_residual(data, pos, shape, channels, levels, timings=None):
    """Decode residual planes (floats) without any linear solves."""
    h, w = shape
    t0 = time.perf_counter()
    (marker,), pos = read_fields("<B", data, pos, "residual marker")
    if marker == 0:
        # plane synthesis counts as transform work, matching the coded
        # path where output assembly is timed apart from payload reads
        t0 = _bump(timings, "residual_parse", t0)
        planes = [np.zeros((h, w)) for _ in range(channels)]
        _bump(timings, "residual_transform", t0)
        return planes, pos
    if marker != 1:
        raise CodecError("bad residual payload marker")
    (c_fp, a_fp), pos = read_fields("<II", data, pos, "residual scales")
    if c_fp == 0 or a_fp == 0:
        raise CodecError("zero coefficient scale")
    c_scale, a_scale = c_fp / _SCALE_FP, a_fp / _SCALE_FP

    padded, view, sizes = _tiles(h, w, channels)
    nbx = view.shape[2]
    for group in plane_groups(channels):
        nplanes = len(group)
        coded_bits, pos = read_bit_array(data, pos, len(sizes))
        coded = np.flatnonzero(coded_bits)
        masks, pos = parse_mask(data, pos, sizes[coded].tolist(), (BLOCK, BLOCK))
        rows, cols = np.nonzero(masks.reshape(len(coded), BLOCK * BLOCK))
        c_sym, pos = entropy.decode_signed_values(data, pos, rows.size * nplanes)
        a_sym, pos = entropy.decode_signed_values(data, pos, len(coded) * nplanes)
        t0 = _bump(timings, "residual_parse", t0)

        qc = np.zeros((nplanes, len(coded), BLOCK * BLOCK), dtype=np.int64)
        qc[:, rows, cols] = c_sym.reshape(nplanes, rows.size)
        rec = _decode_blocks(qc, a_sym.reshape(nplanes, len(coded)), levels, c_scale, a_scale)
        view[group[0] : group[0] + nplanes, coded // nbx, coded % nbx] = rec
        t0 = _bump(timings, "residual_transform", t0)
    return list(padded[:, :h, :w]), pos


# ---------------------------------------------------------------------------
# Frame and group coding: one decode step pair serves both sides
# ---------------------------------------------------------------------------


def _bump(timings, key, t0):
    """Add the seconds since t0 to timings[key]; returns the time now."""
    t1 = time.perf_counter()
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + (t1 - t0)
    return t1


def _predict(header, ftype, data, prev, timings=None):
    """Rounded prediction of one frame record, as whole-number floats: the
    intra inpainting, or `prev`, the group's last reconstruction, warped."""
    shape = (header.height, header.width)
    t0 = time.perf_counter()
    if ftype == 0:
        pred, used = decode_intra(data, 0, shape, header.channels, header.intra_levels)
        t0 = _bump(timings, "intra_solve", t0)
    else:
        if prev is None:
            raise CodecError("group starts with an inter frame")
        flow, used = decompress_flow(data, 0, shape, header.flow_levels)
        t0 = _bump(timings, "flow_parse", t0)
        pred = predict_inter(prev, flow)
        t0 = _bump(timings, "warp", t0)
    if used != len(data):
        raise CodecError("prediction payload length mismatch")
    pred = [np.rint(p) for p in pred]
    _bump(timings, "finalize", t0)
    return pred


def _add_residual(header, pred, data, timings=None):
    """Reconstruction of one frame: its rounded prediction plus the
    decoded residual, clipped to each plane's range (int32 planes)."""
    shape = (header.height, header.width)
    res, used = _decode_residual(data, 0, shape, header.channels, header.residual_levels, timings)
    if used != len(data):
        raise CodecError("residual payload length mismatch")
    # applying the residual to the prediction is the add half of the
    # residual pipeline, so it counts as transform work
    t0 = time.perf_counter()
    colorspace = "yuv" if header.channels == 3 else "gray"
    recon = [clip_plane(p + r, ci, colorspace) for ci, (p, r) in enumerate(zip(pred, res))]
    _bump(timings, "residual_transform", t0)
    return recon


def _encode_gop(header, frames_planes, cfg, flows_raw, orders=None):
    """Encode one group; returns (payload, reconstructed planes per frame).
    Closed loop: each frame is predicted and rebuilt by the decoder's steps.
    `orders` holds the intra split orders of the group's first frame."""
    luma_budget = _luma_budget(cfg, header.height * header.width)
    out = bytearray(struct.pack("<H", len(frames_planes)))
    recons = []
    for i, planes in enumerate(frames_planes):
        if i == 0:
            ftype = 0
            pred_payload = encode_intra(planes, luma_budget, cfg.intra_levels, orders)
        else:
            ftype = 1
            pred_payload = compress_flow(flows_raw[i - 1], cfg.flow_points, cfg.flow_levels)
        pred = _predict(header, ftype, pred_payload, recons[-1] if recons else None)
        # whole numbers, so the int64 residual is exact and the decoder's
        # float sum in _add_residual gives the encoder's reconstruction
        residual = [o - p.astype(np.int64) for o, p in zip(planes, pred)]
        res_payload = _encode_residual(
            residual, cfg.residual_points, cfg.residual_levels, cfg.residual_lambda
        )
        recons.append(_add_residual(header, pred, res_payload))
        out += struct.pack("<BI", ftype, len(pred_payload)) + pred_payload
        out += struct.pack("<I", len(res_payload)) + res_payload
    return bytes(out), recons


def _luma_budget(cfg, pixels):
    return max(1, int(round(cfg.intra_mask_fraction * pixels)))


def _split_gops(n, gop_size):
    return [(s, min(s + gop_size, n)) for s in range(0, n, gop_size)]


def _to_yuv_planes(frame):
    if frame.colorspace == "rgb":
        frame = rct_forward(frame)
    return [p.astype(np.int64) for p in frame.planes]


def _compute_gop_flows(y_planes, cfg):
    """Flow fields between consecutive source frames, one list per group."""
    return [
        [flow_brox(y_planes[i], y_planes[i - 1]) for i in range(s + 1, e)]
        for s, e in _split_gops(len(y_planes), cfg.gop_size)
    ]



def _check_frames(frames, cfg: EncoderConfig) -> StreamHeader:
    """The header of the stream of `frames` under `cfg`. Input that the
    stream cannot hold raises FrameError, by the header's own rules,
    before any work."""
    if not frames:
        raise FrameError("nothing to encode")
    first = frames[0]
    if any(
        f.width != first.width or f.height != first.height or f.channels != first.channels
        for f in frames
    ):
        raise FrameError("all frames must share geometry and channel count")
    if first.colorspace not in ("rgb", "gray"):
        raise FrameError(f"unsupported input colorspace {first.colorspace!r}")
    shared = {f.name: getattr(cfg, f.name) for f in fields(StreamHeader) if hasattr(cfg, f.name)}
    try:
        return StreamHeader(
            width=first.width, height=first.height, channels=first.channels,
            frame_count=len(frames), **shared,
        )
    except BitstreamError as e:
        raise FrameError(str(e)) from e


def encode(
    frames, cfg: EncoderConfig | None = None, _flows=None, _recons=None, _orders=None
) -> bytes:
    """Compress a frame sequence into a self-contained byte stream.

    `_flows` supplies the groups' flow fields and `_orders` their first
    frames' intra split orders; `_recons`, when a list, receives each
    frame's reconstructed planes.
    """
    cfg = cfg or EncoderConfig()
    header = _check_frames(frames, cfg)
    yuv = [_to_yuv_planes(f) for f in frames]
    if _flows is None:
        _flows = _compute_gop_flows([p[0].astype(np.float64) for p in yuv], cfg)

    payloads, recons = [], []
    for gi, (s, e) in enumerate(_split_gops(len(frames), cfg.gop_size)):
        orders = None if _orders is None else _orders[gi]
        payload, group_recons = _encode_gop(header, yuv[s:e], cfg, _flows[gi], orders)
        payloads.append(payload)
        recons.extend(group_recons)
    stream = write_stream(header, payloads)
    if _recons is not None:
        _recons.extend(recons)
    if cfg.self_check:
        _self_check(stream, _frame_digests(recons, header.channels))
    return stream


def _frame_digest(frame: Frame) -> bytes:
    h = hashlib.sha256(frame.colorspace.encode())
    for p in frame.planes:
        h.update(p.tobytes())
    return h.digest()


def _frame_digests(recons, channels):
    """SHA-256 of each reconstruction, as the decoder outputs it."""
    return [_frame_digest(_finalize_frame(r, channels)) for r in recons]


def _self_check(stream, digests):
    """Raise CodecError unless the stream decodes to the frames of the
    encoder's own reconstruction digests."""
    for i, (frame, want) in enumerate(zip(iter_decode(stream), digests, strict=True)):
        if _frame_digest(frame) != want:
            raise CodecError(f"self-check failed at frame {i}")


def _finalize_frame(recon_planes, channels) -> Frame:
    if channels == 1:
        return Frame((recon_planes[0],), colorspace="gray")
    yuv = Frame(tuple(recon_planes), colorspace="yuv")
    rgb = rct_inverse(yuv)
    return Frame(tuple(np.clip(p, 0, 255) for p in rgb.planes), colorspace="rgb")


def iter_decode(data: bytes, timings: dict | None = None):
    """Yield a stream's output frames (RGB or gray) one at a time.

    Between frames only the group's last reconstruction is kept, so
    memory does not grow with the stream. `timings` gathers the
    decoder's own seconds per stage and in all (`total`), without the
    time the caller spends between frames. Malformed bytes raise a
    BitstreamError subtype from the reader that finds the fault, at the
    latest when the iterator ends.
    """
    t0 = time.perf_counter()
    header, payloads = read_stream(data)
    for gi, payload in enumerate(payloads):
        recon = None
        for ftype, pred_data, res_data in frame_records(header, payload, gi):
            pred = _predict(header, ftype, pred_data, recon, timings)
            recon = _add_residual(header, pred, res_data, timings)
            t1 = time.perf_counter()
            frame = _finalize_frame(recon, header.channels)
            _bump(timings, "finalize", t1)
            _bump(timings, "total", t0)
            yield frame
            t0 = time.perf_counter()
    _bump(timings, "total", t0)


def decode(data: bytes, timings: dict | None = None):
    """Decode a stream into a list of output frames; see iter_decode."""
    return list(iter_decode(data, timings))


def frame_records(header: StreamHeader, payload: bytes, gi: int):
    """Yield (ftype, pred, res) for each frame record of group `gi`'s payload.

    The group must hold min(gop_size, frames left) records, the only
    partition an encoder writes; its count is checked before the first
    record is read. Every length is checked against the payload, and
    bytes after the last record are rejected.
    """
    (nframes,), pos = read_fields("<H", payload, 0, f"group {gi} frame count")
    expected = min(header.gop_size, header.frame_count - gi * header.gop_size)
    if nframes != expected:
        raise CodecError(f"group {gi} claims {nframes} frames, expected {expected}")
    record = f"frame record in group {gi}"
    for _ in range(nframes):
        (ftype, pred_len), pos = read_fields("<BI", payload, pos, record)
        if ftype not in (0, 1):
            raise CodecError(f"unknown frame type {ftype}")
        (pred, res_len), pos = read_fields(f"<{pred_len}sI", payload, pos, record)
        (res,), pos = read_fields(f"<{res_len}s", payload, pos, record)
        yield ftype, pred, res
    if pos != len(payload):
        raise CodecError(f"trailing bytes in group {gi}")


# ---------------------------------------------------------------------------
# Rate control
# ---------------------------------------------------------------------------


# the framing of a group: write_stream's u32 length and CRC and the u16
# frame count; of a frame record: its type, its two u32 lengths and an
# empty residual's marker
_GROUP_FRAMING = struct.calcsize("<IIH")
_FRAME_FRAMING = struct.calcsize("<BII") + 1


def _scaled_config(cfg: EncoderConfig, m: float, pixels: int) -> EncoderConfig:
    # the intra mask is the quality backbone, so it gives up rate far
    # more slowly than the residual stream, whose per-bit threshold
    # tightens steeply as the budget shrinks
    frac = min(1.0, max(cfg.intra_mask_fraction * m**0.15, 1.0 / pixels))
    pts = min(MAX_RESIDUAL_POINTS, max(1, int(round(cfg.residual_points * m))))
    fpts = max(1, int(round(cfg.flow_points * m**1.5)))
    # EncoderConfig takes only a finite lambda, however small m gets
    lam = min(cfg.residual_lambda / m**6, sys.float_info.max)
    # coarsen the residual dead zone together with the budgets: a wider
    # zero bin is what actually drops whole blocks at very low rates
    lv = cfg.residual_levels
    ilv = cfg.intra_levels
    if m < 1.0:
        lv = max(3, int(round(cfg.residual_levels * m)) | 1)
        # a coarser value quantizer trades invisible tonal precision for
        # a denser mask, which dominates quality at starved rates; a
        # lower budget never asks for more levels than the config's
        ilv = min(cfg.intra_levels, max(16, int(round(cfg.intra_levels * m**0.5))))
    return replace(
        cfg,
        intra_mask_fraction=frac,
        residual_points=pts,
        flow_points=fpts,
        intra_levels=ilv,
        residual_levels=lv,
        residual_lambda=lam,
    )


class RatePass(NamedTuple):
    """One full encode of `encode_target_ratio`'s search, in the order run."""

    multiplier: float
    ratio: float
    stream_bytes: int
    seconds: float  # the encode, with its reconstructions' digests
    returned: bool  # the pass whose stream was returned


def _search_multiplier(run, m, target_ratio, passes, slope):
    """Search budget multipliers from m on run(m), which returns (ratio,
    result), until one lands within TARGET_RATIO_TOL of the target or
    `passes` have run.

    The log ratio falls about linearly in log m: the first step follows
    `slope`, each later one the secant through the last two passes (at
    least MIN_SLOPE steep, and -1 where the ratio does not fall), by at
    most MAX_LOG_STEP, and bisects where that would leave the bracket of
    the passes so far. Returns the passes, as (m, ratio, result).
    """
    lo, hi = 0.0, math.inf  # multipliers known to be too small, too large
    history = []
    while True:
        ratio, result = run(m)
        history.append((m, ratio, result))
        if abs(ratio - target_ratio) / target_ratio <= TARGET_RATIO_TOL or len(history) == passes:
            return history
        if ratio > target_ratio:
            lo = m  # too small a budget, stream too tight
        else:
            hi = m
        if len(history) > 1:
            prev_m, prev_ratio, _ = history[-2]
            slope = math.log(ratio / prev_ratio) / math.log(m / prev_m)
            slope = min(slope, -MIN_SLOPE) if slope < 0.0 else -1.0
        step = math.log(target_ratio / ratio) / slope
        m_next = m * math.exp(min(max(step, -MAX_LOG_STEP), MAX_LOG_STEP))
        m = m_next if lo < m_next < hi else (lo * hi) ** 0.5


def _closest(history, target_ratio):
    """The pass of `history` closest to the target, the earliest on ties."""
    return min(history, key=lambda p: abs(p[1] - target_ratio))


def _predicted_bytes(header, heads, cfg, flows, orders):
    """The stream bytes of encode(frames, cfg, _flows=flows,
    _orders=orders) as predicted without encoding: the header, the
    framing, the trees and the flow payloads exactly, each intra value
    block by prediction.intra_bytes, and every residual empty. `heads`
    holds each group's first frame as YUV planes."""
    pixels = header.width * header.height
    n = HEADER_SIZE
    for gi, (s, e) in enumerate(_split_gops(header.frame_count, cfg.gop_size)):
        n += _GROUP_FRAMING + (e - s) * _FRAME_FRAMING
        n += intra_bytes(heads[gi], _luma_budget(cfg, pixels), cfg.intra_levels, orders[gi])
        n += sum(len(compress_flow(f, cfg.flow_points, cfg.flow_levels)) for f in flows[gi])
    return n


def encode_target_ratio(frames, cfg: EncoderConfig, target_ratio: float, _passes=None, _probes=None):
    """Search a budget multiplier until the compression ratio hits target.

    Ratio is raw uint8 source bytes over stream bytes. It falls with the
    budget multiplier m roughly as a power of m, but not monotonically:
    whole groups of blocks and leaves switch together, so it can jump
    across the band (103.0 to 95.8 within a step of m of 0.0005).

    One `_search_multiplier` runs twice. The first probes a byte model of
    the stream from m = 1 (_predicted_bytes: no fit, no diffusion solve,
    no residual coding), at most 1 + TARGET_RATIO_PASSES times. The
    second runs full encodes from the probe closest to the target, at
    most 1 + TARGET_RATIO_PASSES of them, its first step at FULL_SLOPE.
    Returned is the first full pass inside TARGET_RATIO_TOL, or else the
    closest, the earliest on ties: (stream, achieved ratio, config used).
    `_passes`, when a list, receives a RatePass per full encode, and
    `_probes` each probe's (multiplier, model ratio).
    """
    if not 1.0 < target_ratio < math.inf:
        raise ValueError("target ratio must be a finite number above 1")
    header = _check_frames(frames, cfg)
    pixels = header.width * header.height
    raw = len(frames) * pixels * header.channels
    yuv_y = [_to_yuv_planes(f)[0].astype(np.float64) for f in frames]
    flows = _compute_gop_flows(yuv_y, cfg)
    heads = [_to_yuv_planes(frames[s]) for s, _ in _split_gops(len(frames), cfg.gop_size)]
    # every pass searches the same group heads: sort their intra splits once
    orders = [intra_orders(h) for h in heads]
    # the passes run unchecked; only the returned stream is checked,
    # against the digests of its own pass's reconstructions
    unchecked = replace(cfg, self_check=False)

    def probe(m):
        scaled = _scaled_config(unchecked, m, pixels)
        return raw / _predicted_bytes(header, heads, scaled, flows, orders), None

    def run(m):
        t0 = time.perf_counter()
        recons = [] if cfg.self_check else None
        stream = encode(
            frames, _scaled_config(unchecked, m, pixels),
            _flows=flows, _recons=recons, _orders=orders,
        )
        digests = None if recons is None else _frame_digests(recons, header.channels)
        return raw / len(stream), (stream, digests, time.perf_counter() - t0)

    probes = _search_multiplier(probe, 1.0, target_ratio, 1 + TARGET_RATIO_PASSES, -1.0)
    m = _closest(probes, target_ratio)[0]
    history = _search_multiplier(run, m, target_ratio, 1 + TARGET_RATIO_PASSES, FULL_SLOPE)
    best = _closest(history, target_ratio)
    m, ratio, (stream, digests, _) = best
    if _probes is not None:
        _probes += [(pm, pr) for pm, pr, _ in probes]
    if _passes is not None:
        for p in history:
            pm, pr, (ps, _, seconds) = p
            _passes.append(RatePass(pm, pr, len(ps), seconds, p is best))
    if cfg.self_check:
        _self_check(stream, digests)
    return stream, ratio, _scaled_config(cfg, m, pixels)
