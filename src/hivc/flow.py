"""Dense backward optic flow estimation and compression.

The primary estimator is a coarse-to-fine warping variational method
with Charbonnier-robustified brightness and gradient constancy data
terms and a robust smoothness term (the design of Brox-style flow).
It runs in float32 and filters its flow with an exact 3x3 median of
NumPy minima and maxima; the field it returns, the warp and the flow
codec are float64. The classical Horn-Schunck baseline it is compared
against lives in the tests (`tests/oracles.py`).

A flow field here is backward: it points from the current frame to the
previous one, so prediction(x) = previous(x + w(x)). Compression uses
rectangular subdivision with region averages since backward fields are
piecewise smooth with large near-constant regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hivc import entropy
from hivc.homogeneous import bilinear_resize
from hivc.subdivision import (
    deserialize_tree,
    leaf_means,
    paint_leaf_values,
    subdivide_by_error,
    write_trees,
)


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowField:
    u: np.ndarray  # horizontal displacement, pixels
    v: np.ndarray  # vertical displacement, pixels

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise FlowError("flow component shape mismatch")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise FlowError("non-finite flow values")


# Brox flow settings
BROX_ALPHA = 40.0  # smoothness weight
BROX_GAMMA = 40.0  # gradient constancy weight
BROX_PYRAMID_SCALE = 0.5
BROX_MIN_SIZE = 16
BROX_WARPS = 3  # warp relinearizations per level
# Lagged-nonlinearity (fixed-point) iterations per warp, and coupled
# damped-Jacobi sweeps per fixed-point step. 3 and 10 in place of 5 and
# 30 cut one 336x144 flow from 0.95 to 0.31 s on a 2-core x86 VM (in
# float64 with SciPy's median; float32 work planes and the median
# network take it to 0.11 s), and the flows code no worse: on
# the ratio100 bench clips of 10 seeds (11, 21, ..., 71 and 901-903),
# mean PSNR 26.243 dB against 26.097, higher on 8 of 10, at mean ratio
# 99.8 against 99.6. 10 sweeps at 5 steps read 26.130 dB.
BROX_FIXED_POINT_ITERS = 3
BROX_SOLVER_ITERS = 10
BROX_EPS = 1e-3
BROX_PRESMOOTH_SIGMA = 0.8


def warp_planes(planes, u: np.ndarray, v: np.ndarray):
    """Sample each plane at (x + u, y + v), bilinear with border clamping.

    The sampling coordinates and weights are shared across planes, so
    passing all channels at once avoids recomputing them. Each output
    pixel is w00 * a + w01 * b + w10 * c + w11 * d, summed in that order.
    Intermediates are updated in place to keep few plane-sized buffers.
    """
    h, w = planes[0].shape
    fx = np.arange(w, dtype=np.float64) + u
    fy = np.arange(h, dtype=np.float64)[:, None] + v
    np.clip(fx, 0, w - 1, out=fx)
    np.clip(fy, 0, h - 1, out=fy)
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    fx -= x0
    fy -= y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    gx = 1 - fx
    gy = 1 - fy
    w01 = gy * fx
    w00 = np.multiply(gy, gx, out=gy)
    w10 = np.multiply(fy, gx, out=gx)
    w11 = np.multiply(fy, fx, out=fx)
    y0 *= w
    y1 *= w
    i00 = y0 + x0
    i10 = np.add(y1, x0, out=x0)
    i01 = np.add(y0, x1, out=y0)
    i11 = np.add(y1, x1, out=y1)
    taps = ((i00, w00), (i01, w01), (i10, w10), (i11, w11))
    tap = np.empty((h, w))
    out = []
    for p in planes:
        flat = np.ascontiguousarray(p, dtype=np.float64).ravel()
        acc = np.take(flat, i00, mode="clip")
        acc *= w00
        for idx, wt in taps[1:]:
            np.take(flat, idx, out=tap, mode="clip")
            tap *= wt
            acc += tap
        out.append(acc)
    return out


def bilinear_warp(plane: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample plane at (x + u, y + v) with bilinear interpolation, clamped."""
    return warp_planes([plane], u, v)[0]


def _dx(a, out=None):
    """Central difference along x (the last axis), one-sided at the edges,
    into `out`; a leading stack axis is differenced plane by plane.

    Along an axis of length 1 the derivative is 0, as at a reflecting
    boundary.
    """
    g = np.empty_like(a) if out is None else out
    if a.shape[-1] == 1:
        g.fill(0.0)
        return g
    np.subtract(a[..., 2:], a[..., :-2], out=g[..., 1:-1])
    g[..., 1:-1] *= 0.5
    np.subtract(a[..., 1], a[..., 0], out=g[..., 0])
    np.subtract(a[..., -1], a[..., -2], out=g[..., -1])
    return g


def _dy(a, out=None):
    """Central difference along y (the second-last axis), into `out`; see _dx."""
    g = np.empty_like(a) if out is None else out
    _dx(a.swapaxes(-1, -2), g.swapaxes(-1, -2))
    return g


def _pyramid_shapes(h, w, scale, min_size):
    shapes = [(h, w)]
    while min(shapes[-1]) > min_size:
        nh = max(int(round(shapes[-1][0] * scale)), min_size)
        nw = max(int(round(shapes[-1][1] * scale)), min_size)
        if (nh, nw) == shapes[-1]:
            break
        shapes.append((nh, nw))
    return shapes


def _neighbor_sums(field, wn, ws, ww, we, out, tmp):
    """wn * n + ws * s + ww * w + we * e, summed left to right, into `out`.

    n, s, w and e are the field's four neighbours, with the field
    repeated at the image edges (np.pad's "edge" mode). A field with a
    leading stack axis is summed plane by plane. Each product is formed
    from shifted views: rows for n and s, the flattened planes for w and
    e, whose wrapped-around first or last column is then redone.
    """
    np.multiply(wn[1:], field[..., :-1, :], out=out[..., 1:, :])
    np.multiply(wn[0], field[..., 0, :], out=out[..., 0, :])
    np.multiply(ws[:-1], field[..., 1:, :], out=tmp[..., :-1, :])
    np.multiply(ws[-1], field[..., -1, :], out=tmp[..., -1, :])
    out += tmp
    flat_shape = field.shape[:-2] + (-1,)
    flat, tmp_flat = field.reshape(flat_shape), tmp.reshape(flat_shape)
    np.multiply(ww.ravel()[1:], flat[..., :-1], out=tmp_flat[..., 1:])
    np.multiply(ww[:, 0], field[..., 0], out=tmp[..., 0])
    out += tmp
    np.multiply(we.ravel()[:-1], flat[..., 1:], out=tmp_flat[..., :-1])
    np.multiply(we[:, -1], field[..., -1], out=tmp[..., -1])
    out += tmp
    return out


def _half_point_weights(psi, out):
    """Diffusivity halfway to each neighbour, 0.5 * (psi + psi_nb), into
    out[0:4] as (n, s, w, e); zero across the image border (no flux)."""
    wn, ws, ww, we = out
    np.add(psi[1:], psi[:-1], out=wn[1:])
    np.add(psi[:-1], psi[1:], out=ws[:-1])
    flat = psi.ravel()
    np.add(flat[1:], flat[:-1], out=ww.ravel()[1:])
    np.add(flat[:-1], flat[1:], out=we.ravel()[:-1])
    wn[0, :] = 0.0
    ws[-1, :] = 0.0
    ww[:, 0] = 0.0
    we[:, -1] = 0.0
    out *= 0.5
    return wn, ws, ww, we


def _sum_of_products(a, x, b, y, out, tmp):
    """a * x + b * y, into `out`."""
    np.multiply(a, x, out=out)
    out += np.multiply(b, y, out=tmp)
    return out


def _affine(c, a, x, b, y, out, tmp):
    """c + a * x + b * y, summed left to right, into `out`."""
    np.multiply(a, x, out=out)
    out += c
    out += np.multiply(b, y, out=tmp)
    return out


def _robust_weight(r2, scale):
    """scale / sqrt(r2 + eps^2), in place: the Charbonnier penalty's
    derivative, given the squared residual."""
    r2 += BROX_EPS * BROX_EPS
    np.sqrt(r2, out=r2)
    return np.divide(scale, r2, out=r2)


def _med3(a, b, c, out):
    """The median of a, b and c, elementwise, into `out` (which may be a
    or b, not c): max(min(a, b), min(max(a, b), c))."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=out)
    np.minimum(hi, c, out=hi)
    return np.maximum(lo, hi, out=hi)


def _median3x3(stack, out=None):
    """3x3 median of each plane of `stack` (..., h, w), with the planes
    repeated at their edges, into `out` (which may be `stack`).

    Equal value for value to scipy.ndimage.median_filter with size
    (1, 3, 3) and mode "nearest": each vertical triple is sorted into
    lo <= mid <= hi, and the median of nine is then
    med3(max of three los, med3 of three mids, min of three his). Every
    output is one of its window's values, so the result is exact in any
    float dtype. Only where a window's median ties +0.0 with -0.0 may
    the sign of the zero differ from SciPy's, which picks by position.
    """
    p = np.pad(stack, [(0, 0)] * (stack.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    top, centre, bottom = p[..., :-2, :], p[..., 1:-1, :], p[..., 2:, :]
    lo = np.minimum(top, centre)
    hi = np.maximum(top, centre)
    mid = np.minimum(hi, bottom)
    np.maximum(lo, mid, out=mid)
    np.minimum(lo, bottom, out=lo)
    np.maximum(hi, bottom, out=hi)
    # across each row of three sorted columns
    left, right = slice(None, -2), slice(2, None)
    lo_max = np.maximum(lo[..., left], lo[..., 1:-1])
    np.maximum(lo_max, lo[..., right], out=lo_max)
    hi_min = np.minimum(hi[..., left], hi[..., 1:-1])
    np.minimum(hi_min, hi[..., right], out=hi_min)
    mid_med = _med3(mid[..., left], mid[..., 1:-1], mid[..., right], np.empty_like(lo_max))
    out = np.empty_like(stack) if out is None else out
    return _med3(lo_max, mid_med, hi_min, out)


def flow_brox(frame_t: np.ndarray, frame_prev: np.ndarray) -> FlowField:
    """Backward flow from frame_t to frame_prev, coarse-to-fine with warping.

    The estimate runs in float32: the pyramid pairs, the flow and every
    work plane; only the warp samples in float64, and its result is
    rounded to float32. The returned FlowField is float64. The frame
    pair, the flow (u, v) and its increment (du, dv) are each kept as
    one (2, h, w) stack, so every step that treats u and v alike is
    written once and runs on both planes. Each fixed-point step solves
    its linear system with damped Jacobi sweeps. The linearised data
    terms of a warp, the system of a fixed-point step and the sweeps all
    live in work planes allocated once per pyramid level; the sweep's
    scratch planes also hold the step's intermediate weights. Neighbours
    come from shifted views instead of an edge-padded copy of the field.
    After each warp, the flow takes the exact 3x3 median of `_median3x3`.
    """
    # Brox flow runs only in the encoder; importing SciPy here keeps it
    # off the decode path, which needs only NumPy.
    from scipy.ndimage import gaussian_filter

    f1 = np.asarray(frame_t, dtype=np.float64)
    f0 = np.asarray(frame_prev, dtype=np.float64)
    if f1.shape != f0.shape:
        raise FlowError("frame shape mismatch")
    if not (np.isfinite(f1).all() and np.isfinite(f0).all()):
        raise FlowError("non-finite input planes")
    # (ref, tgt) pairs, filtered in float64 and stored in float32; a zero
    # sigma leaves the stack axis unfiltered
    sigma = (0, BROX_PRESMOOTH_SIGMA, BROX_PRESMOOTH_SIGMA)
    pairs = [gaussian_filter(np.stack((f1, f0)), sigma, output=np.float32)]

    shapes = _pyramid_shapes(*f1.shape, BROX_PYRAMID_SCALE, BROX_MIN_SIZE)
    # recursive pyramid: each level smooths the previous one before resampling
    anti_alias = 0.5 / BROX_PYRAMID_SCALE
    for h, w in shapes[1:]:
        pairs.append(bilinear_resize(gaussian_filter(pairs[-1], (0, anti_alias, anti_alias)), (h, w)))
    uv = np.zeros((2, *shapes[-1]), dtype=np.float32)
    for lvl in range(len(shapes) - 1, -1, -1):
        _brox_level(*pairs[lvl], uv)
        if lvl:
            (ph, pw), (h, w) = shapes[lvl], shapes[lvl - 1]
            scale = np.array([w / pw, h / ph], dtype=np.float32)
            uv = bilinear_resize(uv, (h, w)) * scale[:, None, None]
    bound = float(max(f1.shape))
    return FlowField(*np.clip(uv.astype(np.float64), -bound, bound))


def _brox_level(ref, tgt, uv):
    """Refine the flow uv, (2, h, w), in place on one pyramid level, in
    the dtype of ref, tgt and uv; the level's work planes are freed when
    it returns."""
    h, w = ref.shape
    dtype = uv.dtype
    det_guard = 1e-12
    # per-level work planes: the linearised data terms of one warp
    # (i = (ix, iy), hess = (ixx, ixy, iyy), gz = (ixz, iyz) and the
    # gradient-constancy products g = (g11, g22), g12, gb = (gb1, gb2)), ...
    i, iz, hess, gz, g, g12, gb = np.split(np.empty((13, h, w), dtype), [2, 3, 6, 8, 10, 11])
    iz, g12 = iz[0], g12[0]
    hx, hy = hess[:2], hess[1:]  # (ixx, ixy) and (ixy, iyy)
    # ... the system of one fixed-point step, with diag = (a11, a22), ...
    diag, a12, b_fix, det, s = np.split(np.empty((8, h, w), dtype), [2, 3, 5, 6])
    a12, det = a12[0], det[0]
    weights = np.empty((4, h, w), dtype)
    small_det = np.empty((h, w), dtype=bool)
    # ... and the Jacobi sweep; all but d = (du, dv) are scratch planes
    d, b, d_new = np.empty((3, 2, h, w), dtype)
    ref_grad = np.empty((2, h, w), dtype)
    _dx(ref, ref_grad[0])
    _dy(ref, ref_grad[1])

    for _ in range(BROX_WARPS):
        # the warp samples in float64; its result is rounded to the level's dtype
        warped = bilinear_warp(tgt, *uv).astype(dtype)
        # gz first holds the warped frame's gradient
        _dx(warped, gz[0])
        _dy(warped, gz[1])
        np.add(gz, ref_grad, out=i)
        i *= 0.5
        gz -= ref_grad
        np.subtract(warped, ref, out=iz)
        _dx(i[0], hess[0])
        _dy(i, hess[1:])
        # gradient-constancy products that no fixed-point step changes:
        # g = hx * hx + hy * hy, g12 = ixx * ixy + ixy * iyy and
        # gb = hx * ixz + hy * iyz
        _sum_of_products(hx, hx, hy, hy, g, d_new)
        _sum_of_products(hess[0], hess[1], hess[1], hess[2], g12, d_new[0])
        _sum_of_products(hx, gz[0], hy, gz[1], gb, d_new)
        d.fill(0.0)
        for _ in range(BROX_FIXED_POINT_ITERS):
            # data weights: psi_g from the gradient residuals
            # r_g = gz + hx * du + hy * dv, psi_d from the brightness
            # residual r_b = iz + ix * du + iy * dv
            r_g = _affine(gz, hx, d[0], hy, d[1], b, d_new)
            r_g *= r_g
            psi_g = np.add(r_g[0], r_g[1], out=b[0])
            _robust_weight(psi_g, BROX_GAMMA)
            psi_d = _affine(iz, i[0], d[0], i[1], d[1], b[1], d_new[0])
            psi_d *= psi_d
            _robust_weight(psi_d, 1.0)
            # diag = psi_d * i * i + psi_g * g + alpha * wsum,
            # a12 = psi_d * ix * iy + psi_g * g12 and
            # b_fix = -psi_d * i * iz - psi_g * gb; the wsum terms come
            # below, and s and det serve as scratch until then
            pd_i = np.multiply(psi_d, i, out=d_new)
            np.multiply(pd_i, i, out=diag)
            diag += np.multiply(psi_g, g, out=s)
            np.multiply(pd_i[0], i[1], out=a12)
            a12 += np.multiply(psi_g, g12, out=det)
            np.negative(np.multiply(pd_i, iz, out=b_fix), out=b_fix)
            b_fix -= np.multiply(psi_g, gb, out=s)

            # smoothness weight from |grad(u + du)|^2 + |grad(v + dv)|^2,
            # with the squared x and y derivatives in b and s
            uvt = np.add(uv, d, out=d_new)
            np.square(_dx(uvt, b), out=b)
            np.square(_dy(uvt, s), out=s)
            grad2 = np.add(b[0], s[0], out=d_new[0])
            grad2 += b[1]
            grad2 += s[1]
            # diffusivity floor prevents the TV outlier spiral where a
            # single pixel decouples from its neighborhood
            psi_s = np.maximum(_robust_weight(grad2, 1.0), 0.05, out=grad2)
            wn, ws, ww, we = _half_point_weights(psi_s, weights)
            wsum = np.add(wn, ws, out=b[0])
            wsum += ww
            wsum += we
            diag += np.multiply(wsum, BROX_ALPHA, out=b[1])

            _neighbor_sums(uv, wn, ws, ww, we, s, d_new)
            s -= np.multiply(wsum, uv, out=d_new)
            np.multiply(diag[0], diag[1], out=det)
            det -= np.multiply(a12, a12, out=d_new[0])
            np.less(np.abs(det, out=d_new[0]), det_guard, out=small_det)
            np.copyto(det, det_guard, where=small_det)

            for _ in range(BROX_SOLVER_ITERS):
                # b = b_fix + alpha * (s + neighbour sums of the increment)
                _neighbor_sums(d, wn, ws, ww, we, b, d_new)
                b += s
                b *= BROX_ALPHA
                b += b_fix
                # d_new = ((a22 * b1 - a12 * b2), (a11 * b2 - a12 * b1)) / det
                np.multiply(diag[::-1], b, out=d_new)
                b *= a12
                d_new -= b[::-1]
                d_new /= det
                # damped Jacobi: d = 0.5 * d + 0.5 * d_new
                d *= 0.5
                d_new *= 0.5
                d += d_new
            # the linearized data terms are only valid near the
            # expansion point; keep increments inside that range
            np.clip(d, -1.0, 1.0, out=d)
        uv += d
        # median filtering after each warp removes isolated outliers
        # while preserving motion discontinuities
        _median3x3(uv, out=uv)


# ---------------------------------------------------------------------------
# Flow compression: subdivision trees with quantized region averages
# ---------------------------------------------------------------------------


def _compress_plane(plane: np.ndarray, budget: int, levels: int) -> bytes:
    # min_error=0 stops the subdivision early on exactly representable
    # regions, so a zero flow costs a single-leaf tree at any budget; a
    # frame has no more leaves than pixels
    bits, leaves = subdivide_by_error([plane], min(budget, plane.size), min_error=0.0)
    out = bytearray()
    write_trees(out, [bits])
    out += entropy.encode_value_block(leaf_means(leaves, plane), levels)
    return bytes(out)


def _decompress_plane(data: bytes, pos: int, shape, levels: int):
    h, w = shape
    leaves, pos = deserialize_tree(data, pos, w, h)
    values, pos = entropy.decode_value_block(data, pos, levels, len(leaves))
    return paint_leaf_values(leaves, values, shape), pos


def compress_flow(flow: FlowField, points_budget: int, quant_levels: int) -> bytes:
    """Encode u and v independently: tree bits + quantized leaf averages."""
    if points_budget < 1:
        raise FlowError("points budget must be >= 1")
    return _compress_plane(flow.u, points_budget, quant_levels) + _compress_plane(
        flow.v, points_budget, quant_levels
    )


def decompress_flow(data: bytes, pos: int, shape, quant_levels: int):
    """Decode a compressed flow payload; returns (FlowField, next position)."""
    u, pos = _decompress_plane(data, pos, shape, quant_levels)
    v, pos = _decompress_plane(data, pos, shape, quant_levels)
    return FlowField(u, v), pos
