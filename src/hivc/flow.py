"""Dense backward optic flow estimation and compression.

The primary estimator is a coarse-to-fine warping variational method
with Charbonnier-robustified brightness and gradient constancy data
terms and a robust smoothness term (the design of Brox-style flow).
The classical Horn-Schunck baseline it is compared against lives in
the tests (`tests/oracles.py`).

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
# 30 cut one 336x144 flow from 0.95 to 0.31 s on a 2-core x86 VM, and
# the flows code no worse: on the ratio100 bench clips of 10 seeds (11,
# 21, ..., 71 and 901-903), mean PSNR 26.243 dB against 26.097, higher
# on 8 of 10, at mean ratio 99.8 against 99.6. 10 sweeps at 5 steps
# read 26.130 dB.
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
    """Central difference along x, one-sided at the edges, into `out`.

    Along an axis of length 1 the derivative is 0, as at a reflecting
    boundary.
    """
    g = np.empty_like(a) if out is None else out
    if a.shape[1] == 1:
        g.fill(0.0)
        return g
    np.subtract(a[:, 2:], a[:, :-2], out=g[:, 1:-1])
    g[:, 1:-1] *= 0.5
    np.subtract(a[:, 1], a[:, 0], out=g[:, 0])
    np.subtract(a[:, -1], a[:, -2], out=g[:, -1])
    return g


def _dy(a, out=None):
    """Central difference along y, into `out`; see _dx."""
    g = np.empty_like(a) if out is None else out
    _dx(a.T, g.T)
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
    repeated at the image edges (np.pad's "edge" mode). Each product is
    formed from shifted views: rows for n and s, the flattened plane for
    w and e, whose wrapped-around first or last column is then redone.
    """
    np.multiply(wn[1:], field[:-1], out=out[1:])
    np.multiply(wn[0], field[0], out=out[0])
    np.multiply(ws[:-1], field[1:], out=tmp[:-1])
    np.multiply(ws[-1], field[-1], out=tmp[-1])
    out += tmp
    flat, tmp_flat = field.ravel(), tmp.ravel()
    np.multiply(ww.ravel()[1:], flat[:-1], out=tmp_flat[1:])
    np.multiply(ww[:, 0], field[:, 0], out=tmp[:, 0])
    out += tmp
    np.multiply(we.ravel()[:-1], flat[1:], out=tmp_flat[:-1])
    np.multiply(we[:, -1], field[:, -1], out=tmp[:, -1])
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


def flow_brox(frame_t: np.ndarray, frame_prev: np.ndarray) -> FlowField:
    """Backward flow from frame_t to frame_prev, coarse-to-fine with warping.

    Each fixed-point step solves its linear system with damped Jacobi
    sweeps. The linearised data terms of a warp, the system of a
    fixed-point step and the sweeps all live in work planes allocated
    once per pyramid level; the sweep's scratch planes also hold the
    step's intermediate weights. Neighbours come from shifted views
    instead of an edge-padded copy of the field.
    """
    # Brox flow runs only in the encoder; importing SciPy here keeps it
    # off the decode path, which needs only NumPy.
    from scipy.ndimage import gaussian_filter, median_filter

    f1 = np.asarray(frame_t, dtype=np.float64)
    f0 = np.asarray(frame_prev, dtype=np.float64)
    if f1.shape != f0.shape:
        raise FlowError("frame shape mismatch")
    if not (np.isfinite(f1).all() and np.isfinite(f0).all()):
        raise FlowError("non-finite input planes")
    f1 = gaussian_filter(f1, BROX_PRESMOOTH_SIGMA)
    f0 = gaussian_filter(f0, BROX_PRESMOOTH_SIGMA)

    shapes = _pyramid_shapes(*f1.shape, BROX_PYRAMID_SCALE, BROX_MIN_SIZE)
    # recursive pyramid: each level smooths the previous one before resampling
    refs = [f1]
    tgts = [f0]
    anti_alias = 0.5 / BROX_PYRAMID_SCALE
    for h, w in shapes[1:]:
        refs.append(bilinear_resize(gaussian_filter(refs[-1], anti_alias), (h, w)))
        tgts.append(bilinear_resize(gaussian_filter(tgts[-1], anti_alias), (h, w)))
    det_guard = 1e-12
    u = v = None
    for lvl in range(len(shapes) - 1, -1, -1):
        h, w = shapes[lvl]
        ref = refs[lvl]
        tgt = tgts[lvl]
        if u is None:
            u = np.zeros((h, w))
            v = np.zeros((h, w))
        else:
            u = bilinear_resize(u, (h, w)) * (w / shapes[lvl + 1][1])
            v = bilinear_resize(v, (h, w)) * (h / shapes[lvl + 1][0])
        # per-level work planes: the linearised data terms of one warp, ...
        ix, iy, iz, ixx, ixy, iyy, ixz, iyz, g11, g12, g22, gb1, gb2 = np.empty((13, h, w))
        # ... the system of one fixed-point step, ...
        a11, a12, a22, b1_fix, b2_fix, det, su, sv = np.empty((8, h, w))
        weights = np.empty((4, h, w))
        small_det = np.empty((h, w), dtype=bool)
        # ... and the Jacobi sweep; all but du and dv are scratch planes
        du, dv, b1, b2, du_new, dv_new, tmp = np.empty((7, h, w))
        ref_dx = _dx(ref)
        ref_dy = _dy(ref)

        for _ in range(BROX_WARPS):
            warped = bilinear_warp(tgt, u, v)
            # ixz and iyz first hold the warped frame's gradient
            _dx(warped, ixz)
            _dy(warped, iyz)
            np.add(ixz, ref_dx, out=ix)
            ix *= 0.5
            np.add(iyz, ref_dy, out=iy)
            iy *= 0.5
            ixz -= ref_dx
            iyz -= ref_dy
            np.subtract(warped, ref, out=iz)
            _dx(ix, ixx)
            _dy(ix, ixy)
            _dy(iy, iyy)
            # gradient-constancy products that no fixed-point step changes
            _sum_of_products(ixx, ixx, ixy, ixy, g11, tmp)
            _sum_of_products(ixx, ixy, ixy, iyy, g12, tmp)
            _sum_of_products(ixy, ixy, iyy, iyy, g22, tmp)
            _sum_of_products(ixx, ixz, ixy, iyz, gb1, tmp)
            _sum_of_products(ixy, ixz, iyy, iyz, gb2, tmp)
            du.fill(0.0)
            dv.fill(0.0)
            for _ in range(BROX_FIXED_POINT_ITERS):
                # data weights: psi_d from the brightness residual r_b,
                # psi_g from the gradient residuals r_gx and r_gy
                psi_d = _affine(iz, ix, du, iy, dv, b1, tmp)
                psi_d *= psi_d
                _robust_weight(psi_d, 1.0)
                psi_g = _affine(ixz, ixx, du, ixy, dv, b2, tmp)
                r_gy = _affine(iyz, ixy, du, iyy, dv, du_new, tmp)
                psi_g *= psi_g
                psi_g += np.multiply(r_gy, r_gy, out=r_gy)
                _robust_weight(psi_g, BROX_GAMMA)
                # a11 = psi_d * ix * ix + psi_g * g11 + alpha * wsum and
                # b1_fix = -psi_d * ix * iz - psi_g * gb1, likewise a12,
                # a22 and b2_fix; the wsum terms come below
                pd_i = np.multiply(psi_d, ix, out=du_new)
                np.multiply(pd_i, ix, out=a11)
                a11 += np.multiply(psi_g, g11, out=tmp)
                np.multiply(pd_i, iy, out=a12)
                a12 += np.multiply(psi_g, g12, out=tmp)
                np.negative(np.multiply(pd_i, iz, out=b1_fix), out=b1_fix)
                b1_fix -= np.multiply(psi_g, gb1, out=tmp)
                pd_i = np.multiply(psi_d, iy, out=du_new)
                np.multiply(pd_i, iy, out=a22)
                a22 += np.multiply(psi_g, g22, out=tmp)
                np.negative(np.multiply(pd_i, iz, out=b2_fix), out=b2_fix)
                b2_fix -= np.multiply(psi_g, gb2, out=tmp)

                # smoothness weight from |grad(u + du)|^2 + |grad(v + dv)|^2
                ut = np.add(u, du, out=b2)
                grad2 = np.square(_dx(ut, tmp), out=b1)
                grad2 += np.square(_dy(ut, tmp), out=tmp)
                vt = np.add(v, dv, out=b2)
                grad2 += np.square(_dx(vt, tmp), out=tmp)
                grad2 += np.square(_dy(vt, tmp), out=tmp)
                # diffusivity floor prevents the TV outlier spiral where a
                # single pixel decouples from its neighborhood
                psi_s = np.maximum(_robust_weight(grad2, 1.0), 0.05, out=grad2)
                wn, ws, ww, we = _half_point_weights(psi_s, weights)
                wsum = np.add(wn, ws, out=b2)
                wsum += ww
                wsum += we
                np.multiply(wsum, BROX_ALPHA, out=tmp)
                a11 += tmp
                a22 += tmp

                _neighbor_sums(u, wn, ws, ww, we, su, tmp)
                su -= np.multiply(wsum, u, out=tmp)
                _neighbor_sums(v, wn, ws, ww, we, sv, tmp)
                sv -= np.multiply(wsum, v, out=tmp)
                np.multiply(a11, a22, out=det)
                det -= np.multiply(a12, a12, out=tmp)
                np.less(np.abs(det, out=tmp), det_guard, out=small_det)
                np.copyto(det, det_guard, where=small_det)

                for _ in range(BROX_SOLVER_ITERS):
                    # b = b_fix + alpha * (s + neighbour sums of the increment)
                    _neighbor_sums(du, wn, ws, ww, we, b1, tmp)
                    b1 += su
                    b1 *= BROX_ALPHA
                    b1 += b1_fix
                    _neighbor_sums(dv, wn, ws, ww, we, b2, tmp)
                    b2 += sv
                    b2 *= BROX_ALPHA
                    b2 += b2_fix
                    # du_new = (a22 * b1 - a12 * b2) / det, likewise dv_new
                    np.multiply(a22, b1, out=du_new)
                    du_new -= np.multiply(a12, b2, out=tmp)
                    du_new /= det
                    np.multiply(a11, b2, out=dv_new)
                    dv_new -= np.multiply(a12, b1, out=tmp)
                    dv_new /= det
                    # damped Jacobi: d = 0.5 * d + 0.5 * d_new
                    du *= 0.5
                    du_new *= 0.5
                    du += du_new
                    dv *= 0.5
                    dv_new *= 0.5
                    dv += dv_new
                # the linearized data terms are only valid near the
                # expansion point; keep increments inside that range
                np.clip(du, -1.0, 1.0, out=du)
                np.clip(dv, -1.0, 1.0, out=dv)
            u += du
            v += dv
            # median filtering after each warp removes isolated outliers
            # while preserving motion discontinuities
            u = median_filter(u, size=3, mode="nearest")
            v = median_filter(v, size=3, mode="nearest")
    bound = float(max(f1.shape))
    return FlowField(np.clip(u, -bound, bound), np.clip(v, -bound, bound))


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
