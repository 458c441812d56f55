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
    end_of_trees,
    leaf_means,
    paint_leaf_values,
    read_tree_bits,
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

    @property
    def shape(self):
        return self.u.shape


# Brox flow settings
BROX_ALPHA = 40.0  # smoothness weight
BROX_GAMMA = 40.0  # gradient constancy weight
BROX_PYRAMID_SCALE = 0.5
BROX_MIN_SIZE = 16
BROX_WARPS = 3  # warp relinearizations per level
BROX_FIXED_POINT_ITERS = 5  # lagged-nonlinearity iterations
BROX_SOLVER_ITERS = 30  # coupled Jacobi sweeps per fixed point step
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


def _dx(a):
    g = np.empty_like(a)
    g[:, 1:-1] = 0.5 * (a[:, 2:] - a[:, :-2])
    g[:, 0] = a[:, 1] - a[:, 0]
    g[:, -1] = a[:, -1] - a[:, -2]
    return g


def _dy(a):
    g = np.empty_like(a)
    g[1:-1, :] = 0.5 * (a[2:, :] - a[:-2, :])
    g[0, :] = a[1, :] - a[0, :]
    g[-1, :] = a[-1, :] - a[-2, :]
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


def flow_brox(frame_t: np.ndarray, frame_prev: np.ndarray) -> FlowField:
    """Backward flow from frame_t to frame_prev, coarse-to-fine with warping.

    Each fixed-point step solves its linear system with damped Jacobi
    sweeps. The sweeps run in place, in work planes allocated once per
    pyramid level, and take neighbours from shifted views instead of an
    edge-padded copy of the field.
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
    eps2 = BROX_EPS * BROX_EPS
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
        # per-level work planes of the Jacobi sweep
        du, dv, su, sv, b1, b2, du_new, dv_new, tmp = np.empty((9, h, w))
        weights = np.empty((4, h, w))
        ref_dx = _dx(ref)
        ref_dy = _dy(ref)

        for _ in range(BROX_WARPS):
            warped = bilinear_warp(tgt, u, v)
            warped_dx = _dx(warped)
            warped_dy = _dy(warped)
            ix = 0.5 * (warped_dx + ref_dx)
            iy = 0.5 * (warped_dy + ref_dy)
            iz = warped - ref
            ixx = _dx(ix)
            ixy = _dy(ix)
            iyy = _dy(iy)
            ixz = warped_dx - ref_dx
            iyz = warped_dy - ref_dy
            # gradient-constancy products that no fixed-point step changes
            g11 = ixx * ixx + ixy * ixy
            g12 = ixx * ixy + ixy * iyy
            g22 = ixy * ixy + iyy * iyy
            gb1 = ixx * ixz + ixy * iyz
            gb2 = ixy * ixz + iyy * iyz
            du.fill(0.0)
            dv.fill(0.0)
            for _ in range(BROX_FIXED_POINT_ITERS):
                r_b = iz + ix * du + iy * dv
                psi_d = 1.0 / np.sqrt(r_b * r_b + eps2)
                r_gx = ixz + ixx * du + ixy * dv
                r_gy = iyz + ixy * du + iyy * dv
                psi_g = BROX_GAMMA / np.sqrt(r_gx * r_gx + r_gy * r_gy + eps2)
                ut = u + du
                vt = v + dv
                grad2 = _dx(ut) ** 2 + _dy(ut) ** 2 + _dx(vt) ** 2 + _dy(vt) ** 2
                # diffusivity floor prevents the TV outlier spiral where a
                # single pixel decouples from its neighborhood
                psi_s = np.maximum(1.0 / np.sqrt(grad2 + eps2), 0.05)
                wn, ws, ww, we = _half_point_weights(psi_s, weights)
                wsum = wn + ws + ww + we

                a11 = psi_d * ix * ix + psi_g * g11 + BROX_ALPHA * wsum
                a12 = psi_d * ix * iy + psi_g * g12
                a22 = psi_d * iy * iy + psi_g * g22 + BROX_ALPHA * wsum
                b1_fix = -psi_d * ix * iz - psi_g * gb1
                b2_fix = -psi_d * iy * iz - psi_g * gb2
                _neighbor_sums(u, wn, ws, ww, we, su, tmp)
                su -= np.multiply(wsum, u, out=tmp)
                _neighbor_sums(v, wn, ws, ww, we, sv, tmp)
                sv -= np.multiply(wsum, v, out=tmp)
                det = a11 * a22 - a12 * a12
                det = np.where(np.abs(det) < det_guard, det_guard, det)

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
            u = u + du
            v = v + dv
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
    # regions, so a zero flow costs a single-leaf tree at any budget
    bits, leaves = subdivide_by_error([plane], budget, min_error=0.0)
    out = bytearray()
    write_trees(out, [bits])
    out += entropy.encode_value_block(leaf_means(leaves, plane), levels)
    return bytes(out)


def _decompress_plane(data: bytes, pos: int, shape, levels: int):
    h, w = shape
    bits, pos = read_tree_bits(data, pos, [(w, h)])
    leaves = deserialize_tree(bits, w, h)
    end_of_trees(bits)
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
