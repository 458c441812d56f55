"""Global homogeneous diffusion inpainting.

Reconstructs a plane from sparse known pixels by solving the discrete
inpainting problem with the 5-point Laplacian under reflecting boundary
conditions: known pixels keep their values, all others satisfy the
discrete Laplace equation. The solver is a cascadic coarse-to-fine
conjugate gradient scheme: solve on a subsampled pyramid level, prolong
bilinearly, refine on the next finer level. The mask half of that
pyramid (MaskPyramid) does not depend on the values, so solves on one
mask can share it. The same cascade solves the interior system with a
source term and zero mask values (solve_source), which the encoder's
tonal fit needs for its adjoint.

A solve picks one dtype for every level: float32, which halves the
memory traffic of every array pass, unless it is asked for a tolerance
tighter than FLOAT32_TOL, in which case float64. Every level, full
masks included, is one masked CG call. Every dot product and norm is
NumPy's own pairwise sum, never a BLAS call, so the floats are the same
under every BLAS kernel and thread count, with or without numpy's
optional SIMD kernels. The result is float64 and holds the given values
on the mask exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

COARSEST_SIZE = 16
LEVEL_TOL = 1e-4  # relative residual at intermediate pyramid levels
# tightest relative residual a solve runs to in float32; float32 CG
# reaches it without stalling on planes up to 1920x1080, and a solve
# asked for less runs in float64
FLOAT32_TOL = 1e-5


class InpaintingError(ValueError):
    pass


def laplacian(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """5-point discrete Laplacian with reflecting boundaries.

    Reflected neighbors equal the boundary pixel itself, so boundary
    terms drop out; equivalently only in-bounds neighbors contribute
    (u_nb - u). Row sums of the implied matrix are zero.

    Every pixel sums -4u, up, down, left, right in that order. The
    left and right terms are added along the flattened plane, which is
    several times faster than a column-shifted 2-D slice; the edge
    columns, which that shift gives the wrong neighbor, are set from
    their own sums. A float32 plane stays float32; a float64 or integer
    plane is computed in float64. `out`, if given, receives the result;
    it must be C-contiguous, of that dtype, and must not overlap `u`.
    """
    u = np.ascontiguousarray(u, dtype=np.result_type(u.dtype, np.float32))
    if out is None:
        out = np.empty_like(u)
    np.multiply(u, -4.0, out=out)
    out[1:, :] += u[:-1, :]
    out[0, :] += u[0, :]
    out[:-1, :] += u[1:, :]
    out[-1, :] += u[-1, :]
    flat_out, flat_u = out.reshape(-1), u.reshape(-1)
    edge = out[:, 0] + u[:, 0]
    flat_out[1:] += flat_u[:-1]
    out[:, 0] = edge
    edge = out[:, -1] + u[:, -1]
    flat_out[:-1] += flat_u[1:]
    out[:, -1] = edge
    return out


def _dot(a: np.ndarray, b: np.ndarray, work: np.ndarray) -> float:
    """Sum of a * b over two C-contiguous planes of one shape and dtype.

    The products go into `work`, and NumPy's pairwise reduction adds
    them in one order fixed by the length alone. A BLAS dot would pick
    its order, and so its rounding, by CPU kernel and thread count.
    """
    np.multiply(a, b, out=work)
    return float(np.add.reduce(work.reshape(-1)))


def _masked_cg(f, mask, interior, x0, tol, max_iter, finest=False, rhs=None):
    """CG on the interior (non-mask) unknowns with Dirichlet mask values,
    in the dtype of `f` and `x0`.

    Eliminating the known pixels leaves the SPD system
    (-L)_II w = (L u_D)_I + b_I with u_D = f on the mask and 0 elsewhere,
    and b = `rhs`, an interior source term that is 0 when not given.
    It stops once the residual is at most `tol` times the norm of that
    right-hand side, or, on the finest level without a source, times
    ||f restricted to the mask||, the contract denominator; an exact
    `x0` costs no iteration, and on a full mask the residual starts at
    zero, so `f` comes back unchanged. Values of `f` off the mask and of
    `rhs` on it are never read. `interior` is the non-mask indicator in
    the dtype of `f`. Returns (solution plane, number of updates made to
    it).
    """
    # full-plane arithmetic with zeros held at mask pixels avoids the
    # gather/scatter of interior unknowns on every iteration; the loop
    # works in place and keeps -A p = L(p) on the interior in `ap`
    u_d = np.where(mask, f, 0.0)
    x = x0 * interior
    r = laplacian(u_d + x)
    if rhs is not None:
        r += rhs
    r *= interior
    work = np.empty_like(r)
    if finest and rhs is None:
        scale = u_d
    else:
        scale = laplacian(u_d)
        if rhs is not None:
            scale += rhs
        scale *= interior
    limit = tol * math.sqrt(_dot(scale, scale, work))
    p = r.copy()
    ap = np.empty_like(r)
    rs = _dot(r, r, work)
    it = 0
    while it < max_iter and math.sqrt(rs) > limit:
        np.multiply(laplacian(p, ap), interior, out=ap)
        pap = -_dot(p, ap, work)
        if pap <= 0.0:
            break
        alpha = rs / pap
        x += np.multiply(p, alpha, out=work)
        r += np.multiply(ap, alpha, out=work)
        it += 1
        rs_new = _dot(r, r, work)
        p *= rs_new / rs
        p += r
        rs = rs_new
    return u_d + x, it


def _block_sum(a: np.ndarray) -> np.ndarray:
    """2x2 block sums with ceiling halving: pairs of rows, then pairs of
    columns; an odd trailing row or column passes through unchanged."""
    h, w = a.shape
    rows = a[0::2].copy()
    rows[: h // 2] += a[1::2]
    out = rows[:, 0::2].copy()
    out[:, : w // 2] += rows[:, 1::2]
    return out


def _resize_tables(src_shape, shape, dtype):
    """Index and weight tables of a bilinear resample from `src_shape` to
    `shape`, pixel-center aligned and clamped: (i0, i1, 1 - wt, wt) per
    axis, rows first, weights in `dtype`."""
    tables = []
    for n, src_n in zip(shape, src_shape):
        pos = np.clip((np.arange(n) + 0.5) * (src_n / n) - 0.5, 0, src_n - 1)
        i0 = np.floor(pos).astype(int)
        wt = (pos - i0).astype(dtype)
        tables.append((i0, np.minimum(i0 + 1, src_n - 1), 1 - wt, wt))
    return tables


def _resample(img: np.ndarray, tables) -> np.ndarray:
    """Bilinear resample through tables from _resize_tables."""
    (y0, y1, wy0, wy1), (x0, x1, wx0, wx1) = tables
    rows = wx0 * img[..., x0] + wx1 * img[..., x1]
    return wy0[:, None] * rows[..., y0, :] + wy1[:, None] * rows[..., y1, :]


def bilinear_resize(img: np.ndarray, shape) -> np.ndarray:
    """Bilinear resample to `shape`, pixel-center aligned and clamped.

    Separable: each source row is interpolated horizontally once, then
    the output mixes two of those rows. Every output pixel is
    (1 - wy) * ((1 - wx) * a + wx * b) + wy * ((1 - wx) * c + wx * d),
    the same sum as a direct four-tap evaluation. A stack of planes,
    (..., ih, iw), resamples each plane to the same floats as on its
    own. A float32 image is resampled in float32; a float64 or integer
    image in float64.
    """
    dtype = np.result_type(img.dtype, np.float32)
    return _resample(img, _resize_tables(img.shape[-2:], shape, dtype))


class MaskPyramid(NamedTuple):
    """The mask half of a solve's pyramid, finest level first: what every
    solve on one mask shares, whatever the values on it.

    Dimensions halve (ceiling) until max(w, h) <= 16. A coarse mask
    pixel is set iff any of its 2x2 children is set. `divisors[l]` holds
    the number of set children of each pixel of level l + 1, at least 1;
    `interiors[l]` is level l's non-mask indicator; `prolong[l]` holds
    the bilinear tables from level l + 1 to level l. Divisors, interior
    factors and weights are in `dtype`.
    """

    dtype: np.dtype
    masks: list
    divisors: list
    interiors: list
    prolong: list


def mask_pyramid(mask: np.ndarray, dtype) -> MaskPyramid:
    """Build the MaskPyramid of `mask` for solves in `dtype`."""
    dtype = np.dtype(dtype)
    masks = [np.asarray(mask, dtype=bool)]
    divisors = []
    while max(masks[-1].shape) > COARSEST_SIZE:
        set_cnt = _block_sum(masks[-1].astype(dtype))
        masks.append(set_cnt > 0)
        divisors.append(np.maximum(set_cnt, 1.0))
    interiors = [(~m).astype(dtype) for m in masks]
    prolong = [_resize_tables(c.shape, m.shape, dtype) for m, c in zip(masks, masks[1:])]
    return MaskPyramid(dtype, masks, divisors, interiors, prolong)


def _restrict_values(f: np.ndarray, pyramid: MaskPyramid) -> list:
    """Each level's plane: the mean of the set children on the coarse
    mask, 0 elsewhere, because the CG reads a plane only on its mask."""
    planes = [f]
    for mv, div in zip(pyramid.masks, pyramid.divisors):
        planes.append(_block_sum(np.where(mv, planes[-1], 0.0)) / div)
    return planes


def _cascade(planes, pyramid: MaskPyramid, tol, max_iter, sources=None):
    """Coarse-to-fine CG over the levels: solve the coarsest level from
    the mean of its mask values, prolong bilinearly, refine on the next
    finer level. `sources`, if given, holds each level's interior source
    term. Each level stops at relative residual `tol` (at least
    LEVEL_TOL below the finest) or after `max_iter` CG iterations.
    Returns the finest solution and per-level (pixels, iterations)
    pairs, finest last."""
    u = None
    iters = []
    for lvl in range(len(planes) - 1, -1, -1):
        fv, mv = planes[lvl], pyramid.masks[lvl]
        level_tol = tol if lvl == 0 else max(LEVEL_TOL, tol)
        if u is None:
            x0 = np.full_like(fv, fv[mv].mean())
        else:
            x0 = _resample(u, pyramid.prolong[lvl])
        u, it = _masked_cg(
            fv, mv, pyramid.interiors[lvl], x0, level_tol, max_iter, finest=lvl == 0,
            rhs=None if sources is None else sources[lvl],
        )
        iters.append((fv.size, it))
    return u, iters


def solve_dtype(tol: float):
    """The dtype of every level of a solve to relative residual `tol`."""
    return np.dtype(np.float32 if tol >= FLOAT32_TOL else np.float64)


def _checked_pyramid(shape, mask, tol, pyramid):
    """The solve's mask pyramid, `pyramid` if given, after checking that
    the plane and the pyramid fit `mask` and that the mask is not empty."""
    mask = np.asarray(mask, dtype=bool)
    if shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")
    dtype = solve_dtype(tol)
    if pyramid is None:
        return mask_pyramid(mask, dtype)
    if pyramid.dtype != dtype or pyramid.masks[0].shape != shape:
        raise InpaintingError("mask pyramid does not fit this solve")
    return pyramid


def solve_homogeneous(
    f: np.ndarray,
    mask: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 10000,
    stats: dict | None = None,
    pyramid: MaskPyramid | None = None,
):
    """Cascadic coarse-to-fine CG solve of homogeneous diffusion inpainting.

    Each pyramid level stops at relative residual `tol` (at least
    LEVEL_TOL below the finest) or after `max_iter` CG iterations, so
    the work is bounded. Every level runs in float32, or in float64 when
    `tol` is below FLOAT32_TOL. `pyramid`, if given, is
    mask_pyramid(mask, solve_dtype(tol)), shared by solves on one mask
    at the same floats. `stats`, if given, collects per-level
    (pixels, iterations) pairs, finest last. Returns a float64 plane
    equal to `f` on the mask.
    """
    f = np.asarray(f, dtype=np.float64)
    pyramid = _checked_pyramid(f.shape, mask, tol, pyramid)
    planes = _restrict_values(f.astype(pyramid.dtype, copy=False), pyramid)
    u, iters = _cascade(planes, pyramid, tol, max_iter)
    if stats is not None:
        stats["level_iterations"] = iters
    return np.where(pyramid.masks[0], f, u)


def solve_source(
    b: np.ndarray,
    mask: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 10000,
    pyramid: MaskPyramid | None = None,
):
    """Cascadic CG solve of (-L_II) z = b_I with z = 0 on the mask.

    The same cascade as solve_homogeneous, with 0 on every mask and an
    interior source: each coarser level's source is the 2x2 block sum of
    the finer one off its mask, because one coarse pixel stands for four
    fine ones under a stencil of twice the spacing. The finest level
    stops at `tol` times ||b_I||. Returns z as a float64 plane, 0 on the
    mask; values of `b` on the mask are never read.
    """
    b = np.asarray(b)
    pyramid = _checked_pyramid(b.shape, mask, tol, pyramid)
    sources = [b.astype(pyramid.dtype, copy=False)]
    for interior in pyramid.interiors[:-1]:
        sources.append(_block_sum(sources[-1] * interior))
    planes = [np.zeros_like(s) for s in sources]
    z, _ = _cascade(planes, pyramid, tol, max_iter, sources)
    return z.astype(np.float64)
