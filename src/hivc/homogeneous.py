"""Global homogeneous diffusion inpainting.

Reconstructs a plane from sparse known pixels by solving the discrete
inpainting problem with the 5-point Laplacian under reflecting boundary
conditions: known pixels keep their values, all others satisfy the
discrete Laplace equation. The solver is a cascadic coarse-to-fine
conjugate gradient scheme: solve on a subsampled pyramid level, prolong
bilinearly, refine on the next finer level. The mask half of that
pyramid (MaskPyramid) does not depend on the values, so solves on one
mask can share it. The encoder's tonal fit (fitted_plane) makes no
solve: it runs the same CG loop, _cg, on its own optimality system.

A solve picks one dtype for every level: float32, which halves the
memory traffic of every array pass, unless it is asked for a tolerance
tighter than FLOAT32_TOL, in which case float64. Every level, full
masks included, is one call of _cg, the package's only CG loop. Every
dot product and norm in it is NumPy's own pairwise sum, never a BLAS
call, so the floats are the same under every BLAS kernel and thread
count, with or without numpy's optional SIMD kernels. The result is
float64 and holds the given values on the mask exactly.
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


def _cg(neg_apply, x, r, limit, max_iter, work) -> int:
    """The package's one CG loop, run by each cascade level and by the
    tonal fit: solves an SPD system A x = b in place on `x` and on its
    residual `r` = b - A x, in their dtype. `neg_apply(p, out)` writes
    -A p into `out`. It stops once ||r|| is at most `limit`, after
    `max_iter` updates, or where p^T A p is not positive; an exact start
    costs no update. Every inner product is a _dot into `work`, a plane
    like `x`. Returns the number of updates made to `x`.
    """
    p = r.copy()
    ap = np.empty_like(r)
    rs = _dot(r, r, work)
    it = 0
    while it < max_iter and math.sqrt(rs) > limit:
        neg_apply(p, ap)
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
    return it


def fitted_plane(plane: np.ndarray, interior: np.ndarray, tol: float, max_iter: int, work: np.ndarray):
    """The inpainted plane u closest to `plane` (f) in least squares.

    u minimises ||u - f|| subject to B u = 0, where B is the rows of the
    Laplacian L off the mask: the planes that solve the inpainting
    equation off the mask are exactly the inpaintings of their own mask
    values. So u = f - B^T lam, with B B^T lam = B f (Mainberger et al.,
    SSVM 2011). B^T lam is L applied to lam, which is 0 on the mask.
    _cg solves that system in float32 from lam = 0, with two Laplacians
    a step and no diffusion solve, to a residual of `tol` times ||B f||
    or `max_iter` steps. `interior` is the float32 non-mask indicator,
    `work` a float32 plane of its shape. On a full mask B f is 0, so no
    step is taken and f returns exactly. Returns u in float64.
    """
    b = laplacian(plane.astype(np.float32)) * interior
    lam, lap_p, neg_interior = np.zeros_like(b), np.empty_like(b), -interior

    def neg_apply(p, out):
        # p is 0 on the mask, so B^T p is L p; -interior negates exactly
        np.multiply(laplacian(laplacian(p, lap_p), out), neg_interior, out=out)

    _cg(neg_apply, lam, b, tol * math.sqrt(_dot(b, b, work)), max_iter, work)
    return plane - laplacian(lam)


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


def _cascade(planes, pyramid: MaskPyramid, tol, max_iter):
    """Coarse-to-fine CG over the levels: solve the coarsest level from
    the mean of its mask values, prolong bilinearly, refine on the next
    finer level. Each level stops at relative residual `tol` (at least
    LEVEL_TOL below the finest) or after `max_iter` CG iterations.
    Returns the finest solution and per-level (pixels, iterations)
    pairs, finest last."""
    u = None
    iters = []
    for lvl in range(len(planes) - 1, -1, -1):
        fv, mv, interior = planes[lvl], pyramid.masks[lvl], pyramid.interiors[lvl]
        # Eliminating the known pixels leaves the SPD system
        # (-L)_II w = (L u_D)_I, u_D = fv on the mask and 0 elsewhere, in
        # full planes with zeros held at mask pixels: no gather/scatter
        u_d = np.where(mv, fv, 0.0)
        x = np.full_like(fv, fv[mv].mean()) if u is None else _resample(u, pyramid.prolong[lvl])
        x *= interior
        r = laplacian(u_d + x)
        r *= interior
        work = np.empty_like(r)
        # the finest level stops relative to ||u_D||, the contract
        # denominator, the others relative to ||(L u_D)_I||
        scale = u_d if lvl == 0 else laplacian(u_d) * interior
        limit = (tol if lvl == 0 else max(LEVEL_TOL, tol)) * math.sqrt(_dot(scale, scale, work))

        def neg_apply(p, out):
            np.multiply(laplacian(p, out), interior, out=out)

        it = _cg(neg_apply, x, r, limit, max_iter, work)
        u = u_d + x
        iters.append((fv.size, it))
    return u, iters


def solve_dtype(tol: float):
    """The dtype of every level of a solve to relative residual `tol`."""
    return np.dtype(np.float32 if tol >= FLOAT32_TOL else np.float64)


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
    mask = np.asarray(mask, dtype=bool)
    if f.shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")
    dtype = solve_dtype(tol)
    if pyramid is None:
        pyramid = mask_pyramid(mask, dtype)
    elif pyramid.dtype != dtype or pyramid.masks[0].shape != f.shape:
        raise InpaintingError("mask pyramid does not fit this solve")
    planes = _restrict_values(f.astype(pyramid.dtype, copy=False), pyramid)
    u, iters = _cascade(planes, pyramid, tol, max_iter)
    if stats is not None:
        stats["level_iterations"] = iters
    return np.where(pyramid.masks[0], f, u)
