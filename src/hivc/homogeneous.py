"""Global homogeneous diffusion inpainting.

Reconstructs a plane from sparse known pixels by solving the discrete
inpainting problem with the 5-point Laplacian under reflecting boundary
conditions: known pixels keep their values, all others satisfy the
discrete Laplace equation. The solver is a cascadic coarse-to-fine
conjugate gradient scheme: solve on a subsampled pyramid level, prolong
bilinearly, refine on the next finer level.

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


def _masked_cg(f, mask, x0, tol, max_iter, finest=False):
    """CG on the interior (non-mask) unknowns with Dirichlet mask values,
    in the dtype of `f` and `x0`.

    Eliminating the known pixels leaves the SPD system
    (-L)_II w = (L u_D)_I with u_D = f on the mask and 0 elsewhere.
    It stops once the residual is at most `tol` times ||(L u_D)_I||, or
    on the finest level times ||f restricted to the mask||, the
    contract denominator; an exact `x0` costs no iteration, and on a
    full mask the residual starts at zero, so `f` comes back unchanged.
    Values of `f` off the mask are never read. Returns (solution plane,
    number of updates made to it).
    """
    # full-plane arithmetic with zeros held at mask pixels avoids the
    # gather/scatter of interior unknowns on every iteration; the loop
    # works in place and keeps -A p = L(p) on the interior in `ap`
    interior = (~mask).astype(f.dtype)
    u_d = np.where(mask, f, 0.0)
    x = x0 * interior
    r = laplacian(u_d + x)
    r *= interior
    work = np.empty_like(r)
    scale = u_d if finest else laplacian(u_d) * interior
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


def build_pyramid(f: np.ndarray, mask: np.ndarray):
    """Coarse-to-fine pyramid of (plane, mask) pairs, finest first.

    Dimensions halve (ceiling) until max(w, h) <= 16. A coarse mask
    pixel is set iff any of its 2x2 children is set, and holds the mean
    of the set children; every other coarse pixel holds 0, because the
    CG reads a plane only on its mask. A float32 plane gives float32
    levels; a float64 or integer plane gives float64 ones.
    """
    f = np.asarray(f)
    f = f.astype(np.result_type(f.dtype, np.float32), copy=False)
    levels = [(f, np.asarray(mask, dtype=bool))]
    while max(levels[-1][0].shape) > COARSEST_SIZE:
        fv, mv = levels[-1]
        set_cnt = _block_sum(mv.astype(fv.dtype))
        set_sum = _block_sum(np.where(mv, fv, 0.0))
        levels.append((set_sum / np.maximum(set_cnt, 1.0), set_cnt > 0))
    return levels


def bilinear_resize(img: np.ndarray, shape) -> np.ndarray:
    """Bilinear resample to `shape`, pixel-center aligned and clamped.

    Separable: each source row is interpolated horizontally once, then
    the output mixes two of those rows. Every output pixel is
    (1 - wy) * ((1 - wx) * a + wx * b) + wy * ((1 - wx) * c + wx * d),
    the same sum as a direct four-tap evaluation. A float32 image is
    resampled in float32; a float64 or integer image in float64.
    """
    h, w = shape
    ih, iw = img.shape
    ys = np.clip((np.arange(h) + 0.5) * (ih / h) - 0.5, 0, ih - 1)
    xs = np.clip((np.arange(w) + 0.5) * (iw / w) - 0.5, 0, iw - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    dtype = np.result_type(img.dtype, np.float32)
    wy = (ys - y0).astype(dtype)[:, None]
    wx = (xs - x0).astype(dtype)[None, :]
    rows = (1 - wx) * img[:, x0] + wx * img[:, x1]
    return (1 - wy) * rows[y0] + wy * rows[y1]


def solve_homogeneous(
    f: np.ndarray,
    mask: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 10000,
    stats: dict | None = None,
):
    """Cascadic coarse-to-fine CG solve of homogeneous diffusion inpainting.

    Each pyramid level stops at relative residual `tol` (at least
    LEVEL_TOL below the finest) or after `max_iter` CG iterations, so
    the work is bounded. Every level runs in float32, or in float64 when
    `tol` is below FLOAT32_TOL. `stats`, if given, collects per-level
    (pixels, iterations) pairs, finest last. Returns a float64 plane
    equal to `f` on the mask.
    """
    f = np.asarray(f, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if f.shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")

    dtype = np.float32 if tol >= FLOAT32_TOL else np.float64
    levels = build_pyramid(f.astype(dtype, copy=False), mask)
    u = None
    iters = []
    for lvl in range(len(levels) - 1, -1, -1):
        fv, mv = levels[lvl]
        level_tol = tol if lvl == 0 else max(LEVEL_TOL, tol)
        if u is None:
            x0 = np.full_like(fv, fv[mv].mean())
        else:
            x0 = bilinear_resize(u, fv.shape)
        u, it = _masked_cg(fv, mv, x0, level_tol, max_iter, finest=lvl == 0)
        iters.append((fv.size, it))
    if stats is not None:
        stats["level_iterations"] = iters
    return np.where(mask, f, u)
