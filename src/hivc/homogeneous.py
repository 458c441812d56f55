"""Global homogeneous diffusion inpainting.

Reconstructs a plane from sparse known pixels by solving the discrete
inpainting problem with the 5-point Laplacian under reflecting boundary
conditions: known pixels keep their values, all others satisfy the
discrete Laplace equation. The solver is a cascadic coarse-to-fine
conjugate gradient scheme: solve on a subsampled pyramid level, prolong
bilinearly, refine on the next finer level.
"""

from __future__ import annotations

import math

import numpy as np

COARSEST_SIZE = 16
LEVEL_TOL = 1e-4  # relative residual at intermediate pyramid levels
# values per BLAS dot in the CG; OpenBLAS threads a dot of over 10,000
DOT_RUN = 4096


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
    their own sums. `out`, if given, receives the result; it must be
    C-contiguous and must not overlap `u`.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
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


def _runs(a: np.ndarray):
    """A C-contiguous plane as _dot reads it: views of its values in
    rows of DOT_RUN, and of the values left over."""
    flat = a.reshape(-1)
    n = flat.size - flat.size % DOT_RUN
    return flat[:n].reshape(-1, DOT_RUN), flat[n:]


def _dot(a, b) -> float:
    """Sum of a * b over two planes of one shape, given as _runs views.

    One BLAS dot per run of DOT_RUN values and one for the rest, then
    the sum of those. Each dot is shorter than the length at which
    OpenBLAS splits a dot across threads, so the sum has one order
    whatever the BLAS thread count, and no BLAS worker spins between the
    CG's array passes. The views stay valid while the CG updates its
    planes in place, so it makes them once per level.
    """
    return float(np.add.reduce(np.vecdot(a[0], b[0])) + np.vecdot(a[1], b[1]))


def _norm(a: np.ndarray) -> float:
    runs = _runs(a)
    return math.sqrt(_dot(runs, runs))


def _masked_cg(f, mask, x0, tol, max_iter, denom=None):
    """CG on the interior (non-mask) unknowns with Dirichlet mask values.

    Eliminating the known pixels leaves the SPD system
    (-L)_II w = (L u_D)_I with u_D = f on the mask and 0 elsewhere.
    Returns (solution plane, iterations used).
    """
    # full-plane arithmetic with zeros held at mask pixels avoids the
    # gather/scatter of interior unknowns on every iteration; the loop
    # works in place, which keeps each step's rounding but skips the
    # temporaries
    interior = (~mask).astype(np.float64)
    neg_interior = -interior
    u_d = np.where(mask, f, 0.0)
    b = laplacian(u_d) * interior
    ap = np.empty_like(b)
    step = np.empty_like(b)

    def matvec(w_full):
        # -L(w) * interior, negated through the mask factor
        return np.multiply(laplacian(w_full, ap), neg_interior, out=ap)

    x = x0 * interior
    r = b - matvec(x)
    b_norm = _norm(b) if denom is None else denom
    if b_norm == 0.0:
        return u_d + x, 0
    p = r.copy()
    r_runs, p_runs, ap_runs = _runs(r), _runs(p), _runs(ap)
    rs = _dot(r_runs, r_runs)
    it = 0
    for it in range(1, max_iter + 1):
        matvec(p)
        denom = _dot(p_runs, ap_runs)
        if denom <= 0.0 or rs < 1e-300:
            break
        alpha = rs / denom
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        rs_new = _dot(r_runs, r_runs)
        if np.sqrt(rs_new) <= tol * b_norm:
            rs = rs_new
            break
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


def _restrict(values: np.ndarray) -> np.ndarray:
    """2x2 block average with ceiling halving (odd trailing blocks shrink)."""
    return _block_sum(values) / _block_sum(np.ones_like(values))


def build_pyramid(f: np.ndarray, mask: np.ndarray):
    """Coarse-to-fine pyramid of (plane, mask) pairs, finest first.

    Dimensions halve (ceiling) until max(w, h) <= 16. A coarse mask
    pixel is set iff any of its 2x2 children is set; its value is the
    mean of the set children, other pixels are plain block averages.
    """
    levels = [(np.asarray(f, dtype=np.float64), np.asarray(mask, dtype=bool))]
    while max(levels[-1][0].shape) > COARSEST_SIZE:
        fv, mv = levels[-1]
        set_cnt = _block_sum(mv.astype(np.float64))
        set_sum = _block_sum(np.where(mv, fv, 0.0))
        avg_all = _restrict(fv)
        coarse_mask = set_cnt > 0
        coarse_f = np.where(coarse_mask, set_sum / np.maximum(set_cnt, 1.0), avg_all)
        levels.append((coarse_f, coarse_mask))
    return levels


def bilinear_resize(img: np.ndarray, shape) -> np.ndarray:
    """Bilinear resample to `shape`, pixel-center aligned and clamped.

    Separable: each source row is interpolated horizontally once, then
    the output mixes two of those rows. Every output pixel is
    (1 - wy) * ((1 - wx) * a + wx * b) + wy * ((1 - wx) * c + wx * d),
    the same sum as a direct four-tap evaluation.
    """
    h, w = shape
    ih, iw = img.shape
    if (ih, iw) == (h, w):
        return img.copy()
    ys = np.clip((np.arange(h) + 0.5) * (ih / h) - 0.5, 0, ih - 1)
    xs = np.clip((np.arange(w) + 0.5) * (iw / w) - 0.5, 0, iw - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
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
    the work is bounded. `stats`, if given, collects per-level
    iteration counts.
    """
    f = np.asarray(f, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if f.shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")

    levels = build_pyramid(f, mask)
    u = None
    iters = []
    for lvl in range(len(levels) - 1, -1, -1):
        fv, mv = levels[lvl]
        if u is None:
            x0 = np.full_like(fv, float(fv[mv].mean()))
        else:
            x0 = bilinear_resize(u, fv.shape)
        if mv.all():
            u = fv.copy()
            iters.append((fv.size, 0))
            continue
        level_tol = tol if lvl == 0 else max(LEVEL_TOL, tol)
        # The finest level stops against the contract denominator
        # ||f restricted to mask|| rather than the CG right-hand side;
        # it is the norm of a plane that is zero off the mask, so that
        # it is summed as every other norm is.
        denom = _norm(np.where(mv, fv, 0.0)) if lvl == 0 else None
        if denom == 0.0:
            denom = None
        u, it = _masked_cg(fv, mv, x0, level_tol, max_iter, denom=denom)
        iters.append((fv.size, it))
    if stats is not None:
        stats["level_iterations"] = iters
    return u
