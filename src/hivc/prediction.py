"""Per-frame prediction signals.

Intra frames: sparse mask values picked by rectangular subdivision,
uniformly quantized, reconstructed by global homogeneous diffusion
inpainting. Chroma channels share one mask with half the luma budget.
Inter frames: backward warping of the previous reconstruction along a
decoded flow field.

The intra payload is decoded by encoder and decoder through the same
routine, so predictions are closed-loop by construction.
"""

from __future__ import annotations

import numpy as np

from hivc import entropy
from hivc.flow import FlowField, warp_planes
from hivc.frame import plane_groups
from hivc.homogeneous import solve_homogeneous
from hivc.subdivision import leaf_masks, parse_mask, subdivide_by_error, write_trees

# fixed iteration budget keeps decode deterministic and time-bounded
INTRA_SOLVE_ITERS = 160
# The prediction is rounded to whole levels, so the solve stops well short
# of exact: against 1e-4, this tolerance moved all-intra PSNR by at most
# 0.003 dB and the compression ratio by at most 0.08% on 12 seeds of the
# benchmark clip, with 40% fewer CG iterations. 3e-3 saved another 8% of
# the iterations but moved the ratio by up to 0.16%, and 4e-3 by 0.21%.
INTRA_SOLVE_TOL = 2e-3

# least-squares refinement of the transmitted mask values converges in
# a handful of iterations and plateaus well before 20
TONAL_ITERS = 12

# The tonal fit runs only in the encoder, so its functions import SciPy
# themselves: importing hivc or decoding a stream loads only NumPy.


def _path_laplacian(n: int):
    """Reflecting-boundary 3-point Laplacian on a line of n pixels."""
    import scipy.sparse as sparse

    one = np.ones(n - 1)
    deg = np.zeros(n)
    deg[1:] += one
    deg[:-1] += one
    return sparse.diags([one, -deg, one], [-1, 0, 1])


def _laplacian_matrix(h: int, w: int):
    """Reflecting-boundary 5-point Laplacian on row-major pixels: the line
    Laplacian along each row plus the one along each column."""
    import scipy.sparse as sparse

    return sparse.kronsum(_path_laplacian(w), _path_laplacian(h), format="csr")


def _inpainting_operator(mask: np.ndarray):
    """M, the map from mask values (raster order) to the inpainted plane.

    With K the mask pixels, I the rest and L the Laplacian, M v = v on K
    and (-L_II)^-1 L_IK v on I. -L_II is symmetric positive definite, so
    M^T r = r_K + L_IK^T (-L_II)^-1 r_I needs the same solve, and one
    symmetric factorization of the interior block serves both.
    """
    from scipy.sparse.linalg import LinearOperator, splu

    pts = _mask_points(mask)
    inner = np.flatnonzero(~mask.ravel())
    lap_i = _laplacian_matrix(*mask.shape)[inner]
    lap_ik = lap_i[:, pts]
    lap_ki = lap_ik.T.tocsr()
    lu = splu(
        -lap_i[:, inner].tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )

    def matvec(v):
        u = np.empty(mask.size)
        u[pts] = v
        u[inner] = lu.solve(lap_ik @ v)
        return u

    def rmatvec(r):
        return r[pts] + lap_ki @ lu.solve(r[inner])

    return LinearOperator((mask.size, pts.size), matvec=matvec, rmatvec=rmatvec, dtype=np.float64)


def optimize_mask_values(planes, mask: np.ndarray):
    """Refine the stored mask values so the inpainted result, not the
    point samples, is closest to each source plane in least squares.

    The transmitted payload format is unchanged: this only picks better
    values. A full mask is returned verbatim to keep pure-quantization
    configurations exact.
    """
    from scipy.sparse.linalg import lsqr

    pts = _mask_points(mask)
    samples = [np.asarray(p, dtype=np.float64).ravel()[pts] for p in planes]
    if mask.all():
        return samples
    op = _inpainting_operator(mask)
    out = []
    for plane, x0 in zip(planes, samples):
        target = np.asarray(plane, dtype=np.float64).ravel()
        v = lsqr(op, target, iter_lim=TONAL_ITERS, x0=x0.copy())[0]
        # box projection keeps the quantizer span tight and the
        # reconstruction within the source dynamic range
        out.append(np.clip(v, target.min(), target.max()))
    return out


def chroma_budget(luma_budget: int, plane_size: int) -> int:
    """Chroma channels share one mask with half the luma point count.

    A full luma mask implies a full chroma mask: halving only expresses
    rate allocation between sparse masks, and the degenerate full-mask
    setting must reduce to pure value quantization on every channel.
    """
    if luma_budget >= plane_size:
        return plane_size
    return (luma_budget + 1) // 2


def chroma_levels(levels: int) -> int:
    """Chroma planes span twice the dynamic range after the color
    transform; doubling the level count keeps the quantizer step equal."""
    return 2 * levels - 1


def _mask_points(mask: np.ndarray):
    """Mask point coordinates in raster order (fixed payload order)."""
    return np.flatnonzero(mask.ravel())


def encode_intra(planes, luma_budget: int, levels: int) -> bytes:
    """Build subdivision masks, quantize mask values, serialize the payload.

    Each plane group (frame.plane_groups) writes its tree, then one value
    block per plane; chroma groups take chroma_budget points and
    chroma_levels levels.
    """
    if luma_budget < 1:
        raise ValueError("luma mask budget must be >= 1")
    planes = [np.asarray(p, dtype=np.float64) for p in planes]
    shape, size = planes[0].shape, planes[0].size
    budget = min(luma_budget, size)
    out = bytearray()
    for group in plane_groups(len(planes)):
        chroma = group[0] > 0
        gplanes = [planes[i] for i in group]
        bits, leaves = subdivide_by_error(gplanes, chroma_budget(budget, size) if chroma else budget)
        write_trees(out, [bits])
        for vals in optimize_mask_values(gplanes, leaf_masks([leaves], shape)[0]):
            out += entropy.encode_value_block(vals, chroma_levels(levels) if chroma else levels)
    return bytes(out)


def decode_intra(data: bytes, pos: int, shape, channels: int, levels: int):
    """Decode an intra payload into float prediction planes.

    The whole payload is read before the first solve, so a corrupt value
    block costs no diffusion work. Returns (planes, next position). Used
    by encoder and decoder alike.
    """
    h, w = shape
    jobs = []
    for group in plane_groups(channels):
        (mask,), pos = parse_mask(data, pos, [(w, h)], shape)
        n = int(np.count_nonzero(mask))
        glevels = chroma_levels(levels) if group[0] > 0 else levels
        for _ in group:
            vals, pos = entropy.decode_value_block(data, pos, glevels, n)
            jobs.append((mask, vals))
    planes = [_inpaint_from_values(mask, vals) for mask, vals in jobs]
    return planes, pos


def _inpaint_from_values(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    f = np.zeros(mask.shape)
    f.ravel()[_mask_points(mask)] = values
    return solve_homogeneous(f, mask, tol=INTRA_SOLVE_TOL, max_iter=INTRA_SOLVE_ITERS)


def predict_inter(prev_planes, flow: FlowField):
    """Motion-compensated prediction: sample the previous reconstruction
    at (x + u, y + v) per channel, bilinear with border clamping."""
    return warp_planes([np.asarray(p, dtype=np.float64) for p in prev_planes], flow.u, flow.v)
