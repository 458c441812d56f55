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
from hivc.homogeneous import solve_homogeneous
from hivc.subdivision import (
    end_of_trees,
    leaf_masks,
    parse_mask,
    read_tree_bits,
    subdivide_by_error,
    write_trees,
)

# fixed iteration budget keeps decode deterministic and time-bounded
INTRA_SOLVE_ITERS = 160
INTRA_SOLVE_TOL = 1e-4

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


def _read_tree(data: bytes, pos: int, width: int, height: int):
    bits, pos = read_tree_bits(data, pos, 2 * width * height - 1)
    (mask,) = parse_mask(bits, [(width, height)], (height, width))
    end_of_trees(bits)
    return mask, pos


def encode_intra(planes, luma_budget: int, levels: int) -> bytes:
    """Build subdivision masks, quantize mask values, serialize the payload."""
    if luma_budget < 1:
        raise ValueError("luma mask budget must be >= 1")
    y = np.asarray(planes[0], dtype=np.float64)
    out = bytearray()
    bits_y, leaves_y = subdivide_by_error([y], min(luma_budget, y.size))
    write_trees(out, [bits_y])
    (vals_y,) = optimize_mask_values([y], leaf_masks([leaves_y], y.shape)[0])
    out += entropy.encode_value_block(vals_y, levels)
    if len(planes) == 3:
        uv = [np.asarray(p, dtype=np.float64) for p in planes[1:]]
        bits_c, leaves_c = subdivide_by_error(uv, chroma_budget(min(luma_budget, y.size), y.size))
        write_trees(out, [bits_c])
        vals_u, vals_v = optimize_mask_values(uv, leaf_masks([leaves_c], y.shape)[0])
        out += entropy.encode_value_block(vals_u, chroma_levels(levels))
        out += entropy.encode_value_block(vals_v, chroma_levels(levels))
    return bytes(out)


def decode_intra(data: bytes, pos: int, shape, channels: int, levels: int):
    """Decode an intra payload into float prediction planes.

    Returns (planes, next position). Used by encoder and decoder alike.
    """
    h, w = shape
    mask_y, pos = _read_tree(data, pos, w, h)
    vals_y, pos = entropy.decode_value_block(data, pos, levels, int(np.count_nonzero(mask_y)))
    jobs = [(mask_y, vals_y)]
    if channels == 3:
        mask_c, pos = _read_tree(data, pos, w, h)
        n_c = int(np.count_nonzero(mask_c))
        for _ in range(2):
            vals, pos = entropy.decode_value_block(data, pos, chroma_levels(levels), n_c)
            jobs.append((mask_c, vals))
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
