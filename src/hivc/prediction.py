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

from hivc import entropy, homogeneous
from hivc.flow import FlowField, warp_planes
from hivc.frame import plane_groups
from hivc.homogeneous import solve_homogeneous
from hivc.subdivision import SplitOrder, leaf_masks, parse_mask, subdivide_by_error, write_trees

# fixed iteration budget keeps decode deterministic and time-bounded
INTRA_SOLVE_ITERS = 160
# The prediction is rounded to whole levels, so the solve stops well short
# of exact: against 1e-4, this tolerance moved all-intra PSNR by at most
# 0.003 dB and the compression ratio by at most 0.08% on 12 seeds of the
# benchmark clip, with 40% fewer CG iterations. 3e-3 saved another 8% of
# the iterations but moved the ratio by up to 0.16%, and 4e-3 by 0.21%.
INTRA_SOLVE_TOL = 2e-3

# The tonal operator's solves stop at this relative residual, in
# float32: the fit needs a close M, not an exact one.
TONAL_SOLVE_TOL = 1e-3
# CGLS steps of the tonal fit (LSQR's, in exact arithmetic). On the
# encoder's masks of 336x144 frames (seeds 11, 21, 31), the fit's error
# under the exact operator came within 0.024% of 12 steps on the exact
# operator at 7 steps, 0.064% at 6, 0.16% at 5 and 0.48% at 4. The
# all-intra streams of seeds 11-71 then moved by at most +0.29% in size
# at 7 steps and +0.44% at 6.
TONAL_ITERS = 7


def _inpainting_operator(mask: np.ndarray):
    """M, the map from mask values (raster order) to the inpainted plane,
    through the cascadic solver at TONAL_SOLVE_TOL, as (matvec, rmatvec).

    With K the mask pixels, I the rest and L the Laplacian, M v = v on K
    and (-L_II)^-1 L_IK v on I: the inpainting of v. L is symmetric, so
    M^T r = r_K + L_KI (-L_II)^-1 r_I = r_K + (L z)_K, where z solves
    (-L_II) z = r_I and is 0 on K. Every solve shares one mask pyramid.
    """
    pyramid = homogeneous.mask_pyramid(mask, homogeneous.solve_dtype(TONAL_SOLVE_TOL))
    pts = _mask_points(mask)

    def matvec(v):
        f = np.zeros(mask.shape)
        f.ravel()[pts] = v.ravel()
        return homogeneous.solve_homogeneous(f, mask, tol=TONAL_SOLVE_TOL, pyramid=pyramid).ravel()

    def rmatvec(r):
        z = homogeneous.solve_source(r.reshape(mask.shape), mask, tol=TONAL_SOLVE_TOL, pyramid=pyramid)
        return r.ravel()[pts] + homogeneous.laplacian(z).ravel()[pts]

    return matvec, rmatvec


def optimize_mask_values(planes, mask: np.ndarray):
    """Refine the stored mask values so the inpainted result, not the
    point samples, is closest to each source plane in least squares.

    Up to TONAL_ITERS CGLS steps (Paige & Saunders, ACM TOMS 1982) on
    _inpainting_operator from the samples, each inner product in
    homogeneous._dot's fixed order. M is exact only to TONAL_SOLVE_TOL,
    so the fit stops once ||M^T r|| has fallen by that factor: past it,
    CGLS fits the solver's error. The last step skips its unread adjoint
    solve. The planes of one group share its mask pyramid. The payload
    format is unchanged: this only picks better values. A full mask
    returns the samples, to keep pure-quantization configurations exact.
    """
    samples = mask_samples(planes, mask)
    if mask.all():
        return samples
    matvec, rmatvec = _inpainting_operator(mask)
    work_k, work_n = np.empty(samples[0].size), np.empty(mask.size)
    out = []
    for plane, x in zip(planes, samples):
        target = np.asarray(plane, dtype=np.float64).ravel()
        r = target - matvec(x)
        p = s = rmatvec(r)
        gamma = start = homogeneous._dot(s, s, work_k)
        for step in range(TONAL_ITERS):
            if gamma <= TONAL_SOLVE_TOL**2 * start:
                break
            q = matvec(p)
            alpha = gamma / homogeneous._dot(q, q, work_n)
            x = x + alpha * p
            if step + 1 < TONAL_ITERS:
                r = r - alpha * q
                s = rmatvec(r)
                gamma, previous = homogeneous._dot(s, s, work_k), gamma
                p = s + (gamma / previous) * p
        # box projection keeps the quantizer span tight and the
        # reconstruction within the source dynamic range
        out.append(np.clip(x, target.min(), target.max()))
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


def mask_samples(planes, mask: np.ndarray):
    """Each plane's float64 samples at the mask points, in payload order:
    the mask values before any tonal fit."""
    pts = _mask_points(mask)
    return [np.asarray(p, dtype=np.float64).ravel()[pts] for p in planes]


def intra_orders(planes):
    """The recorded split order of each plane group's intra search, for
    encode_intra's `orders`: one sort serves every point budget."""
    return [SplitOrder([planes[i] for i in group]) for group in plane_groups(len(planes))]


def encode_intra(planes, luma_budget: int, levels: int, orders=None, fit=True) -> bytes:
    """Build subdivision masks, quantize mask values, serialize the payload.

    Each plane group (frame.plane_groups) writes its tree, then one value
    block per plane; chroma groups take chroma_budget points and
    chroma_levels levels. The integer planes are searched as they are;
    `orders`, intra_orders of the same planes, supplies the searches
    already made. The mask values are the tonal fit's, or with `fit`
    false the raw samples: a cheaper payload of the same layout.
    """
    if luma_budget < 1:
        raise ValueError("luma mask budget must be >= 1")
    planes = [np.asarray(p) for p in planes]
    shape, size = planes[0].shape, planes[0].size
    budget = min(luma_budget, size)
    out = bytearray()
    for gi, group in enumerate(plane_groups(len(planes))):
        chroma = group[0] > 0
        gplanes = [planes[i] for i in group]
        points = chroma_budget(budget, size) if chroma else budget
        if orders is None:
            bits, leaves = subdivide_by_error(gplanes, points)
        else:
            bits, leaves = orders[gi].tree(points)
        write_trees(out, [bits])
        mask = leaf_masks([leaves], shape)[0]
        for vals in (optimize_mask_values if fit else mask_samples)(gplanes, mask):
            out += entropy.encode_value_block(vals, chroma_levels(levels) if chroma else levels)
    return bytes(out)


def decode_intra(data: bytes, pos: int, shape, channels: int, levels: int):
    """Decode an intra payload into float prediction planes.

    The whole payload is read before the first solve, so a corrupt value
    block costs no diffusion work. Returns (planes, next position). Used
    by encoder and decoder alike.
    """
    h, w = shape
    groups = []
    for group in plane_groups(channels):
        (mask,), pos = parse_mask(data, pos, [(w, h)], shape)
        n = int(np.count_nonzero(mask))
        glevels = chroma_levels(levels) if group[0] > 0 else levels
        values = []
        for _ in group:
            vals, pos = entropy.decode_value_block(data, pos, glevels, n)
            values.append(vals)
        groups.append((mask, values))
    planes = []
    for mask, values in groups:
        # the planes of a group share their mask, so they share its pyramid
        pyramid = homogeneous.mask_pyramid(mask, homogeneous.solve_dtype(INTRA_SOLVE_TOL))
        pts = _mask_points(mask)
        for vals in values:
            f = np.zeros(shape)
            f.ravel()[pts] = vals
            planes.append(
                solve_homogeneous(f, mask, tol=INTRA_SOLVE_TOL, max_iter=INTRA_SOLVE_ITERS, pyramid=pyramid)
            )
    return planes, pos


def predict_inter(prev_planes, flow: FlowField):
    """Motion-compensated prediction: sample the previous reconstruction
    at (x + u, y + v) per channel, bilinear with border clamping."""
    return warp_planes(prev_planes, flow.u, flow.v)
