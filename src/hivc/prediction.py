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

import math

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

# The tonal fit's CG stops at this relative residual of its optimality
# system, in float32. At 3e-3 and 2e-3 it stopped 1.4% short of the
# least-squares optimum on one plane of a single-corner mask; from
# 1.5e-3 down it came within 3e-5 of the optimum on every test mask, so
# this stop stays 5x clear of that edge.
TONAL_TOL = 3e-4
# A bound on the fit's CG steps that no mask of the benchmark or the
# tests reaches (98-231 steps a plane on 336x144 frames, at most 628 on
# the test masks): it only bounds the time of a pathological mask.
TONAL_MAX_ITERS = 2000


def _fitted_plane(plane: np.ndarray, interior: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The inpainted plane u closest to `plane` (f) in least squares.

    u minimises ||u - f|| subject to B u = 0, where B is the rows of the
    Laplacian L off the mask: the planes that solve the inpainting
    equation off the mask are exactly the inpaintings of their own mask
    values. So u = f - B^T lam, with B B^T lam = B f (Mainberger et al.,
    SSVM 2011). B^T lam is L applied to lam, which is 0 on the mask.
    CG on that system runs in float32 with two Laplacians a step and
    every inner product in homogeneous._dot's fixed order, until the
    residual is at most TONAL_TOL times ||B f|| or after TONAL_MAX_ITERS
    steps. `interior` is the float32 non-mask indicator, `work` a
    float32 plane of its shape. Returns u in float64.
    """
    b = homogeneous.laplacian(plane.astype(np.float32))
    b *= interior
    lam = np.zeros_like(b)
    r, p, q, lap_p = b, b.copy(), np.empty_like(b), np.empty_like(b)
    rs = homogeneous._dot(r, r, work)
    limit = TONAL_TOL * math.sqrt(rs)
    for _ in range(TONAL_MAX_ITERS):
        if math.sqrt(rs) <= limit:
            break
        # q = B B^T p: p is 0 on the mask, so B^T p is L p
        np.multiply(homogeneous.laplacian(homogeneous.laplacian(p, lap_p), q), interior, out=q)
        pq = homogeneous._dot(p, q, work)
        if pq <= 0.0:
            break
        alpha = rs / pq
        lam += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        rs_new = homogeneous._dot(r, r, work)
        p *= rs_new / rs
        p += r
        rs = rs_new
    return plane - homogeneous.laplacian(lam)


def optimize_mask_values(planes, mask: np.ndarray):
    """Refine the stored mask values so the inpainted result, not the
    point samples, is closest to each source plane in least squares.

    Each plane's values are those of its _fitted_plane on the mask,
    which costs no diffusion solve. The payload format is unchanged:
    this only picks better values. A full mask returns the samples, to
    keep pure-quantization configurations exact.
    """
    if mask.all():
        return mask_samples(planes, mask)
    pts = _mask_points(mask)
    interior = (~mask).astype(np.float32)
    work = np.empty(mask.shape, dtype=np.float32)
    out = []
    for plane in planes:
        f = np.asarray(plane, dtype=np.float64)
        # box projection keeps the quantizer span tight and the
        # reconstruction within the source dynamic range
        out.append(np.clip(_fitted_plane(f, interior, work).ravel()[pts], f.min(), f.max()))
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
