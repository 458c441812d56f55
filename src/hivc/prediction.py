"""Per-frame prediction signals.

Intra frames: sparse mask values picked by rectangular subdivision,
tonally optimised, uniformly quantized, reconstructed by global
homogeneous diffusion inpainting. Chroma channels share one mask with
half the luma budget. The tonal fit and the inpainting run the one CG
loop of homogeneous, to the tolerances and bounds set here.
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


def optimize_mask_values(planes, mask: np.ndarray):
    """Refine the stored mask values so the inpainted result, not the
    point samples, is closest to each source plane in least squares.

    Each plane's values are those of its homogeneous.fitted_plane on
    the mask, which runs the cascade's CG loop on the fit's optimality
    system to TONAL_TOL and makes no diffusion solve. The payload format
    is unchanged: this only picks better values. On a full mask the CG
    takes no step and the samples return exactly, so pure-quantization
    configurations stay exact.
    """
    pts = _mask_points(mask)
    interior = (~mask).astype(np.float32)
    work = np.empty(mask.shape, dtype=np.float32)
    out = []
    for plane in planes:
        f = np.asarray(plane, dtype=np.float64)
        # box projection keeps the quantizer span tight and the
        # reconstruction within the source dynamic range
        u = homogeneous.fitted_plane(f, interior, TONAL_TOL, TONAL_MAX_ITERS, work)
        out.append(np.clip(u.ravel()[pts], f.min(), f.max()))
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


def intra_orders(planes):
    """The recorded split order of each plane group's intra search, for
    encode_intra's `orders`: one sort serves every point budget."""
    return [SplitOrder([planes[i] for i in group]) for group in plane_groups(len(planes))]


def _intra_groups(planes, luma_budget: int, levels: int, orders):
    """Yield each plane group's (planes, tree bits, mask, level count),
    by the group rules of encode_intra."""
    if luma_budget < 1:
        raise ValueError("luma mask budget must be >= 1")
    planes = [np.asarray(p) for p in planes]
    shape, size = planes[0].shape, planes[0].size
    budget = min(luma_budget, size)
    for gi, group in enumerate(plane_groups(len(planes))):
        chroma = group[0] > 0
        gplanes = [planes[i] for i in group]
        points = chroma_budget(budget, size) if chroma else budget
        if orders is None:
            bits, leaves = subdivide_by_error(gplanes, points)
        else:
            bits, leaves = orders[gi].tree(points)
        yield gplanes, bits, leaf_masks([leaves], shape)[0], chroma_levels(levels) if chroma else levels


def encode_intra(planes, luma_budget: int, levels: int, orders=None) -> bytes:
    """Build subdivision masks, quantize mask values, serialize the payload.

    Each plane group (frame.plane_groups) writes its tree, then one value
    block per plane; chroma groups take chroma_budget points and
    chroma_levels levels. The integer planes are searched as they are;
    `orders`, intra_orders of the same planes, supplies the searches
    already made. The mask values are optimize_mask_values' tonal fit.
    """
    out = bytearray()
    for gplanes, bits, mask, glevels in _intra_groups(planes, luma_budget, levels, orders):
        write_trees(out, [bits])
        for vals in optimize_mask_values(gplanes, mask):
            out += entropy.encode_value_block(vals, glevels)
    return bytes(out)


def intra_bytes(planes, luma_budget: int, levels: int, orders) -> int:
    """The size that encode_intra's payload is predicted to take, for
    rate control. Its tree sections count exactly; each value block is
    counted as that of the mask's point samples, so no fit is made. On a
    full mask the fit returns the samples, and the count is exact."""
    n = 0
    for gplanes, bits, mask, glevels in _intra_groups(planes, luma_budget, levels, orders):
        pts = _mask_points(mask)
        n += -(-len(bits) // 8)
        n += sum(len(entropy.encode_value_block(p.ravel()[pts], glevels)) for p in gplanes)
    return n


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
