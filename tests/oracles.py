"""Reference implementations that only the tests use.

Dense direct solves and single-block helpers stand next to the codec's
batched production paths so the tests can check one against the other.
The tonal fit through an LU of the full inpainting system, at 12 LSQR
steps, is the reference for the codec's fit on its cascadic solver, and
the same LU measures any fit's error under the exact operator. The Horn-Schunck flow
is the classical baseline for Brox flow. The plain-expression Brox
solver at the end is the reference the in-place production version
must match bit for bit. The subdivision search there is a heap, with
exact Fraction errors on integer planes, where the codec sorts, and
with the codec's region_ssd errors on float planes, where the codec
keeps a heap; it returns its bits and leaves as the codec's does, and
its split sequence. The recursive leaf
enumerator is the reference for the tree walker, and the tile-by-tile
mask walk is the reference for the residual decoder's batched one. The
tile list is the reference for the codec's one tile layout. The
per-tile residual planner, which slices each tile out of the integer
planes, searches it alone and builds its mask from the enumerated
leaves, is the reference for the codec's planner, which gathers the
tiles through one padded view, searches all tiles of a size at once and
builds every mask with leaf_masks. The entropy writer that
codes one value and writes one bit field at a time is the reference for
the array-packing encoder.
"""

import heapq
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse
from scipy.ndimage import gaussian_filter, median_filter
from scipy.sparse.linalg import LinearOperator, lsqr, splu

from hivc import entropy
from hivc.bits import write_uvarint
from hivc.bitstream import CodecError, Truncated
from hivc.entropy import MAX_MAGNITUDE, EntropyError, FseTable, normalize_counts
from hivc.flow import (
    BROX_ALPHA,
    BROX_EPS,
    BROX_FIXED_POINT_ITERS,
    BROX_GAMMA,
    BROX_MIN_SIZE,
    BROX_PRESMOOTH_SIGMA,
    BROX_PYRAMID_SCALE,
    BROX_SOLVER_ITERS,
    BROX_WARPS,
    FlowError,
    FlowField,
    _dx,
    _dy,
    _pyramid_shapes,
    bilinear_warp,
)
from hivc.homogeneous import InpaintingError, bilinear_resize, laplacian
from hivc.prediction import _mask_points, decode_intra, encode_intra
from hivc.pseudodiff import BLOCK, reconstruct_blocks, solve_block_coefficients_batch
from hivc.subdivision import (
    SubdivisionError,
    leaf_means,
    paint_leaf_values,
    split_children,
)

# ---------------------------------------------------------------------------
# Dense inpainting and Green's functions
# ---------------------------------------------------------------------------


def dense_laplacian(width: int, height: int) -> np.ndarray:
    """Dense 5-point reflecting-boundary Laplacian matrix (row-major pixels)."""
    n = width * height
    lap = np.zeros((n, n))
    for yy in range(height):
        for xx in range(width):
            i = yy * width + xx
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = yy + dy, xx + dx
                if 0 <= ny < height and 0 <= nx < width:
                    lap[i, ny * width + nx] += 1.0
                    lap[i, i] -= 1.0
    return lap


def solve_dense(f: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct dense solve of the inpainting system (small planes only)."""
    f = np.asarray(f, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    h, w = f.shape
    n = h * w
    if n > 64 * 64:
        raise ValueError("dense solve limited to small planes")
    lap = dense_laplacian(w, h)
    m = mask.ravel().astype(np.float64)
    # M(u - f) - (I - M) A u = 0 with A = -L  =>  (M + (I - M) L) u = M f
    system = np.diag(m) + (np.eye(n) - np.diag(m)) @ lap
    rhs = m * f.ravel()
    u = np.linalg.solve(system, rhs)
    return u.reshape(h, w)


def apply_inpainting_operator(u: np.ndarray, mask: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual of the inpainting equation: u - f on the mask, Laplacian off it."""
    if u.shape != f.shape or u.shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")
    return np.where(mask, u - f, laplacian(u))


def greens_matrix_dense(width: int, height: int) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of -L, computed without the DCT."""
    if width * height > 256:
        raise ValueError("dense Green's matrix limited to 256 pixels")
    return np.linalg.pinv(-dense_laplacian(width, height))


@dataclass(frozen=True)
class BlockCoefficients:
    """Green's-function weights of one 8x8 block: K coefficients plus a constant."""

    mask: np.ndarray  # 8x8 bool
    c: np.ndarray  # K coefficients, sum(c) == 0
    a: float


def solve_block_coefficients(f_block, mask, g=None) -> BlockCoefficients:
    """Single-block fit of the bordered system [[G_KK, 1], [1^T, 0]] [c; a] = [f_K; 0].

    `g` defaults to the pinv(-L) oracle, so the fit shares no code with
    the codec's batched solver.
    """
    g = greens_matrix_dense(BLOCK, BLOCK) if g is None else g
    pos = np.flatnonzero(mask.ravel())
    k = pos.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = g[np.ix_(pos, pos)]
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    sol = np.linalg.solve(system, np.concatenate([f_block.ravel()[pos], [0.0]]))
    return BlockCoefficients(mask.copy(), sol[:k], float(sol[k]))


def reconstruct_block_dense(coeffs: BlockCoefficients, g=None) -> np.ndarray:
    """G M c + a with G = pinv(-L) from the dense oracle."""
    g = greens_matrix_dense(BLOCK, BLOCK) if g is None else g
    mc = np.zeros(BLOCK * BLOCK)
    mc[np.flatnonzero(coeffs.mask.ravel())] = coeffs.c
    return (g @ mc + coeffs.a).reshape(BLOCK, BLOCK)


def fit_and_reconstruct(f_block, mask):
    """One block through the codec's production fit and reconstruction."""
    c, a = solve_block_coefficients_batch(f_block[None], mask[None])
    mc = np.zeros((1, BLOCK * BLOCK))
    mc[0, np.flatnonzero(mask.ravel())] = c[0]
    return c[0], a[0], reconstruct_blocks(mc.reshape(1, BLOCK, BLOCK), a)[0]


def block_grid(height: int, width: int):
    """Raster-order list of (y0, x0, bh, bw) tiles of size <= 8: the
    reference for the codec's one tile layout, codec._tiles."""
    return [
        (y0, x0, min(BLOCK, height - y0), min(BLOCK, width - x0))
        for y0 in range(0, height, BLOCK)
        for x0 in range(0, width, BLOCK)
    ]


def inpaint_plane_blockwise(residual, block_masks):
    """Independent per-tile fit and reconstruction of a plane.

    `block_masks` holds one 8x8 mask per tile in raster order, or None
    for a tile reconstructed as zero; edge tiles sit top-left in their
    8x8 block and are cropped afterwards.
    """
    h, w = residual.shape
    recon = np.zeros((h, w))
    for (y0, x0, bh, bw), mask in zip(block_grid(h, w), block_masks):
        if mask is None or not mask.any():
            continue
        fb = np.zeros((BLOCK, BLOCK))
        fb[:bh, :bw] = residual[y0 : y0 + bh, x0 : x0 + bw]
        recon[y0 : y0 + bh, x0 : x0 + bw] = fit_and_reconstruct(fb, mask)[2][:bh, :bw]
    return recon


def plan_group(planes, tiles, points):
    """Coded tiles, tree bits, 8x8 masks and float64 blocks of one channel
    group, one tile at a time: the search above runs on each tile's own
    slices of the integer planes, the recursive enumerator
    reads the leaves back from the bits, and each tile is embedded
    top-left into a zero block."""
    coded, trees, masks, blocks = [], [], [], []
    for ti, (y0, x0, bh, bw) in enumerate(tiles):
        subs = [p[y0 : y0 + bh, x0 : x0 + bw] for p in planes]
        if all(not s.any() for s in subs):
            continue
        bits, _ = subdivide_by_error(subs, min(points, bh * bw))
        m = np.zeros((BLOCK, BLOCK), dtype=bool)
        for x, y, w, h in tree_leaves(bits.tolist(), bw, bh):
            m[y + h // 2, x + w // 2] = True
        fb = np.zeros((len(planes), BLOCK, BLOCK))
        fb[:, :bh, :bw] = subs
        coded.append(ti)
        trees.append(bits)
        masks.append(m)
        blocks.append(fb)
    return coded, trees, masks, blocks


# ---------------------------------------------------------------------------
# Prediction, subdivision and entropy references
# ---------------------------------------------------------------------------


def predict_intra(planes, luma_budget: int, levels: int):
    """Closed-loop intra prediction: encode, then decode our own payload."""
    payload = encode_intra(planes, luma_budget, levels)
    shape = np.asarray(planes[0]).shape
    pred, consumed = decode_intra(payload, 0, shape, len(planes), levels)
    assert consumed == len(payload)
    return pred, payload


def _sparse_inpainting_system(mask: np.ndarray):
    """Sparse inpainting system matrix: identity rows on the mask,
    reflecting-boundary 5-point Laplacian rows elsewhere."""
    h, w = mask.shape
    n = h * w
    idx = np.arange(n).reshape(h, w)
    rows, cols, vals = [], [], []
    for a, b in (
        (idx[:-1, :].ravel(), idx[1:, :].ravel()),
        (idx[:, :-1].ravel(), idx[:, 1:].ravel()),
    ):
        one = np.ones(a.size)
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        vals += [one, one, -one, -one]
    lap = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    d = mask.ravel().astype(np.float64)
    return (sparse.diags(d) + sparse.diags(1.0 - d) @ lap).tocsc()


# LSQR steps of the reference fit
TONAL_REFERENCE_ITERS = 12


def optimize_mask_values(planes, mask: np.ndarray):
    """Tonal fit through an LU of the full n x n inpainting system, with
    a transposed solve for the adjoint."""
    pts = _mask_points(mask)
    samples = [np.asarray(p, dtype=np.float64).ravel()[pts] for p in planes]
    if mask.all():
        return samples
    n = mask.size
    lu = splu(_sparse_inpainting_system(mask))

    def matvec(v):
        f = np.zeros(n)
        f[pts] = v
        return lu.solve(f)

    def rmatvec(w):
        return lu.solve(w, trans="T")[pts]

    op = LinearOperator((n, pts.size), matvec=matvec, rmatvec=rmatvec)
    out = []
    for plane, x0 in zip(planes, samples):
        target = np.asarray(plane, dtype=np.float64).ravel()
        v = lsqr(op, target, iter_lim=TONAL_REFERENCE_ITERS, x0=x0.copy())[0]
        # box projection keeps the quantizer span tight and the
        # reconstruction within the source dynamic range
        out.append(np.clip(v, target.min(), target.max()))
    return out


def inpainting_rms(planes, mask: np.ndarray, values) -> list:
    """RMS error of each plane's exact inpainting from its mask values
    (raster order), through one LU of the full inpainting system."""
    pts = _mask_points(mask)
    lu = splu(_sparse_inpainting_system(mask))
    out = []
    for plane, v in zip(planes, values):
        f = np.zeros(mask.size)
        f[pts] = v
        err = lu.solve(f) - np.asarray(plane, dtype=np.float64).ravel()
        out.append(float(np.sqrt(np.mean(err**2))))
    return out


def piecewise_constant_from_leaves(leaves, plane) -> np.ndarray:
    """Region-average approximation of `plane` on a tree's leaves."""
    return paint_leaf_values(leaves, leaf_means(leaves, plane), plane.shape)


# ---------------------------------------------------------------------------
# Entropy coding, one bit and one value at a time
# ---------------------------------------------------------------------------

DEFAULT_TABLE_LOG = 10


def fse_build_table(histogram, table_log: int = DEFAULT_TABLE_LOG) -> FseTable:
    return FseTable(normalize_counts(histogram, table_log), table_log)


class BitWriter:
    """MSB-first bit accumulator; reference for bits.pack_bits."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, count: int):
        acc = (self._acc << count) | (value & ((1 << count) - 1))
        nbits = self._nbits + count
        while nbits >= 8:
            nbits -= 8
            self._bytes.append((acc >> nbits) & 0xFF)
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def __len__(self):
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Byte string, final partial byte zero-padded."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)


def to_category(v: int):
    """(category, extra_bits_value) of a signed integer; bijective.
    Scalar reference for entropy.to_categories."""
    if abs(v) > MAX_MAGNITUDE:
        raise EntropyError(f"magnitude overflow: {v}")
    if v == 0:
        return 0, 0
    k = int(abs(v)).bit_length()
    if v > 0:
        return k, v
    return k, v + (1 << k) - 1


def fse_decode_table(counts, table_log: int):
    """The decoder's (symbol, x, bit count) lists of each slot, one slot
    at a time: the k-th symbol occurrence, symbols in order, goes to slot
    k * step mod size, and the j-th slot of symbol s, in slot order,
    holds x = counts[s] + j, read back with table_log + 1 - bits(x) bits."""
    size = 1 << table_log
    step = (size >> 1) + (size >> 3) + 3
    symbols = [s for s, c in enumerate(counts) for _ in range(c)]
    slot_symbol = [0] * size
    for k, s in enumerate(symbols):
        slot_symbol[(k * step) % size] = s
    seen = [0] * len(counts)
    xs, nbs = [], []
    for s in slot_symbol:
        x = counts[s] + seen[s]
        seen[s] += 1
        xs.append(x)
        nbs.append(table_log + 1 - x.bit_length())
    return slot_symbol, xs, nbs


def fse_encode(symbols, table: FseTable):
    """entropy.fse_encode through a (symbol, x) -> slot dict, writing each
    symbol's bits as it goes; returns (BitWriter, final state)."""
    slot_of = {
        (int(s), int(x)): i for i, (s, x) in enumerate(zip(table.decode_sym, table.decode_x))
    }
    size = 1 << table.table_log
    counts = table.counts
    state = size
    chunks = []
    for s in reversed(symbols):
        c = int(counts[s])
        if c == 0:
            raise EntropyError(f"symbol {s} absent from table")
        nb = state.bit_length() - c.bit_length()
        if (state >> nb) >= 2 * c:
            nb += 1
        elif nb > 0 and (state >> nb) < c:
            nb -= 1
        chunks.append((state & ((1 << nb) - 1), nb))
        state = size + slot_of[(s, state >> nb)]
    writer = BitWriter()
    for value, nb in reversed(chunks):
        writer.write_bits(value, nb)
    return writer, state


def encode_symbols(symbols) -> bytes:
    """entropy.encode_symbols over Python ints and the scalar fse_encode."""
    symbols = [int(s) for s in symbols]
    hist = np.bincount(symbols) if symbols else np.array([1])
    table_log = entropy._auto_table_log(hist.size, len(symbols))
    counts = normalize_counts(hist, table_log)
    if symbols:
        writer, state = fse_encode(symbols, FseTable(counts, table_log))
    else:
        writer, state = BitWriter(), 1 << table_log
    out = bytearray()
    write_uvarint(out, counts.size)
    for c in counts:
        write_uvarint(out, int(c))
    out += struct.pack("<H", state)
    out += writer.getvalue()
    return bytes(out)


def encode_signed_values(values) -> bytes:
    """entropy.encode_signed_values, one value at a time."""
    cats = []
    extra = BitWriter()
    for v in values:
        k, bits = to_category(int(v))
        cats.append(k)
        if k:
            extra.write_bits(bits, k)
    return encode_symbols(cats) + extra.getvalue()


def from_category(category: int, extra: int) -> int:
    """Scalar inverse of to_category; reference for the vectorized decode."""
    if category == 0:
        return 0
    if category > 16:
        raise EntropyError(f"bad category {category}")
    half = 1 << (category - 1)
    if extra >= half:
        return extra
    return extra - (1 << category) + 1


# ---------------------------------------------------------------------------
# Flow baseline
# ---------------------------------------------------------------------------


def flow_horn_schunck(
    frame_t: np.ndarray, frame_prev: np.ndarray, alpha: float = 15.0, iterations: int = 400
) -> FlowField:
    """Classical quadratic-penalty flow, Jacobi iterations on the
    Euler-Lagrange equations."""
    im1 = np.asarray(frame_t, dtype=np.float64)
    im2 = np.asarray(frame_prev, dtype=np.float64)
    if im1.shape != im2.shape:
        raise FlowError("frame shape mismatch")
    if not (np.isfinite(im1).all() and np.isfinite(im2).all()):
        raise FlowError("non-finite input planes")
    fx = 0.5 * (_dx(im1) + _dx(im2))
    fy = 0.5 * (_dy(im1) + _dy(im2))
    ft = im2 - im1
    u = np.zeros_like(im1)
    v = np.zeros_like(im1)
    kernel_avg = np.array([[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]])

    def local_avg(a):
        p = np.pad(a, 1, mode="edge")
        out = np.zeros_like(a)
        for dy in range(3):
            for dx in range(3):
                k = kernel_avg[dy, dx]
                if k:
                    out += k * p[dy : dy + a.shape[0], dx : dx + a.shape[1]]
        return out

    denom = alpha * alpha + fx * fx + fy * fy
    for _ in range(iterations):
        ua = local_avg(u)
        va = local_avg(v)
        common = (fx * ua + fy * va + ft) / denom
        u = ua - fx * common
        v = va - fy * common
    return FlowField(u, v)


# ---------------------------------------------------------------------------
# Brox flow and subdivision search, as plain expressions
# ---------------------------------------------------------------------------


def _neighbor_sums(field, weights_n, weights_s, weights_w, weights_e):
    """Sum of w_nb * field_nb over the 4-neighborhood (reflecting edges)."""
    p = np.pad(field, 1, mode="edge")
    return (
        weights_n * p[:-2, 1:-1]
        + weights_s * p[2:, 1:-1]
        + weights_w * p[1:-1, :-2]
        + weights_e * p[1:-1, 2:]
    )


def _half_point_weights(psi):
    p = np.pad(psi, 1, mode="edge")
    wn = 0.5 * (psi + p[:-2, 1:-1])
    ws = 0.5 * (psi + p[2:, 1:-1])
    ww = 0.5 * (psi + p[1:-1, :-2])
    we = 0.5 * (psi + p[1:-1, 2:])
    # no flux across the image border
    wn[0, :] = 0.0
    ws[-1, :] = 0.0
    ww[:, 0] = 0.0
    we[:, -1] = 0.0
    return wn, ws, ww, we


def flow_brox(frame_t: np.ndarray, frame_prev: np.ndarray) -> FlowField:
    """Backward flow from frame_t to frame_prev, coarse-to-fine with warping."""
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

        for _ in range(BROX_WARPS):
            warped = bilinear_warp(tgt, u, v)
            ix = 0.5 * (_dx(warped) + _dx(ref))
            iy = 0.5 * (_dy(warped) + _dy(ref))
            iz = warped - ref
            ixx = _dx(ix)
            ixy = _dy(ix)
            iyy = _dy(iy)
            ixz = _dx(warped) - _dx(ref)
            iyz = _dy(warped) - _dy(ref)
            du = np.zeros_like(u)
            dv = np.zeros_like(v)
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
                wn, ws, ww, we = _half_point_weights(psi_s)
                wsum = wn + ws + ww + we

                a11 = psi_d * ix * ix + psi_g * (ixx * ixx + ixy * ixy) + BROX_ALPHA * wsum
                a12 = psi_d * ix * iy + psi_g * (ixx * ixy + ixy * iyy)
                a22 = psi_d * iy * iy + psi_g * (ixy * ixy + iyy * iyy) + BROX_ALPHA * wsum
                b1_fix = -psi_d * ix * iz - psi_g * (ixx * ixz + ixy * iyz)
                b2_fix = -psi_d * iy * iz - psi_g * (ixy * ixz + iyy * iyz)
                su = _neighbor_sums(u, wn, ws, ww, we) - wsum * u
                sv = _neighbor_sums(v, wn, ws, ww, we) - wsum * v

                det_guard = 1e-12
                for _ in range(BROX_SOLVER_ITERS):
                    b1 = b1_fix + BROX_ALPHA * (su + _neighbor_sums(du, wn, ws, ww, we))
                    b2 = b2_fix + BROX_ALPHA * (sv + _neighbor_sums(dv, wn, ws, ww, we))
                    det = a11 * a22 - a12 * a12
                    det = np.where(np.abs(det) < det_guard, det_guard, det)
                    du_new = (a22 * b1 - a12 * b2) / det
                    dv_new = (a11 * b2 - a12 * b1) / det
                    du = 0.5 * du + 0.5 * du_new  # damped Jacobi
                    dv = 0.5 * dv + 0.5 * dv_new
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


def subdivide_by_error(planes, target_points: int, min_error=None):
    """Greedy split of the worst-error leaf until `target_points` leaves exist.

    The tree of greedy_splits. Returns (preorder bits as a uint8 array,
    leaves in preorder).
    """
    h_img, w_img = planes[0].shape
    if target_points < 1:
        raise SubdivisionError("target_points must be >= 1")
    if target_points > w_img * h_img:
        raise SubdivisionError("target_points exceeds pixel count")
    return tree_of_splits((0, 0, w_img, h_img), greedy_splits(planes, target_points, min_error))


def greedy_splits(planes, target_points: int, min_error=None):
    """The rectangles the greedy search splits, in the order it splits them.

    A region's error is the sum over `planes` of its squared deviations
    from its mean. When every plane has an integer dtype, the error is
    the exact Fraction (n * sum(x^2) - sum(x)^2) / n, from Python ints;
    the codec's sorted search orders its errors exactly too. Otherwise it
    is the sum of region_ssd. Ties break deterministically by (y, x,
    creation order). Single-pixel leaves sink to the bottom of the
    queue since they cannot be split. With `min_error` set, splitting
    stops early once the worst leaf error drops to that value or below,
    so exactly representable planes yield small trees. The loop reads
    `target_points` only to stop, so the splits of a smaller target are
    a prefix of these.
    """
    h_img, w_img = planes[0].shape
    exact = all(np.issubdtype(np.asarray(p).dtype, np.integer) for p in planes)
    rows = [np.asarray(p).tolist() for p in planes] if exact else None

    def exact_ssd(x, y, w, h):
        err = Fraction(0)
        for plane in rows:
            values = [v for row in plane[y : y + h] for v in row[x : x + w]]
            n = len(values)
            err += Fraction(n * sum(v * v for v in values) - sum(values) ** 2, n)
        return err

    def priority(rect, seq):
        x, y, w, h = rect
        if w == 1 and h == 1:
            err = -1
        elif exact:
            err = exact_ssd(x, y, w, h)
        else:
            err = sum(region_ssd(p, x, y, w, h) for p in planes)
        return (-err, y, x, seq)

    root = (0, 0, w_img, h_img)
    seq = 0
    heap = [(*priority(root, seq), root)]
    splits = []
    while len(splits) + 1 < target_points:
        neg_err, *_, rect = heapq.heappop(heap)
        if min_error is not None and -neg_err <= min_error:
            break
        splits.append(rect)
        for child in split_children(*rect):
            seq += 1
            heapq.heappush(heap, (*priority(child, seq), child))
    return splits


def tree_of_splits(root, splits):
    """(preorder bits as a uint8 array, leaves in preorder) of the tree
    over `root` whose split rectangles are `splits`."""
    split = set(splits)
    bits, leaves = [], []
    stack = [root]
    while stack:
        rect = stack.pop()
        if rect in split:
            bits.append(1)
            first, second = split_children(*rect)
            stack += [second, first]
        else:
            bits.append(0)
            leaves.append(rect)
    return np.array(bits, dtype=np.uint8), leaves


def tree_leaves(bits, width: int, height: int):
    """Leaf rectangles of a tree whose preorder bits are exactly `bits`.

    Recursive, on split_children, and independent of the codec's tree
    walker. Raises IndexError when the bits run out and ValueError when
    bits remain after the tree.
    """
    leaves = []
    pos = 0

    def walk(rect):
        nonlocal pos
        bit = bits[pos]
        pos += 1
        if bit:
            for child in split_children(*rect):
                walk(child)
        else:
            leaves.append(rect)

    walk((0, 0, width, height))
    if pos != len(bits):
        raise ValueError("bits left after the tree")
    return leaves


def tile_masks(bits, sizes) -> np.ndarray:
    """Residual tile masks read one tile at a time, one mask per tile.

    For each (width, height) in `sizes`, walks the next tree of the bit
    iterator `bits` on split_children and sets each leaf's floor
    midpoint in that tile's own (8, 8) mask. Raises CodecError on a
    split of a single pixel and Truncated when the bits run out, as the
    codec's walker does.
    """
    masks = np.zeros((len(sizes), BLOCK, BLOCK), dtype=bool)
    for mask, (width, height) in zip(masks, sizes):
        stack = [(0, 0, width, height)]
        while stack:
            bit = next(bits, None)
            if bit is None:
                raise Truncated("tree bits run out")
            x, y, w, h = stack.pop()
            if bit:
                if w == h == 1:
                    raise CodecError("cannot split a single pixel")
                first, second = split_children(x, y, w, h)
                stack += [second, first]
            else:
                mask[y + h // 2, x + w // 2] = True
    return masks


def region_ssd(plane: np.ndarray, x: int, y: int, w: int, h: int) -> float:
    region = plane[y : y + h, x : x + w]
    return float(np.sum((region - region.mean()) ** 2))

