"""Rectangular subdivision trees for adaptive data selection.

A tree recursively halves the longer side of its root rectangle (ties
split the width). Structure is stored as a depth-first preorder bit
sequence (1 = split, 0 = leaf); the split geometry is deterministic, so
root dimensions plus bits reconstruct the tree exactly. Leaves are
always enumerated in preorder, which fixes the order of leaf payloads
in every serialized payload.

Both directions share one interface. The encoder's search,
subdivide_by_error, returns a tree's preorder bits and its leaves
together, and write_trees stores a section of trees, their bits alone,
zero-padded to a byte. The decoder reads a section back, bounded,
walked and closed in one call, with deserialize_tree (one tree) or
parse_mask (any number of trees).
leaf_masks is the one builder of midpoint masks: the encoder calls it
on the leaves of its search, and parse_mask on the leaves it reads.

The search splits the leaf of largest error until the tree has its
points. On integer planes it is one sorted order (SplitOrder): every
node of the complete split tree, sorted once by exact error, holds the
splits of every point budget as prefixes, so the intra planes of a
group head are sorted once for all rate-control passes, and all
residual tiles of one size are sorted together. Float planes (flow
fields) keep a heap of region_ssd errors, which has the stopping rule
their constant regions need.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from hivc.bits import iter_bits, read_bits
from hivc.bitstream import MAX_PIXELS, CodecError, Truncated


class SubdivisionError(ValueError):
    pass


def split_children(x: int, y: int, w: int, h: int):
    """Children of a rectangle: halve the longer side, ties halve width."""
    if w < 1 or h < 1:
        raise SubdivisionError(f"degenerate rectangle {w}x{h}")
    if w == 1 and h == 1:
        raise SubdivisionError("cannot split a single pixel")
    if h > w:
        h1 = (h + 1) // 2
        return (x, y, w, h1), (x, y + h1, w, h - h1)
    w1 = (w + 1) // 2
    return (x, y, w1, h), (x + w1, y, w - w1, h)


def subdivide_by_error(planes, target_points: int, min_error=None):
    """Greedy split of the worst-error leaf until `target_points` leaves exist.

    A region's error is its sum of squared deviations from its mean,
    summed over `planes`, which share one shape. Ties break by (y, x,
    creation order). Returns (bits, leaves): the preorder bits as a
    uint8 array and the leaf rectangles (x, y, w, h) in preorder.

    Integer planes take SplitOrder's sorted order, with exact errors.
    Their arrays may carry a leading tile axis, (tiles, h, w): every tile
    is then searched at once, and the result is (bits, leaves) as arrays
    of shape (tiles, 2 * target_points - 1) and (tiles, target_points, 4).
    Any other planes take the heap below, with region_ssd's float errors;
    there, with `min_error` set, splitting stops early once the worst
    leaf error drops to that value or below, so exactly representable
    planes yield small trees.
    """
    planes = [np.asarray(p) for p in planes]
    if all(np.issubdtype(p.dtype, np.integer) for p in planes):
        if min_error is not None:
            raise SubdivisionError("min_error applies to float planes only")
        return SplitOrder(planes, target_points).tree(target_points)
    if planes[0].ndim != 2:
        raise SubdivisionError("only integer planes may carry a tile axis")
    return _greedy_search(planes, target_points, min_error)


def _check_target(target_points: int, pixels: int):
    if target_points < 1:
        raise SubdivisionError("target_points must be >= 1")
    if target_points > pixels:
        raise SubdivisionError("target_points exceeds pixel count")


def _greedy_search(planes, target_points: int, min_error):
    """The greedy search on a heap, one region_ssd per node and plane.

    Single-pixel leaves sink to the bottom of the queue since they
    cannot be split.
    """
    plane, *rest = planes
    h_img, w_img = plane.shape
    _check_target(target_points, w_img * h_img)
    root = (0, 0, w_img, h_img)
    # read from the module once per search, so a wrapper set on
    # subdivision.region_ssd sees every call
    ssd = region_ssd

    def entry(rect, seq):
        x, y, w, h = rect
        if w == 1 and h == 1:
            err = -1.0
        else:
            err = ssd(plane, x, y, w, h)
            for p in rest:
                err += ssd(p, x, y, w, h)
        return (-err, y, x, seq, rect)

    # the root is split first whatever its error, so only the stopping
    # rule ever reads it
    heap = [entry(root, 0) if min_error is not None else (0.0, 0, 0, 0, root)]
    # nodes: rect -> (first_rect, second_rect) for internal nodes
    children = {}
    push, pop = heapq.heappush, heapq.heappop
    for seq in range(1, 2 * target_points - 1, 2):
        neg_err, _, _, _, rect = pop(heap)
        if min_error is not None and -neg_err <= min_error:
            break
        first, second = children[rect] = split_children(*rect)
        push(heap, entry(first, seq))
        push(heap, entry(second, seq + 1))

    bits, leaves = [], []
    stack = [root]
    while stack:
        rect = stack.pop()
        kids = children.get(rect)
        if kids is None:
            bits.append(0)
            leaves.append(rect)
        else:
            bits.append(1)
            stack.append(kids[1])
            stack.append(kids[0])
    return np.array(bits, dtype=np.uint8), leaves


# ---------------------------------------------------------------------------
# The search over integer planes as one sorted order
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1


def node_sum_bound(pixels: int, spans) -> int:
    """Largest joint error numerator of a search over `pixels` pixels.

    spans[i] = (lo, hi) bounds plane i. SplitOrder centres each plane on
    (lo + hi) // 2, so no value lies further than a = ceil((hi - lo) / 2)
    from 0, and every int64 it forms, n * sum(x^2), sum(x)^2 and their
    sum over planes, stays within sum(pixels^2 * a^2). At
    bitstream.MAX_PIXELS (3840 x 2160 = 8,294,400 pixels):

    - Y, frame.Y_RANGE (a = 128): 1.127e18;
    - U and V jointly, frame.UV_RANGE (a = 255): 8.947e18, 3.0% below
      INT64_MAX = 9.223e18;
    - an 8x8 residual tile of U and V, whose values span twice
      UV_RANGE (a = 510): 2.13e9.
    """
    return sum(pixels * pixels * (-((lo - hi) // 2)) ** 2 for lo, hi in spans)


@dataclass(frozen=True)
class _SplitTable:
    """Every node of the complete split tree of a width x height root.

    rect holds each node's (x, y, w, h) and parent its parent's index,
    in preorder: the root, then its first child's subtree, then its
    second's. inner lists the nodes that can split (more than one pixel)
    in (y, x, depth) order, the search's tie-break; nodes at one (x, y)
    are a chain of first children, so depth stands in for creation order.
    """

    width: int
    height: int
    rect: np.ndarray  # (2 * width * height - 1, 4) uint16
    parent: np.ndarray  # (2 * width * height - 1,) int32
    inner: np.ndarray  # (width * height - 1,) int32

    @property
    def nbytes(self) -> int:
        return self.rect.nbytes + self.parent.nbytes + self.inner.nbytes


# Split tables kept between searches, least recently used first, and the
# bytes they may hold together. A table takes about 28 B per pixel: one
# FullHD table (58,060,784 B) fits, and takes 0.6-0.8 s to build; a
# table larger than the budget is built for each search and not kept.
SPLIT_TABLE_CACHE_BYTES = 64 << 20
_split_tables: OrderedDict = OrderedDict()
_split_tables_lock = threading.Lock()


def _split_table(width: int, height: int) -> _SplitTable:
    """The split table of a width x height root, from the cache when it
    holds one; the least recently used tables leave it while its tables
    exceed SPLIT_TABLE_CACHE_BYTES."""
    key = (width, height)
    with _split_tables_lock:
        table = _split_tables.pop(key, None)
    if table is None:
        table = _build_split_table(width, height)
    if table.nbytes > SPLIT_TABLE_CACHE_BYTES:
        return table
    with _split_tables_lock:
        _split_tables[key] = table
        while sum(t.nbytes for t in _split_tables.values()) > SPLIT_TABLE_CACHE_BYTES:
            _split_tables.popitem(last=False)
    return table


def _build_split_table(width: int, height: int) -> _SplitTable:
    """The split table of a width x height root, built one depth level
    at a time with split_children's rule. A subtree over a pixels has
    2a - 1 nodes, so a second child sits 2 * (first child's pixels)
    after its parent in preorder."""
    nodes = 2 * width * height - 1
    rect = np.empty((nodes, 4), dtype=np.uint16)
    parent = np.zeros(nodes, dtype=np.int32)
    depth = np.empty(nodes, dtype=np.uint8)
    x = y = pre = par = np.zeros(1, dtype=np.int32)
    w, h = np.array([width], dtype=np.int32), np.array([height], dtype=np.int32)
    level = 0
    while pre.size:
        rect[pre] = np.stack([x, y, w, h], axis=1)
        parent[pre] = par
        depth[pre] = level
        split = (w > 1) | (h > 1)
        x, y, w, h, pre = x[split], y[split], w[split], h[split], pre[split]
        tall = h > w
        w1 = np.where(tall, w, (w + 1) // 2)
        h1 = np.where(tall, (h + 1) // 2, h)
        x = np.concatenate([x, np.where(tall, x, x + w1)])
        y = np.concatenate([y, np.where(tall, y + h1, y)])
        w, h = np.concatenate([w1, w - w1 * ~tall]), np.concatenate([h1, h - h1 * tall])
        par = np.concatenate([pre, pre])
        pre = np.concatenate([pre + 1, pre + 2 * w1 * h1])
        level += 1
    inner = np.flatnonzero((rect[:, 2] > 1) | (rect[:, 3] > 1)).astype(np.int32)
    rx, ry = rect[inner, 0].astype(np.int64), rect[inner, 1].astype(np.int64)
    tie = ((ry * width + rx) << 6) | depth[inner]
    inner = inner[np.argsort(tie, kind="stable")]
    for a in (rect, parent, inner):
        a.setflags(write=False)  # shared by every search of this shape
    return _SplitTable(width, height, rect, parent, inner)


class SplitOrder:
    """Every split of the greedy search over integer planes, in order.

    Splitting the worst leaf takes nodes in one fixed order, because a
    child's error never exceeds its parent's: sort every node that can
    split by (-error, y, x, depth) and a parent always comes before its
    children, so the leaf the search splits next is always the first
    unsplit node of the sorted list. The tree of N points is therefore
    the first N - 1 nodes of one order, and tree(N) cuts that prefix for
    any N: one order serves every point budget.

    A node's error is (n * sum(x^2) - sum(x)^2) / n over its n pixels,
    summed over the planes, with both sums exact int64 differences of
    summed-area tables (Crow, SIGGRAPH 1984). The sort key is the
    quotient and the remainder over n of that division, so the order is
    exact: n is at most bitstream.MAX_PIXELS < 2^23, two distinct
    fractions r / n differ by more than 2^-46, and float64 rounds them
    to distinct values, equal fractions to equal ones. Planes larger
    than a stream's frame, or whose values could overflow int64
    (node_sum_bound), raise SubdivisionError. Planes of shape
    (tiles, h, w) get one order per tile. `points`, when given, is the
    largest tree that will be asked for: a tree of one point is its
    root, and needs no error at all.
    """

    def __init__(self, planes, points=None):
        planes = [np.asarray(p) for p in planes]
        self.batched = planes[0].ndim == 3
        if not self.batched:
            planes = [p[None] for p in planes]
        if any(p.ndim != 3 or p.shape != planes[0].shape for p in planes):
            raise SubdivisionError("planes must share one 2-d shape, after any tile axis")
        tiles, height, width = planes[0].shape
        if width < 1 or height < 1:
            raise SubdivisionError(f"degenerate rectangle {width}x{height}")
        pixels = width * height
        if width > 0xFFFF or height > 0xFFFF or pixels > MAX_PIXELS:
            raise SubdivisionError(f"{width}x{height} exceeds the stream's frame limits")
        spans = [(int(p.min()), int(p.max())) if p.size else (0, 0) for p in planes]
        if node_sum_bound(pixels, spans) > INT64_MAX:
            raise SubdivisionError(
                f"values spanning {spans} overflow int64 node sums over {pixels} pixels"
            )
        self.table = table = _split_table(width, height)
        if points == 1:
            self.order = np.zeros((tiles, 0), dtype=np.int32)
            return
        x, y, w, h = table.rect[table.inner].T.astype(np.intp)
        # each node's four corners in the flattened summed-area table
        top = y * (width + 1) + x
        bottom = top + h * (width + 1)
        top_right, bottom_right = top + w, bottom + w
        n = w * h
        num = np.zeros((tiles, table.inner.size), dtype=np.int64)
        sat = np.zeros((tiles, height + 1, width + 1), dtype=np.int64)
        flat = sat.reshape(tiles, -1)
        for p, (lo, hi) in zip(planes, spans):
            v = p.astype(np.int64) - (lo + hi) // 2
            sums = []
            for values in (v, v * v):
                sat[:, 1:, 1:] = values.cumsum(axis=1).cumsum(axis=2)
                sums.append(flat[:, bottom_right] - flat[:, bottom] - flat[:, top_right] + flat[:, top])
            s1, s2 = sums
            num += n * s2 - s1 * s1
        q, r = np.divmod(num, n)
        # a stable sort keeps equal errors in table.inner's tie order
        self.order = table.inner[np.lexsort((-(r / n), -q), axis=-1)]

    def tree(self, target_points: int):
        """(bits, leaves) of the search stopped at `target_points` leaves,
        as subdivide_by_error returns them."""
        table = self.table
        _check_target(target_points, table.width * table.height)
        if target_points > self.order.shape[1] + 1:
            raise SubdivisionError("target_points exceeds the points the order was made for")
        tiles = len(self.order)
        split = np.zeros((tiles, len(table.parent)), dtype=bool)
        np.put_along_axis(split, self.order[:, : target_points - 1], True, axis=1)
        # a node is in the tree when its parent splits; the table is in
        # preorder, so the tree's nodes come out in its preorder
        present = np.ones_like(split)
        present[:, 1:] = split[:, table.parent[1:]]
        bits = split[present].view(np.uint8).reshape(tiles, 2 * target_points - 1)
        present &= ~split
        leaves = table.rect[np.nonzero(present)[1]].astype(np.intp).reshape(tiles, target_points, 4)
        if self.batched:
            return bits, leaves
        return bits[0], list(map(tuple, leaves[0].tolist()))


def region_ssd(plane: np.ndarray, x: int, y: int, w: int, h: int) -> float:
    """Sum of squared deviations from the region mean.

    The same reductions as float(np.sum((region - region.mean()) ** 2)),
    called directly: this runs hundreds of thousands of times per encode,
    and the wrappers around them cost more than the arithmetic.
    """
    region = plane[y : y + h, x : x + w]
    dev = region - np.add.reduce(region, axis=None, dtype=np.float64) / region.size
    return float(np.add.reduce(np.multiply(dev, dev, out=dev), axis=None))


def leaf_masks(trees, shape) -> np.ndarray:
    """Midpoint masks of lists of leaves, one per tree, as one array.

    Tree i's leaves sit at the top-left of a mask of `shape`; the result
    has shape (len(trees), *shape) and holds one point at the floor
    midpoint of each leaf. `trees` may also be a (trees, leaves, 4) array.
    """
    if isinstance(trees, np.ndarray):
        counts = [trees.shape[1]] * len(trees)
        flat = trees
    else:
        counts = [len(leaves) for leaves in trees]
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(trees)), dtype=np.intp, count=4 * sum(counts)
        )
    x, y, w, h = flat.reshape(-1, 4).T
    masks = np.zeros((len(trees), *shape), dtype=bool)
    masks[np.repeat(np.arange(len(trees)), counts), y + h // 2, x + w // 2] = True
    return masks


def leaf_means(leaves, plane: np.ndarray) -> np.ndarray:
    """Mean of `plane` over each leaf, in the order of `leaves`."""
    return np.array(
        [plane[y : y + h, x : x + w].mean() for x, y, w, h in leaves], dtype=np.float64
    )


def paint_leaf_values(leaves, values, shape) -> np.ndarray:
    """Plane of `shape` that is constant on each leaf, from preorder leaf values."""
    if len(values) != len(leaves):
        raise SubdivisionError("leaf value count mismatch")
    out = np.empty(shape, dtype=np.float64)
    for (x, y, w, h), v in zip(leaves, values):
        out[y : y + h, x : x + w] = v
    return out


def write_trees(out: bytearray, trees):
    """Append one tree section holding `trees`, their preorder bit arrays
    one after another, zero-padded to a byte."""
    out += np.packbits(np.concatenate([np.zeros(0, dtype=np.uint8), *trees])).tobytes()


def _read_trees(data: bytes, pos: int, sizes):
    """Leaves of the tree section at `pos`; returns (trees, next position).

    trees[i] lists the leaves (x, y, w, h), in preorder, of a tree over
    sizes[i] = (width, height). The section ends at the last tree's last
    leaf, after sum(2 * leaves - 1) bits, and read_bits closes it. A tree
    over n pixels has at most 2n - 1 nodes, and iter_bits unpacks no more.
    Bits that run out raise Truncated, a set padding bit after the last
    tree LengthMismatch, a split of a single pixel CodecError, and a
    degenerate root, which the caller gives, SubdivisionError.
    """
    max_bits = 0
    for width, height in sizes:
        if width < 1 or height < 1:
            raise SubdivisionError(f"degenerate rectangle {width}x{height}")
        max_bits += 2 * width * height - 1
    walk = iter_bits(data, pos, max_bits)
    trees = [_walk_tree(walk, width, height) for width, height in sizes]
    _, pos = read_bits(data, pos, 2 * sum(map(len, trees)) - len(trees))
    return trees, pos


def _walk_tree(bits, width: int, height: int):
    """Leaves of the next tree in the bit iterator `bits`, in preorder.

    The walk consumes exactly one tree. Splits are split_children's,
    inlined: a split descends into the first child at once and stacks
    the second, and no child of a rectangle of at least one pixel is
    degenerate.
    """
    leaves = []
    stack = []
    push, pop = stack.append, stack.pop
    rect = (0, 0, width, height)
    for bit in bits:
        if bit:
            x, y, w, h = rect
            if h > w:
                h1 = (h + 1) // 2
                push((x, y + h1, w, h - h1))
                rect = (x, y, w, h1)
            elif w > 1:
                w1 = (w + 1) // 2
                push((x + w1, y, w - w1, h))
                rect = (x, y, w1, h)
            else:
                raise CodecError("cannot split a single pixel")
        else:
            leaves.append(rect)
            if not stack:
                return leaves
            rect = pop()
    raise Truncated("tree bits run out")


def deserialize_tree(data: bytes, pos: int, width: int, height: int):
    """Leaves of the one-tree section at `pos`, a width x height root;
    returns (leaves, next position)."""
    (leaves,), pos = _read_trees(data, pos, [(width, height)])
    return leaves, pos


def parse_mask(data: bytes, pos: int, sizes, shape):
    """Leaf masks of the tree section at `pos`; returns (masks, next position).

    Tree i covers sizes[i] = (width, height) at the top-left of a mask
    of `shape`; leaf_masks sets the midpoints of its leaves in masks[i].
    """
    trees, pos = _read_trees(data, pos, sizes)
    return leaf_masks(trees, shape), pos
