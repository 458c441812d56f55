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
"""

from __future__ import annotations

import heapq
from itertools import chain

import numpy as np

from hivc.bits import iter_bits, read_bits
from hivc.bitstream import CodecError, Truncated


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

    A region's error is region_ssd of the first plane, plus that of each
    further plane in list order; all planes share one shape. Ties break
    deterministically by (y, x, creation order). Single-pixel leaves
    sink to the bottom of the queue since they cannot be split. With
    `min_error` set, splitting stops early once the worst leaf error
    drops to that value or below, so exactly representable planes yield
    small trees. Returns (bits, leaves): the preorder bits as a uint8
    array and the leaf rectangles (x, y, w, h) in preorder.
    """
    plane, *rest = planes
    h_img, w_img = plane.shape
    if target_points < 1:
        raise SubdivisionError("target_points must be >= 1")
    if target_points > w_img * h_img:
        raise SubdivisionError("target_points exceeds pixel count")
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
    midpoint of each leaf.
    """
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
