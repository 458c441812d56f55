"""Rectangular subdivision trees for adaptive data selection.

A tree recursively halves the longer side of its root rectangle (ties
split the width). Structure is stored as a depth-first preorder bit
sequence (1 = split, 0 = leaf); the split geometry is deterministic, so
root dimensions plus bits reconstruct the tree exactly. Leaves are
always enumerated in preorder, which fixes the order of leaf payloads
in every serialized payload.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from hivc.bits import read_section, write_section
from hivc.bitstream import Truncated


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


@dataclass(frozen=True)
class SubdivisionTree:
    w: int
    h: int
    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))

    def leaves(self):
        """Leaf rectangles (x, y, w, h) in preorder."""
        bits = iter(self.bits)
        out = deserialize_tree(bits, self.w, self.h)
        end_of_trees(bits)
        return out


def subdivide_by_error(
    plane: np.ndarray, target_points: int, error_fn=None, min_error=None
) -> SubdivisionTree:
    """Greedy split of the worst-error leaf until `target_points` leaves exist.

    `error_fn(plane, x, y, w, h)` defaults to the sum of squared
    deviations from the region mean. Ties break deterministically by
    (y, x, creation order). Single-pixel leaves sink to the bottom of
    the queue since they cannot be split. With `min_error` set, splitting
    stops early once the worst leaf error drops to that value or below,
    so exactly representable planes yield small trees.
    """
    h_img, w_img = plane.shape
    if target_points < 1:
        raise SubdivisionError("target_points must be >= 1")
    if target_points > w_img * h_img:
        raise SubdivisionError("target_points exceeds pixel count")
    if target_points == 1:
        return SubdivisionTree(w_img, h_img, (0,))
    if error_fn is None:
        error_fn = region_ssd

    def entry(rect, seq):
        x, y, w, h = rect
        err = -1.0 if (w == 1 and h == 1) else float(error_fn(plane, x, y, w, h))
        return (-err, y, x, seq, rect)

    root = (0, 0, w_img, h_img)
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

    bits = []
    stack = [root]
    while stack:
        rect = stack.pop()
        kids = children.get(rect)
        if kids is None:
            bits.append(0)
        else:
            bits.append(1)
            stack.append(kids[1])
            stack.append(kids[0])
    return SubdivisionTree(w_img, h_img, tuple(bits))


def region_ssd(plane: np.ndarray, x: int, y: int, w: int, h: int) -> float:
    """Sum of squared deviations from the region mean.

    The same reductions as float(np.sum((region - region.mean()) ** 2)),
    called directly: this runs hundreds of thousands of times per encode,
    and the wrappers around them cost more than the arithmetic.
    """
    region = plane[y : y + h, x : x + w]
    dev = region - np.add.reduce(region, axis=None, dtype=np.float64) / region.size
    return float(np.add.reduce(np.multiply(dev, dev, out=dev), axis=None))


def joint_ssd_error(planes):
    """Error function adding the region SSDs of two planes (chroma rule)."""
    a, b = planes

    def fn(_plane, x, y, w, h):
        return region_ssd(a, x, y, w, h) + region_ssd(b, x, y, w, h)

    return fn


def leaf_mask(leaves, width: int, height: int) -> np.ndarray:
    """Boolean mask with one point at the floor midpoint of each leaf."""
    mask = np.zeros((height, width), dtype=bool)
    mask[[y + h // 2 for _, y, _, h in leaves], [x + w // 2 for x, _, w, _ in leaves]] = True
    return mask


def mask_from_tree(tree: SubdivisionTree) -> np.ndarray:
    return leaf_mask(tree.leaves(), tree.w, tree.h)


def leaf_means(tree: SubdivisionTree, plane: np.ndarray) -> np.ndarray:
    """Mean of `plane` over each leaf, preorder."""
    return np.array(
        [plane[y : y + h, x : x + w].mean() for x, y, w, h in tree.leaves()], dtype=np.float64
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
    """Append one bit section holding the preorder bits of `trees`."""
    write_section(out, np.fromiter(chain.from_iterable(t.bits for t in trees), np.uint8))


def read_tree_bits(data: bytes, pos: int, max_bits: int):
    """Bits of the tree section at `pos`; returns (bit iterator, next position).

    Walk each tree of the section with deserialize_tree or parse_mask,
    then call end_of_trees. `max_bits` is the most its trees can hold (a
    tree over n pixels has at most 2n - 1 nodes); a longer section is
    rejected before it is unpacked.
    """
    body, nbits, pos = read_section(data, pos)
    if nbits > max_bits:
        raise SubdivisionError(f"tree section of {nbits} bits, at most {max_bits} fit")
    return iter(np.unpackbits(np.frombuffer(body, dtype=np.uint8))[:nbits].tolist()), pos


def end_of_trees(bits):
    """Reject a tree section that holds bits after its last tree."""
    if next(bits, None) is not None:
        raise SubdivisionError("excess bits after the last tree")


def deserialize_tree(bits, width: int, height: int):
    """Leaf rectangles (x, y, w, h) of the next tree in `bits`, in preorder.

    `bits` is an iterator of preorder bits (1 = split, 0 = leaf); the
    walk consumes exactly one tree. A degenerate root or a split of a
    single pixel raises SubdivisionError, and bits that run out raise
    Truncated. Splits are split_children's, inlined: a split descends
    into the first child at once and stacks the second, and no child of
    a rectangle of at least one pixel is degenerate.
    """
    if width < 1 or height < 1:
        raise SubdivisionError(f"degenerate rectangle {width}x{height}")
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
                raise SubdivisionError("cannot split a single pixel")
        else:
            leaves.append(rect)
            if not stack:
                return leaves
            rect = pop()
    raise Truncated("tree bits run out")


def parse_mask(bits, sizes, shape) -> np.ndarray:
    """Leaf masks of the next len(sizes) trees in `bits`, as one array.

    Tree i covers sizes[i] = (width, height) at the top-left of a mask
    of `shape`; the result has shape (len(sizes), *shape) and holds one
    point at the floor midpoint of each leaf (see deserialize_tree).
    """
    leaves, counts = [], []
    for width, height in sizes:
        tree = deserialize_tree(bits, width, height)
        leaves += tree
        counts.append(len(tree))
    flat = np.fromiter(chain.from_iterable(leaves), dtype=np.intp, count=4 * len(leaves))
    x, y, w, h = flat.reshape(-1, 4).T
    masks = np.zeros((len(counts), *shape), dtype=bool)
    masks[np.repeat(np.arange(len(counts)), counts), y + h // 2, x + w // 2] = True
    return masks
