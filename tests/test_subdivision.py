from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc import subdivision
from hivc.bitstream import CodecError, LengthMismatch, Truncated
from hivc.subdivision import (
    INT64_MAX,
    SplitOrder,
    SubdivisionError,
    deserialize_tree,
    leaf_masks,
    node_sum_bound,
    parse_mask,
    region_ssd,
    split_children,
    subdivide_by_error,
    write_trees,
)
import oracles
from hivc.pseudodiff import BLOCK
from oracles import piecewise_constant_from_leaves


def _same_tree(a, b):
    """Two (bits, leaves) results are the same tree, bits as uint8."""
    return a[0].dtype == b[0].dtype == np.uint8 and np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_split_halves_longer_side_ties_go_to_width():
    # Tall rectangle splits vertically, wide splits horizontally,
    # square ties split along width.
    (a, b) = split_children(0, 0, 4, 8)
    assert a == (0, 0, 4, 4) and b == (0, 4, 4, 4)
    (a, b) = split_children(0, 0, 8, 4)
    assert a == (0, 0, 4, 4) and b == (4, 0, 4, 4)
    (a, b) = split_children(0, 0, 6, 6)
    assert a[2] == 3 and b[2] == 3


def test_split_ceiling_halving_for_odd_sides():
    (a, b) = split_children(0, 0, 5, 2)
    assert a == (0, 0, 3, 2) and b == (3, 0, 2, 2)


def test_constant_plane_single_leaf():
    bits, leaves = subdivide_by_error([np.full((8, 8), 3.0)], 1)
    assert bits.tolist() == [0] and leaves == [(0, 0, 8, 8)]


def test_constant_plane_deterministic_ties():
    plane = np.full((16, 16), 9.0)
    a = subdivide_by_error([plane], 4)
    b = subdivide_by_error([plane], 4)
    assert len(a[1]) == 4
    assert _same_tree(a, b)


def test_step_edge_first_split_isolates_halves():
    plane = np.zeros((16, 16))
    plane[:, 8:] = 255.0
    _, leaves = subdivide_by_error([plane], 2)
    assert sorted(leaves) == [(0, 0, 8, 16), (8, 0, 8, 16)]
    rec = piecewise_constant_from_leaves(leaves, plane)
    assert np.array_equal(rec, plane)


def test_target_exceeding_pixels_rejected():
    with pytest.raises(SubdivisionError):
        subdivide_by_error([np.zeros((2, 2))], 5)


def test_mask_point_is_floor_midpoint():
    _, leaves = subdivide_by_error([np.zeros((8, 8))], 1)
    (mask,) = leaf_masks([leaves], (8, 8))
    ys, xs = np.nonzero(mask)
    assert (ys.tolist(), xs.tolist()) == ([4], [4])


def test_mask_popcount_matches_leaf_count():
    rng = np.random.default_rng(0)
    plane = rng.uniform(0, 255, (23, 17))
    for k in (1, 5, 12, 40):
        _, leaves = subdivide_by_error([plane], k)
        assert int(leaf_masks([leaves], plane.shape).sum()) == k


def test_leaves_tile_root():
    rng = np.random.default_rng(1)
    plane = rng.uniform(0, 255, (19, 31))
    _, leaves = subdivide_by_error([plane], 25)
    cover = np.zeros((19, 31), dtype=np.int32)
    for (x, y, w, h) in leaves:
        cover[y : y + h, x : x + w] += 1
    assert np.array_equal(cover, np.ones_like(cover))


def test_piecewise_constant_uses_region_means():
    rng = np.random.default_rng(2)
    plane = rng.uniform(0, 255, (12, 12))
    _, leaves = subdivide_by_error([plane], 1)
    rec = piecewise_constant_from_leaves(leaves, plane)
    assert np.allclose(rec, plane.mean())


def test_budget_monotonicity_of_approximation_error():
    rng = np.random.default_rng(3)
    plane = rng.uniform(0, 255, (32, 32))
    errs = []
    for k in (1, 4, 16, 64):
        rec = piecewise_constant_from_leaves(subdivide_by_error([plane], k)[1], plane)
        errs.append(float(((rec - plane) ** 2).sum()))
    assert errs == sorted(errs, reverse=True)


def _section(trees):
    """One tree section holding `trees`, each a sequence of preorder bits."""
    out = bytearray()
    write_trees(out, [np.asarray(tree, dtype=np.uint8) for tree in trees])
    return bytes(out)


def test_serialize_known_bit_patterns():
    plane = np.zeros((8, 8))
    # the bits alone, zero-padded to a byte: the trees know their length
    assert _section([subdivide_by_error([plane], 1)[0]]) == bytes([0])
    plane[:, 4:] = 255.0
    # preorder: split root, then two leaves -> bits 1,0,0
    assert _section([subdivide_by_error([plane], 2)[0]]) == bytes([0b10000000])
    assert _section([]) == b""


def _random_tree(rng, w, h, splits):
    """Preorder bits of a searched tree over a random w x h plane."""
    plane = rng.uniform(0, 255, (h, w))
    target = min(splits, w * h)
    return subdivide_by_error([plane], target)[0]


def _random_bits(rng, w, h, p_split):
    """Preorder bits of a random legal tree that splits with p_split."""
    bits = []
    stack = [(0, 0, w, h)]
    while stack:
        rect = stack.pop()
        split = rect[2] * rect[3] > 1 and rng.random() < p_split
        bits.append(int(split))
        if split:
            first, second = split_children(*rect)
            stack += [second, first]
    return bits


def test_walker_matches_recursive_oracle_on_random_trees():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        bits = _random_bits(rng, w, h, float(rng.uniform(0.3, 0.95)))
        expected = oracles.tree_leaves(bits, w, h)
        data = _section([bits])
        assert deserialize_tree(data, 0, w, h) == (expected, len(data))
        mask = np.zeros((h, w), dtype=bool)
        for x, y, lw, lh in expected:
            mask[y + lh // 2, x + lw // 2] = True
        masks, pos = parse_mask(data, 0, [(w, h)], (h, w))
        assert np.array_equal(masks[0], mask) and pos == len(data)


def test_serialize_round_trip_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(60):
        sizes = [(int(rng.integers(1, 33)), int(rng.integers(1, 33))) for _ in range(3)]
        trees = [_random_tree(rng, w, h, int(rng.integers(1, 64))) for w, h in sizes]
        expected = [oracles.tree_leaves(tree.tolist(), w, h) for tree, (w, h) in zip(trees, sizes)]
        # one section per tree, read one after another
        data = b"".join(_section([tree]) for tree in trees) + b"tail"
        pos = 0
        for leaves, (w, h) in zip(expected, sizes):
            got, pos = deserialize_tree(data, pos, w, h)
            assert got == leaves
        assert data[pos:] == b"tail"
        # one section holding every tree
        shape = (32, 32)
        data = _section(trees) + b"tail"
        masks, pos = parse_mask(data, 0, sizes, shape)
        assert np.array_equal(masks, leaf_masks(expected, shape))
        assert data[pos:] == b"tail"


def test_split_of_single_pixel_rejected():
    with pytest.raises(CodecError, match="single pixel"):
        deserialize_tree(_section([[1]]), 0, 1, 1)
    # 2x1 splits into two single pixels; splitting either is illegal
    with pytest.raises(CodecError, match="single pixel"):
        parse_mask(_section([[1, 1, 0]]), 0, [(2, 1)], (1, 2))
    with pytest.raises(CodecError, match="single pixel"):
        deserialize_tree(_section([[1, 0, 1]]), 0, 2, 1)


@pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (-1, 1)])
def test_degenerate_root_rejected(width, height):
    with pytest.raises(SubdivisionError, match="degenerate"):
        deserialize_tree(_section([[0]]), 0, width, height)
    # before any byte is read
    with pytest.raises(SubdivisionError, match="degenerate"):
        parse_mask(b"", 0, [(4, 4), (width, height)], (4, 4))


@pytest.mark.parametrize("bits", [[], [1], [1, 0], [1, 1, 0, 0]])
def test_bits_that_run_out_are_truncated(bits):
    # the bytes end inside the tree: set bits fill the last byte, and
    # they split a 64x64 root on without reaching a single pixel
    data = _section([bits + [1] * (-len(bits) % 8)])
    with pytest.raises(Truncated, match="tree bits run out"):
        deserialize_tree(data, 0, 64, 64)
    with pytest.raises(Truncated, match="tree bits run out"):
        parse_mask(data, 0, [(64, 64)], (64, 64))
    # a section cut short inside its last tree
    full, _ = subdivide_by_error([np.arange(16.0).reshape(4, 4)], 16)
    with pytest.raises(Truncated):
        deserialize_tree(_section([full])[:-1], 0, 4, 4)


def _tile_sections(rng, width, height):
    """Tile sizes and preorder bits of random legal trees for a random
    subset of the residual tiles of a width x height frame."""
    tiles = oracles.block_grid(height, width)
    coded = np.flatnonzero(rng.random(len(tiles)) < 0.6)
    sizes = [(tiles[ti][3], tiles[ti][2]) for ti in coded]
    trees = [_random_bits(rng, w, h, float(rng.uniform(0.2, 0.9))) for w, h in sizes]
    return sizes, trees


def _oracle_section(bits, sizes):
    """Masks of the trees `bits` hold, walked by the oracle, which also
    rejects a set bit after the last tree, where the padding is."""
    it = iter(bits)
    masks = oracles.tile_masks(it, sizes)
    if any(it):
        used = sum(2 * int(m.sum()) - 1 for m in masks)
        raise LengthMismatch(f"bits set after the {used} bits of a run")
    return masks


def _walk_both(bits, sizes):
    """Masks, or (error type, message), of the section reader and of the oracle."""
    results = []
    for walk in (
        lambda: parse_mask(_section([bits]), 0, sizes, (BLOCK, BLOCK))[0],
        lambda: _oracle_section(bits, sizes),
    ):
        try:
            results.append(walk())
        except (CodecError, Truncated, LengthMismatch) as e:
            results.append((type(e), str(e)))
    return results


def test_batched_tile_walk_matches_per_tile_oracle():
    rng = np.random.default_rng(6)
    # odd sizes give edge tiles of 1, 3, 5 and 7 pixels
    for width, height in ((37, 29), (33, 25), (16, 8), (7, 3), (41, 17)):
        for _ in range(10):
            sizes, trees = _tile_sections(rng, width, height)
            data = _section(trees)
            masks, pos = parse_mask(data, 0, sizes, (BLOCK, BLOCK))
            assert pos == len(data)
            bits = [b for tree in trees for b in tree]
            assert np.array_equal(masks, oracles.tile_masks(iter(bits), sizes))
            assert masks.shape == (len(sizes), BLOCK, BLOCK)
            assert masks.sum() == sum(tree.count(0) for tree in trees)


def test_batched_tile_walk_rejects_corrupt_sections_like_the_oracle():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(40):
        sizes, trees = _tile_sections(rng, 33, 25)
        if not sizes:
            continue
        bits = [b for tree in trees for b in tree]
        cases = [
            # the bytes end before the last one the trees need
            ("run out", bits[: (len(bits) - 1) // 8 * 8], sizes),
            # a 1x1 tile, as the corner of a 33x25 frame has, may not split
            ("single pixel", bits + [1, 0, 0], sizes + [(1, 1)]),
        ]
        if len(bits) % 8:
            # the last padding bit of the byte the trees end in, set
            cases.append(("padding", bits + [0] * (7 - len(bits) % 8) + [1], sizes))
        for name, case_bits, case_sizes in cases:
            batched, oracle = _walk_both(case_bits, case_sizes)
            assert isinstance(batched, tuple), name
            assert batched == oracle
            seen.add((name, batched[0]))
    assert seen == {
        ("padding", LengthMismatch),
        ("run out", Truncated),
        ("single pixel", CodecError),
    }


def test_excess_bits_after_last_tree_rejected():
    # a split root and its two leaves end the section after 3 bits; a set
    # bit after them lies in the padding
    for extra in ([1], [0, 1], [0, 0, 0, 0, 1]):
        with pytest.raises(LengthMismatch, match="bits set after the 3 bits"):
            deserialize_tree(_section([[1, 0, 0, *extra]]), 0, 4, 4)
    # zero bits after them are padding, and the next byte is not read
    leaves, pos = deserialize_tree(_section([[1, 0, 0, 0, 0]]) + b"\xff", 0, 4, 4)
    assert len(leaves) == 2 and pos == 1
    tree, _ = subdivide_by_error([np.arange(16.0).reshape(4, 4)], 3)
    data = bytearray(_section([tree]))
    assert len(deserialize_tree(bytes(data), 0, 4, 4)[0]) == 3
    # the last padding bit set
    assert len(tree) % 8
    data[-1] |= 1
    with pytest.raises(LengthMismatch, match=f"bits set after the {len(tree)} bits"):
        deserialize_tree(bytes(data), 0, 4, 4)


def test_tree_section_longer_than_its_trees_can_be_is_rejected(monkeypatch):
    # a 4x4 tree has at most 31 nodes, and a 1x1 tree one: a full 4x4
    # tree and a 1x1 leaf fill 32 bits
    full, _ = subdivide_by_error([np.arange(16.0).reshape(4, 4)], 16)
    assert len(full) == 31
    data = _section([full, [0]])
    masks, pos = parse_mask(data, 0, [(4, 4), (1, 1)], (4, 4))
    assert pos == len(data) and masks.sum() == 17
    # splits past that bound split a single pixel
    with pytest.raises(CodecError, match="single pixel"):
        parse_mask(b"\xff" * 8, 0, [(4, 4), (1, 1)], (4, 4))
    # the reader unpacks at most min(node bound, bytes left), rounded up
    # to whole bytes, however long the trees claim to be
    unpacked = []
    unpack = np.unpackbits
    monkeypatch.setattr(np, "unpackbits", lambda a: unpacked.append(a.size) or unpack(a))
    assert deserialize_tree(b"\x00" + b"\xff" * 1000, 0, 1, 1) == ([(0, 0, 1, 1)], 1)
    assert sum(unpacked) == 1
    unpacked.clear()
    with pytest.raises(CodecError, match="single pixel"):
        deserialize_tree(b"\xff" * 1000, 0, 4, 4)
    assert sum(unpacked) == 4
    unpacked.clear()
    with pytest.raises(Truncated, match="tree bits run out"):
        deserialize_tree(b"\xff" * 2, 0, 3840, 2160)
    assert sum(unpacked) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_subdivision_invariants_property(w, h, target, seed):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(0, 255, (h, w))
    target = min(target, w * h)
    tree, leaves = subdivide_by_error([plane], target)
    assert len(leaves) == target
    assert sum(lw * lh for (_, _, lw, lh) in leaves) == w * h
    assert leaves == oracles.tree_leaves(tree.tolist(), w, h)
    data = _section([tree])
    assert deserialize_tree(data, 0, w, h) == (leaves, len(data))


def _random_planes(seed):
    rng = np.random.default_rng(seed)
    return {
        "int": rng.integers(-40, 41, (23, 37)),
        "real": rng.normal(0.0, 30.0, (23, 37)),
        "smooth": rng.uniform(0, 255, (23, 37)).cumsum(axis=1),
    }


@pytest.mark.parametrize("kind", ["int", "real", "smooth"])
def test_region_ssd_bit_identical_to_oracle(kind):
    plane = _random_planes(1)[kind]
    h, w = plane.shape
    rng = np.random.default_rng(2)
    rects = [(0, 0, w, h), (0, 5, w, 3), (4, 6, 1, 1), (w - 1, h - 1, 1, 1), (3, 0, 1, h)]
    for _ in range(300):
        x, y = int(rng.integers(w)), int(rng.integers(h))
        rects.append((x, y, int(rng.integers(1, w - x + 1)), int(rng.integers(1, h - y + 1))))
    for rect in rects:
        fast = region_ssd(plane, *rect)
        ref = oracles.region_ssd(plane, *rect)
        assert type(fast) is float
        assert np.float64(fast).tobytes() == np.float64(ref).tobytes(), rect


@pytest.mark.parametrize("target", range(1, 9))
def test_subdivision_trees_match_oracle_search(target):
    planes = _random_planes(target)
    for plane in planes.values():
        for sub in (plane, plane[:8, :8], plane[3:6, 2:9]):
            sub = np.asarray(sub, dtype=np.float64)
            if target > sub.size:
                continue
            assert _same_tree(
                subdivide_by_error([sub], target), oracles.subdivide_by_error([sub], target)
            )
    a, b = planes["int"][:8, :8], planes["real"][:8, :8]
    fast = subdivide_by_error([a.astype(np.float64), b], target)
    assert _same_tree(fast, oracles.subdivide_by_error([a, b], target))


@pytest.mark.parametrize("target", [1, 2, 5, 8, 40, 200])
def test_subdivision_min_error_stop_matches_oracle(target):
    rng = np.random.default_rng(target)
    constant = np.full((12, 20), 1.25)
    steps = np.repeat(np.repeat(rng.normal(0.0, 2.0, (3, 4)), 4, axis=0), 5, axis=1)
    noisy = rng.normal(0.0, 1.0, (12, 20))
    for plane in (constant, steps, noisy):
        fast = subdivide_by_error([plane], target, min_error=0.0)
        assert _same_tree(fast, oracles.subdivide_by_error([plane], target, min_error=0.0))
    # a constant plane stops at the root
    assert len(subdivide_by_error([constant], target, min_error=0.0)[1]) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 50)),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 2),
    st.sampled_from([1, 2, 256]),
    st.sampled_from([None, 0.0]),
    st.integers(0, 2**32 - 1),
)
def test_search_leaves_read_back_from_its_bits(specs, nplanes, levels, min_error, seed):
    # the encoder's leaves and masks are the ones the decoder reads from
    # the section it writes; few levels give constant regions, where
    # min_error=0 stops early
    rng = np.random.default_rng(seed)
    trees, leaves, sizes = [], [], []
    for w, h, target in specs:
        planes = [rng.integers(0, levels, (h, w)).astype(np.float64) for _ in range(nplanes)]
        bits, tree_leaves = subdivide_by_error(planes, min(target, w * h), min_error)
        assert bits.dtype == np.uint8
        assert deserialize_tree(_section([bits]), 0, w, h)[0] == tree_leaves
        trees.append(bits)
        leaves.append(tree_leaves)
        sizes.append((w, h))
    shape = (max(h for _, h in sizes), max(w for w, _ in sizes))
    data = _section(trees)
    masks, pos = parse_mask(data, 0, sizes, shape)
    assert np.array_equal(leaf_masks(leaves, shape), masks) and pos == len(data)


# ---------------------------------------------------------------------------
# The sorted search over integer planes
# ---------------------------------------------------------------------------


def _every_budget_matches_oracle(planes, budgets=None):
    """The engine's tree at every budget, from one recorded order and from
    a fresh search, equals the oracle heap's: the oracle's splits of a
    budget are a prefix of its splits at the pixel count."""
    h, w = planes[0].shape
    root, pixels = (0, 0, w, h), w * h
    splits = oracles.greedy_splits(planes, pixels)
    order = SplitOrder(planes)
    for n in budgets or range(1, pixels + 1):
        want = oracles.tree_of_splits(root, splits[: n - 1])
        assert _same_tree(order.tree(n), want), n
        assert _same_tree(subdivide_by_error(planes, n), want), n


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 2),
    st.sampled_from([2, 5, 256, 511]),
    st.integers(0, 2**32 - 1),
)
def test_sorted_search_matches_exact_oracle_at_every_budget(w, h, nplanes, levels, seed):
    # few levels give many exact ties, which the (y, x) rule breaks
    rng = np.random.default_rng(seed)
    planes = [rng.integers(-(levels // 2), levels - levels // 2, (h, w)) for _ in range(nplanes)]
    _every_budget_matches_oracle(planes)


def test_sorted_search_matches_exact_oracle_on_every_tile_size():
    # all coded tiles of one size are searched in one call, with a
    # leading tile axis; each tile's tree is the oracle's for that tile
    rng = np.random.default_rng(8)
    for bh in range(1, BLOCK + 1):
        for bw in range(1, BLOCK + 1):
            tiles = int(rng.integers(1, 5))
            nplanes = int(rng.integers(1, 3))
            planes = [rng.integers(-12, 13, (tiles, bh, bw)) for _ in range(nplanes)]
            planes[0][0] = 0  # one tile constant in its first plane
            for points in range(1, min(48, bw * bh) + 1):
                bits, leaves = subdivide_by_error(planes, points)
                assert bits.shape == (tiles, 2 * points - 1) and bits.dtype == np.uint8
                assert leaves.shape == (tiles, points, 4)
                for t in range(tiles):
                    want = oracles.subdivide_by_error([p[t] for p in planes], points)
                    assert np.array_equal(bits[t], want[0])
                    assert list(map(tuple, leaves[t].tolist())) == want[1]


def test_exact_tie_splits_the_upper_node():
    # the two halves of a 5x10 plane hold the same values in another
    # order, so their errors are exactly equal; region_ssd's float sums
    # round the upper half below the lower one, and the heap on float
    # planes splits the lower half first. The exact errors tie, and the
    # tie goes to the smaller y, as the heap's rule says.
    upper = np.array(
        [
            [65, 208, 133, 255, 71],
            [89, 205, 43, 82, 100],
            [185, 192, 201, 112, 157],
            [150, 197, 32, 81, 185],
            [51, 71, 250, 48, 255],
        ]
    )
    lower = np.array(
        [
            [51, 150, 32, 81, 208],
            [157, 65, 133, 43, 205],
            [48, 250, 185, 112, 71],
            [255, 255, 100, 185, 71],
            [82, 192, 197, 201, 89],
        ]
    )
    plane = np.vstack([upper, lower])
    assert sorted(upper.ravel()) == sorted(lower.ravel())
    real = plane.astype(np.float64)
    assert region_ssd(real, 0, 0, 5, 5) < region_ssd(real, 0, 5, 5, 5)
    _, leaves = subdivide_by_error([plane], 3)
    assert leaves[-1] == (0, 5, 5, 5)  # the upper half split, the lower one a leaf
    assert _same_tree(subdivide_by_error([plane], 3), oracles.subdivide_by_error([plane], 3))
    _, float_leaves = subdivide_by_error([real], 3)
    assert float_leaves[0] == (0, 0, 5, 5)  # the float heap split the lower half
    _every_budget_matches_oracle([plane])


def test_node_sums_stay_within_int64_at_the_pixel_limit():
    # by arithmetic: no 4K plane is allocated
    from hivc.bitstream import MAX_PIXELS
    from hivc.frame import UV_RANGE, Y_RANGE

    assert MAX_PIXELS == 8_294_400
    luma = node_sum_bound(MAX_PIXELS, [Y_RANGE])
    chroma = node_sum_bound(MAX_PIXELS, [UV_RANGE, UV_RANGE])
    tile = node_sum_bound(BLOCK * BLOCK, [(-510, 510)] * 2)
    assert luma == MAX_PIXELS**2 * 128**2 and round(luma / 1e15) == 1127
    assert chroma == 2 * MAX_PIXELS**2 * 255**2 and round(chroma / 1e15) == 8947
    assert tile == 2 * 64**2 * 510**2 and round(tile / 1e7) == 213
    assert INT64_MAX == 2**63 - 1 and round(INT64_MAX / 1e15) == 9223
    assert round(100 * (1 - chroma / INT64_MAX), 1) == 3.0  # the U+V margin


def test_planes_past_the_int64_bound_are_refused():
    # a 2x2 plane centred to [-a, a] bounds its sums by 16 a^2
    a = 759_250_124  # the largest a with 16 a^2 < 2^63
    assert 16 * a * a <= INT64_MAX < 16 * (a + 1) ** 2
    plane = np.array([[-a, a], [a, -a]], dtype=np.int64)
    for shift in (0, 10**9):  # centring takes any offset out
        tree = subdivide_by_error([plane + shift], 2)
        assert _same_tree(tree, oracles.subdivide_by_error([plane + shift], 2))
    with pytest.raises(SubdivisionError, match="overflow int64"):
        subdivide_by_error([np.array([[-a - 1, a + 1], [0, 0]])], 2)
    with pytest.raises(SubdivisionError, match="overflow int64"):
        subdivide_by_error([np.array([[0, 2**63]], dtype=np.uint64)], 2)
    # two planes within the bound alone exceed it jointly
    with pytest.raises(SubdivisionError, match="overflow int64"):
        subdivide_by_error([plane, plane], 2)
    # the table holds sides in u16 and at most a frame's pixels
    with pytest.raises(SubdivisionError, match="frame limits"):
        subdivide_by_error([np.zeros((1, 0x10000), dtype=np.uint8)], 2)


def test_one_point_trees_need_no_node_error(monkeypatch):
    # the root alone, for every tile, without a sort; an order made for
    # one point refuses a larger tree
    monkeypatch.setattr(np, "lexsort", None)
    planes = [np.arange(96).reshape(6, 4, 4)]
    bits, leaves = subdivide_by_error(planes, 1)
    assert bits.tolist() == [[0]] * 6 and leaves.tolist() == [[[0, 0, 4, 4]]] * 6
    with pytest.raises(SubdivisionError, match="order was made for"):
        SplitOrder(planes, 1).tree(2)


def _same_table(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rect", "parent", "inner"))


def test_split_table_cache_keeps_its_tables_within_a_byte_budget(monkeypatch):
    # a table takes 28 B per pixel less 16, so one FullHD table fits
    assert subdivision._build_split_table(7, 5).nbytes == 28 * 35 - 16
    assert 28 * 1920 * 1080 - 16 <= subdivision.SPLIT_TABLE_CACHE_BYTES
    cache = OrderedDict()
    monkeypatch.setattr(subdivision, "_split_tables", cache)
    nbytes = {s: subdivision._build_split_table(*s).nbytes for s in [(8, 8), (7, 5), (6, 5)]}
    monkeypatch.setattr(subdivision, "SPLIT_TABLE_CACHE_BYTES", nbytes[8, 8] + nbytes[7, 5])
    big = subdivision._split_table(8, 8)
    subdivision._split_table(7, 5)
    assert subdivision._split_table(8, 8) is big and list(cache) == [(7, 5), (8, 8)]
    # the least recently used table leaves first, and only as many as must
    subdivision._split_table(6, 5)
    assert list(cache) == [(8, 8), (6, 5)]
    # a table larger than the whole budget is built but not kept
    huge = subdivision._split_table(16, 16)
    assert list(cache) == [(8, 8), (6, 5)]
    # every table, cached or not, is the one a fresh build gives
    for shape, table in [((16, 16), huge), *cache.items()]:
        assert _same_table(table, subdivision._build_split_table(*shape))


def test_sorted_search_does_not_depend_on_the_table_cache(monkeypatch):
    rng = np.random.default_rng(17)
    planes = [rng.integers(0, 256, (24, 40)), rng.integers(0, 256, (24, 40))]
    cached = SplitOrder(planes).order
    monkeypatch.setattr(subdivision, "_split_tables", OrderedDict())
    monkeypatch.setattr(subdivision, "SPLIT_TABLE_CACHE_BYTES", 0)
    assert np.array_equal(SplitOrder(planes).order, cached)
    assert not subdivision._split_tables


def test_integer_planes_take_no_min_error_and_float_planes_no_tile_axis():
    with pytest.raises(SubdivisionError, match="min_error"):
        subdivide_by_error([np.zeros((4, 4), dtype=np.int64)], 2, min_error=0.0)
    with pytest.raises(SubdivisionError, match="tile axis"):
        subdivide_by_error([np.zeros((3, 4, 4))], 2)
