import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bitstream import Truncated
from hivc.subdivision import (
    SubdivisionError,
    deserialize_tree,
    end_of_trees,
    leaf_masks,
    parse_mask,
    read_tree_bits,
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
    out = bytearray()
    write_trees(out, trees)
    return bytes(out)


def test_serialize_known_bit_patterns():
    plane = np.zeros((8, 8))
    assert _section([subdivide_by_error([plane], 1)[0]]) == bytes([1, 0, 0, 0, 0])
    plane[:, 4:] = 255.0
    # preorder: split root, then two leaves -> bits 1,0,0
    assert _section([subdivide_by_error([plane], 2)[0]]) == bytes([3, 0, 0, 0, 0b10000000])
    assert _section([]) == bytes(4)


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
        it = iter(bits)
        assert deserialize_tree(it, w, h) == expected
        end_of_trees(it)
        mask = np.zeros((h, w), dtype=bool)
        for x, y, lw, lh in expected:
            mask[y + lh // 2, x + lw // 2] = True
        assert np.array_equal(parse_mask(iter(bits), [(w, h)], (h, w))[0], mask)


def test_serialize_round_trip_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(60):
        sizes = [(int(rng.integers(1, 33)), int(rng.integers(1, 33))) for _ in range(3)]
        trees = [_random_tree(rng, w, h, int(rng.integers(1, 64))) for w, h in sizes]
        data = _section(trees) + b"tail"
        bits, pos = read_tree_bits(data, 0, sizes)
        for tree, (w, h) in zip(trees, sizes):
            assert deserialize_tree(bits, w, h) == oracles.tree_leaves(tree.tolist(), w, h)
        end_of_trees(bits)
        assert data[pos:] == b"tail"


def test_split_of_single_pixel_rejected():
    with pytest.raises(SubdivisionError):
        deserialize_tree(iter([1]), 1, 1)
    # 2x1 splits into two single pixels; splitting the first is illegal
    with pytest.raises(SubdivisionError):
        parse_mask(iter([1, 1, 0, 0]), [(2, 1)], (1, 2))
    with pytest.raises(SubdivisionError):
        deserialize_tree(iter([1, 0, 1]), 2, 1)


@pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (-1, 1)])
def test_degenerate_root_rejected(width, height):
    with pytest.raises(SubdivisionError, match="degenerate"):
        deserialize_tree(iter([0]), width, height)


@pytest.mark.parametrize("bits", [[], [1], [1, 0], [1, 1, 0, 0]])
def test_bits_that_run_out_are_truncated(bits):
    with pytest.raises(Truncated):
        deserialize_tree(iter(bits), 4, 4)
    with pytest.raises(Truncated):
        parse_mask(iter(bits), [(4, 4)], (4, 4))


def _tile_sections(rng, width, height):
    """Tile sizes and preorder bits of random legal trees for a random
    subset of the residual tiles of a width x height frame."""
    tiles = oracles.block_grid(height, width)
    coded = np.flatnonzero(rng.random(len(tiles)) < 0.6)
    sizes = [(tiles[ti][3], tiles[ti][2]) for ti in coded]
    trees = [_random_bits(rng, w, h, float(rng.uniform(0.2, 0.9))) for w, h in sizes]
    return sizes, trees


def _walk_both(bits, sizes):
    """Masks, or (error type, message), of the batched walk and of the oracle."""
    results = []
    for walk in (parse_mask, lambda it, sizes, _: oracles.tile_masks(it, sizes)):
        it = iter(bits)
        try:
            masks = walk(it, sizes, (BLOCK, BLOCK))
            end_of_trees(it)
        except (SubdivisionError, Truncated) as e:
            results.append((type(e), str(e)))
        else:
            results.append(masks)
    return results


def test_batched_tile_walk_matches_per_tile_oracle():
    rng = np.random.default_rng(6)
    # odd sizes give edge tiles of 1, 3, 5 and 7 pixels
    for width, height in ((37, 29), (33, 25), (16, 8), (7, 3), (41, 17)):
        for _ in range(10):
            sizes, trees = _tile_sections(rng, width, height)
            data = _section([np.array(t, dtype=np.uint8) for t in trees])
            section, _ = read_tree_bits(data, 0, sizes)
            masks = parse_mask(section, sizes, (BLOCK, BLOCK))
            end_of_trees(section)
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
        cases = (
            ("excess", bits + [0], sizes),
            ("run out", bits[:-1], sizes),
            # a 1x1 tile, as the corner of a 33x25 frame has, may not split
            ("single pixel", bits + [1, 0, 0], sizes + [(1, 1)]),
        )
        for name, case_bits, case_sizes in cases:
            batched, oracle = _walk_both(case_bits, case_sizes)
            assert isinstance(batched, tuple), name
            assert batched == oracle
            seen.add((name, batched[0]))
    assert seen == {
        ("excess", SubdivisionError),
        ("run out", Truncated),
        ("single pixel", SubdivisionError),
    }


def test_excess_bits_after_last_tree_rejected():
    bits = iter((1, 0, 0, 0))
    assert len(deserialize_tree(bits, 4, 4)) == 2
    with pytest.raises(SubdivisionError, match="excess"):
        end_of_trees(bits)
    tree, _ = subdivide_by_error([np.arange(16.0).reshape(4, 4)], 3)
    data = bytearray(_section([tree]))
    # one more bit in the count, still inside the padded last byte
    assert len(tree) % 8
    data[0] += 1
    bits, _ = read_tree_bits(bytes(data), 0, [(4, 4)])
    assert len(deserialize_tree(bits, 4, 4)) == 3
    with pytest.raises(SubdivisionError, match="excess"):
        end_of_trees(bits)


def test_tree_section_longer_than_its_trees_can_be_is_rejected():
    # a 4x4 tree has at most 31 nodes, and a 1x1 tree one
    data = struct.pack("<I", 32) + bytes(4)
    assert read_tree_bits(data, 0, [(4, 4), (1, 1)])[1] == len(data)
    with pytest.raises(SubdivisionError, match="at most 31"):
        read_tree_bits(data, 0, [(4, 4)])


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
    bits, _ = read_tree_bits(_section([tree]), 0, [(w, h)])
    assert deserialize_tree(bits, w, h) == leaves
    end_of_trees(bits)


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
        it = iter(bits.tolist())
        assert deserialize_tree(it, w, h) == tree_leaves
        end_of_trees(it)
        trees.append(bits)
        leaves.append(tree_leaves)
        sizes.append((w, h))
    shape = (max(h for _, h in sizes), max(w for w, _ in sizes))
    section, _ = read_tree_bits(_section(trees), 0, sizes)
    masks = parse_mask(section, sizes, shape)
    end_of_trees(section)
    assert np.array_equal(leaf_masks(leaves, shape), masks)
