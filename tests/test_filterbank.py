import collections
import gc
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bss_uwpd import (
    DimensionError,
    Signal,
    UnsupportedRateError,
    build_cb_tree,
    db4_filters,
    decompose_nodes,
    walk,
)
from bss_uwpd.filterbank import CRITICAL_BANDS, CbLeaf


@pytest.fixture(scope="module")
def filters():
    return db4_filters()


@pytest.fixture(scope="module")
def tree():
    return build_cb_tree(8000)


def critical_bandwidth(freq_hz):
    """The bandwidth of the critical band containing a frequency, the band
    edges being the cumulative bandwidths; above the last edge, the last."""
    edge = 0
    for width in CRITICAL_BANDS:
        edge += width
        if freq_hz < edge:
            return width
    return CRITICAL_BANDS[-1]


def leaf_containing(tree, freq_hz):
    """The leaf whose band [low, high) holds a frequency, and that band."""
    return next((leaf, band) for leaf in tree.leaves
                if (band := tree.band(leaf.level, leaf.position))[0] <= freq_hz < band[1])


def leaf_energies(signal, tree, filters):
    """Level-weighted energy of every leaf, keyed by node."""
    nodes = decompose_nodes(signal, tree, filters)
    return {
        (leaf.level, leaf.position): 2.0 ** (-leaf.level)
        * (nodes[(leaf.level, leaf.position)] @ nodes[(leaf.level, leaf.position)])
        for leaf in tree.leaves
    }


def roll_step(coeffs, filters, level):
    """Reference undecimated step: one np.roll copy per tap."""
    stride = 2 ** (level - 1)
    approx = np.zeros_like(coeffs)
    detail = np.zeros_like(coeffs)
    for k in range(filters.h.size):
        rolled = np.roll(coeffs, k * stride, axis=-1)
        approx += filters.h[k] * rolled
        detail += filters.g[k] * rolled
    return approx, detail


def subtree_heights(tree):
    """The number of levels below each node, the most over its leaves."""
    heights = collections.defaultdict(int)
    for leaf in tree.leaves:
        for below in range(leaf.level + 1):
            node = (leaf.level - below, leaf.position >> below)
            heights[node] = max(heights[node], below)
    return heights


def pending_walk(x, tree, filters):
    """Reference walk: a stack of pending siblings, each split filtering
    both children at once with roll_step into fresh arrays; the child with
    the smaller subtree height is walked first, on a tie the lower band."""
    leaves = {(leaf.level, leaf.position) for leaf in tree.leaves}
    heights = subtree_heights(tree)
    pending = [((0, 0), x)]
    while pending:
        (level, position), coeffs = pending.pop()
        yield (level, position), coeffs
        if (level, position) not in leaves:
            approx, detail = roll_step(coeffs, filters, level + 1)
            if position % 2 == 1:
                approx, detail = detail, approx
            lo, hi = (level + 1, 2 * position), (level + 1, 2 * position + 1)
            first, second = (lo, approx), (hi, detail)
            if heights[hi] < heights[lo]:
                first, second = second, first
            pending += [second, first]


def one_leaf(tree, node):
    """The tree whose one leaf is node: walk goes down node's path only."""
    return replace(tree, leaves=(CbLeaf(*node),))


def walked(x, tree, filters):
    """Every node of walk, keyed by node, each a copy of the walk's block."""
    return {node: coeffs.copy() for node, coeffs in walk(x, tree, filters)}


def assert_walk_equals_pending_walk(x, tree, filters):
    pairs = itertools.zip_longest(walk(x, tree, filters), pending_walk(x, tree, filters))
    for (node, coeffs), (want_node, want) in pairs:
        assert node == want_node
        assert coeffs.shape == x.shape
        assert coeffs.tobytes() == want.tobytes()


class TestDb4Filters:
    def test_tap_sums(self, filters):
        assert abs(filters.h.sum() - np.sqrt(2.0)) < 1e-10
        assert abs(filters.g.sum()) < 1e-10

    def test_orthonormality(self, filters):
        h = filters.h
        assert abs(h @ h - 1.0) < 1e-10
        for m in (1, 2, 3):
            assert abs(h[: -2 * m] @ h[2 * m :]) < 1e-10

    def test_quadrature_mirror(self, filters):
        h, g = filters.h, filters.g
        length = h.size
        for k in range(length):
            assert g[k] == (-1.0) ** k * h[length - 1 - k]

    def test_vanishing_moments(self, filters):
        k = np.arange(filters.g.size)
        for power in range(4):
            assert abs((k**power) @ filters.g) < 1e-8


class TestUwpdStep:
    """The undecimated analysis step, as walk applies it at each level."""

    def test_impulse_response(self, tree, filters):
        impulse = np.zeros(32)
        impulse[0] = 1.0
        nodes = walked(impulse, tree, filters)
        for node, taps in (((1, 0), filters.h), ((1, 1), filters.g)):
            assert np.allclose(nodes[node][:8], taps, atol=1e-15)
            assert not nodes[node][8:].any()

    @pytest.mark.parametrize("level", [1, 2, 5])
    def test_energy_doubles(self, tree, filters, level):
        rng = np.random.default_rng(level)
        x = rng.standard_normal(777)
        nodes = walked(x, tree, filters)
        # each split into this level is one step of the level's filters
        splits = [pos for lv, pos in nodes if lv == level - 1 and (level, 2 * pos) in nodes]
        assert splits
        for pos in splits:
            parent = nodes[(level - 1, pos)]
            children = (nodes[(level, 2 * pos + k)] for k in (0, 1))
            total = sum(child @ child for child in children)
            assert abs(total - 2.0 * (parent @ parent)) < 1e-8 * 2.0 * (parent @ parent)

    def test_shift_covariance_is_exact(self, tree, filters):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(500)
        base, shifted = walked(x, tree, filters), walked(np.roll(x, 21), tree, filters)
        for node in base:
            assert np.array_equal(np.roll(base[node], 21), shifted[node])

    @pytest.mark.parametrize("n", [*range(1, 21), 64, 65, 100, 113, 4097, 32769, 32881])
    def test_equals_roll_reference(self, tree, filters, n):
        # at level 5 the tap shifts reach 112, beyond n = 64, 65 and 100;
        # the first 7 * 2**(level-1) outputs wrap past index 0, and at
        # n <= 113 they can be all of them; past them 32769 columns fill
        # one 32768-column block and 32881 span two at every level. A
        # strided or Fortran root is filtered as given.
        rng = np.random.default_rng(n)
        wide = rng.standard_normal((3, 3 * n))
        x = np.ascontiguousarray(wide[:, :n])
        for data in (x[0], x[:2], x, wide[:, ::3], np.asfortranarray(x)):
            assert_walk_equals_pending_walk(data, tree, filters)

    def test_first_tap_adds_to_positive_zero(self, tree, filters):
        # every level-1 approx product of output i is -0.0; a zero-filled
        # sum reads +0.0 there, a first tap stored as is would read -0.0.
        # Output 0 wraps past index 0, output 7 does not.
        for i in (0, 7):
            x = np.zeros(16)
            reads = (i - np.arange(8)) % 16
            x[reads] = np.where(filters.h > 0, -0.0, 0.0)
            assert all(np.signbit(filters.h * x[reads]))
            assert not np.signbit(roll_step(x, filters, 1)[0][i])
            assert_walk_equals_pending_walk(x, tree, filters)

    @pytest.mark.parametrize("level", range(1, 6))
    def test_wrap_across_column_blocks_matches_roll_bytes(self, tree, filters, level):
        # 70000 columns of two rows span three column blocks of the step
        rng = np.random.default_rng(40000 + level)
        x = rng.standard_normal((2, 70000))
        stacked = {node: c for node, c in walked(x, tree, filters).items() if node[0] == level}
        assert stacked
        for row in range(2):
            for node, want in pending_walk(x[row], tree, filters):
                if node in stacked:
                    assert stacked[node][row].tobytes() == want.tobytes()

    def test_level_one_row_across_column_blocks_matches_roll_bytes(self, tree, filters):
        # level 1 adds one tap's products at a time per block, not einsum;
        # 70000 columns of one row span three column blocks of the step
        x = np.random.default_rng(41000).standard_normal(70000)
        want = roll_step(x, filters, 1)
        level_one = [(node, c.copy()) for node, c in walk(x, tree, filters) if node[0] == 1]
        assert [node for node, _ in level_one] == [(1, 1), (1, 0)]
        for (_, got), expected in zip(level_one, want[::-1]):
            assert got.tobytes() == expected.tobytes()

    def test_empty_input(self, tree, filters):
        for x in (np.array([]), np.empty((2, 0))):
            with pytest.raises(DimensionError):
                list(walk(x, tree, filters))


class TestCbTree:
    def test_low_band_splits_to_level_five(self, tree):
        leaf, (low, high) = leaf_containing(tree, 150)
        assert leaf.level == 5
        assert high - low == 125.0
        assert critical_bandwidth((low + high) / 2) == 100

    def test_high_band_stops_at_level_three(self, tree):
        leaf, (low, high) = leaf_containing(tree, 3400)
        assert leaf.level == 3
        assert high - low == 500.0
        assert critical_bandwidth((low + high) / 2) == 550

    def test_leaves_tile_the_band(self, tree):
        edge = 0.0
        for leaf in tree.leaves:
            low, high = tree.band(leaf.level, leaf.position)
            assert low == edge
            assert high > low
            edge = high
        assert edge == 4000.0

    def test_leaves_in_band_order(self):
        assert [(leaf.level, leaf.position) for leaf in build_cb_tree().leaves] == [
            (5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7),
            (4, 4), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (3, 5), (3, 6), (3, 7),
        ]

    def test_split_rule(self, tree):
        # a leaf is at the depth cap or no wider than sqrt(2) critical
        # bandwidths at its center; every node above a leaf is wider
        def ratio(level, position):
            low, high = tree.band(level, position)
            return (high - low) / critical_bandwidth((low + high) / 2)

        inner = set()
        for leaf in tree.leaves:
            assert leaf.level == 5 or ratio(leaf.level, leaf.position) <= 2**0.5
            inner.update((leaf.level - k, leaf.position >> k) for k in range(1, leaf.level + 1))
        assert len(inner) == len(tree.leaves) - 1
        assert all(ratio(*node) > 2**0.5 for node in inner)

    def test_leaf_count_and_depth(self, tree):
        assert 17 <= len(tree.leaves) <= 32
        assert all(1 <= leaf.level <= 5 for leaf in tree.leaves)

    def test_nominal_widths(self, tree):
        for leaf in tree.leaves:
            low, high = tree.band(leaf.level, leaf.position)
            assert high - low == 8000 / 2.0 ** (leaf.level + 1)

    def test_rejects_other_rates(self):
        with pytest.raises(UnsupportedRateError):
            build_cb_tree(16000)


class TestDecompose:
    def test_weighted_energy_conservation(self, tree, filters):
        rng = np.random.default_rng(1)
        for n in (512, 1000, 4096, 8192):
            x = rng.standard_normal(n)
            energy = sum(leaf_energies(Signal(x, 8000), tree, filters).values())
            assert abs(energy - x @ x) < 1e-6 * (x @ x)

    def test_tone_lands_in_its_leaf(self, tree, filters):
        # db4 transition bands cap in-leaf concentration near 80% at level 5
        t = np.arange(8192) / 8000.0
        tone = Signal(np.sin(2 * np.pi * 200.0 * t), 8000)
        energies = leaf_energies(tone, tree, filters)
        total = sum(energies.values())
        target, _ = leaf_containing(tree, 200.0)
        share = energies[(target.level, target.position)] / total
        assert max(energies, key=energies.get) == (target.level, target.position)
        assert share > 0.75

    def test_every_leaf_is_selective_for_its_center(self, tree, filters):
        t = np.arange(4096) / 8000.0
        for leaf in tree.leaves:
            center = 0.5 * sum(tree.band(leaf.level, leaf.position))
            if center == 0.0 or center == 4000.0:
                continue
            tone = Signal(np.sin(2 * np.pi * center * t), 8000)
            energies = leaf_energies(tone, tree, filters)
            assert max(energies, key=energies.get) == (leaf.level, leaf.position)

    def test_shift_covariance_is_exact(self, tree, filters):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(900)
        base = decompose_nodes(Signal(x, 8000), tree, filters)
        shifted = decompose_nodes(Signal(np.roll(x, 17), 8000), tree, filters)
        for node, coeffs in base.items():
            assert np.array_equal(np.roll(coeffs, 17), shifted[node])

    def test_linearity(self, tree, filters):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 600))
        combo = decompose_nodes(Signal(0.4 * x + 2.2 * y, 8000), tree, filters)
        cx = decompose_nodes(Signal(x, 8000), tree, filters)
        cy = decompose_nodes(Signal(y, 8000), tree, filters)
        for node in combo:
            expected = 0.4 * cx[node] + 2.2 * cy[node]
            assert np.max(np.abs(combo[node] - expected)) < 1e-10

    def test_all_nodes_present(self, tree, filters):
        x = Signal(np.ones(64), 8000)
        nodes = decompose_nodes(x, tree, filters)
        assert set(nodes) == set(subtree_heights(tree))
        assert all(c.size == 64 for c in nodes.values())

    def test_rate_mismatch(self, tree, filters):
        with pytest.raises(UnsupportedRateError):
            decompose_nodes(Signal(np.ones(64), 16000), tree, filters)

    def test_walk_of_stacked_channels_matches_each_channel(self, tree, filters):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 700))
        singles = [decompose_nodes(Signal(x[row], 8000), tree, filters) for row in range(2)]
        seen = []
        # a yielded block is valid only until the walk advances: check it then
        for node, coeffs in walk(x, tree, filters):
            seen.append(node)
            for row in range(2):
                assert np.array_equal(coeffs[row], singles[row][node])
        assert sorted(seen) == sorted(subtree_heights(tree))

    def test_walk_reuses_four_buffers(self, tree, filters):
        # the shallower subtree is walked first and a parent's block is freed
        # once its last child is filtered: four of the five levels below the
        # root, which only the 0-1 kHz quarter reaches
        x = np.random.default_rng(5).standard_normal((2, 300))
        blocks = [coeffs.ctypes.data for _, coeffs in walk(x, tree, filters)]
        assert blocks[0] == x.ctypes.data
        assert len(blocks) == 33 and len(set(blocks[1:])) == 4
        assert x.ctypes.data not in blocks[1:]

    def test_walk_order_walks_the_shallower_subtree_first(self, tree, filters):
        nodes = [node for node, _ in walk(np.ones(64), tree, filters)]
        assert sorted(nodes) == sorted(subtree_heights(tree)) and nodes[0] == (0, 0)
        # (upper band, lower band) of a split whose upper subtree is shorter
        for upper, lower in (((1, 1), (1, 0)), ((2, 1), (2, 0)),
                             ((2, 3), (2, 2)), ((3, 5), (3, 4))):
            assert nodes.index(upper) < nodes.index(lower)
        # equal heights keep the lower band first
        for lower, upper in (((3, 0), (3, 1)), ((3, 6), (3, 7)), ((4, 0), (4, 1))):
            assert nodes.index(lower) < nodes.index(upper)

    @pytest.mark.parametrize("n", [64, 700, 4097, 100003])
    def test_walk_matches_pending_sibling_walk(self, tree, filters, n):
        x = np.random.default_rng(n).standard_normal((2, n))
        assert_walk_equals_pending_walk(x, tree, filters)

    @pytest.mark.parametrize("path", [None, (5, 0)])
    @pytest.mark.parametrize("stop", [None, 1, 6, 20])
    def test_walk_holds_no_buffers_once_done(self, tree, filters, stop, path):
        # with the collector off, a reference cycle would keep the walk's
        # buffers (four of 1 MiB, two down one path) after it is consumed or
        # broken off
        x = np.random.default_rng(6).standard_normal((2, 65536))
        if path:
            tree = one_leaf(tree, path)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nodes = walk(x, tree, filters)
            collections.deque(itertools.islice(nodes, stop), maxlen=0)
            del nodes
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert held < x.nbytes


class TestOneLeafWalk:
    @pytest.mark.parametrize("shape", [(700,), (70000,), (2, 700)])
    def test_last_block_equals_the_full_walk_bytes(self, tree, filters, shape):
        # the walk goes down the node's path alone, root first
        x = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape)
        for node, coeffs in walked(x, tree, filters).items():
            # every block but the last is reused as the walk advances
            steps = list(walk(x, one_leaf(tree, node), filters))
            level, position = node
            assert [step for step, _ in steps] == [(k, position >> (level - k))
                                                   for k in range(level + 1)]
            got = steps[-1][1]
            assert got.shape == x.shape and got.tobytes() == coeffs.tobytes()

    def test_root_is_the_input_itself(self, tree, filters):
        x = np.random.default_rng(3).standard_normal((2, 64))
        (node, coeffs), = walk(x, one_leaf(tree, (0, 0)), filters)
        assert node == (0, 0) and coeffs is x

    def test_holds_two_buffers(self, tree, filters):
        # a level-5 path: the last block and one spare, both of x's shape
        x = np.random.default_rng(4).standard_normal((2, 65536))
        tracemalloc.start()
        try:
            collections.deque(walk(x, one_leaf(tree, (5, 0)), filters), maxlen=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * x.nbytes
