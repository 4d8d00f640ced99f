"""Undecimated wavelet packet decomposition over a critical-band tree.

The transform is the "a trous" scheme: at level j the analysis pair is
upsampled by inserting 2**(j-1) - 1 zeros between taps and applied by
circular convolution, with no decimation, so every node keeps the input
length and the whole decomposition is exactly shift-covariant.

The tree is a five-level binary band partition of 0..Fs/2 pruned so that
each leaf bandwidth approximates the critical bandwidth of the human
auditory scale at the leaf's center frequency: a band splits further while
it is wider than sqrt(2) times the local critical bandwidth.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .audio_io import PIPELINE_RATE_HZ, Signal, check_rate, set_read_only
from .errors import DimensionError
from .stats import BLOCK_COLUMNS

MAX_LEVEL = 5

# Critical bandwidths (Hz) of the 17 bands (barks) over 0..4 kHz, after
# Zwicker and Terhardt, JASA 68(5), 1980. Band edges are the cumulative
# bandwidths: 0, 100, 200, ..., 3150, 3700.
CRITICAL_BANDS = (100, 100, 100, 100, 110, 120, 140, 150, 160, 190, 210, 240,
                  280, 320, 380, 450, 550)

# Daubechies filter with 4 vanishing moments (8 taps), normalized so the
# taps sum to sqrt(2).
_DB4_H = (
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
)


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal low-pass/high-pass analysis pair.

    g is the quadrature mirror of h: g[k] = (-1)**k * h[L-1-k].
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        set_read_only(self, h=self.h, g=self.g)


def db4_filters() -> FilterPair:
    """Return the 8-tap Daubechies-4 analysis pair."""
    h = np.array(_DB4_H)
    length = h.size
    g = np.array([(-1.0) ** k * h[length - 1 - k] for k in range(length)])
    return FilterPair(h=h, g=g)


@dataclass(frozen=True)
class CbLeaf:
    """One leaf of the critical-band tree; CbTree.band gives its band."""

    level: int
    position: int


@dataclass(frozen=True)
class CbTree:
    """Pruned wavelet packet tree: build_cb_tree's leaves tile 0..Fs/2, and
    walk accepts any set of leaves."""

    fs_hz: int
    leaves: tuple

    def band(self, level: int, position: int):
        """Frequency band (low, high) in Hz covered by a node."""
        width = self.fs_hz / 2.0 ** (level + 1)
        return position * width, (position + 1) * width


def _filter_into(c, taps, level: int, out):
    """One undecimated filter step of (..., N) data c at a level (1-based),
    written into out, which must not overlap c: circular convolution along
    the last axis with the taps upsampled for the level. Output i is the sum
    over k of taps[k] * c[i - k * 2**(level-1)], each product added in tap
    order to +0.0, as np.roll and += would do."""
    if c.size == 0:
        raise DimensionError("cannot filter an empty sequence")
    n, step, shift, last = c.shape[-1], c.strides[-1], 2 ** (level - 1), taps.size - 1
    # outputs left of head wrap past index 0 and read a small gathered copy,
    # one pass per tap: einsum would sum a one-column copy's contiguous tap
    # axis in another order
    head = min(n, last * shift)
    wrapped = c[..., (np.arange(head) - shift * np.arange(last + 1)[:, None]) % n]
    out[..., :head] = sum(taps[k] * wrapped[..., k, :] for k in range(last + 1))
    # row k of this view is c shifted right by k * shift, with no copy
    delayed = as_strided(c[..., head:], c.shape[:-1] + (last + 1, n - head),
                         c.strides[:-1] + (-shift * step, step), writeable=False)
    body = out[..., head:]
    # at level 1 the tap stride ties the sample stride, and einsum, looping
    # over the taps innermost, is 2.5-3x slower: there each tap's products
    # are added to the block in turn
    product = np.empty(body[..., :BLOCK_COLUMNS].shape) if level == 1 else None
    for start in range(0, n - head, BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        total = body[..., block]
        if product is None:
            np.einsum("k,...kj->...j", taps, delayed[..., block], out=total)
            continue
        total.fill(0.0)
        for k in range(last + 1):
            total += np.multiply(taps[k], delayed[..., k, block],
                                 out=product[..., : total.shape[-1]])


def build_cb_tree(fs_hz: int = PIPELINE_RATE_HZ) -> CbTree:
    """Build the critical-band tree for an 8 kHz signal.

    Walks the full five-level binary band partition top-down and splits a
    band while its width exceeds sqrt(2) times the critical bandwidth at
    the band's center, capping the depth at five levels.
    """
    check_rate(fs_hz, "the critical-band tree")
    band_of = CbTree(fs_hz=fs_hz, leaves=()).band
    edges = tuple(accumulate(CRITICAL_BANDS))
    leaves = []

    def split(level, position):
        low, high = band_of(level, position)
        # the first band whose upper edge is above the center, else the last
        band = min(bisect_right(edges, (low + high) / 2.0), len(edges) - 1)
        if level < MAX_LEVEL and high - low > math.sqrt(2.0) * CRITICAL_BANDS[band]:
            split(level + 1, 2 * position)
            split(level + 1, 2 * position + 1)
        else:
            leaves.append(CbLeaf(level, position))

    split(0, 0)
    leaves.sort(key=lambda leaf: leaf.position / 2**leaf.level)
    return CbTree(fs_hz=fs_hz, leaves=tuple(leaves))


def walk(x, tree: CbTree, filters: FilterPair):
    """Depth-first walk of the tree over (..., N) data, yielding (node,
    coeffs) for every leaf and every node above one, the root (x itself,
    never written) first; below each node the child with fewer levels under
    it comes first, on a tie the lower band. A yielded block is valid only
    until the walk advances: each is filtered just before its subtree is
    walked and reused once its last child is filtered, so on build_cb_tree's
    tree four buffers of x's shape serve the other 32 nodes, and a one-leaf
    tree walks its one path with two.

    Positions are in natural frequency order; when filtering the children
    of a node at an odd frequency position, the low-pass output lands in
    the upper half-band (the standard high/low swap), so band labels stay
    monotone in frequency.
    """
    x = np.asarray(x, dtype=np.float64)
    height = {}  # levels below each node; a deeper leaf comes later and wins
    for leaf in sorted(tree.leaves, key=lambda leaf: leaf.level):
        height.update({(leaf.level - k, leaf.position >> k): k for k in range(leaf.level + 1)})
    yield from _subtree((0, 0), x, height, filters, [])


def _taps(filters: FilterPair, child):
    """The taps that filter a node's parent into it: h into the lower band
    of an even parent, g into its upper band, and swapped below an odd one."""
    position = child[1]
    return filters.g if (position ^ (position >> 1)) % 2 else filters.h


def _subtree(node, coeffs, height, filters: FilterPair, free):
    """walk below one node; a block below the root returns to free after its last child."""
    yield node, coeffs
    level, position = node
    children = sorted([child for k in (0, 1)
                       if (child := (level + 1, 2 * position + k)) in height], key=height.get)
    if level and not children:
        free.append(coeffs)
    for i, child in enumerate(children, 1):
        out = free.pop() if free else np.empty_like(coeffs)
        _filter_into(coeffs, _taps(filters, child), level + 1, out)
        if level and i == len(children):
            free.append(coeffs)
        yield from _subtree(child, out, height, filters, free)


def decompose_nodes(signal: Signal, tree: CbTree, filters: FilterPair):
    """Coefficients for every node of the tree, keyed by (level, position);
    each node is a copy of the walk's block."""
    check_rate(signal.sample_rate_hz, "the filterbank")
    return {node: coeffs.copy() for node, coeffs in walk(signal.samples, tree, filters)}
