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
from dataclasses import dataclass

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, Signal
from .errors import DimensionError, ParameterError, UnsupportedRateError

MAX_LEVEL = 5

# Critical-band characteristics for the 0..4 kHz range: 17 bands (barks),
# (center frequency Hz, critical bandwidth Hz). Band edges follow from the
# cumulative bandwidths: 0, 100, 200, ..., 3150, 3700.
CRITICAL_BANDS = (
    (50, 100),
    (150, 100),
    (250, 100),
    (350, 100),
    (450, 110),
    (570, 120),
    (700, 140),
    (840, 150),
    (1000, 160),
    (1170, 190),
    (1370, 210),
    (1600, 240),
    (1850, 280),
    (2150, 320),
    (2500, 380),
    (2900, 450),
    (3400, 550),
)

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
        h = np.asarray(self.h, dtype=np.float64).copy()
        g = np.asarray(self.g, dtype=np.float64).copy()
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)


def db4_filters() -> FilterPair:
    """Return the 8-tap Daubechies-4 analysis pair."""
    h = np.array(_DB4_H)
    length = h.size
    g = np.array([(-1.0) ** k * h[length - 1 - k] for k in range(length)])
    return FilterPair(h=h, g=g)


@dataclass(frozen=True)
class CbLeaf:
    """One leaf band of the critical-band tree."""

    level: int
    position: int
    band_low_hz: float
    band_high_hz: float
    cbw_target_hz: float


@dataclass(frozen=True)
class CbTree:
    """Pruned wavelet packet tree whose leaves tile 0..Fs/2."""

    fs_hz: int
    leaves: tuple

    def nodes(self):
        """All (level, position) pairs of the tree: leaves plus ancestors."""
        return sorted(
            {(leaf.level - k, leaf.position >> k)
             for leaf in self.leaves for k in range(leaf.level + 1)}
        )

    def band(self, level: int, position: int):
        """Frequency band (low, high) in Hz covered by a node."""
        width = self.fs_hz / 2.0 ** (level + 1)
        return position * width, (position + 1) * width


# Elements per cache block of uwpd_step: a block's input, scratch and both
# outputs (1 MiB) stay in L2, which halves a step on 480000-sample pairs.
_BLOCK_ELEMENTS = 32768


def uwpd_step(coeffs, filters: FilterPair, level: int):
    """One undecimated analysis step on (..., N) data: circular convolution
    along the last axis with the pair upsampled for the given level
    (1-based). Returns (approx, detail), both of input shape. Taps are
    accumulated in order, so the output equals the np.roll form bit for bit."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 0:
        raise DimensionError("cannot filter an empty sequence")
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {level}")
    n = c.shape[-1]
    shifts = [(k * 2 ** (level - 1)) % n for k in range(filters.h.size)]
    pad = max(shifts)
    extended = np.concatenate([c[..., n - pad :], c], axis=-1)
    approx = np.zeros_like(c)
    detail = np.zeros_like(c)
    width = max(1, _BLOCK_ELEMENTS * n // c.size)
    scratch = np.empty(c.shape[:-1] + (min(width, n),))
    for start in range(0, n, width):
        stop = min(start + width, n)
        block = scratch[..., : stop - start]
        for k, shift in enumerate(shifts):
            tapped = extended[..., pad - shift + start : pad - shift + stop]
            for taps, total in ((filters.h, approx), (filters.g, detail)):
                np.multiply(tapped, taps[k], out=block)
                total[..., start:stop] += block
    return approx, detail


def cbw_at(freq_hz: float) -> float:
    """Critical bandwidth (Hz) of the band containing a frequency.

    Band edges are the cumulative bandwidths; frequencies above the last
    edge fall into the last band.
    """
    if freq_hz < 0:
        raise ParameterError(f"frequency must be non-negative, got {freq_hz}")
    edge = 0.0
    for _, cbw in CRITICAL_BANDS:
        edge += cbw
        if freq_hz < edge:
            return float(cbw)
    return float(CRITICAL_BANDS[-1][1])


def build_cb_tree(fs_hz: int = PIPELINE_RATE_HZ) -> CbTree:
    """Build the critical-band tree for an 8 kHz signal.

    Walks the full five-level binary band partition top-down and splits a
    band while its width exceeds sqrt(2) times the critical bandwidth at
    the band's center, capping the depth at five levels.
    """
    if fs_hz != PIPELINE_RATE_HZ:
        raise UnsupportedRateError(
            f"critical-band table covers 0..4000 Hz; need fs = 8000, got {fs_hz}"
        )
    leaves = []

    def split(level, position):
        width = fs_hz / 2.0 ** (level + 1)
        low = position * width
        center = low + width / 2.0
        cbw = cbw_at(center)
        if level < MAX_LEVEL and width > math.sqrt(2.0) * cbw:
            split(level + 1, 2 * position)
            split(level + 1, 2 * position + 1)
        else:
            leaves.append(CbLeaf(level, position, low, low + width, cbw))

    split(0, 0)
    leaves.sort(key=lambda leaf: leaf.band_low_hz)
    return CbTree(fs_hz=fs_hz, leaves=tuple(leaves))


def walk(x, tree: CbTree, filters: FilterPair):
    """Depth-first walk of the tree over (..., N) data, yielding (node,
    coeffs) for every node, the root (x itself) first. A parent is dropped
    once its children exist, so one pending sibling per level stays alive.

    Positions are in natural frequency order; when filtering the children
    of a node at an odd frequency position, the low-pass output lands in
    the upper half-band (the standard high/low swap), so band labels stay
    monotone in frequency.
    """
    leaves = {(leaf.level, leaf.position) for leaf in tree.leaves}
    pending = [((0, 0), x)]
    while pending:
        (level, position), coeffs = pending.pop()
        yield (level, position), coeffs
        if (level, position) in leaves:
            continue
        approx, detail = uwpd_step(coeffs, filters, level + 1)
        if position % 2 == 1:
            approx, detail = detail, approx
        lo, hi = (level + 1, 2 * position), (level + 1, 2 * position + 1)
        pending += [(hi, detail), (lo, approx)]


def decompose_nodes(signal: Signal, tree: CbTree, filters: FilterPair):
    """Coefficients for every node of the tree, keyed by (level, position)."""
    if signal.sample_rate_hz != tree.fs_hz:
        raise UnsupportedRateError(
            f"signal rate {signal.sample_rate_hz} does not match tree rate {tree.fs_hz}"
        )
    return dict(walk(signal.samples, tree, filters))

