"""Kurtosis scoring, whitening, and maximum-kurtosis node selection.

Excess kurtosis is the fourth-moment contrast E[y^4] - 3 (E[y^2])^2 of a
zero-mean unit-variance sequence: zero for Gaussian data, positive for
supergaussian (speech-like) data. Node selection keeps the tree node whose
two mixture channels are jointly most non-Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, check_rate, scale_into_range, set_read_only
from .errors import (DegenerateInputError, DimensionError, ParameterError, SelectionError,
                     SingularDataError)

# Columns per block of a pass over (2, N) data: a block of a pair is 512 KiB,
# so it stays in L2 while every product that reads it is formed, and a
# filter pass's input and output blocks of a pair both stay in a 2 MiB L2.
# On a 2 MiB-L2 Xeon a walk of (2, 480000) took 131-133 ms at 32768-65536
# columns, 137 at 16384, 151 at 4096 and 212 unblocked (medians of 30). The
# width depends on neither the data nor the BLAS thread count, so the block
# sums, and the fitted models, are the same on every run.
BLOCK_COLUMNS = 32768

# Columns per block of row_kurtosis: the scratch of a 480000-sample row is
# 128 KiB, and the block sums repeat bit for bit at any length.
_KURTOSIS_COLUMNS = 16384


def _central_moments(c):
    """The mean and the biased second and fourth central moments of a 1-D
    row, summed as Python floats over column blocks through one small
    scratch array."""
    mean, m2, m4 = c.mean(), 0.0, 0.0
    for _, sq in centred_blocks(c, mean, _KURTOSIS_COLUMNS):
        np.multiply(sq, sq, out=sq)
        m2 += float(sq.sum())
        np.multiply(sq, sq, out=sq)
        m4 += float(sq.sum())
    return mean, m2 / c.size, m4 / c.size


def row_kurtosis(c) -> float:
    """Excess kurtosis of one row of 1-D data, after centering and scaling
    to unit variance; NaN for a non-finite variance or for a constant row,
    whose variance is no larger than the rounding of the mean (about
    N * eps * |mean|) could make it. Biased (1/N) moment estimators
    throughout. Only when the squared variance or the fourth moment is not a
    normal finite float is a row-sized temporary made: the row brought into
    range by scale_into_range, scored again."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise DimensionError(f"kurtosis takes one row of samples, got shape {c.shape}")
    if c.size < 4:
        raise DimensionError(f"kurtosis needs >= 4 samples, got {c.size}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean, m2, m4 = _central_moments(c)
        if not all(2.0**-1022 <= m < math.inf for m in (m2 * m2, m4)):  # normal floats
            c, e = scale_into_range(c, max(c.max(), -c.min()))
            if e:
                mean, m2, m4 = _central_moments(c)
        if not (c.size * np.finfo(np.float64).eps * mean) ** 2 < m2 < math.inf:
            return math.nan
        # a variance that still squares to 0 makes the ratio inf or NaN
        return float(np.float64(m4) / (m2 * m2)) - 3.0


@dataclass(frozen=True)
class NodeScore:
    """Per-channel kurtosis of one tree node; combined = min over channels,
    NaN when either channel is degenerate."""

    node: tuple
    kurtosis_ch1: float
    kurtosis_ch2: float

    @property
    def combined(self) -> float:
        return float(np.minimum(self.kurtosis_ch1, self.kurtosis_ch2))


def score_nodes(coeffs_ch1, coeffs_ch2):
    """Kurtosis scores for every node present in both channel coefficient
    maps. Degenerate (zero-variance) channels score NaN."""
    return [
        NodeScore(node, row_kurtosis(coeffs_ch1[node]), row_kurtosis(coeffs_ch2[node]))
        for node in sorted(set(coeffs_ch1) & set(coeffs_ch2))
    ]


def select_best_node(scores, fs_hz: int = PIPELINE_RATE_HZ) -> NodeScore:
    """The best of the scores of a tree at fs_hz, which must be 8000 Hz:
    the highest combined (min-over-channels) kurtosis; ties go to the lower
    band (position / 2**level, its low edge over Fs/2), then the shallower
    node. Nodes without finite scores on both channels are skipped; raises
    SelectionError if that leaves none."""
    check_rate(fs_hz, "node selection")

    def rank(s):
        level, position = s.node
        return -s.combined, position / 2**level, level

    finite = [s for s in scores if np.isfinite(s.combined)]
    if not finite:
        raise SelectionError("every node scored as degenerate on some channel")
    return min(finite, key=rank)


@dataclass(frozen=True)
class WhiteningModel:
    """Affine transform taking fitted data to zero mean, identity covariance."""

    mean: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        set_read_only(self, mean=self.mean, matrix=self.matrix)

    def transform(self, x) -> np.ndarray:
        return affine(self.matrix, x, self.mean)


def centred_blocks(x, mean, columns=BLOCK_COLUMNS):
    """Yield (start, d) per block of the given number of columns of (..., N)
    data x, d being the block minus mean (shaped (..., 1)), each d a view of
    one scratch valid until the next is drawn. A last block of one column
    joins the one before: numpy would form its product with a matrix as a
    matrix-vector product, whose bits can differ."""
    n = x.shape[-1]
    scratch = np.empty(x.shape[:-1] + (min(n, columns + 1),))
    for start in range(0, max(n - 1, 1), columns):
        width = n - start if n - start <= columns + 1 else columns
        yield start, np.subtract(x[..., start : start + width], mean,
                                 out=scratch[..., :width])


def affine(m, x, mean) -> np.ndarray:
    """m @ (x - mean[:, None]) for (2, N) data x, formed one column block
    at a time; each output column has the bits of the whole-array form."""
    x = as_pair(x, 1, "an affine pass")
    out = np.empty((len(m), x.shape[1]))
    for start, d in centred_blocks(x, np.asarray(mean, dtype=np.float64)[:, None]):
        np.matmul(m, d, out=out[:, start : start + d.shape[1]])
    return out


def as_pair(x, min_samples: int, what: str) -> np.ndarray:
    """x as float64 2-channel data shaped (2, N) with N >= min_samples;
    what names the consumer in the error message."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != 2:
        raise DimensionError(f"expected 2-channel data shaped (2, N), got {x.shape}")
    if x.shape[1] < min_samples:
        raise DimensionError(f"{what} needs >= {min_samples} samples, got {x.shape[1]}")
    return x


def mean_covariance(x):
    """Mean and biased (1/N) covariance of (2, N) data x, the centred
    products summed over column blocks; no rank check."""
    mean = x.mean(axis=1)
    # -0.0 is the exact additive identity, so one block gives the same bits
    # as the whole-array centred product
    cov = np.full((2, 2), -0.0)
    for _, d in centred_blocks(x, mean[:, None]):
        cov += d @ d.T
    cov /= x.shape[1]
    return mean, cov


def fit_whitening(x) -> WhiteningModel:
    """Fit mean and whitening matrix D^(-1/2) E^T from the eigendecomposition
    of the (biased) sample covariance of 2-channel data shaped (2, N). If it
    is not finite: ParameterError for non-finite samples, else DegenerateInputError.
    If it is singular: DegenerateInputError when non-zero samples peak
    below 2**-64, where it underflows, else SingularDataError."""
    x = as_pair(x, 2, "whitening")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = mean_covariance(x)
    if not np.all(np.isfinite(cov)):
        if not np.all(np.isfinite(x)):
            raise ParameterError("samples must be finite")
        raise DegenerateInputError("sample covariance exceeds the float64 range")
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-12 * evals[-1]:
        peak = max(x.max(), -x.min())
        if 0.0 < peak < 2.0**-64:
            raise DegenerateInputError(
                f"samples peak at {peak:.3g}, below 2**-64, where their covariance "
                "underflows; scale them up"
            )
        raise SingularDataError(
            "covariance is rank-deficient; channels are (nearly) collinear"
        )
    matrix = (evecs / np.sqrt(evals)).T
    return WhiteningModel(mean=mean, matrix=matrix)
