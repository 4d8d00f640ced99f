"""Kurtosis scoring, whitening, and maximum-kurtosis node selection.

Excess kurtosis is the fourth-moment contrast E[y^4] - 3 (E[y^2])^2 of a
zero-mean unit-variance sequence: zero for Gaussian data, positive for
supergaussian (speech-like) data. Node selection keeps the tree node whose
two mixture channels are jointly most non-Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, check_rate, set_read_only
from .errors import DimensionError, SelectionError, SingularDataError

# Columns per block of a pass over (2, N) data: a block of a pair is 512 KiB,
# so it stays in L2 while every product that reads it is formed, and a
# filter pass's input and output blocks of a pair both stay in a 2 MiB L2.
# On a 2 MiB-L2 Xeon a walk of (2, 480000) took 131-133 ms at 32768-65536
# columns, 137 at 16384, 151 at 4096 and 212 unblocked (medians of 30). The
# width depends on neither the data nor the BLAS thread count, so the block
# sums, and the fitted models, are the same on every run.
BLOCK_COLUMNS = 32768

# Columns per block of row_kurtosis: the scratch of a (2, N) pair is 256 KiB,
# and as the width does not depend on the row count, a row's block sums are
# the same in any array shape.
_KURTOSIS_COLUMNS = 16384


def row_kurtosis(c) -> np.ndarray:
    """Excess kurtosis of each row of (..., N) data along its last axis,
    after centering and scaling to unit variance; NaN for a row with zero
    or non-finite variance. Biased (1/N) moment estimators throughout.
    Past the mean, the moments are summed over column blocks through one
    small scratch array, so no temporary of the input's size is made."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[-1]
    if n < 4:
        raise DimensionError(f"kurtosis needs >= 4 samples, got {n}")
    m2 = np.zeros(c.shape[:-1])
    m4 = np.zeros(c.shape[:-1])
    # a row whose moments leave the float64 range scores NaN, unwarned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # mean's pairwise sums give a row the same value in any array shape
        mean = c.mean(axis=-1, keepdims=True)
        for _, sq in centred_blocks(c, mean, _KURTOSIS_COLUMNS):
            np.multiply(sq, sq, out=sq)
            m2 += sq.sum(axis=-1)
            np.multiply(sq, sq, out=sq)
            m4 += sq.sum(axis=-1)
        m2 /= n
        m4 /= n
        usable = np.isfinite(m2) & (m2 > 0.0)
        return np.where(usable, m4 / (m2 * m2) - 3.0, np.nan)


@dataclass(frozen=True)
class NodeScore:
    """Per-channel kurtosis of one tree node; combined = min over channels,
    NaN when either channel is degenerate. coeffs may carry the node's
    coefficients through a streamed selection."""

    node: tuple
    kurtosis_ch1: float
    kurtosis_ch2: float
    coeffs: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def combined(self) -> float:
        return float(np.minimum(self.kurtosis_ch1, self.kurtosis_ch2))


def score_nodes(coeffs_ch1, coeffs_ch2):
    """Kurtosis scores for every node present in both channel coefficient
    maps. Degenerate (zero-variance) channels score NaN."""
    return [
        NodeScore(
            node, *(float(row_kurtosis(c[node])) for c in (coeffs_ch1, coeffs_ch2))
        )
        for node in sorted(set(coeffs_ch1) & set(coeffs_ch2))
    ]


def running_best(scores):
    """Yield each score that ranks above every score before it, ranking by
    the combined (min-over-channels) kurtosis, highest first; ties go to the
    lower band (position / 2**level, its low edge over Fs/2), then the
    shallower node. Nodes without finite scores on both channels are
    skipped. scores may be any iterable and is drawn lazily, so a caller can
    keep a leader's coeffs before the next score is made. Raises
    SelectionError once scores is exhausted if nothing was yielded."""

    def rank(s):
        level, position = s.node
        return -s.combined, position / 2**level, level

    best = None
    for s in scores:
        if np.isfinite(s.combined) and (best is None or rank(s) < rank(best)):
            best = s
            yield s
    if best is None:
        raise SelectionError("every node scored as degenerate on some channel")


def select_best_node(scores, fs_hz: int = PIPELINE_RATE_HZ) -> NodeScore:
    """The last score running_best yields: the best node of the iterable,
    for scores of a tree at fs_hz, which must be 8000 Hz."""
    check_rate(fs_hz, "node selection")
    for best in running_best(scores):
        pass
    return best


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
    of the (biased) sample covariance of 2-channel data shaped (2, N)."""
    mean, cov = mean_covariance(as_pair(x, 2, "whitening"))
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-12 * evals[-1]:
        raise SingularDataError(
            "covariance is rank-deficient; channels are (nearly) collinear"
        )
    matrix = (evecs / np.sqrt(evals)).T
    return WhiteningModel(mean=mean, matrix=matrix)
