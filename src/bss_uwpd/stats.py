"""Kurtosis scoring, whitening, and maximum-kurtosis node selection.

Excess kurtosis is the fourth-moment contrast E[y^4] - 3 (E[y^2])^2 of a
zero-mean unit-variance sequence: zero for Gaussian data, positive for
supergaussian (speech-like) data. Node selection keeps the tree node whose
two mixture channels are jointly most non-Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import PIPELINE_RATE_HZ
from .errors import (
    DegenerateInputError,
    DimensionError,
    SelectionError,
    SingularDataError,
)
from .filterbank import CbTree


def row_kurtosis(c) -> np.ndarray:
    """Excess kurtosis of each row of (..., N) data along its last axis,
    after centering and scaling to unit variance; NaN for a row with zero
    or non-finite variance. Biased (1/N) moment estimators throughout."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[-1]
    if n < 4:
        raise DimensionError(f"kurtosis needs >= 4 samples, got {n}")
    # mean's pairwise sums give a row the same value in any array shape
    sq = c - c.mean(axis=-1, keepdims=True)
    np.multiply(sq, sq, out=sq)
    m2 = sq.mean(axis=-1)
    np.multiply(sq, sq, out=sq)
    m4 = sq.mean(axis=-1)
    usable = np.isfinite(m2) & (m2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(usable, m4 / (m2 * m2) - 3.0, np.nan)


def kurtosis(y) -> float:
    """Excess kurtosis of a sequence (see row_kurtosis)."""
    value = float(row_kurtosis(np.ravel(y)))
    if np.isnan(value):
        raise DegenerateInputError("zero-variance input has no kurtosis")
    return value


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


def select_best_node(scores, fs_hz: int = PIPELINE_RATE_HZ) -> NodeScore:
    """Node maximizing the combined (min-over-channels) kurtosis; ties go to
    the lower band, then the shallower node. scores may be any iterable and
    is consumed once, holding only the best score so far. Nodes without
    finite scores on both channels are skipped."""
    band = CbTree(fs_hz, ()).band
    best = min(
        (s for s in scores if np.isfinite(s.combined)),
        key=lambda s: (-s.combined, band(*s.node)[0], s.node[0]),
        default=None,
    )
    if best is None:
        raise SelectionError("every node scored as degenerate on some channel")
    return best


@dataclass(frozen=True)
class WhiteningModel:
    """Affine transform taking fitted data to zero mean, identity covariance."""

    mean: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).copy()
        matrix = np.asarray(self.matrix, dtype=np.float64).copy()
        mean.setflags(write=False)
        matrix.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.matrix @ (x - self.mean[:, None])


def as_pair(x, min_samples: int, what: str) -> np.ndarray:
    """x as float64 2-channel data shaped (2, N) with N >= min_samples;
    what names the consumer in the error message."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != 2:
        raise DimensionError(f"expected 2-channel data shaped (2, N), got {x.shape}")
    if x.shape[1] < min_samples:
        raise DimensionError(f"{what} needs >= {min_samples} samples, got {x.shape[1]}")
    return x


def fit_whitening(x) -> WhiteningModel:
    """Fit mean and whitening matrix D^(-1/2) E^T from the eigendecomposition
    of the (biased) sample covariance of 2-channel data shaped (2, N)."""
    x = as_pair(x, 2, "whitening")
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    cov = centered @ centered.T / x.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-12 * evals[-1]:
        raise SingularDataError(
            "covariance is rank-deficient; channels are (nearly) collinear"
        )
    matrix = (evecs / np.sqrt(evals)).T
    return WhiteningModel(mean=mean, matrix=matrix)
