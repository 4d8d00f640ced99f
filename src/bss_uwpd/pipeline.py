"""End-to-end separation: subband preprocessing, ICA, time-domain unmixing.

The proposed path walks both mixtures over the critical-band tree, keeps
the node whose coefficients are jointly most supergaussian, fits FastICA on
those coefficients, and applies the learned unmixing matrix to the original
time-domain mixtures. Baselines fit directly on the mixtures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, Signal, check_rate, pair_rate, scale_into_range
from .errors import DegenerateInputError, ParameterError
from .filterbank import CbLeaf, build_cb_tree, db4_filters, walk
from .separators import IcaOptions, UnmixingModel, fastica, sobi
from .stats import (
    NodeScore,
    WhiteningModel,
    affine,
    mean_covariance,
    row_kurtosis,
    select_best_node,
)

METHOD_PROPOSED = "proposed"
METHOD_FASTICA = "fastica"
METHOD_SOBI = "sobi"
METHODS = (METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI)


@dataclass(frozen=True)
class SeparationResult:
    """Estimated sources plus fit provenance; model.converged and
    model.iterations describe the fit."""

    estimates: tuple
    model: UnmixingModel
    selected_node: tuple | None
    method: str


def _scaled_rows(x1: Signal, x2: Signal):
    """The pair's two rows (checked by pair_rate, at 8000 Hz), each brought
    into range by scale_into_range of the pair's peak, and its exponent e;
    every method's estimates are invariant to the scale 2**-e. Unscaled
    rows are the Signals' own samples."""
    check_rate(pair_rate(x1, x2), "the pipeline")
    rows = x1.samples, x2.samples
    peak = max(max(row.max(), -row.min()) for row in rows)
    (row1, e), (row2, _) = (scale_into_range(row, peak) for row in rows)
    return (row1, row2), e


def _select_node(rows, tree, filters):
    """The node select_best_node keeps, each row walked on its own and each
    node scored as the walk produces it."""
    ch1, ch2 = ({node: row_kurtosis(c) for node, c in walk(row, tree, filters)} for row in rows)
    return select_best_node([NodeScore(node, ch1[node], ch2[node]) for node in ch1]).node


# The folded gain is 2x2 algebra on the mixtures' covariance, so it loses
# about 2**-52 times the covariance's eigenvalue ratio (measured below 0.6
# times that), where a measured std loses only its own rounding. Up to this
# ratio the gain is within 8.5e-15 (relative) of the measured std, which
# keeps unit-variance estimates peaking below 11 within 1e-13 of it; above
# it the estimates are divided by their measured std.
_FOLD_MAX_RATIO = 64.0


def _unit_variance_estimates(model: UnmixingModel, x, fitted_on_x: bool):
    """The estimates C @ (x - mean) / gain, C being model.combined and
    gain_i = sqrt((C cov(x) C^T)_ii) the std of estimate i. A model fitted
    on x whitens it, so there mean is the fitted mean and gain the row
    norms of the orthonormal rotation; otherwise both come from one blocked
    pass over x. When cov(x)'s eigenvalue ratio is at most _FOLD_MAX_RATIO,
    1/gain is folded into C and the estimates come from one affine pass;
    else gain is the measured std of the affine pass's rows. Raises
    DegenerateInputError when a gain is zero or not finite."""
    c = model.combined
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if fitted_on_x:
            mean, gain = model.whitening.mean, np.linalg.norm(model.rotation, axis=1)
            # the whitening matrix's rows have norms eigenvalue**-0.5
            evals = np.linalg.norm(model.whitening.matrix, axis=1) ** -2.0
        else:
            mean, cov = mean_covariance(x)
            gain = np.sqrt(np.sum((c @ cov) * c, axis=1))
            evals = np.linalg.eigvalsh(cov)
        estimates = None
        if evals.max() > _FOLD_MAX_RATIO * evals.min():
            estimates = affine(c, x, mean)
            # row by row, so std's centred copy is one row, not the pair
            gain = np.array([row.std() for row in estimates])
        folded = c / gain[:, None]
    # a zero gain turns its row of folded to inf or NaN, an infinite one to 0
    if not (np.all(np.isfinite(gain)) and np.all(np.isfinite(folded))):
        raise DegenerateInputError("an estimate's variance is zero or not finite")
    if estimates is None:
        return affine(folded, x, mean)
    estimates /= gain[:, None]
    return estimates


def separate(x1: Signal, x2: Signal, method: str,
             opts: IcaOptions | None = None) -> SeparationResult:
    """Separate two mixtures with one of METHODS: proposed fits FastICA on
    the kurtosis-selected subband, fastica and sobi fit on the mixtures, and
    the model is applied to the mixtures, each estimate scaled to unit
    variance. opts sets the FastICA fits.

    Unless the mixtures' covariance is ill-conditioned, the unit-variance
    scale is folded into the unmixing matrix by 2x2 algebra, so the
    estimates come from one affine pass; otherwise each estimate is divided
    by its measured std."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    rows, e = _scaled_rows(x1, x2)
    selected_node = model = None
    if method == METHOD_PROPOSED:
        filters, tree = db4_filters(), build_cb_tree()
        selected_node = _select_node(rows, tree, filters)
        if selected_node != (0, 0):
            # the winner's path, walked per row, is fitted and dropped before the pair is stacked
            path = replace(tree, leaves=(CbLeaf(*selected_node),))
            model = fastica(np.vstack([deque(walk(row, path, filters), maxlen=1)[0][1]
                                       for row in rows]), opts)
    x = np.vstack(rows)
    del rows  # free scaled rows before the estimates are allocated
    fitted_on_x = model is None
    if fitted_on_x:
        model = sobi(x) if method == METHOD_SOBI else fastica(x, opts)
    estimates = _unit_variance_estimates(model, x, fitted_on_x)
    # read-only, so each estimate Signal keeps its row without a copy
    estimates.setflags(write=False)
    if e:
        # express the model for the caller's data, undoing the entry scale
        with np.errstate(over="ignore"):
            whitening = WhiteningModel(
                mean=np.ldexp(model.whitening.mean, e),
                matrix=np.ldexp(model.whitening.matrix, -e),
            )
        if not np.all(np.isfinite(whitening.matrix)):
            raise DegenerateInputError(
                "mixtures are too quiet for their unmixing matrix to be finite"
            )
        model = replace(model, whitening=whitening)
    return SeparationResult(
        estimates=tuple(Signal(row, PIPELINE_RATE_HZ) for row in estimates),
        model=model,
        selected_node=selected_node,
        method=method,
    )


def separate_proposed(x1: Signal, x2: Signal,
                      opts: IcaOptions | None = None) -> SeparationResult:
    """separate with the proposed method."""
    return separate(x1, x2, METHOD_PROPOSED, opts)


def separate_baseline(x1: Signal, x2: Signal, method: str,
                      opts: IcaOptions | None = None) -> SeparationResult:
    """separate with fastica or sobi, the methods fitted on the mixtures."""
    if method == METHOD_PROPOSED:
        raise ParameterError(f"{method!r} is not a baseline method")
    return separate(x1, x2, method, opts)
