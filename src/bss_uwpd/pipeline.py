"""End-to-end separation: subband preprocessing, ICA, time-domain unmixing.

The proposed path walks both mixtures over the critical-band tree, keeps
the node whose coefficients are jointly most supergaussian, fits FastICA on
those coefficients, and applies the learned unmixing matrix to the original
time-domain mixtures. Baselines fit directly on the mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, Signal, check_rate, scale_into_range, stack_pair
from .errors import DegenerateInputError, ParameterError
from .filterbank import build_cb_tree, db4_filters, walk
from .separators import DEFAULT_SOBI_LAGS, IcaOptions, UnmixingModel, fastica, sobi
from .stats import (
    NodeScore,
    WhiteningModel,
    affine,
    mean_covariance,
    row_kurtosis,
    running_best,
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


def _stack_pair(x1: Signal, x2: Signal):
    """The pair (checked by stack_pair, at 8000 Hz) as (2, N) data brought
    into range by scale_into_range, and its exponent e; every method's
    estimates are invariant to the scale 2**-e."""
    x, rate = stack_pair((x1, x2))
    check_rate(rate, "the pipeline")
    return scale_into_range(x, max(x.max(), -x.min()))


def _select_subband(x, tree):
    """The node select_best_node keeps and its block, each node scored as
    the walk produces it. The root's block is x itself, which the walk never
    writes; any other block is valid only until the walk advances, so each
    new leader below the root is copied into one kept buffer."""
    kept = x
    scores = (NodeScore(node, *row_kurtosis(coeffs).tolist(), coeffs=coeffs)
              for node, coeffs in walk(x, tree, db4_filters()))
    for best in running_best(scores):
        if best.coeffs is not x:
            if kept is x:
                kept = np.empty_like(x)
            np.copyto(kept, best.coeffs)
    return best.node, kept


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
            gain = estimates.std(axis=1)
        folded = c / gain[:, None]
    # a zero gain turns its row of folded to inf or NaN, an infinite one to 0
    if not (np.all(np.isfinite(gain)) and np.all(np.isfinite(folded))):
        raise DegenerateInputError("an estimate's variance is zero or not finite")
    if estimates is None:
        return affine(folded, x, mean)
    estimates /= gain[:, None]
    return estimates


def separate(x1: Signal, x2: Signal, method: str, opts: IcaOptions | None = None,
             lags=DEFAULT_SOBI_LAGS) -> SeparationResult:
    """Separate two mixtures with one of METHODS: proposed fits FastICA on
    the kurtosis-selected subband, fastica and sobi fit on the mixtures, and
    the model is applied to the mixtures, each estimate scaled to unit
    variance. opts sets the FastICA fits, lags the SOBI fit.

    Unless the mixtures' covariance is ill-conditioned, the unit-variance
    scale is folded into the unmixing matrix by 2x2 algebra, so the
    estimates come from one affine pass; otherwise each estimate is divided
    by its measured std."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    x, e = _stack_pair(x1, x2)
    selected_node, fitted = None, x
    if method == METHOD_PROPOSED:
        selected_node, fitted = _select_subband(x, build_cb_tree())
    model = sobi(x, lags) if method == METHOD_SOBI else fastica(fitted, opts)
    estimates = _unit_variance_estimates(model, x, fitted is x)
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
                      opts: IcaOptions | None = None,
                      lags=DEFAULT_SOBI_LAGS) -> SeparationResult:
    """separate with fastica or sobi, the methods fitted on the mixtures."""
    if method == METHOD_PROPOSED:
        raise ParameterError(f"{method!r} is not a baseline method")
    return separate(x1, x2, method, opts, lags)
