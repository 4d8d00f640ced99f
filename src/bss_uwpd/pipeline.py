"""End-to-end separation: subband preprocessing, ICA, time-domain unmixing.

The proposed path walks both mixtures over the critical-band tree, keeps
the node whose coefficients are jointly most supergaussian, fits FastICA on
those coefficients, and applies the learned unmixing matrix to the original
time-domain mixtures. Baselines fit directly on the mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, Signal, check_rate, stack_pair
from .errors import DegenerateInputError, ParameterError
from .filterbank import build_cb_tree, db4_filters, walk
from .separators import (
    DEFAULT_SOBI_LAGS,
    IcaOptions,
    UnmixingModel,
    apply_unmixing,
    fastica,
    sobi,
)
from .stats import NodeScore, WhiteningModel, row_kurtosis, running_best

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


# A pair whose peak lies outside [2**-64, 2**64) is brought to a peak in
# [0.5, 1) before any statistic is taken: far enough outside, the node
# scores' fourth moments and the covariances over- or underflow.
_PEAK_EXPONENTS = range(-63, 65)


def _stack_pair(x1: Signal, x2: Signal):
    """The pair (checked by stack_pair, at 8000 Hz) as (2, N) data scaled
    by 2**-e, and e: 0 unless the peak is out of range. A power of two
    scales exactly, and every method's estimates are invariant to it."""
    x, rate = stack_pair((x1, x2))
    check_rate(rate, "the pipeline")
    e = math.frexp(max(x.max(), -x.min()))[1]
    if e in _PEAK_EXPONENTS:
        return x, 0
    return np.ldexp(x, -e), e


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


def separate(x1: Signal, x2: Signal, method: str, opts: IcaOptions | None = None,
             lags=DEFAULT_SOBI_LAGS) -> SeparationResult:
    """Separate two mixtures with one of METHODS: proposed fits FastICA on
    the kurtosis-selected subband, fastica and sobi fit on the mixtures, and
    the model is applied to the mixtures, each estimate scaled to unit
    variance. opts sets the FastICA fits, lags the SOBI fit."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    x, e = _stack_pair(x1, x2)
    selected_node, fitted = None, x
    if method == METHOD_PROPOSED:
        selected_node, fitted = _select_subband(x, build_cb_tree())
    model = sobi(x, lags) if method == METHOD_SOBI else fastica(fitted, opts)
    estimates = apply_unmixing(model, x, mean=x.mean(axis=1))
    estimates = estimates / estimates.std(axis=1, keepdims=True)
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
