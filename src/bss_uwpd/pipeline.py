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

from .audio_io import PIPELINE_RATE_HZ, Signal
from .errors import (
    DegenerateInputError,
    DimensionError,
    ParameterError,
    UnsupportedRateError,
)
from .filterbank import build_cb_tree, db4_filters, walk
from .separators import (
    DEFAULT_SOBI_LAGS,
    IcaOptions,
    UnmixingModel,
    apply_unmixing,
    fastica,
    sobi,
)
from .stats import NodeScore, WhiteningModel, row_kurtosis, select_best_node

METHOD_PROPOSED = "proposed"
METHOD_FASTICA = "fastica"
METHOD_SOBI = "sobi"


@dataclass(frozen=True)
class SeparationResult:
    """Estimated sources plus fit provenance."""

    estimates: tuple
    model: UnmixingModel
    selected_node: tuple | None
    method: str
    converged: bool
    iterations: int


# A pair whose peak lies outside [2**-64, 2**64) is brought to a peak in
# [0.5, 1) before any statistic is taken: far enough outside, the node
# scores' fourth moments and the covariances over- or underflow.
_PEAK_EXPONENTS = range(-63, 65)


def _stack_pair(x1: Signal, x2: Signal):
    """The checked pair as (2, N) data scaled by 2**-e, and e: 0 unless the
    peak is out of range. A power of two scales exactly, and every method's
    estimates are invariant to it."""
    if x1.sample_rate_hz != PIPELINE_RATE_HZ or x2.sample_rate_hz != PIPELINE_RATE_HZ:
        raise UnsupportedRateError(
            f"pipeline runs at {PIPELINE_RATE_HZ} Hz, got "
            f"{x1.sample_rate_hz} and {x2.sample_rate_hz}"
        )
    if len(x1) != len(x2):
        raise DimensionError(f"mixture lengths differ: {len(x1)} vs {len(x2)}")
    x = np.vstack([x1.samples, x2.samples])
    e = math.frexp(max(x.max(), -x.min()))[1]
    if e in _PEAK_EXPONENTS:
        return x, 0
    return np.ldexp(x, -e), e


def _finish(x, e, model, selected_node, method):
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
        converged=model.converged,
        iterations=model.iterations,
    )


def _select_subband(x, tree):
    """The node select_best_node keeps and its block, each node scored as
    the walk produces it so no other block outlives its score."""
    best = select_best_node(
        (NodeScore(node, *row_kurtosis(coeffs).tolist(), coeffs=coeffs)
         for node, coeffs in walk(x, tree, db4_filters())),
        tree.fs_hz,
    )
    # a copy made after the walk spares the next separation re-faulting its
    # temporaries (5, not 163 minor faults per fastica call at 32768 samples)
    return best.node, best.coeffs.copy()


def separate_proposed(
    x1: Signal, x2: Signal, opts: IcaOptions | None = None
) -> SeparationResult:
    """Separate two mixtures via the kurtosis-selected subband."""
    x, e = _stack_pair(x1, x2)
    selected, subband = _select_subband(x, build_cb_tree())
    model = fastica(subband, opts if opts is not None else IcaOptions())
    return _finish(x, e, model, selected, METHOD_PROPOSED)


def separate_baseline(
    x1: Signal,
    x2: Signal,
    method: str,
    opts: IcaOptions | None = None,
    lags=DEFAULT_SOBI_LAGS,
) -> SeparationResult:
    """Separate two mixtures with a model fitted directly in the time domain."""
    x, e = _stack_pair(x1, x2)
    if method == METHOD_FASTICA:
        model = fastica(x, opts if opts is not None else IcaOptions())
    elif method == METHOD_SOBI:
        model = sobi(x, lags)
    else:
        raise ParameterError(
            f"method must be {METHOD_FASTICA!r} or {METHOD_SOBI!r}, got {method!r}"
        )
    return _finish(x, e, model, None, method)
