"""End-to-end separation: subband preprocessing, ICA, time-domain unmixing.

The proposed path walks both mixtures over the critical-band tree, keeps
the node whose coefficients are jointly most supergaussian, fits FastICA on
those coefficients, and applies the learned unmixing matrix to the original
time-domain mixtures. Baselines fit directly on the mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, Signal
from .errors import DimensionError, ParameterError, SelectionError, UnsupportedRateError
from .filterbank import build_cb_tree, db4_filters, walk
from .separators import (
    DEFAULT_SOBI_LAGS,
    IcaOptions,
    UnmixingModel,
    apply_unmixing,
    fastica,
    sobi,
)
from .stats import rank_key, row_kurtosis

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


def _check_pair(x1: Signal, x2: Signal):
    if x1.sample_rate_hz != PIPELINE_RATE_HZ or x2.sample_rate_hz != PIPELINE_RATE_HZ:
        raise UnsupportedRateError(
            f"pipeline runs at {PIPELINE_RATE_HZ} Hz, got "
            f"{x1.sample_rate_hz} and {x2.sample_rate_hz}"
        )
    if len(x1) != len(x2):
        raise DimensionError(f"mixture lengths differ: {len(x1)} vs {len(x2)}")


def _finish(x, model, selected_node, method):
    estimates = apply_unmixing(model, x, mean=x.mean(axis=1))
    estimates = estimates / estimates.std(axis=1, keepdims=True)
    return SeparationResult(
        estimates=tuple(Signal(row, PIPELINE_RATE_HZ) for row in estimates),
        model=model,
        selected_node=selected_node,
        method=method,
        converged=model.converged,
        iterations=model.iterations,
    )


def _select_subband(x, tree):
    """Score each node as the walk produces it, ranked by the min over
    channels, and keep only the best node and its block."""
    best = None
    for node, coeffs in walk(x, tree, db4_filters()):
        value = float(np.min(row_kurtosis(coeffs)))
        if np.isfinite(value):
            rank = rank_key(node, value, tree.fs_hz)
            if best is None or rank < best[0]:
                best = (rank, node, coeffs)
    if best is None:
        raise SelectionError("every node scored as degenerate on some channel")
    # a copy made after the walk spares the next separation re-faulting its
    # temporaries (5, not 163 minor faults per fastica call at 32768 samples)
    return best[1], best[2].copy()


def separate_proposed(
    x1: Signal, x2: Signal, opts: IcaOptions | None = None
) -> SeparationResult:
    """Separate two mixtures via the kurtosis-selected subband."""
    _check_pair(x1, x2)
    x = np.vstack([x1.samples, x2.samples])
    selected, subband = _select_subband(x, build_cb_tree())
    model = fastica(subband, opts if opts is not None else IcaOptions())
    return _finish(x, model, selected, METHOD_PROPOSED)


def separate_baseline(
    x1: Signal,
    x2: Signal,
    method: str,
    opts: IcaOptions | None = None,
    lags=DEFAULT_SOBI_LAGS,
) -> SeparationResult:
    """Separate two mixtures with a model fitted directly in the time domain."""
    _check_pair(x1, x2)
    x = np.vstack([x1.samples, x2.samples])
    if method == METHOD_FASTICA:
        model = fastica(x, opts if opts is not None else IcaOptions())
    elif method == METHOD_SOBI:
        model = sobi(x, lags)
    else:
        raise ParameterError(
            f"method must be {METHOD_FASTICA!r} or {METHOD_SOBI!r}, got {method!r}"
        )
    return _finish(x, model, None, method)
