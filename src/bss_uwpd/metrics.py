"""Separation-quality evaluation.

Each estimate is decomposed against the reference pair into a target part
(projection onto the matched reference), an interference part (remainder of
the projection onto the span of both references), and an artifact part (what
lies outside that span). SIR and SDR are energy ratios of these parts in dB;
segmental and overall SNR compare the estimate to its reference after a
least-squares gain fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import Signal
from .errors import (
    DegenerateInputError,
    DimensionError,
    ParameterError,
    UnsupportedRateError,
)

DB_CAP = 300.0

SEG_FRAME = 256
SEG_HOP = 128
SEG_FLOOR_DB = -10.0
SEG_CEIL_DB = 35.0


def _capped_db(numerator: float, denominator: float) -> float:
    """10 log10(numerator/denominator) of energies, capped to +-300 dB."""
    if numerator <= 0.0 and denominator <= 0.0:
        return 0.0
    if denominator <= 0.0:
        return DB_CAP
    if numerator <= 0.0:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(numerator / denominator), -DB_CAP, DB_CAP))


def _dot(a, b) -> float:
    """Dot product independent of the BLAS thread count: einsum sums
    256-sample blocks without BLAS, and the blocks are added pairwise; the
    tail, like a segmental SNR frame, is below OpenBLAS's threading size."""
    whole = a.size - a.size % 256
    blocks = np.einsum("ij,ij->i", a[:whole].reshape(-1, 256), b[:whole].reshape(-1, 256))
    return float(blocks.sum() + a[whole:] @ b[whole:])


def _samples(*signals):
    """Each signal's samples as a float array, checked to be finite (a
    Signal already is) and to share one length."""
    arrays = []
    for signal in signals:
        if isinstance(signal, Signal):
            arrays.append(signal.samples)
            continue
        samples = np.asarray(signal, float)
        if not np.all(np.isfinite(samples)):
            raise ParameterError("signal samples must be finite")
        arrays.append(samples)
    if len({arr.size for arr in arrays}) != 1:
        raise DimensionError("estimates and references must share one length")
    return arrays


def align(estimates, references):
    """Match estimates to references by absolute Pearson correlation.

    Returns (permutation, signs) where permutation[i] is the reference index
    assigned to estimate i and signs[i] is the sign of that correlation.
    """
    centered = [arr - arr.mean() for arr in _samples(*estimates, *references)]
    norms = [np.sqrt(_dot(arr, arr)) for arr in centered]
    if min(norms) == 0.0:
        raise DegenerateInputError("zero-variance signal cannot be aligned")
    est, ref = centered[:2], centered[2:]
    corr = np.array(
        [[_dot(ei, rj) / (norms[i] * norms[2 + j]) for j, rj in enumerate(ref)]
         for i, ei in enumerate(est)]
    )
    if abs(corr[0, 0]) + abs(corr[1, 1]) >= abs(corr[0, 1]) + abs(corr[1, 0]):
        permutation = (0, 1)
    else:
        permutation = (1, 0)
    signs = tuple(1 if corr[i, permutation[i]] >= 0 else -1 for i in range(2))
    return permutation, signs


@dataclass(frozen=True)
class BssDecomposition:
    """Additive split of an estimate: s_target + e_interf + e_artif."""

    s_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray
    collinear: bool = False


def bss_decompose(estimate, references, target_index: int) -> BssDecomposition:
    """Project an estimate onto the matched reference and the reference span.

    s_target is the projection onto the target reference, e_interf the rest
    of the projection onto span{references}, e_artif the remainder. With
    collinear references the interference term is defined as zero and the
    decomposition is flagged.
    """
    e, *refs = _samples(estimate, *references)
    cross = _dot(refs[0], refs[1])
    gram = np.array([[_dot(refs[0], refs[0]), cross], [cross, _dot(refs[1], refs[1])]])
    target_energy = gram[target_index, target_index]
    if target_energy <= 0.0:
        raise DegenerateInputError("target reference carries no energy")
    projections = np.array([_dot(r, e) for r in refs])
    s_target = (projections[target_index] / target_energy) * refs[target_index]
    collinear = np.linalg.det(gram) <= 1e-12 * gram[0, 0] * gram[1, 1]
    if collinear:
        p_span = s_target
    else:
        coeffs = np.linalg.solve(gram, projections)
        p_span = coeffs[0] * refs[0] + coeffs[1] * refs[1]
    e_interf = p_span - s_target
    e_artif = e - p_span
    return BssDecomposition(
        s_target=s_target, e_interf=e_interf, e_artif=e_artif, collinear=collinear
    )


def sir(decomposition: BssDecomposition) -> float:
    """Signal-to-interference ratio in dB, capped to +-300."""
    return _capped_db(
        _dot(decomposition.s_target, decomposition.s_target),
        _dot(decomposition.e_interf, decomposition.e_interf),
    )


def sdr(decomposition: BssDecomposition) -> float:
    """Signal-to-distortion ratio in dB (interference plus artifacts), capped."""
    distortion = decomposition.e_interf + decomposition.e_artif
    return _capped_db(
        _dot(decomposition.s_target, decomposition.s_target),
        _dot(distortion, distortion),
    )


def _ls_gain(reference, estimate):
    denom = _dot(estimate, estimate)
    return (_dot(reference, estimate) / denom) if denom > 0.0 else 0.0


def segmental_snr(estimate, reference) -> float:
    """Mean per-frame SNR in dB over 256-sample frames with 50% overlap.

    The estimate is scale-matched by a global least-squares gain; each
    frame's SNR is clamped to [-10, 35] dB and frames with (near) silent
    reference are excluded.
    """
    est, ref = _samples(estimate, reference)
    if ref.size < SEG_FRAME:
        raise DimensionError(
            f"need at least one {SEG_FRAME}-sample frame, got {ref.size} samples"
        )
    residual = ref - _ls_gain(ref, est) * est
    ref_frames = sliding_window_view(ref, SEG_FRAME)[::SEG_HOP]
    noise_frames = sliding_window_view(residual, SEG_FRAME)[::SEG_HOP]
    ref_energy = np.einsum("ij,ij->i", ref_frames, ref_frames)
    noise_energy = np.einsum("ij,ij->i", noise_frames, noise_frames)
    voiced = ref_energy > 1e-12
    if not voiced.any():
        raise DegenerateInputError("reference is silent in every frame")
    with np.errstate(divide="ignore"):
        ratios = ref_energy[voiced] / noise_energy[voiced]
    # a noiseless frame divides to +inf, which the ceiling clips to 35 dB
    return float(np.mean(np.clip(10.0 * np.log10(ratios), SEG_FLOOR_DB, SEG_CEIL_DB)))


def overall_snr(estimate, reference) -> float:
    """Whole-signal SNR in dB after a least-squares gain fit, capped to +-300."""
    est, ref = _samples(estimate, reference)
    ref_energy = _dot(ref, ref)
    if ref_energy <= 0.0:
        raise DegenerateInputError("reference carries no energy")
    residual = ref - _ls_gain(ref, est) * est
    return _capped_db(ref_energy, _dot(residual, residual))


@dataclass(frozen=True)
class SourceMetrics:
    sir_db: float
    sdr_db: float
    seg_snr_db: float
    overall_snr_db: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-source metrics after permutation/sign alignment."""

    per_source: tuple
    permutation: tuple
    signs: tuple


def evaluate_pair(estimates, references) -> MetricsReport:
    """Align two estimates with two references and score every metric.

    per_source[k] holds the metrics of the estimate matched to reference k.
    Signals of different sample rates are rejected.
    """
    rates = {s.sample_rate_hz for s in (*estimates, *references) if isinstance(s, Signal)}
    if len(rates) > 1:
        raise UnsupportedRateError(
            f"estimates and references must share one sample rate, got {sorted(rates)} Hz"
        )
    permutation, signs = align(estimates, references)
    per_source = []
    for source_index in range(2):
        estimate_index = permutation.index(source_index)
        aligned = signs[estimate_index] * _samples(estimates[estimate_index])[0]
        decomposition = bss_decompose(aligned, references, source_index)
        per_source.append(
            SourceMetrics(
                sir_db=sir(decomposition),
                sdr_db=sdr(decomposition),
                seg_snr_db=segmental_snr(aligned, references[source_index]),
                overall_snr_db=overall_snr(aligned, references[source_index]),
            )
        )
    return MetricsReport(
        per_source=tuple(per_source), permutation=permutation, signs=signs
    )
