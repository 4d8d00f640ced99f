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

from .audio_io import Signal, scale_into_range
from .errors import (
    DegenerateInputError,
    DimensionError,
    ParameterError,
    UnsupportedRateError,
)

DB_CAP = 300.0

SEG_FRAME = 256
SEG_HOP = SEG_FRAME // 2  # half-overlapping frames: each is two half-frames
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
    Signal already is) and to share one length; the Signals among them
    must share one sample rate."""
    rates = {s.sample_rate_hz for s in signals if isinstance(s, Signal)}
    if len(rates) > 1:
        raise UnsupportedRateError(f"signals must share one sample rate, got {sorted(rates)} Hz")
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


def _gram(arrays):
    """Symmetric table of the arrays' pairwise `_dot` products."""
    gram = np.empty((len(arrays), len(arrays)))
    for i, j in zip(*np.triu_indices(len(arrays))):
        gram[i, j] = gram[j, i] = _dot(arrays[i], arrays[j])
    return gram


def _align(arrays):
    """[e0, e1, r0, r1] with each estimate brought into range by
    scale_into_range (every metric is invariant to an estimate's scale),
    their Gram table, then align's rule on G_ij - S_i S_j / N."""
    extremes = [(arr.min(), arr.max()) for arr in arrays] if arrays[0].size else []
    if not extremes or any(lo == hi for lo, hi in extremes):
        raise DegenerateInputError("zero-variance signal cannot be aligned")
    arrays = [scale_into_range(arr, max(hi, -lo))[0]
              for arr, (lo, hi) in zip(arrays[:2], extremes)] + arrays[2:]
    # references far outside the range overflow the table, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(arrays)
        sums = np.array([arr.sum() for arr in arrays])
        centred = gram - np.outer(sums, sums) / arrays[0].size
    if not np.all(np.isfinite(centred)):
        raise DegenerateInputError("signal energies exceed the float64 range")
    if np.any(np.diag(centred) <= 1e-10 * np.diag(gram)):  # too few digits left
        raise DegenerateInputError("signal variance is lost in the rounding of its mean")
    norms = np.sqrt(np.diag(centred))
    corr = centred[:2, 2:] / np.outer(norms[:2], norms[2:])
    permutation = (0, 1) if np.trace(abs(corr)) >= np.trace(abs(corr)[::-1]) else (1, 0)
    signs = tuple(1 if corr[i, permutation[i]] >= 0 else -1 for i in range(2))
    return arrays, gram, permutation, signs


def align(estimates, references):
    """Match estimates to references by absolute Pearson correlation.

    Returns (permutation, signs) where permutation[i] is the reference index
    assigned to estimate i and signs[i] is the sign of that correlation.
    A constant signal is rejected.
    """
    return _align(_samples(*estimates, *references))[2:]


@dataclass(frozen=True)
class BssDecomposition:
    """Additive split of an estimate: s_target + e_interf + e_artif."""

    s_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray
    collinear: bool = False


def _coefficients(gram, projections, target_index):
    """Target coefficient, span coefficients (None if collinear), collinear flag."""
    target_energy = gram[target_index, target_index]
    if target_energy <= 0.0:
        raise DegenerateInputError("target reference carries no energy")
    collinear = np.linalg.det(gram) <= 1e-12 * gram[0, 0] * gram[1, 1]
    coeffs = None if collinear else np.linalg.solve(gram, projections)
    return projections[target_index] / target_energy, coeffs, collinear


def bss_decompose(estimate, references, target_index: int) -> BssDecomposition:
    """Project an estimate onto the matched reference and the reference span.

    s_target is the projection onto the target reference, e_interf the rest
    of the projection onto span{references}, e_artif the remainder. With
    collinear references the interference term is defined as zero and the
    decomposition is flagged.
    """
    e, *refs = _samples(estimate, *references)
    projections = np.array([_dot(r, e) for r in refs])
    beta, coeffs, collinear = _coefficients(_gram(refs), projections, target_index)
    s_target = beta * refs[target_index]
    p_span = s_target if collinear else coeffs[0] * refs[0] + coeffs[1] * refs[1]
    return BssDecomposition(s_target=s_target, e_interf=p_span - s_target,
                            e_artif=e - p_span, collinear=collinear)


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


def _frame_energies(x):
    """Energies of the SEG_FRAME frames at SEG_HOP, summed from half-frames."""
    halves = x[: x.size - x.size % SEG_HOP].reshape(-1, SEG_HOP)
    energies = np.einsum("ij,ij->i", halves, halves)
    return energies[:-1] + energies[1:]


def _segmental(ref, residual) -> float:
    """Mean clamped frame SNR of ref against residual over voiced frames."""
    if ref.size < SEG_FRAME:
        raise DimensionError(f"need one whole {SEG_FRAME}-sample frame, got {ref.size} samples")
    ref_energy = _frame_energies(ref)
    voiced = ref_energy > 1e-12
    if not voiced.any():
        raise DegenerateInputError("reference is silent in every frame")
    with np.errstate(divide="ignore"):
        ratios = ref_energy[voiced] / _frame_energies(residual)[voiced]
    # a noiseless frame divides to +inf, which the ceiling clips to 35 dB
    return float(np.mean(np.clip(10.0 * np.log10(ratios), SEG_FLOOR_DB, SEG_CEIL_DB)))


def segmental_snr(estimate, reference) -> float:
    """Mean per-frame SNR in dB over 256-sample frames with 50% overlap.

    The estimate is scale-matched by a global least-squares gain; each
    frame's SNR is clamped to [-10, 35] dB and frames with (near) silent
    reference are excluded.
    """
    est, ref = _samples(estimate, reference)
    return _segmental(ref, ref - _ls_gain(ref, est) * est)


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
    Every score comes from one Gram table of the raw estimates and references.
    """
    arrays, gram, permutation, signs = _align(_samples(*estimates, *references))
    scratch = np.empty(arrays[0].size)
    per_source = []
    for k, (t, o) in enumerate(((2, 3), (3, 2))):
        i = permutation.index(k)
        projections = signs[i] * gram[i, 2:]
        beta, coeffs, collinear = _coefficients(gram[2:, 2:], projections, k)
        target = beta * projections[k]
        # the interference is c_o (r_o - (G_to / G_tt) r_t)
        interference = 0.0 if collinear else coeffs[o - 2] ** 2 * (
            gram[o, o] - gram[t, o] ** 2 / gram[t, t])
        # signs fold into scalars: distortion, then gain residual r_t - (G_it / G_ii) e
        e, r = arrays[i], arrays[t]
        np.subtract(e, np.multiply(r, signs[i] * beta, out=scratch), out=scratch)
        sdr_db = _capped_db(target, _dot(scratch, scratch))
        np.subtract(r, np.multiply(e, gram[i, t] / gram[i, i], out=scratch), out=scratch)
        per_source.append(SourceMetrics(
            sir_db=_capped_db(target, interference), sdr_db=sdr_db,
            seg_snr_db=_segmental(r, scratch),
            overall_snr_db=_capped_db(gram[t, t], _dot(scratch, scratch))))
    return MetricsReport(per_source=tuple(per_source), permutation=permutation, signs=signs)
