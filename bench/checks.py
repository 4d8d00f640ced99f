"""Correctness checks computed apart from the program under test.

Every function here works from the known inputs (references, mixing
matrix, mixture samples) with plain numpy/scipy, never from a stored copy
of an earlier output. Each `*_problems` function returns a list of
human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

import wave

import numpy as np
from scipy import stats

# Amari index of (unmixing @ mixing) may not exceed this: twice the worst
# case measured over the benchmark's inputs (0.073, SOBI; bench/README.md).
AMARI_BOUND = 0.15

# Per-method SIR floors (dB), each 5-7 dB below the minimum measured for
# that method over the benchmark's inputs (bench/README.md): 21.8 dB for
# proposed (a rare pick of a narrow level-5 node), 25.5 dB for plain
# FastICA, 22.5 dB for SOBI. One common floor would not fit all three.
SIR_FLOOR_DB = {"proposed": 15.0, "fastica": 20.0, "sobi": 16.0}

SIR_AGREEMENT_DB = 1e-6
ENERGY_RTOL = 1e-9
SELECTION_TIE = 1e-9
UNIT_STD_TOL = 1e-9


def amari_index(p) -> float:
    """Distance of a square matrix from a scaled permutation; 0 iff exact."""
    p = np.abs(np.asarray(p, dtype=np.float64))
    n = p.shape[0]
    rows = (p.sum(axis=1) / p.max(axis=1) - 1.0).sum()
    cols = (p.sum(axis=0) / p.max(axis=0) - 1.0).sum()
    return float(0.5 * (rows + cols) / n)


def bss_eval_sir(estimate, references, target: int) -> float:
    """BSS-Eval SIR (Vincent, Gribonval & Fevotte 2006) in dB.

    The target part is the projection onto references[target]; the
    interference part is the rest of the least-squares projection onto the
    span of all references.
    """
    e = np.asarray(estimate, dtype=np.float64)
    refs = np.column_stack([np.asarray(r, dtype=np.float64) for r in references])
    t = refs[:, target]
    s_target = (t @ e) / (t @ t) * t
    coeffs, *_ = np.linalg.lstsq(refs, e, rcond=None)
    e_interf = refs @ coeffs - s_target
    return float(10.0 * np.log10((s_target @ s_target) / (e_interf @ e_interf)))


def match_to_references(estimates, references):
    """For each reference k, the index of the estimate that matches it:
    the assignment with the larger summed absolute correlation."""
    c = np.abs(np.corrcoef(np.vstack([*estimates, *references]))[:2, 2:])
    return (0, 1) if c[0, 0] + c[1, 1] >= c[0, 1] + c[1, 0] else (1, 0)


def independent_sirs(estimates, references):
    """SIR of the estimate matched to each reference, in reference order."""
    matched = match_to_references(estimates, references)
    return [bss_eval_sir(estimates[matched[k]], references, k) for k in range(2)]


def sir_floor_problems(method: str, sirs) -> list:
    floor = SIR_FLOOR_DB[method]
    return [
        f"{method}: source {k + 1} SIR {value:.2f} dB below floor {floor} dB"
        for k, value in enumerate(sirs)
        if not value >= floor
    ]


def sir_agreement_problems(method: str, mine, program) -> list:
    return [
        f"{method}: source {k + 1} SIR {b!r} dB from the program, "
        f"{a!r} dB computed independently"
        for k, (a, b) in enumerate(zip(mine, program))
        if not abs(a - b) <= SIR_AGREEMENT_DB
    ]


def sir_problems(method: str, estimates, references, program_sirs) -> list:
    """Recompute per-source SIR, compare with the program's, apply the floor."""
    mine = independent_sirs(estimates, references)
    return sir_agreement_problems(method, mine, program_sirs) + sir_floor_problems(
        method, mine
    )


def unmixing_problems(method: str, unmixing, mixing) -> list:
    value = amari_index(np.asarray(unmixing) @ np.asarray(mixing))
    if not value <= AMARI_BOUND:
        return [f"{method}: Amari index {value:.4f} above {AMARI_BOUND}"]
    return []


def estimate_problems(method: str, estimates, n: int, unit_variance=True) -> list:
    problems = []
    for k, e in enumerate(estimates):
        e = np.asarray(e, dtype=np.float64)
        if e.shape != (n,):
            problems.append(f"{method}: estimate {k + 1} has shape {e.shape}, want ({n},)")
        elif not np.all(np.isfinite(e)):
            problems.append(f"{method}: estimate {k + 1} is not finite")
        elif unit_variance and not abs(e.std() - 1.0) <= UNIT_STD_TOL:
            problems.append(f"{method}: estimate {k + 1} has std {e.std()!r}, want 1")
    return problems


def energy_relative_error(x, nodes, leaves) -> float:
    """|sum 2^-level ||leaf||^2 - ||x||^2| / ||x||^2 for an undecimated
    orthonormal packet tree, whose levels each double the energy."""
    x = np.asarray(x, dtype=np.float64)
    total = sum(
        float(nodes[leaf] @ nodes[leaf]) / 2.0 ** leaf[0] for leaf in leaves
    )
    return abs(total - float(x @ x)) / float(x @ x)


def energy_problems(x, nodes, leaves) -> list:
    error = energy_relative_error(x, nodes, leaves)
    if not error <= ENERGY_RTOL:
        return [f"filterbank: energy not conserved, relative error {error:.3e}"]
    return []


def acceptable_nodes(nodes_ch1, nodes_ch2) -> set:
    """Argmax over nodes of min-over-channels excess kurtosis (scipy,
    fisher=True, bias=True); the runner-up is also accepted when the top
    two are within SELECTION_TIE of each other."""
    scores = []
    for node in nodes_ch1:
        k = min(
            stats.kurtosis(nodes_ch1[node], fisher=True, bias=True),
            stats.kurtosis(nodes_ch2[node], fisher=True, bias=True),
        )
        if np.isfinite(k):
            scores.append((float(k), node))
    scores.sort(reverse=True)
    accepted = {scores[0][1]}
    if len(scores) > 1 and scores[0][0] - scores[1][0] <= SELECTION_TIE:
        accepted.add(scores[1][1])
    return accepted


def selection_problems(selected, nodes_ch1, nodes_ch2) -> list:
    accepted = acceptable_nodes(nodes_ch1, nodes_ch2)
    if tuple(selected) not in accepted:
        return [f"proposed: selected node {tuple(selected)}, max-kurtosis node {sorted(accepted)}"]
    return []


def read_pcm16(path) -> np.ndarray:
    """Samples of a mono 16-bit PCM WAV file scaled to [-1, 1)."""
    with wave.open(str(path), "rb") as handle:
        frames = handle.readframes(handle.getnframes())
    return np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0


def fitted_unmixing(mixtures, outputs) -> np.ndarray:
    """Least-squares 2x2 matrix B (plus offset) with outputs ~ B @ mixtures."""
    x = np.asarray(mixtures, dtype=np.float64)
    design = np.column_stack([x.T, np.ones(x.shape[1])])
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(outputs, dtype=np.float64).T, rcond=None)
    return coeffs[:2].T
