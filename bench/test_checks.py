"""Tests for the benchmark's own correctness checks.

Each check is shown to accept a known-correct output and to reject a
wrong one. Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bss_uwpd import Signal, build_cb_tree, db4_filters, decompose_nodes  # noqa: E402

import checks  # noqa: E402


def orthonormal_pair(n=4096, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))
    return q[:, 0], q[:, 1]


def test_sir_of_ten_percent_leak_is_20_db():
    r1, r2 = orthonormal_pair()
    assert checks.bss_eval_sir(r1 + 0.1 * r2, [r1, r2], 0) == pytest.approx(20.0, abs=1e-9)


def test_sir_ignores_artifacts_outside_the_reference_span():
    r1, r2 = orthonormal_pair()
    noise = np.random.default_rng(1).standard_normal(r1.size)
    refs = np.column_stack([r1, r2])
    noise -= refs @ np.linalg.lstsq(refs, noise, rcond=None)[0]
    estimate = r1 + 0.1 * r2 + noise
    assert checks.bss_eval_sir(estimate, [r1, r2], 0) == pytest.approx(20.0, abs=1e-9)


def test_amari_index_of_scaled_permutation_is_zero():
    assert checks.amari_index(np.array([[0.0, -3.0], [0.5, 0.0]])) == 0.0
    assert checks.amari_index(np.diag([2.0, -7.0])) == 0.0


def test_identity_unmixing_fails_amari_bound():
    mixing = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert checks.unmixing_problems("fastica", np.linalg.inv(mixing), mixing) == []
    assert checks.unmixing_problems("fastica", np.eye(2), mixing)


def test_swapped_references_fail_sir_floor():
    r1, r2 = orthonormal_pair()
    estimates = [r1 + 0.001 * r2, r2 - 0.001 * r1]
    matched = [checks.bss_eval_sir(estimates[k], [r1, r2], k) for k in range(2)]
    swapped = [checks.bss_eval_sir(estimates[k], [r2, r1], k) for k in range(2)]
    assert checks.sir_floor_problems("sobi", matched) == []
    assert len(checks.sir_floor_problems("sobi", swapped)) == 2


def test_sir_agreement_rejects_a_difference_above_tolerance():
    assert checks.sir_agreement_problems("proposed", [30.0, 31.0], [30.0, 31.0 + 1e-9]) == []
    assert checks.sir_agreement_problems("proposed", [30.0, 31.0], [30.0, 31.0 + 1e-5])


def test_matching_follows_the_estimates_not_their_order():
    r1, r2 = orthonormal_pair()
    estimates = [r2 + 0.01 * r1, -r1]
    assert checks.match_to_references(estimates, [r1, r2]) == (1, 0)
    sirs = checks.independent_sirs(estimates, [r1, r2])
    assert sirs[1] == pytest.approx(40.0, abs=1e-9)
    assert sirs[0] > 100.0


def test_energy_conservation_fails_on_one_altered_leaf_coefficient():
    tree = build_cb_tree(8000)
    x = np.random.default_rng(2).standard_normal(2048)
    nodes = decompose_nodes(Signal(x, 8000), tree, db4_filters())
    leaves = [(leaf.level, leaf.position) for leaf in tree.leaves]
    assert checks.energy_problems(x, nodes, leaves) == []
    leaf = leaves[3]
    altered = dict(nodes)
    altered[leaf] = nodes[leaf].copy()
    altered[leaf][100] += 1e-3
    assert checks.energy_problems(x, altered, leaves)


def test_selection_accepts_the_kurtosis_argmax_only():
    rng = np.random.default_rng(3)
    ch1 = {(1, 0): rng.standard_normal(4096), (1, 1): rng.laplace(size=4096)}
    ch2 = {(1, 0): rng.standard_normal(4096), (1, 1): rng.laplace(size=4096)}
    assert checks.selection_problems((1, 1), ch1, ch2) == []
    assert checks.selection_problems((1, 0), ch1, ch2)


def test_selection_accepts_either_of_two_tied_nodes():
    y = np.random.default_rng(4).laplace(size=4096)
    nodes = {(1, 0): y, (1, 1): y.copy()}
    assert checks.acceptable_nodes(nodes, nodes) == {(1, 0), (1, 1)}


def test_estimate_checks_reject_length_nan_and_scale():
    good = np.random.default_rng(5).standard_normal(1000)
    good = (good - good.mean()) / good.std()
    assert checks.estimate_problems("sobi", [good, good], 1000) == []
    assert checks.estimate_problems("sobi", [good[:-1], good], 1000)
    assert checks.estimate_problems("sobi", [np.where(good > 2, np.nan, good), good], 1000)
    assert checks.estimate_problems("sobi", [2.0 * good, good], 1000)
    assert checks.estimate_problems("sobi", [2.0 * good, good], 1000, unit_variance=False) == []


def test_fitted_unmixing_recovers_a_known_matrix():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 5000))
    b = np.array([[0.3, -1.2], [2.0, 0.7]])
    fitted = checks.fitted_unmixing(x, b @ x + np.array([[0.5], [-0.25]]))
    np.testing.assert_allclose(fitted, b, atol=1e-12)
