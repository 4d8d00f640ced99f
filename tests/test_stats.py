import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from bss_uwpd import (
    DegenerateInputError,
    DimensionError,
    UnsupportedRateError,
    fit_whitening,
    score_nodes,
    select_best_node,
)
from bss_uwpd.stats import affine, row_kurtosis


def kurtosis(y) -> float:
    return float(row_kurtosis(y))


class TestKurtosis:
    def test_gaussian_is_zero(self):
        rng = np.random.default_rng(0)
        assert abs(kurtosis(rng.standard_normal(100000))) < 0.1

    def test_full_period_sine(self):
        t = np.arange(8000)
        y = np.sin(2 * np.pi * 100 * t / 8000.0)
        assert abs(kurtosis(y) - (-1.5)) < 0.01

    def test_laplacian(self):
        rng = np.random.default_rng(1)
        assert abs(kurtosis(rng.laplace(size=100000)) - 3.0) < 0.15

    def test_uniform(self):
        rng = np.random.default_rng(2)
        assert abs(kurtosis(rng.uniform(-1, 1, size=100000)) - (-1.2)) < 0.05

    @pytest.mark.parametrize("scale,shift", [(2.5, -3.0), (-0.7, 10.0), (1e-3, 0.2)])
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(3)
        y = rng.laplace(size=5000)
        assert abs(kurtosis(scale * y + shift) - kurtosis(y)) < 1e-8

    def test_zero_variance(self):
        assert np.isnan(row_kurtosis(np.full(100, 3.3)))

    @pytest.mark.parametrize("n", [4, 4096, 100003])
    def test_constant_rows_read_nan(self, n):
        # a constant's computed mean may be off by its rounding, which leaves
        # the row a tiny variance that is no signal
        for value in (0.1, 0.7, 3.3, 1e-300, 1e300, 1.0, -2.5, 0.0):
            assert np.isnan(row_kurtosis(np.full(n, value))), value

    def test_small_variance_about_a_large_mean(self):
        # the variance is 2e-20 of the squared mean, far above its rounding
        y = 1e6 + 1e-4 * np.random.default_rng(0).laplace(size=4096)
        assert abs(row_kurtosis(y) - sps.kurtosis(y, fisher=True, bias=True)) < 1e-6

    def test_too_short(self):
        with pytest.raises(DimensionError):
            row_kurtosis(np.array([1.0, 2.0, 3.0]))

    def test_fourth_moment_overflow_reads_the_scaled_row(self):
        # the variance, about 4e199, is finite; its square and m4 are not,
        # so the row is scored again brought into range by a power of two
        y = np.array([1e100, -1e100, 3e99, 0.0, 5e99])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_kurtosis(y)
        expected = sps.kurtosis(np.ldexp(y, -math.frexp(1e100)[1]), fisher=True, bias=True)
        assert abs(got - expected) <= 1e-14 * (expected + 3.0)

    @pytest.mark.parametrize("scale", [1e-80, 1e-90, 1e-150, 1e150])
    def test_quiet_and_loud_rows_read_their_unit_scale_value(self, scale):
        # at 1e-80 the fourth moment is subnormal, at 1e-90 and 1e-150 it
        # underflows to 0, at 1e150 it overflows
        y = np.random.default_rng(5).laplace(size=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_kurtosis(scale * y)
            # a power of two, so that the constant row's mean is exact
            for flat in (np.zeros(4096), np.full(4096, 2.0 ** math.frexp(scale)[1])):
                assert np.isnan(row_kurtosis(flat))
            for bad in (np.nan, np.inf):
                assert np.isnan(row_kurtosis(np.append(scale * y, bad)))
        expected = row_kurtosis(y)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(row_kurtosis(np.array([1.0, 2.0, bad, 4.0, 5.0])))


class TestRowKurtosis:
    # the column blocks hold 16384 samples: straddle one and span several
    @pytest.mark.parametrize("n", [16383, 16384, 16385, 100003])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        for y in (rng.laplace(size=n), 3.0 + 0.01 * rng.standard_normal(n)):
            got = row_kurtosis(y)
            assert type(got) is float
            expected = sps.kurtosis(y, fisher=True, bias=True)
            assert abs(got - expected) <= 1e-14 * (expected + 3.0)

    def test_takes_one_row_only(self):
        rng = np.random.default_rng(8)
        for x in (rng.standard_normal((2, 64)), rng.standard_normal((1, 64)), np.float64(1.0)):
            with pytest.raises(DimensionError):
                row_kurtosis(x)

    def test_no_temporary_of_input_size(self):
        x = np.random.default_rng(7).standard_normal(131072)
        tracemalloc.start()
        try:
            row_kurtosis(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2


def _score_map(data_by_node):
    """Build per-channel coefficient dicts from {node: (ch1, ch2)}."""
    ch1 = {node: pair[0] for node, pair in data_by_node.items()}
    ch2 = {node: pair[1] for node, pair in data_by_node.items()}
    return score_nodes(ch1, ch2)


class TestNodeSelection:
    def test_single_node(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(512)
        scores = _score_map({(5, 0): (y, y)})
        assert select_best_node(scores).node == (5, 0)

    def test_supergaussian_node_wins(self):
        rng = np.random.default_rng(5)
        data = {
            (5, 0): (rng.standard_normal(4096), rng.standard_normal(4096)),
            (5, 1): (rng.laplace(size=4096), rng.laplace(size=4096)),
            (4, 1): (rng.standard_normal(4096), rng.standard_normal(4096)),
        }
        scores = _score_map(data)
        # brute-force oracle: recompute min-kurtosis per node with scipy
        oracle = max(
            data,
            key=lambda node: min(sps.kurtosis(c, fisher=True, bias=True) for c in data[node]),
        )
        assert oracle == (5, 1)
        assert select_best_node(scores).node == oracle

    def test_tie_breaks_toward_lower_band(self):
        rng = np.random.default_rng(6)
        y = rng.laplace(size=1024)
        scores = _score_map({(5, 1): (y, y), (5, 0): (y, y)})
        assert select_best_node(scores).node == (5, 0)
        # the rank needs no sample rate, and only the tree's 8000 Hz is taken
        assert select_best_node(scores, 8000).node == (5, 0)
        for fs_hz in (-8000, 16000):
            with pytest.raises(UnsupportedRateError):
                select_best_node(scores, fs_hz)

    def test_tie_breaks_toward_shallower_node(self):
        rng = np.random.default_rng(7)
        y = rng.laplace(size=1024)
        scores = _score_map({(5, 0): (y, y), (4, 0): (y, y)})
        assert select_best_node(scores).node == (4, 0)

    def test_degenerate_nodes_are_skipped(self):
        rng = np.random.default_rng(8)
        flat = np.zeros(256)
        live = rng.standard_normal(256)
        scores = _score_map({(5, 0): (flat, live), (5, 1): (live, live)})
        assert select_best_node(scores).node == (5, 1)

    def test_all_degenerate_is_an_error(self):
        flat = np.zeros(256)
        scores = _score_map({(5, 0): (flat, flat)})
        with pytest.raises(DegenerateInputError, match="every node scored as degenerate"):
            select_best_node(scores)

    def test_winner_invariant_under_rescaling(self):
        rng = np.random.default_rng(9)
        data = {
            (5, 0): (rng.standard_normal(4096), rng.standard_normal(4096)),
            (3, 2): (rng.laplace(size=4096), rng.laplace(size=4096)),
        }
        baseline = select_best_node(_score_map(data)).node
        rescaled = {
            node: (3.7 * pair[0], 0.02 * pair[1]) for node, pair in data.items()
        }
        assert select_best_node(_score_map(rescaled)).node == baseline


class TestWhitening:
    def test_white_data_stays_white(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 4096))
        mean, whitening = fit_whitening(x)
        z = affine(whitening, x, mean)
        cov = z @ z.T / z.shape[1]
        assert np.max(np.abs(cov - np.eye(2))) < 1e-8

    def test_diagonal_covariance_case(self):
        # sample covariance of this pattern is exactly diag(4, 1), so the
        # whitener must be diag(1/2, 1) up to row sign/permutation
        x = np.array([[2.0, -2.0, 2.0, -2.0], [1.0, 1.0, -1.0, -1.0]])
        matrix = fit_whitening(x)[1]
        undone = np.abs(matrix @ np.diag([2.0, 1.0]))
        assert np.allclose(undone @ undone.T, np.eye(2), atol=1e-12)
        assert np.allclose(np.sort(np.abs(matrix).max(axis=1)), [0.5, 1.0], atol=1e-12)

    def test_any_input_whitens(self):
        rng = np.random.default_rng(12)
        x = np.array([[3.0, 1.0], [1.0, 0.5]]) @ rng.laplace(size=(2, 2048)) + 5.0
        mean, whitening = fit_whitening(x)
        z = affine(whitening, x, mean)
        cov = z @ z.T / z.shape[1]
        assert np.max(np.abs(cov - np.eye(2))) < 1e-8

    def test_rank_deficient_data(self):
        rng = np.random.default_rng(13)
        row = rng.standard_normal(512)
        with pytest.raises(DegenerateInputError, match="covariance is rank-deficient"):
            fit_whitening(np.vstack([row, 2.0 * row]))

    @pytest.mark.parametrize("scale", [1e-170, 1e-200])
    def test_underflowing_covariance_names_the_scale(self, scale):
        # independent rows whose covariance underflows to zero or subnormals
        x = scale * np.random.default_rng(14).laplace(size=(2, 4096))
        with pytest.raises(DegenerateInputError, match=r"peak at .*2\*\*-64"):
            fit_whitening(x)
        # all-zero data has a singular covariance, not an underflowed one
        with pytest.raises(DegenerateInputError, match="covariance is rank-deficient"):
            fit_whitening(np.zeros((2, 4096)))
        assert np.all(np.isfinite(fit_whitening(x / scale * 1e-160)[1]))
