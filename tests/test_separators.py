import numpy as np
import pytest

from bss_uwpd import (
    DimensionError,
    IcaOptions,
    ParameterError,
    SingularDataError,
    UnmixingModel,
    WhiteningModel,
    apply_unmixing,
    fastica,
    joint_diagonalize,
    mix,
    sobi,
    synth_source,
)
from bss_uwpd import MixingMatrix, Signal
from bss_uwpd.metrics import align

from helpers import EQ8_MATRIX, amari_index


def _mixed(kind1, kind2, n=16384, seeds=(5, 6), **kwargs):
    s1 = synth_source(kind1, n, seed=seeds[0], **kwargs)
    s2 = synth_source(kind2, n, seed=seeds[1], **kwargs)
    x1, x2 = mix((s1, s2), MixingMatrix(EQ8_MATRIX))
    return np.vstack([x1.samples, x2.samples]), np.vstack([s1.samples, s2.samples])


class TestFastIca:
    def test_separates_uniform_mixtures(self):
        x, _ = _mixed("uniform", "uniform")
        model = fastica(x, IcaOptions(seed=0))
        assert model.converged
        assert amari_index(model.combined @ EQ8_MATRIX) < 0.05

    def test_independent_inputs_give_signed_permutation(self):
        s1 = synth_source("laplacian", 16384, seed=1)
        s2 = synth_source("laplacian", 16384, seed=2)
        x = np.vstack([s1.samples, s2.samples])
        model = fastica(x, IcaOptions(seed=0))
        assert amari_index(model.combined) < 0.05

    def test_gaussian_sources_terminate(self):
        x, _ = _mixed("gaussian", "gaussian", n=8192)
        opts = IcaOptions(seed=3, max_iterations=150)
        model = fastica(x, opts)
        assert model.iterations <= opts.max_iterations
        assert model.rotation.shape == (2, 2)

    def test_rotation_is_orthonormal(self):
        x, _ = _mixed("uniform", "laplacian")
        model = fastica(x, IcaOptions(seed=4))
        assert np.max(np.abs(model.rotation @ model.rotation.T - np.eye(2))) < 1e-8

    def test_seed_invariance_up_to_permutation(self):
        x, _ = _mixed("laplacian", "laplacian")
        m1 = fastica(x, IcaOptions(seed=1))
        m2 = fastica(x, IcaOptions(seed=2))
        assert amari_index(m1.combined @ np.linalg.inv(m2.combined)) < 1e-3

    @pytest.mark.parametrize("contrast", ["tanh", "gauss", "cube"])
    def test_contrast_functions(self, contrast):
        x, _ = _mixed("uniform", "uniform")
        model = fastica(x, IcaOptions(contrast=contrast, seed=0))
        assert amari_index(model.combined @ EQ8_MATRIX) < 0.05

    def test_too_few_samples(self):
        with pytest.raises(DimensionError):
            fastica(np.ones((2, 63)))

    def test_identical_channels(self):
        rng = np.random.default_rng(0)
        row = rng.standard_normal(1024)
        with pytest.raises(SingularDataError):
            fastica(np.vstack([row, row]))

    def test_bad_options(self):
        with pytest.raises(ParameterError):
            IcaOptions(contrast="sigmoid")
        for tolerance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                IcaOptions(tolerance=tolerance)
        with pytest.raises(ParameterError):
            IcaOptions(max_iterations=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            IcaOptions(seed=seed)


class TestSobi:
    def test_separates_ar_sources(self):
        s1 = synth_source("ar1", 16384, seed=7, pole=0.9)
        s2 = synth_source("ar1", 16384, seed=8, pole=-0.5)
        x1, x2 = mix((s1, s2), MixingMatrix(EQ8_MATRIX))
        model = sobi(np.vstack([x1.samples, x2.samples]), range(1, 11))
        assert not model.ill_conditioned
        assert amari_index(model.combined @ EQ8_MATRIX) < 0.05

    def test_diagonal_matrix_needs_no_rotation(self):
        v, _ = joint_diagonalize([np.diag([0.8, 0.2])])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_white_sources_flagged(self):
        x, _ = _mixed("gaussian", "gaussian")
        model = sobi(x)
        assert model.ill_conditioned

    def test_off_diagonal_objective_non_increasing(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((2, 2))
        mats = []
        for _ in range(6):
            m = rng.standard_normal((2, 2))
            m = base @ np.diag(rng.uniform(0.2, 1.0, 2)) @ base.T
            mats.append(0.5 * (m + m.T))
        _, history = joint_diagonalize(mats)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_one_rotation_on_near_scalar_identity(self):
        # lagged covariances of spectrally identical channels: the rotation
        # acts on rounding-level structure, and one closed-form angle must
        # still be the optimum of a fine angle grid
        rng = np.random.default_rng(21)
        angles = np.linspace(-np.pi / 4, np.pi / 4, 721)
        for _ in range(50):
            mats = []
            for scalar in rng.uniform(0.1, 1.0, 3):
                noise = 1e-9 * rng.standard_normal((2, 2))
                mats.append(scalar * np.eye(2) + noise + noise.T)
            v, history = joint_diagonalize(mats)
            assert len(history) == 2
            assert np.allclose(v @ v.T, np.eye(2), atol=1e-15)
            grid = []
            for t in angles:
                c, s = np.cos(t), np.sin(t)
                r = np.array([[c, -s], [s, c]])
                grid.append(sum(2.0 * (r.T @ m @ r)[0, 1] ** 2 for m in mats))
            assert history[-1] <= min(grid) * (1.0 + 1e-9)

    def test_rejects_other_shapes(self):
        for mats in ([np.eye(3)], [], [np.ones(2)]):
            with pytest.raises(DimensionError):
                joint_diagonalize(mats)

    def test_single_rotation_reported(self):
        x, _ = _mixed("ar1", "ar1", pole=0.5)
        assert sobi(x).iterations == 1

    def test_lag_bounds(self):
        x, _ = _mixed("ar1", "ar1", n=256, pole=0.5)
        with pytest.raises(DimensionError):
            sobi(x, [64])
        with pytest.raises(ParameterError):
            sobi(x, [])


class TestApply:
    def test_identity_model_centers(self):
        model = UnmixingModel(
            whitening=WhiteningModel(mean=np.array([1.0, -2.0]), matrix=np.eye(2)),
            rotation=np.eye(2),
        )
        x = np.array([[2.0, 0.0], [-1.0, -3.0]])
        out = apply_unmixing(model, x)
        assert np.allclose(out, x - np.array([[1.0], [-2.0]]), atol=1e-15)

    def test_recovers_correlated_sources(self):
        x, s = _mixed("uniform", "uniform")
        model = fastica(x, IcaOptions(seed=0))
        estimates = apply_unmixing(model, x)
        permutation, signs = align(estimates, s)
        for i in range(2):
            est = signs[i] * estimates[i]
            ref = s[permutation[i]]
            corr = np.corrcoef(est, ref)[0, 1]
            assert corr > 0.99

    def test_matches_algebraic_recomputation(self):
        x, _ = _mixed("laplacian", "uniform")
        model = fastica(x, IcaOptions(seed=1))
        mean = x.mean(axis=1)
        expected = model.combined @ (x - mean[:, None])
        assert np.max(np.abs(apply_unmixing(model, x, mean) - expected)) < 1e-12

    def test_exact_inverse_gives_scaled_permutation(self):
        x, s = _mixed("laplacian", "uniform")
        model = UnmixingModel(
            whitening=WhiteningModel(
                mean=x.mean(axis=1), matrix=np.linalg.inv(EQ8_MATRIX)
            ),
            rotation=np.eye(2),
        )
        assert amari_index(model.combined @ EQ8_MATRIX) < 1e-12
        out = apply_unmixing(model, x, mean=np.zeros(2))
        assert np.max(np.abs(out - s)) < 1e-6

    def test_equivariance_under_channel_scaling(self):
        x, s = _mixed("laplacian", "laplacian")
        opts = IcaOptions(seed=2, tolerance=1e-12, max_iterations=500)
        scaled = np.vstack([3.0 * x[0], x[1]])
        out_a = apply_unmixing(fastica(x, opts), x)
        out_b = apply_unmixing(fastica(scaled, opts), scaled)
        out_a /= out_a.std(axis=1, keepdims=True)
        out_b /= out_b.std(axis=1, keepdims=True)
        permutation, signs = align(out_b, out_a)
        for i in range(2):
            matched = signs[i] * out_b[i]
            assert np.max(np.abs(matched - out_a[permutation[i]])) < 1e-6
