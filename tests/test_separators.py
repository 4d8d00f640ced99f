import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bss_uwpd import (
    DegenerateInputError,
    DimensionError,
    IcaOptions,
    ParameterError,
    SingularDataError,
    UnmixingModel,
    WhiteningModel,
    apply_unmixing,
    fastica,
    fit_whitening,
    joint_diagonalize,
    mix,
    sobi,
    synth_source,
)
from bss_uwpd import MixingMatrix, separators
from bss_uwpd.metrics import align
from bss_uwpd.separators import _fastica_step, _lagged_covariances

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

    def test_gaussian_sources_terminate(self, monkeypatch):
        monkeypatch.setattr(separators, "MAX_ITERATIONS", 150)
        x, _ = _mixed("gaussian", "gaussian", n=8192)
        model = fastica(x, IcaOptions(seed=3))
        assert model.iterations <= 150
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

    def test_options_are_contrast_and_seed(self):
        # the tolerance and iteration cap are the module's constants
        assert [field.name for field in fields(IcaOptions)] == ["contrast", "seed"]
        assert (separators.TOLERANCE, separators.MAX_ITERATIONS) == (1e-6, 200)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            IcaOptions(seed=seed)


class TestSobi:
    def test_separates_ar_sources(self):
        s1 = synth_source("ar1", 16384, seed=7, pole=0.9)
        s2 = synth_source("ar1", 16384, seed=8, pole=-0.5)
        x1, x2 = mix((s1, s2), MixingMatrix(EQ8_MATRIX))
        model = sobi(np.vstack([x1.samples, x2.samples]))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_matrices(self, bad):
        # a NaN used to give a NaN rotation, an inf numpy's RuntimeWarning
        for where in ((0, 0, 0), (1, 0, 1)):
            mats = np.array([np.diag([0.8, 0.2]), np.eye(2)])
            mats[where] = bad
            with pytest.raises(ParameterError, match="finite"):
                joint_diagonalize(mats)

    def test_single_rotation_reported(self):
        x, _ = _mixed("ar1", "ar1", pole=0.5)
        assert sobi(x).iterations == 1

    def test_lag_bounds(self):
        # the data needs more samples than four times the largest lag
        assert separators.SOBI_LAGS == tuple(range(1, 21))
        x, _ = _mixed("ar1", "ar1", n=81, pole=0.5)
        with pytest.raises(DimensionError, match="sobi needs >= 81 samples, got 80"):
            sobi(x[:, :80])
        assert sobi(x).rotation.shape == (2, 2)


# The FastICA step and the SOBI lag sums run over 32768-column blocks: one
# block less one, exactly one, one and a column, several with a tail, and a
# length that is not a multiple of anything in sight.
BLOCK_LENGTHS = [32767, 32768, 32769, 3 * 32768 + 17, 100003]


def _ar_pair(n):
    s1 = synth_source("ar1", n, seed=n, pole=0.9)
    s2 = synth_source("laplacian", n, seed=n + 1)
    x1, x2 = mix((s1, s2), MixingMatrix(EQ8_MATRIX))
    return np.vstack([x1.samples, x2.samples])


def _whitened_ar_pair(n):
    x = _ar_pair(n)
    return fit_whitening(x).transform(x)


def _whole_array_covariances(z, lags):
    covs = []
    for lag in lags:
        r = z[:, lag:] @ z[:, :-lag].T / (z.shape[1] - lag)
        covs.append(0.5 * (r + r.T))
    return np.array(covs)


def _whole_array_step(w, z, contrast):
    n = z.shape[1]
    u = w @ z
    if contrast == "tanh":
        gu = np.tanh(u)
        gp_mean = 1.0 - np.einsum("ij,ij->i", gu, gu) / n
    elif contrast == "gauss":
        u2 = u * u
        e = np.exp(-0.5 * u2)
        gu = u * e
        gp_mean = (e.sum(axis=1) - np.einsum("ij,ij->i", u2, e)) / n
    else:
        gu = u * u * u
        gp_mean = 3.0 * np.einsum("ij,ij->i", u, u) / n
    return gu @ z.T / n - gp_mean[:, None] * w


def _assert_matches_whole_array(got, want, n):
    if n <= 32768:
        assert got.tobytes() == want.tobytes()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestColumnBlocks:
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_lagged_covariances_match_whole_array(self, n):
        # every lag's shifted slice reaches back across a block edge; the
        # longest is as long as sobi allows
        z = _whitened_ar_pair(n)
        lags = (1, 2, 19, 20, 4097, (n - 1) // 4)
        _assert_matches_whole_array(
            _lagged_covariances(z, lags), _whole_array_covariances(z, lags), n
        )

    def test_lag_longer_than_a_block(self):
        n = 5 * 32768 + 3
        z = _whitened_ar_pair(n)
        lags = (1, 32767, 32768, 32769, 40000)
        got = _lagged_covariances(z, lags)
        want = _whole_array_covariances(z, lags)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("contrast", ["tanh", "gauss", "cube"])
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_fastica_step_matches_whole_array(self, n, contrast):
        z = _whitened_ar_pair(n)
        w = np.linalg.qr(np.random.default_rng(n).standard_normal((2, 2)))[0]
        _assert_matches_whole_array(
            _fastica_step(w, z, contrast), _whole_array_step(w, z, contrast), n
        )

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_affine_passes_match_whole_array(self, n):
        # whitening, and unmixing at the fitted and at a caller's mean; the
        # blocked pass equals the whole-array form at every length
        x = _ar_pair(n)
        whitening = fit_whitening(x)
        rotation = np.linalg.qr(np.random.default_rng(n).standard_normal((2, 2)))[0]
        model = UnmixingModel(whitening=whitening, rotation=rotation)
        mean = x.mean(axis=1) + 0.25
        for got, m, mu in (
            (whitening.transform(x), whitening.matrix, whitening.mean),
            (apply_unmixing(model, x), model.combined, whitening.mean),
            (apply_unmixing(model, x, mean), model.combined, mean),
        ):
            want = m @ (x - mu[:, None])
            _assert_matches_whole_array(got, want, n)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_whitening_matrix_matches_whole_array(self, n):
        x = _ar_pair(n)
        centred = x - x.mean(axis=1)[:, None]
        evals, evecs = np.linalg.eigh(centred @ centred.T / n)
        _assert_matches_whole_array(fit_whitening(x).matrix, (evecs / np.sqrt(evals)).T, n)

    def test_models_do_not_depend_on_blas_threads(self):
        # several blocks, so each block's products go through BLAS
        script = (
            "import numpy as np, sys\n"
            "from bss_uwpd import MixingMatrix, fastica, mix, sobi, synth_source\n"
            "s = (synth_source('ar1', 100003, seed=1, pole=0.9),\n"
            "     synth_source('laplacian', 100003, seed=2))\n"
            "x1, x2 = mix(s, MixingMatrix(np.array([[2.0, 1.0], [1.0, 1.0]])))\n"
            "x = np.vstack([x1.samples, x2.samples])\n"
            "for m in (fastica(x), sobi(x)):\n"
            "    for a in (m.rotation, m.whitening.matrix, m.whitening.mean):\n"
            "        print(a.tobytes().hex())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 6
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fit", [fit_whitening, fastica, sobi])
class TestUnusableData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_raises_parameter_error(self, fit, bad):
        x, _ = _mixed("laplacian", "uniform", n=4096)
        x[1, 100] = bad
        with pytest.raises(ParameterError, match="finite"):
            fit(x)

    def test_overflowing_covariance_raises_degenerate_input_error(self, fit):
        # finite samples whose squares leave the float64 range
        x, _ = _mixed("laplacian", "uniform", n=4096)
        with pytest.raises(DegenerateInputError, match="float64 range"):
            fit(1e200 * x)


class TestApply:
    def test_identity_model_centers(self):
        model = UnmixingModel(
            whitening=WhiteningModel(mean=np.array([1.0, -2.0]), matrix=np.eye(2)),
            rotation=np.eye(2),
        )
        x = np.array([[2.0, 0.0], [-1.0, -3.0]])
        out = apply_unmixing(model, x)
        assert np.allclose(out, x - np.array([[1.0], [-2.0]]), atol=1e-15)

    def test_data_not_shaped_2_by_n_is_rejected(self):
        model = UnmixingModel(
            whitening=WhiteningModel(mean=np.zeros(2), matrix=np.eye(2)),
            rotation=np.eye(2),
        )
        for bad in (np.zeros(5), np.zeros((3, 5))):
            with pytest.raises(DimensionError):
                apply_unmixing(model, bad)
            with pytest.raises(DimensionError):
                model.whitening.transform(bad)

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

    def test_equivariance_under_channel_scaling(self, monkeypatch):
        monkeypatch.setattr(separators, "TOLERANCE", 1e-12)
        monkeypatch.setattr(separators, "MAX_ITERATIONS", 500)
        x, s = _mixed("laplacian", "laplacian")
        opts = IcaOptions(seed=2)
        scaled = np.vstack([3.0 * x[0], x[1]])
        out_a = apply_unmixing(fastica(x, opts), x)
        out_b = apply_unmixing(fastica(scaled, opts), scaled)
        out_a /= out_a.std(axis=1, keepdims=True)
        out_b /= out_b.std(axis=1, keepdims=True)
        permutation, signs = align(out_b, out_a)
        for i in range(2):
            matched = signs[i] * out_b[i]
            assert np.max(np.abs(matched - out_a[permutation[i]])) < 1e-6
