import tracemalloc
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from bss_uwpd import (
    BssError,
    DegenerateInputError,
    DimensionError,
    IcaOptions,
    METHOD_FASTICA,
    METHOD_PROPOSED,
    METHOD_SOBI,
    METHODS,
    MixingMatrix,
    ParameterError,
    Signal,
    SingularDataError,
    UnsupportedRateError,
    db4_filters,
    decompose_nodes,
    evaluate_pair,
    fastica,
    mix,
    score_nodes,
    select_best_node,
    separate,
    separate_baseline,
    separate_proposed,
    synth_source,
)
from bss_uwpd import pipeline
from bss_uwpd.filterbank import build_cb_tree
from bss_uwpd.pipeline import _select_subband
from bss_uwpd.stats import affine

from helpers import (
    EQ8_MATRIX,
    SUPPORT_HIGH,
    SUPPORT_LOW,
    amari_index,
    bands_overlap,
    speechlike_pair,
)

A = MixingMatrix(EQ8_MATRIX)
TREE = build_cb_tree(8000)


@pytest.fixture(scope="module")
def mixture():
    s1, s2 = speechlike_pair(16384, seed=0)
    x1, x2 = mix((s1, s2), A)
    return s1, s2, x1, x2


def _min_sir(result, sources):
    report = evaluate_pair(result.estimates, sources)
    return min(source.sir_db for source in report.per_source)


class TestProposed:
    def test_separates_banded_sources(self, mixture):
        s1, s2, x1, x2 = mixture
        result = separate_proposed(x1, x2, IcaOptions(seed=0))
        assert result.method == "proposed"
        assert result.selected_node is not None
        node_band = TREE.band(*result.selected_node)
        assert bands_overlap(node_band, SUPPORT_LOW) or bands_overlap(
            node_band, SUPPORT_HIGH
        )
        assert _min_sir(result, (s1, s2)) >= 30.0

    def test_outputs_unit_variance(self, mixture):
        _, _, x1, x2 = mixture
        result = separate_proposed(x1, x2, IcaOptions(seed=1))
        for estimate in result.estimates:
            assert abs(estimate.samples.var() - 1.0) < 1e-6
            assert len(estimate) == len(x1)
            assert estimate.sample_rate_hz == 8000

    def test_identical_channels_rejected(self):
        x = synth_source("gaussian", 8192, seed=3)
        with pytest.raises(SingularDataError):
            separate_proposed(x, x)

    def test_paired_with_plain_fastica(self, mixture):
        s1, s2, x1, x2 = mixture
        opts = IcaOptions(seed=2)
        proposed = separate_proposed(x1, x2, opts)
        plain = separate_baseline(x1, x2, METHOD_FASTICA, opts)
        assert proposed.selected_node is not None
        assert plain.selected_node is None
        assert amari_index(proposed.model.combined @ EQ8_MATRIX) < 0.05
        assert amari_index(plain.model.combined @ EQ8_MATRIX) < 0.05

    def test_deterministic(self, mixture):
        _, _, x1, x2 = mixture
        a = separate_proposed(x1, x2, IcaOptions(seed=5))
        b = separate_proposed(x1, x2, IcaOptions(seed=5))
        assert a.selected_node == b.selected_node
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.samples, eb.samples)

    def test_estimates_match_model_application(self, mixture):
        _, _, x1, x2 = mixture
        x = np.vstack([x1.samples, x2.samples])
        for method in METHODS:
            result = separate(x1, x2, method, IcaOptions(seed=6))
            raw = result.model.combined @ (x - x.mean(axis=1, keepdims=True))
            raw /= raw.std(axis=1, keepdims=True)
            for i, estimate in enumerate(result.estimates):
                assert np.max(np.abs(estimate.samples - raw[i])) < 1e-12

    def test_rate_and_length_checks(self):
        good = synth_source("gaussian", 8192, seed=9)
        wrong_rate = Signal(good.samples, 16000)
        for pair in ((wrong_rate, wrong_rate), (good, wrong_rate)):
            with pytest.raises(UnsupportedRateError):
                separate_proposed(*pair)
        short = Signal(good.samples[:4096], 8000)
        with pytest.raises(DimensionError):
            separate_proposed(good, short)


# eq8's covariance eigenvalue ratio is about 47, so its scale is folded;
# the others' is above pipeline._FOLD_MAX_RATIO (about 650, 1.6e11 and
# 6.4e11, the last near fit_whitening's rank limit)
MATRICES = {
    "eq8": EQ8_MATRIX,
    "near_collinear": np.array([[1.0, 0.95], [0.9, 1.0]]),
    "hadamard_1e-5": np.array([[1.0, 1.0], [1.0, 1.00001]]),
    "hadamard_5e-6": np.array([[1.0, 1.0], [1.0, 1.000005]]),
}


@cache
def _speechlike_mixture(n, matrix):
    return mix(speechlike_pair(n, seed=4), MixingMatrix(MATRICES[matrix]))


class TestUnitVarianceFold:
    """separate folds 1/std into the unmixing matrix, from the rotation's
    row norms for a model fitted on the mixtures, else from their
    covariance, unless that covariance is ill-conditioned; then it divides
    by the measured std."""

    @pytest.mark.parametrize("n", [4096, 32768, 100003])
    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    @pytest.mark.parametrize("method", METHODS)
    def test_each_estimate_has_unit_std(self, method, matrix, n):
        for estimate in separate(*_speechlike_mixture(n, matrix), method).estimates:
            assert abs(estimate.samples.std() - 1.0) < 1e-12

    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    @pytest.mark.parametrize("method", METHODS)
    def test_estimates_match_the_measured_std_scale(self, method, matrix):
        x1, x2 = _speechlike_mixture(32768, matrix)
        result = separate(x1, x2, method)
        x = np.vstack([x1.samples, x2.samples])
        raw = affine(result.model.combined, x, x.mean(axis=1))
        raw /= raw.std(axis=1, keepdims=True)
        estimates = np.vstack([estimate.samples for estimate in result.estimates])
        evals = np.linalg.eigvalsh(np.cov(x, bias=True))
        if evals[-1] <= pipeline._FOLD_MAX_RATIO * evals[0]:
            assert np.max(np.abs(estimates - raw)) <= 1e-13
        else:
            assert np.array_equal(estimates, raw)

    @pytest.mark.parametrize("rotation", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, np.inf]],
                                          [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["zero_row", "inf", "nan"])
    @pytest.mark.parametrize("matrix", ["eq8", "near_collinear"])
    @pytest.mark.parametrize("method", METHODS)
    def test_zero_or_non_finite_gain_raises_typed_error(self, monkeypatch, method, matrix,
                                                        rotation):
        # proposed fits on a subband of these mixtures, so every gain is tried
        for name in ("fastica", "sobi"):
            fit = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *args, fit=fit: replace(
                fit(*args), rotation=np.array(rotation)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                separate(*_speechlike_mixture(4096, matrix), method)


def _separate(method, x1, x2):
    if method == METHOD_PROPOSED:
        return separate_proposed(x1, x2)
    return separate_baseline(x1, x2, method)


class TestScale:
    @pytest.fixture(scope="class")
    def pair(self):
        s1, s2 = speechlike_pair(4096, seed=3)
        return (s1, s2), mix((s1, s2), A)

    @pytest.mark.parametrize("scale", [1e-8, 1e-6])
    @pytest.mark.parametrize("method", [METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI])
    def test_tiny_mixtures_separate_as_at_unit_scale(self, pair, method, scale):
        # variance 1e-16..1e-12: whitening must not reject data for its scale
        self._check_sirs_match_unit_scale(pair, method, scale)

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    @pytest.mark.parametrize("method", [METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI])
    def test_loud_mixtures_separate_as_at_unit_scale(self, pair, method, scale):
        # fourth moments of 1e150-scale data overflow without the entry scale
        self._check_sirs_match_unit_scale(pair, method, scale)

    @staticmethod
    def _check_sirs_match_unit_scale(pair, method, scale):
        sources, (x1, x2) = pair

        def sirs(k):
            y1, y2 = (Signal(k * x.samples, 8000) for x in (x1, x2))
            result = _separate(method, y1, y2)
            assert all(np.isfinite(e.samples).all() for e in result.estimates)
            report = evaluate_pair(result.estimates, sources)
            return [source.sir_db for source in report.per_source]

        assert np.allclose(sirs(scale), sirs(1.0), rtol=0.0, atol=0.1)

    @pytest.mark.parametrize("k", [-1000, -70, -20, 20, 70, 1000])
    @pytest.mark.parametrize("method", [METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI])
    def test_power_of_two_scale_is_bit_exact(self, pair, method, k):
        _, (x1, x2) = pair
        base = _separate(method, x1, x2)
        scaled = _separate(method, *(Signal(np.ldexp(x.samples, k), 8000) for x in (x1, x2)))
        assert scaled.selected_node == base.selected_node
        for a, b in zip(scaled.estimates, base.estimates):
            assert np.array_equal(a.samples, b.samples)
        # the model stays expressed for the caller's data
        whitening = scaled.model.whitening
        assert np.array_equal(whitening.matrix, np.ldexp(base.model.whitening.matrix, -k))
        assert np.array_equal(whitening.mean, np.ldexp(base.model.whitening.mean, k))

    @pytest.mark.parametrize("method", [METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI])
    def test_vanishing_mixtures_raise_typed_error(self, pair, method):
        # a peak near 1e-310: the unmixing matrix for it exceeds float64
        _, (x1, x2) = pair
        quiet = (Signal(np.ldexp(x.samples, -1034), 8000) for x in (x1, x2))
        with pytest.raises(DegenerateInputError):
            _separate(method, *quiet)


def _adversarial_pair(case):
    s1, s2 = speechlike_pair(4096, seed=3)
    s = np.vstack([s1.samples, s2.samples])
    x = EQ8_MATRIX @ s
    return {
        "64_samples": x[:, :64],
        "65_samples": x[:, :65],
        "dc_channel": np.vstack([x[0], np.full(x.shape[1], 0.3)]),
        "silent_channel": np.vstack([x[0], np.zeros(x.shape[1])]),
        "identical_channels": np.vstack([x[0], x[0]]),
        "det_1e-10": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]) @ s,
        "clipped": np.clip(x, -1.5, 1.5),
    }[case]


@pytest.mark.parametrize("method", [METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI])
@pytest.mark.parametrize(
    "case",
    ["64_samples", "65_samples", "dc_channel", "silent_channel",
     "identical_channels", "det_1e-10", "clipped"],
)
def test_adversarial_pair_ends_finite_or_typed(case, method):
    x = _adversarial_pair(case)
    try:
        result = _separate(method, Signal(x[0], 8000), Signal(x[1], 8000))
    except BssError:
        return
    assert all(np.isfinite(e.samples).all() for e in result.estimates)


class TestStreamedSelection:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_path(self, seed):
        s1, s2 = speechlike_pair(8192, seed=seed)
        x1, x2 = mix((s1, s2), A)
        filters = db4_filters()
        nodes1 = decompose_nodes(x1, TREE, filters)
        nodes2 = decompose_nodes(x2, TREE, filters)
        scores = score_nodes(nodes1, nodes2)
        opts = IcaOptions(seed=seed)

        common = separate_proposed(x1, x2, opts)
        best = select_best_node(scores, TREE.fs_hz).node
        assert common.selected_node == best
        model = fastica(np.vstack([nodes1[best], nodes2[best]]), opts)
        assert np.array_equal(common.model.rotation, model.rotation)
        assert np.array_equal(common.model.whitening.matrix, model.whitening.matrix)

    def test_peak_memory_is_bounded(self):
        # every node of both channels alive at once would be 33 blocks of
        # 2N floats; the input, the kept subband and the walk's five
        # recycled buffers make about 6.3
        n = 65536
        rng = np.random.default_rng(0)
        s1, s2 = (Signal(rng.laplace(size=n), 8000) for _ in range(2))
        x1, x2 = mix((s1, s2), A)
        tracemalloc.start()
        try:
            separate_proposed(x1, x2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * n * 8


class TestBaselines:
    @pytest.mark.parametrize("seed", range(4))
    def test_white_laplacian_root_node_equals_plain_fastica(self, seed):
        # no subband of white sources is more supergaussian than the whole
        s1 = synth_source("laplacian", 32768, seed=seed)
        s2 = synth_source("laplacian", 32768, seed=100 + seed)
        x1, x2 = mix((s1, s2), A)
        proposed = separate_proposed(x1, x2)
        plain = separate_baseline(x1, x2, METHOD_FASTICA)
        assert proposed.selected_node == (0, 0)
        for a, b in zip(proposed.estimates, plain.estimates):
            assert np.array_equal(a.samples, b.samples)

    def test_root_subband_is_the_input_itself(self):
        # the walk never writes its root, so a leading root is not copied
        s1 = synth_source("laplacian", 32768, seed=0)
        s2 = synth_source("laplacian", 32768, seed=100)
        x1, x2 = mix((s1, s2), A)
        x = np.vstack([x1.samples, x2.samples])
        node, subband = _select_subband(x, TREE)
        assert node == (0, 0)
        assert subband is x

    def test_fastica_on_uniform_sources(self):
        s1 = synth_source("uniform", 16384, seed=10)
        s2 = synth_source("uniform", 16384, seed=11)
        x1, x2 = mix((s1, s2), A)
        result = separate_baseline(x1, x2, METHOD_FASTICA, IcaOptions(seed=0))
        assert result.method == METHOD_FASTICA
        assert _min_sir(result, (s1, s2)) >= 30.0

    def test_sobi_on_ar_sources(self):
        s1 = synth_source("ar1", 16384, seed=12, pole=0.9)
        s2 = synth_source("ar1", 16384, seed=13, pole=-0.5)
        x1, x2 = mix((s1, s2), A)
        result = separate_baseline(x1, x2, METHOD_SOBI)
        assert _min_sir(result, (s1, s2)) >= 20.0
        assert not result.model.ill_conditioned

    def test_sobi_flags_white_sources(self):
        s1 = synth_source("gaussian", 16384, seed=14)
        s2 = synth_source("gaussian", 16384, seed=15)
        x1, x2 = mix((s1, s2), A)
        result = separate_baseline(x1, x2, METHOD_SOBI)
        assert result.model.ill_conditioned

    def test_unknown_method(self, mixture):
        _, _, x1, x2 = mixture
        for name in ("jade", "fastica_plain", "proposed"):
            with pytest.raises(ParameterError):
                separate_baseline(x1, x2, name)
        for name in ("jade", "Proposed", ""):
            with pytest.raises(ParameterError):
                separate(x1, x2, name)
