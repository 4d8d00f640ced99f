import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from bss_uwpd import (
    METHODS,
    DegenerateInputError,
    DimensionError,
    MixingMatrix,
    ParameterError,
    Signal,
    UnsupportedRateError,
    align,
    bss_decompose,
    evaluate_pair,
    mix,
    overall_snr,
    sdr,
    segmental_snr,
    separate,
    sir,
)

from helpers import EQ8_MATRIX, speechlike_pair

DB10_OF_50 = 16.989700043360187  # 10*log10(50)


def _orthonormal_refs(n=2048, seed=0):
    rng = np.random.default_rng(seed)
    r1, r2 = rng.standard_normal((2, n))
    r1 /= np.linalg.norm(r1)
    r2 -= (r2 @ r1) * r1
    r2 /= np.linalg.norm(r2)
    return r1, r2


class TestAlign:
    def test_identity(self):
        rng = np.random.default_rng(1)
        refs = rng.standard_normal((2, 512))
        permutation, signs = align(refs, refs)
        assert permutation == (0, 1)
        assert signs == (1, 1)

    def test_swap_and_negate(self):
        rng = np.random.default_rng(2)
        refs = rng.standard_normal((2, 512))
        estimates = np.vstack([-refs[1], refs[0]])
        permutation, signs = align(estimates, refs)
        assert permutation == (1, 0)
        assert signs == (-1, 1)

    def test_noisy_scaled_copies(self):
        rng = np.random.default_rng(3)
        refs = rng.standard_normal((2, 4096))
        estimates = 0.3 * refs + 0.05 * rng.standard_normal((2, 4096))
        permutation, signs = align(estimates, refs)
        assert permutation == (0, 1)
        assert signs == (1, 1)

    def test_zero_variance_rejected(self):
        flat = np.zeros(128)
        live = np.arange(128.0)
        with pytest.raises(DegenerateInputError):
            align([flat, live], [live, live])

    @pytest.mark.parametrize("as_signal", [False, True])
    @pytest.mark.parametrize("value", [0.3, 7.7])
    def test_constant_non_zero_signal_rejected(self, value, as_signal):
        # the rounded mean of these is not the value, so a centred norm
        # would be tiny rather than zero
        a, b = np.random.default_rng(20).standard_normal((2, 4097))
        wrap = (lambda x: Signal(x, 8000)) if as_signal else (lambda x: x)
        estimates = [wrap(np.full(4097, value)), wrap(a)]
        references = [wrap(a), wrap(b)]
        for call in (align, evaluate_pair):
            with pytest.raises(DegenerateInputError, match="zero-variance"):
                call(estimates, references)
            with pytest.raises(DegenerateInputError, match="zero-variance"):
                call(references, estimates)

    @pytest.mark.parametrize("offset", [3e4, 1e6])
    def test_offset_far_above_spread(self, offset):
        # centred products from the Gram table keep their digits up to a
        # spread of about 1e-5 of the mean; beyond that the error is typed
        a, b = np.random.default_rng(21).standard_normal((2, 4097))
        estimates, refs = np.vstack([offset + b, a]), np.vstack([a, b])
        if offset < 1e5:
            assert align(estimates, refs) == _align_oracle(estimates, refs) == ((1, 0), (1, 1))
        else:
            with pytest.raises(DegenerateInputError, match="rounding of its mean"):
                align(estimates, refs)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_correlation_loop(self, seed):
        # references of unlike scale and large offsets; estimates of arbitrary
        # mixing and unlike noise, with sign flips and, on odd seeds, swapped rows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 5000))
        sources = rng.standard_normal((2, n))
        scales = 10.0 ** rng.uniform(-2.0, 2.0, (2, 1))
        refs = scales * (sources + rng.normal(0.0, 3.0, (2, 1)))
        noise = rng.uniform(0.0, 3.0, (2, 1)) * rng.standard_normal((2, n))
        estimates = rng.standard_normal((2, 2)) @ sources + noise
        estimates = rng.choice([-1.0, 1.0], (2, 1)) * estimates + rng.normal(0.0, 3.0, (2, 1))
        if seed % 2:
            estimates = estimates[::-1]
        assert align(estimates, refs) == _align_oracle(estimates, refs)


def _align_oracle(est, ref):
    """The per-pair correlation loop: two means, two deviations and a
    product mean for each of the four pairs."""
    corr = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            ei, rj = est[i], ref[j]
            corr[i, j] = np.mean((ei - ei.mean()) * (rj - rj.mean())) / (ei.std() * rj.std())
    if abs(corr[0, 0]) + abs(corr[1, 1]) >= abs(corr[0, 1]) + abs(corr[1, 0]):
        permutation = (0, 1)
    else:
        permutation = (1, 0)
    signs = tuple(1 if corr[i, permutation[i]] >= 0 else -1 for i in range(2))
    return permutation, signs


class TestBssDecompose:
    def test_pure_scaling_has_no_interference(self):
        r1, r2 = _orthonormal_refs()
        decomposition = bss_decompose(2.0 * r1, (r1, r2), 0)
        assert np.max(np.abs(decomposition.e_interf)) < 1e-10
        assert np.max(np.abs(decomposition.e_artif)) < 1e-10
        assert np.allclose(decomposition.s_target, 2.0 * r1, atol=1e-10)

    def test_projection_ratio(self):
        r1, r2 = _orthonormal_refs()
        decomposition = bss_decompose(r1 + 0.1 * r2, (r1, r2), 0)
        ratio = np.linalg.norm(decomposition.s_target) / np.linalg.norm(
            decomposition.e_interf
        )
        assert abs(ratio - 10.0) < 1e-9

    def test_out_of_span_noise_is_artifact(self):
        r1, r2 = _orthonormal_refs()
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(r1.size)
        noise -= (noise @ r1) * r1
        noise -= (noise @ r2) * r2
        decomposition = bss_decompose(r1 + noise, (r1, r2), 0)
        assert np.max(np.abs(decomposition.e_interf)) < 1e-10
        assert np.allclose(decomposition.e_artif, noise, atol=1e-10)

    def test_parts_sum_to_estimate(self):
        rng = np.random.default_rng(5)
        refs = rng.standard_normal((2, 1024))
        estimate = rng.standard_normal(1024)
        decomposition = bss_decompose(estimate, refs, 1)
        total = (
            decomposition.s_target + decomposition.e_interf + decomposition.e_artif
        )
        assert np.max(np.abs(total - estimate)) < 1e-10

    def test_orthogonality(self):
        rng = np.random.default_rng(6)
        refs = rng.standard_normal((2, 1024))
        estimate = rng.standard_normal(1024)
        d = bss_decompose(estimate, refs, 0)
        norm = np.linalg.norm
        assert abs(d.s_target @ d.e_interf) < 1e-8 * norm(d.s_target) * max(norm(d.e_interf), 1e-30)
        head = d.s_target + d.e_interf
        assert abs(head @ d.e_artif) < 1e-8 * norm(head) * max(norm(d.e_artif), 1e-30)

    def test_collinear_references(self):
        # SIR is undefined when the references span one direction, so the
        # split raises as evaluate_pair does
        rng = np.random.default_rng(7)
        r1 = rng.standard_normal(512)
        for target in (0, 1):
            with pytest.raises(DegenerateInputError, match="references are collinear"):
                bss_decompose(r1 + 1.0, (r1, -2.0 * r1), target)


class TestSirSdr:
    def test_sir_caps_at_300(self):
        r1, r2 = _orthonormal_refs()
        assert sir(bss_decompose(3.0 * r1, (r1, r2), 0)) == 300.0

    def test_sir_ratio_10_is_20db(self):
        r1, r2 = _orthonormal_refs()
        assert abs(sir(bss_decompose(r1 + 0.1 * r2, (r1, r2), 0)) - 20.0) < 1e-9

    def test_sir_equal_energies_is_0db(self):
        r1, r2 = _orthonormal_refs()
        assert abs(sir(bss_decompose(r1 + r2, (r1, r2), 0))) < 1e-9

    def test_sdr_caps_at_300(self):
        r1, r2 = _orthonormal_refs()
        assert sdr(bss_decompose(1.5 * r1, (r1, r2), 0)) == 300.0

    def test_sdr_equals_sir_without_artifacts(self):
        r1, r2 = _orthonormal_refs()
        decomposition = bss_decompose(r1 + 0.03 * r2, (r1, r2), 0)
        assert abs(sdr(decomposition) - sir(decomposition)) < 1e-9

    def test_sdr_pythagorean_case(self):
        r1, r2 = _orthonormal_refs()
        rng = np.random.default_rng(8)
        out = rng.standard_normal(r1.size)
        out -= (out @ r1) * r1
        out -= (out @ r2) * r2
        out /= np.linalg.norm(out)
        estimate = r1 + 0.1 * r2 + 0.1 * out
        assert abs(sdr(bss_decompose(estimate, (r1, r2), 0)) - DB10_OF_50) < 1e-9

    def test_sir_of_collinear_references_raises(self):
        # one reference given twice spans one direction: SIR is undefined
        r1, r2 = _orthonormal_refs()
        with pytest.raises(DegenerateInputError, match="collinear"):
            sir(bss_decompose(r1 + 0.1 * r2, (r1, r1), 0))

    @staticmethod
    def _exactly_orthogonal(n=512):
        """Three +-1 patterns whose pairwise dot products are exactly 0."""
        return (np.tile([1.0, 1.0, -1.0, -1.0], n // 4), np.tile([1.0, -1.0, 1.0, -1.0], n // 4),
                np.tile([1.0, -1.0, -1.0, 1.0], n // 4))

    def test_estimate_orthogonal_to_its_target_in_the_span_is_minus_300(self):
        r1, r2, _ = self._exactly_orthogonal()
        decomposition = bss_decompose(r2, (r1, r2), 0)
        assert not decomposition.s_target.any()
        assert sir(decomposition) == sdr(decomposition) == -300.0

    def test_estimate_orthogonal_to_both_references_is_0db_sir(self):
        # no target and no interference energy: 0/0 reads 0 dB
        r1, r2, out = self._exactly_orthogonal()
        decomposition = bss_decompose(out, (r1, r2), 0)
        assert not decomposition.s_target.any() and not decomposition.e_interf.any()
        assert sir(decomposition) == 0.0
        assert sdr(decomposition) == -300.0

    def test_sir_never_below_sdr(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            refs = rng.standard_normal((2, 256))
            estimate = rng.standard_normal(256)
            decomposition = bss_decompose(estimate, refs, 0)
            assert sir(decomposition) >= sdr(decomposition) - 1e-9


def _segmental_oracle(est, ref):
    """Independent brute-force recomputation of the segmental SNR contract."""
    gain = (ref @ est) / (est @ est)
    values = []
    for start in range(0, ref.size - 256 + 1, 128):
        rf = ref[start : start + 256]
        ef = est[start : start + 256]
        if rf @ rf <= 1e-12:
            continue
        resid = rf - gain * ef
        snr = 10.0 * np.log10((rf @ rf) / (resid @ resid))
        values.append(min(35.0, max(-10.0, snr)))
    return float(np.mean(values))


class TestSegmentalSnr:
    def test_perfect_estimate_hits_ceiling(self):
        rng = np.random.default_rng(10)
        ref = rng.standard_normal(4096)
        assert segmental_snr(ref, ref) == 35.0

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal(8192)
        noise = rng.standard_normal(8192)
        for start in range(0, 8192, 256):
            frame = slice(start, start + 256)
            noise[frame] *= np.linalg.norm(ref[frame]) / np.linalg.norm(noise[frame])
        est = ref + noise
        got = segmental_snr(est, ref)
        assert abs(got - _segmental_oracle(est, ref)) < 1e-12
        # unit-energy-ratio noise with a least-squares gain lands near
        # 10*log10(2) per frame
        assert abs(got - 10.0 * np.log10(2.0)) < 0.5

    def test_silent_tail_padding_does_not_change_score(self):
        rng = np.random.default_rng(12)
        ref = np.concatenate([rng.standard_normal(2048), np.zeros(256)])
        est = ref + 0.1 * rng.standard_normal(ref.size)
        est[2048:] = 0.0
        base = segmental_snr(est, ref)
        padded_ref = np.concatenate([ref, np.zeros(512)])
        padded_est = np.concatenate([est, np.zeros(512)])
        assert segmental_snr(padded_est, padded_ref) == base

    def test_too_short(self):
        with pytest.raises(DimensionError):
            segmental_snr(np.ones(100), np.ones(100))

    @pytest.mark.parametrize("silent_head", [False, True])
    @pytest.mark.parametrize("n", [256, 257, 383, 384, 385, 4097, 32785])
    def test_matches_oracle_at_frame_boundaries(self, n, silent_head):
        rng = np.random.default_rng(n)
        ref = rng.standard_normal(n)
        if silent_head:
            ref[: n // 3] = 0.0
        est = 0.7 * ref + rng.uniform(0.05, 2.0) * rng.standard_normal(n)
        assert abs(segmental_snr(est, ref) - _segmental_oracle(est, ref)) < 1e-12

    @pytest.mark.parametrize("n", [256, 4097])
    def test_zero_estimate_scores_zero_db(self, n):
        # gain 0 leaves the reference itself as the residual of every frame
        ref = np.random.default_rng(n + 2).standard_normal(n)
        assert segmental_snr(np.zeros(n), ref) == 0.0

    @pytest.mark.parametrize("n", [256, 385, 32785])
    def test_exact_estimate_hits_ceiling(self, n):
        ref = np.random.default_rng(n + 3).standard_normal(n)
        ref[: n // 3] = 0.0
        assert segmental_snr(ref, ref) == 35.0

    def test_silent_reference_rejected(self):
        with pytest.raises(DegenerateInputError):
            segmental_snr(np.ones(1024), np.zeros(1024))


class TestOverallSnr:
    def test_scale_invariant_perfect_recovery(self):
        rng = np.random.default_rng(13)
        ref = rng.standard_normal(1024)
        assert overall_snr(-0.25 * ref, ref) == 300.0

    def test_known_residual_ratio(self):
        # est = ref + n with |n|^2 = 1/99 leaves a least-squares residual of
        # exactly |ref|/10, i.e. 20 dB
        r1, r2 = _orthonormal_refs()
        est = r1 + np.sqrt(1.0 / 99.0) * r2
        assert abs(overall_snr(est, r1) - 20.0) < 1e-9

    def test_orthogonal_estimate_scores_zero(self):
        r1, r2 = _orthonormal_refs()
        assert abs(overall_snr(r2, r1)) < 1e-9


class TestScaleInvariance:
    @pytest.mark.parametrize("factor", [0.003, 7.5])
    def test_all_metrics_absorb_positive_rescaling(self, factor):
        rng = np.random.default_rng(16)
        refs = rng.standard_normal((2, 2048))
        estimate = refs[0] + 0.2 * refs[1] + 0.1 * rng.standard_normal(2048)
        base = bss_decompose(estimate, refs, 0)
        scaled = bss_decompose(factor * estimate, refs, 0)
        assert abs(sir(scaled) - sir(base)) < 1e-9
        assert abs(sdr(scaled) - sdr(base)) < 1e-9
        assert abs(segmental_snr(factor * estimate, refs[0])
                   - segmental_snr(estimate, refs[0])) < 1e-9
        assert abs(overall_snr(factor * estimate, refs[0])
                   - overall_snr(estimate, refs[0])) < 1e-9


class TestExtremeEstimateScale:
    """Every scorer brings an estimate whose peak lies outside [2**-64, 2**64)
    into range by a power of two, with no warning."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(17)
        refs = rng.standard_normal((2, 4096))
        noise = 0.05 * rng.standard_normal((2, 4096))
        estimates = np.vstack([-(refs[1] + 0.1 * refs[0]), refs[0] + 0.2 * refs[1]]) + noise
        return estimates, refs

    @staticmethod
    def _scored(estimates, refs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return evaluate_pair(estimates, refs), align(estimates, refs)

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-600, 2.0**40],
                             ids=["2**600", "2**-600", "2**40"])
    def test_power_of_two_scale_gives_equal_report(self, factor):
        estimates, refs = self._case()
        base = self._scored(estimates, refs)
        assert base[0].permutation == (1, 0)
        assert self._scored(factor * estimates, refs) == base

    @pytest.mark.parametrize("factor", [1e160, 1e-160])
    def test_extreme_scale_matches_unit_scale(self, factor):
        estimates, refs = self._case()
        base, base_alignment = self._scored(estimates, refs)
        report, alignment = self._scored(factor * estimates, refs)
        assert alignment == base_alignment
        assert (report.permutation, report.signs) == (base.permutation, base.signs)
        for got, want in zip(report.per_source, base.per_source):
            assert np.allclose(astuple(got), astuple(want), rtol=0.0, atol=1e-12)

    def test_overflowing_references_give_unit_scale_report(self):
        # the Gram table of 1e160 references overflows unless they are brought into range
        estimates, refs = self._case()
        base, base_alignment = self._scored(estimates, refs)
        report, alignment = self._scored(estimates, 1e160 * refs)
        assert alignment == base_alignment
        assert (report.permutation, report.signs) == (base.permutation, base.signs)
        for got, want in zip(report.per_source, base.per_source):
            assert np.allclose(astuple(got), astuple(want), rtol=0.0, atol=1e-9)

    @staticmethod
    def _public_scores(estimate, refs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = bss_decompose(estimate, refs, 0)
            return (sir(split), sdr(split), segmental_snr(estimate, refs[0]),
                    overall_snr(estimate, refs[0]))

    @pytest.mark.parametrize("factor", [1e-310, 1e-200, 1e160, 1e200, 2.0**600, 2.0**-600],
                             ids=["1e-310", "1e-200", "1e160", "1e200", "2**600", "2**-600"])
    def test_public_scores_match_unit_scale(self, factor):
        # at 1e-200 an estimate's energies underflow unless it is brought into range
        estimates, refs = self._case()
        base = self._public_scores(estimates[1], refs)
        got = self._public_scores(factor * estimates[1], refs)
        assert np.max(np.abs(np.subtract(got, base))) < 1e-9
        if np.log2(factor).is_integer():
            assert got == base


class TestExtremeReferenceScale:
    """Every scorer brings each reference into range by a power of two, so
    references of any finite scale give the unit-scale scores."""

    @staticmethod
    def _strict(scorer, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return scorer(*args)

    @pytest.mark.parametrize("factor", [1e100, 1e150, 2.0**300],
                             ids=["1e100", "1e150", "2**300"])
    def test_evaluate_pair_gives_unit_scale_report(self, factor):
        estimates, refs = TestExtremeEstimateScale._case()
        base = self._strict(evaluate_pair, estimates, refs)
        report = self._strict(evaluate_pair, estimates, factor * refs)
        assert (report.permutation, report.signs) == (base.permutation, base.signs)
        if factor == 2.0**300:
            assert report == base
        for got, want in zip(report.per_source, base.per_source):
            assert np.allclose(astuple(got), astuple(want), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("factor", [1e100, 1e-100, 1e150, 1e-150, 2.0**300, 2.0**-300],
                             ids=["1e100", "1e-100", "1e150", "1e-150", "2**300", "2**-300"])
    def test_bss_decompose_keeps_its_split(self, factor):
        estimates, refs = TestExtremeEstimateScale._case()
        for target in (0, 1):
            base = self._strict(bss_decompose, estimates[0], refs, target)
            got = self._strict(bss_decompose, estimates[0], factor * refs, target)
            for part, want in zip(astuple(got)[:3], astuple(base)[:3]):
                if np.log2(factor).is_integer():
                    assert part.tobytes() == want.tobytes()
                assert np.allclose(part, want, rtol=0.0, atol=1e-12)
            assert abs(sir(got) - sir(base)) < 1e-9

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
    def test_out_of_range_references_give_unit_scale_report(self, factor):
        # a power of two brings each reference back exactly, so the bits agree
        estimates, refs = TestExtremeEstimateScale._case()
        report = evaluate_pair(estimates, refs)
        assert self._strict(evaluate_pair, estimates, factor * refs) == report
        for target in (0, 1):
            got = self._strict(bss_decompose, estimates[0], factor * refs, target)
            split = bss_decompose(estimates[0], refs, target)
            for part, want in zip(astuple(got), astuple(split)):
                assert part.tobytes() == want.tobytes()

    def test_references_silent_in_every_frame_raise_typed_error(self):
        # the voiced floor is relative to the reference's loudest frame, so
        # in-range quiet references score as at unit scale; only a reference
        # with no energy in any frame is silent
        estimates, refs = TestExtremeEstimateScale._case()
        base = evaluate_pair(estimates, refs)
        assert self._strict(evaluate_pair, estimates, 2.0**-30 * refs) == base
        report = self._strict(evaluate_pair, estimates, 1e-9 * refs)
        assert (report.permutation, report.signs) == (base.permutation, base.signs)
        for got, want in zip(report.per_source, base.per_source):
            assert np.allclose(astuple(got), astuple(want), rtol=0.0, atol=1e-12)
        with pytest.raises(DegenerateInputError, match="silent in every frame"):
            segmental_snr(estimates[0], np.zeros(refs.shape[1]))

    def test_infinite_energy_raises_typed_error(self):
        estimates, refs = TestExtremeEstimateScale._case()
        split = bss_decompose(estimates[0], refs, 0)
        huge = replace(split, s_target=np.full_like(split.s_target, 1e200))
        with np.errstate(over="ignore"):
            for score in (sir, sdr):
                with pytest.raises(DegenerateInputError, match="not finite"):
                    score(huge)


class TestEvaluatePair:
    def test_perfect_estimates(self):
        rng = np.random.default_rng(14)
        refs = (
            Signal(rng.standard_normal(2048), 8000),
            Signal(rng.standard_normal(2048), 8000),
        )
        report = evaluate_pair(refs, refs)
        for source in report.per_source:
            assert source.sir_db == 300.0
            assert source.sdr_db == 300.0
            assert source.seg_snr_db == 35.0
            assert source.overall_snr_db == 300.0

    def test_swapped_estimates_realign(self):
        rng = np.random.default_rng(15)
        a, b = rng.standard_normal((2, 2048))
        report = evaluate_pair(
            (Signal(-b, 8000), Signal(a, 8000)),
            (Signal(a, 8000), Signal(b, 8000)),
        )
        assert report.permutation == (1, 0)
        assert report.signs == (-1, 1)
        assert all(source.sir_db == 300.0 for source in report.per_source)


def _scoring_case(kind, n):
    """Seeded (estimates, references) of length n. "mixed": swapped and
    negated noisy estimates against references of unlike scale and large
    offsets; "collinear": references r and -2r; "exact": each estimate
    equals a reference, swapped and negated."""
    rng = np.random.default_rng(n)
    sources = rng.standard_normal((2, n))
    scales = 10.0 ** rng.uniform(-2.0, 2.0, (2, 1))
    refs = scales * (sources + rng.normal(0.0, 3.0, (2, 1)))
    if kind == "collinear":
        refs[1] = -2.0 * refs[0]
    if kind == "exact":
        return np.vstack([-refs[1], refs[0]]), refs
    estimates = np.array([[0.3, -1.0], [1.0, 0.2]]) @ sources
    estimates += rng.uniform(0.01, 1.0, (2, 1)) * rng.standard_normal((2, n))
    return estimates + rng.normal(0.0, 3.0, (2, 1)), refs


def _composed_scores(estimates, references):
    """evaluate_pair's contract written with the public functions."""
    permutation, signs = align(estimates, references)
    rows = []
    for k in range(2):
        i = permutation.index(k)
        aligned = signs[i] * estimates[i]
        d = bss_decompose(aligned, references, k)
        rows.append((sir(d), sdr(d), segmental_snr(aligned, references[k]),
                     overall_snr(aligned, references[k])))
    return permutation, signs, rows


def _lstsq_sir_sdr(estimates, references):
    """SIR and SDR in dB of each estimate, aligned by _align_oracle, from
    np.linalg.lstsq projections (Vincent, Gribonval and Fevotte 2006): the
    target part projects onto the matched reference, the span part onto
    both references."""
    estimates, references = np.asarray(estimates, float), np.asarray(references, float)
    permutation, signs = _align_oracle(estimates, references)
    refs = references.T  # one reference per column
    rows = []
    for k in range(2):
        i = permutation.index(k)
        e = signs[i] * estimates[i]
        target = refs[:, [k]] @ np.linalg.lstsq(refs[:, [k]], e, rcond=None)[0]
        span = refs @ np.linalg.lstsq(refs, e, rcond=None)[0]
        energy = target @ target
        rows.append((10.0 * np.log10(energy / np.sum((span - target) ** 2)),
                     10.0 * np.log10(energy / np.sum((e - target) ** 2))))
    return rows


class TestEvaluatePairOracle:
    @pytest.mark.parametrize("n", [256, 257, 383, 4097, 100003])
    @pytest.mark.parametrize("kind", ["mixed", "collinear", "exact"])
    def test_equals_public_functions_composed(self, kind, n):
        estimates, refs = _scoring_case(kind, n)
        if kind == "collinear":  # SIR is undefined: the references span one direction
            with pytest.raises(DegenerateInputError, match="collinear"):
                evaluate_pair(estimates, refs)
            for k in range(2):
                with pytest.raises(DegenerateInputError, match="collinear"):
                    bss_decompose(estimates[0], refs, k)
            return
        report = evaluate_pair(estimates, refs)
        permutation, signs, rows = _composed_scores(estimates, refs)
        assert report.permutation == permutation
        assert report.signs == signs
        assert (permutation, signs) == ((1, 0), (-1, 1))
        for source, row in zip(report.per_source, rows):
            got = (source.sir_db, source.sdr_db, source.seg_snr_db, source.overall_snr_db)
            assert np.max(np.abs(np.subtract(got, row))) < 1e-9
            if kind == "exact":
                assert got == (300.0, 300.0, 35.0, 300.0)

    @pytest.mark.parametrize("n", [256, 257, 383, 4097, 100003])
    def test_sir_sdr_equal_lstsq_projections(self, n):
        estimates, refs = _scoring_case("mixed", n)
        got = [(s.sir_db, s.sdr_db) for s in evaluate_pair(estimates, refs).per_source]
        assert np.max(np.abs(np.subtract(got, _lstsq_sir_sdr(estimates, refs)))) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", METHODS)
    def test_separated_sir_sdr_equal_lstsq_projections(self, method, seed):
        sources = speechlike_pair(8192, seed)
        result = separate(*mix(sources, MixingMatrix(EQ8_MATRIX)), method)
        estimates = [e.samples for e in result.estimates]
        refs = [s.samples for s in sources]
        report = evaluate_pair(estimates, refs)
        got = [(s.sir_db, s.sdr_db) for s in report.per_source]
        assert min(s.sir_db for s in report.per_source) > 10.0
        assert np.max(np.abs(np.subtract(got, _lstsq_sir_sdr(estimates, refs)))) < 1e-9

    def test_peak_memory_below_five_signal_lengths(self):
        n = 65536
        estimates, refs = _scoring_case("mixed", n)
        evaluate_pair(estimates, refs)
        tracemalloc.start()
        try:
            evaluate_pair(estimates, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * 8


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_arrays_rejected(self, bad):
        rng = np.random.default_rng(17)
        refs = rng.standard_normal((2, 1024))
        estimates = refs + 0.1 * rng.standard_normal((2, 1024))
        estimates[1, 300] = bad
        with pytest.raises(ParameterError, match="finite"):
            evaluate_pair(estimates, refs)
        for call in (
            lambda: align(estimates, refs),
            lambda: bss_decompose(estimates[1], refs, 0),
            lambda: bss_decompose(refs[0], estimates, 0),
            lambda: segmental_snr(estimates[1], refs[1]),
            lambda: overall_snr(refs[1], estimates[1]),
        ):
            with pytest.raises(ParameterError, match="finite"):
                call()

    def test_mismatched_sample_rates_rejected(self):
        rng = np.random.default_rng(18)
        a, b = rng.standard_normal((2, 2048))
        with pytest.raises(UnsupportedRateError):
            evaluate_pair(
                (Signal(a, 8000), Signal(b, 8000)),
                (Signal(a, 16000), Signal(b, 16000)),
            )
        with pytest.raises(UnsupportedRateError):
            evaluate_pair(
                (Signal(a, 8000), Signal(b, 8000)),
                (Signal(a, 8000), Signal(b, 16000)),
            )

    def test_every_scorer_rejects_mixed_rates(self):
        # the array-level metrics share evaluate_pair's input check
        rng = np.random.default_rng(19)
        a, b, c = (Signal(row, 8000) for row in rng.standard_normal((3, 2048)))
        fast = Signal(c.samples, 16000)
        for call in (
            lambda: align((a, b), (c, fast)),
            lambda: bss_decompose(a, (b, fast), 0),
            lambda: segmental_snr(a, fast),
            lambda: overall_snr(a, fast),
        ):
            with pytest.raises(UnsupportedRateError, match="share one sample rate"):
                call()


class TestCountsAndShapes:
    """Two estimates (one for bss_decompose), two 1-D references and a
    target index of 0 or 1; anything else is a typed error."""

    @staticmethod
    def _signals():
        rng = np.random.default_rng(23)
        r0, r1 = rng.standard_normal((2, 2048))
        return r0 + 0.3 * r1 + 0.01 * rng.standard_normal(2048), r0, r1

    def test_bss_decompose_rejects_three_references(self):
        # the third reference used to read SIR 300 dB
        e, r0, r1 = self._signals()
        with pytest.raises(DimensionError, match="two references, got 3"):
            bss_decompose(e, (r0, r1, r0 + r1), 0)

    def test_bss_decompose_rejects_one_reference(self):
        e, r0, _ = self._signals()
        with pytest.raises(DimensionError, match="two references, got 1"):
            bss_decompose(e, (r0,), 0)

    @pytest.mark.parametrize("target_index", [2, -1, 1.0])
    def test_bss_decompose_target_index_is_0_or_1(self, target_index):
        e, r0, r1 = self._signals()
        with pytest.raises(ParameterError, match="target_index must be 0 or 1"):
            bss_decompose(e, (r0, r1), target_index)

    def test_evaluate_pair_rejects_one_estimate(self):
        e, r0, r1 = self._signals()
        with pytest.raises(DimensionError, match="got 1 and 2"):
            evaluate_pair((e,), (r0, r1))

    def test_evaluate_pair_rejects_three_estimates(self):
        # they used to raise a wrong "references are collinear"
        e, r0, r1 = self._signals()
        with pytest.raises(DimensionError, match="got 3 and 2"):
            evaluate_pair((e, r1, r0), (r0, r1))

    @pytest.mark.parametrize("count", [1, 3])
    def test_evaluate_pair_and_align_reject_other_reference_counts(self, count):
        e, r0, r1 = self._signals()
        references = (r0, r1, e)[:count]
        for call in (evaluate_pair, align):
            with pytest.raises(DimensionError, match=f"got 2 and {count}"):
                call((e, r1), references)

    def test_iterators_of_two_signals_are_accepted(self):
        e, r0, r1 = self._signals()
        want = evaluate_pair((e, r1), (r0, r1))
        assert evaluate_pair(iter((e, r1)), (x for x in (r0, r1))) == want
        assert align(iter((e, r1)), iter((r0, r1))) == (want.permutation, want.signs)

    def test_align_rejects_three_estimates(self):
        e, r0, r1 = self._signals()
        with pytest.raises(DimensionError, match="got 3 and 2"):
            align((e, r1, r0), (r0, r1))

    def test_rows_that_are_not_1d_are_rejected(self):
        e, r0, r1 = self._signals()
        for call in (
            lambda: evaluate_pair((e[None], r1[None]), (r0[None], r1[None])),
            lambda: segmental_snr(e[None], r0[None]),
            lambda: overall_snr(e[None], r0[None]),
            lambda: bss_decompose(e[None], (r0, r1), 0),
            lambda: evaluate_pair((e, r1), np.stack([r0, r1])[:, None]),
        ):
            with pytest.raises(DimensionError, match="must be 1-D"):
                call()
