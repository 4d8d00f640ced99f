import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import firwin, lfilter

from bss_uwpd import (
    DimensionError,
    FilterPair,
    MixingMatrix,
    ParameterError,
    Signal,
    UnmixingModel,
    UnsupportedRateError,
    WavFormatError,
    build_cb_tree,
    db4_filters,
    decimate_to_8k,
    decompose_nodes,
    mix,
    read_wav,
    select_best_node,
    separate,
    synth_source,
    write_wav,
)
from bss_uwpd.audio_io import _lowpass_taps, check_rate
from bss_uwpd.stats import row_kurtosis

from helpers import EQ8_MATRIX


def _write_raw_wav(path, frames, channels=1, sampwidth=2, rate=8000):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(sampwidth)
        handle.setframerate(rate)
        handle.writeframes(frames)


class TestReadWav:
    def test_single_sample_scaling(self, tmp_path):
        path = tmp_path / "one.wav"
        _write_raw_wav(path, struct.pack("<h", 0x4000))
        signal = read_wav(path)
        assert signal.sample_rate_hz == 8000
        assert signal.samples.tolist() == [0.5]

    def test_integer_minimum(self, tmp_path):
        path = tmp_path / "min.wav"
        _write_raw_wav(path, struct.pack("<h", -32768))
        assert read_wav(path).samples.tolist() == [-1.0]

    def test_round_trip_is_bit_exact_on_quantized_samples(self, tmp_path):
        rng = np.random.default_rng(7)
        quantized = rng.integers(-32768, 32768, size=1000) / 32768.0
        path = tmp_path / "rt.wav"
        write_wav(Signal(quantized, 8000), path)
        assert np.array_equal(read_wav(path).samples, quantized)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_raw_wav(path, struct.pack("<hh", 1, 2), channels=2)
        with pytest.raises(WavFormatError, match="channels"):
            read_wav(path)

    def test_rejects_partial_sample_in_data_chunk(self, tmp_path):
        path = tmp_path / "full.wav"
        write_wav(Signal(np.linspace(-0.5, 0.5, 100), 8000), path)
        cut = tmp_path / "cut.wav"
        cut.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(WavFormatError, match="data chunk"):
            read_wav(cut)

    def test_rejects_8_bit(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        _write_raw_wav(path, b"\x80", sampwidth=1)
        with pytest.raises(WavFormatError, match="bits per sample"):
            read_wav(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff header at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "nope.wav")


class TestWriteWav:
    def test_zero_sample_encodes_as_zero_word(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(Signal([0.0], 8000), path)
        with wave.open(str(path), "rb") as handle:
            assert handle.readframes(1) == b"\x00\x00"

    def test_clips_out_of_range(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(Signal([2.0, -2.0], 8000), path)
        with wave.open(str(path), "rb") as handle:
            values = struct.unpack("<hh", handle.readframes(2))
        assert values == (32767, -32768)

    def test_quantization_error_bound(self, tmp_path):
        path = tmp_path / "half.wav"
        write_wav(Signal([0.5], 8000), path)
        assert abs(read_wav(path).samples[0] - 0.5) <= 1.0 / 32768

    def test_round_trip_error_bound_on_arbitrary_samples(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-0.99, 0.99, size=2000)
        path = tmp_path / "arb.wav"
        write_wav(Signal(samples, 8000), path)
        assert np.max(np.abs(read_wav(path).samples - samples)) <= 1.0 / 32768

    @pytest.mark.parametrize("rate", [2**31, 2**32])
    def test_rate_beyond_the_header_raises_typed_error(self, tmp_path, rate):
        # the header's 32-bit byte rate is twice the sample rate
        with pytest.raises(UnsupportedRateError, match="up to 2147483647 Hz"):
            write_wav(Signal([0.5], rate), tmp_path / "fast.wav")
        assert list(tmp_path.iterdir()) == []

    def test_largest_storable_rate_round_trips(self, tmp_path):
        path = tmp_path / "fastest.wav"
        write_wav(Signal([0.5, -0.25], 2**31 - 1), path)
        got = read_wav(path)
        assert got.sample_rate_hz == 2147483647
        assert got.samples.tolist() == [0.5, -0.25]

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(Signal([0.0], 8000), tmp_path)

    def test_failed_write_leaves_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sub" / "a.wav"  # the missing parent is made
        write_wav(Signal([0.5], 8000), path)
        before = path.read_bytes()

        def fail(handle, data):
            raise OSError("disk full")

        monkeypatch.setattr(wave.Wave_write, "writeframes", fail)
        with pytest.raises(OSError, match="disk full"):
            write_wav(Signal([0.25], 8000), path)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["a.wav"]


    def test_file_mode_follows_umask(self, tmp_path):
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            path = tmp_path / f"umask{umask:03o}.wav"
            old = os.umask(umask)
            try:
                write_wav(Signal([0.5], 8000), path)
            finally:
                os.umask(old)
            assert path.stat().st_mode & 0o777 == mode


class TestDecimate:
    def test_identity_at_8k(self):
        signal = synth_source("gaussian", 100, seed=0)
        assert decimate_to_8k(signal) is signal

    def test_passband_tone_preserved(self):
        t16 = np.arange(16000) / 16000.0
        decimated = decimate_to_8k(Signal(np.sin(2 * np.pi * 500 * t16), 16000))
        assert decimated.sample_rate_hz == 8000
        assert len(decimated) == 8000
        t8 = np.arange(8000) / 8000.0
        expected = np.sin(2 * np.pi * 500 * t8)
        core = slice(200, -200)  # skip filter edge transients
        assert np.max(np.abs(decimated.samples[core] - expected[core])) < 0.01

    def test_alias_tone_suppressed(self):
        t16 = np.arange(32000) / 16000.0
        tone = np.sin(2 * np.pi * 6000 * t16)
        decimated = decimate_to_8k(Signal(tone, 16000))
        assert np.sqrt(np.mean(decimated.samples**2)) < 0.05 * np.sqrt(np.mean(tone**2))

    @pytest.mark.parametrize("rate", [4000, 12000, 44100])
    def test_non_integer_ratio_rejected(self, rate):
        with pytest.raises(UnsupportedRateError):
            decimate_to_8k(Signal(np.zeros(100) + 0.1, rate))

    @pytest.mark.parametrize("factor", range(2, 13))
    def test_taps_equal_firwin(self, factor):
        rate, numtaps = 8000 * factor, 64 * factor + 1
        taps = _lowpass_taps(numtaps, 0.45 * 8000, rate)
        assert np.array_equal(taps, firwin(numtaps, 0.45 * 8000, fs=rate))


class TestCheckRate:
    def test_only_8000_hz_passes(self):
        check_rate(8000, "the pipeline")
        for rate in (4000, 16000, 8000.5):
            with pytest.raises(UnsupportedRateError,
                               match=f"^the pipeline runs at 8000 Hz only, got {rate} Hz$"):
                check_rate(rate, "the pipeline")

    def test_every_8k_check_is_check_rate(self):
        fast = Signal(np.ones(256), 16000)
        for call in (
            lambda: build_cb_tree(16000),
            lambda: decompose_nodes(fast, build_cb_tree(), db4_filters()),
            lambda: select_best_node([], 16000),
            lambda: separate(fast, fast, "sobi"),
        ):
            with pytest.raises(UnsupportedRateError, match="runs at 8000 Hz only, got 16000 Hz"):
                call()


class TestMix:
    def test_identity_matrix(self):
        s1 = synth_source("gaussian", 256, seed=1)
        s2 = synth_source("gaussian", 256, seed=2)
        x1, x2 = mix((s1, s2), MixingMatrix(np.eye(2)))
        assert np.array_equal(x1.samples, s1.samples)
        assert np.array_equal(x2.samples, s2.samples)

    def test_matrix_columns(self):
        s1 = Signal([1.0, 0.0], 8000)
        s2 = Signal([0.0, 1.0], 8000)
        x1, x2 = mix((s1, s2), MixingMatrix(EQ8_MATRIX))
        assert x1.samples.tolist() == [2.0, 1.0]
        assert x2.samples.tolist() == [1.0, 1.0]

    def test_per_sample_recomputation(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 1000))
        x1, x2 = mix((Signal(a, 8000), Signal(b, 8000)), MixingMatrix(EQ8_MATRIX))
        assert np.array_equal(x1.samples, 2.0 * a + b)
        assert np.array_equal(x2.samples, a + b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mix((Signal([1.0], 8000), Signal([1.0, 2.0], 8000)),
                MixingMatrix(EQ8_MATRIX))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        s, t = rng.standard_normal((2, 2, 512))
        a = MixingMatrix(EQ8_MATRIX)
        lhs = mix(
            (Signal(0.3 * s[0] + 1.7 * t[0], 8000),
             Signal(0.3 * s[1] + 1.7 * t[1], 8000)),
            a,
        )
        xs = mix((Signal(s[0], 8000), Signal(s[1], 8000)), a)
        xt = mix((Signal(t[0], 8000), Signal(t[1], 8000)), a)
        for i in range(2):
            combo = 0.3 * xs[i].samples + 1.7 * xt[i].samples
            assert np.max(np.abs(lhs[i].samples - combo)) < 1e-12

    def test_inverse_recovers_sources(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((2, 2048))
        x1, x2 = mix((Signal(s[0], 8000), Signal(s[1], 8000)),
                     MixingMatrix(EQ8_MATRIX))
        recovered = np.linalg.inv(EQ8_MATRIX) @ np.vstack([x1.samples, x2.samples])
        assert np.max(np.abs(recovered - s)) / np.max(np.abs(s)) < 1e-10

    def test_singular_matrix_rejected(self):
        with pytest.raises(ParameterError):
            MixingMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_singularity_does_not_depend_on_scale(self):
        for scale in (1e-7, 2.0**-24, 1.0, 1e6, 1e160):
            MixingMatrix(scale * EQ8_MATRIX)
            MixingMatrix(scale * np.eye(2))
            for singular in ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [[0.0, 0.0], [1.0, 1.0]]):
                with pytest.raises(ParameterError, match="singular"):
                    MixingMatrix(scale * np.array(singular))

    def test_rate_mismatch(self):
        with pytest.raises(UnsupportedRateError):
            mix((Signal([1.0, 2.0], 8000), Signal([1.0, 2.0], 16000)),
                MixingMatrix(EQ8_MATRIX))

    def test_pair_checked_by_pair_rate(self):
        # the mixtures are A times the stacked samples, at the sources' rate
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        x1, x2 = mix((Signal([1.0, 2.0], 16000), Signal([3.0, 4.0], 16000)), MixingMatrix(a))
        assert [x1.samples.tolist(), x2.samples.tolist()] == (a @ [[1.0, 2.0], [3.0, 4.0]]).tolist()
        assert x1.sample_rate_hz == x2.sample_rate_hz == 16000
        with pytest.raises(DimensionError):
            mix((Signal([1.0], 8000), Signal([1.0, 2.0], 8000)), MixingMatrix(a))
        with pytest.raises(UnsupportedRateError):
            mix((Signal([1.0], 8000), Signal([1.0], 16000)), MixingMatrix(a))

    @pytest.mark.parametrize("count", [1, 3])
    def test_other_than_two_sources_rejected(self, count):
        with pytest.raises(DimensionError, match=f"need two sources, got {count}"):
            mix((Signal([1.0, 2.0], 8000),) * count, MixingMatrix(EQ8_MATRIX))

    def test_generator_of_two_sources(self):
        sources = synth_source("gaussian", 256, seed=1), synth_source("gaussian", 256, seed=2)
        want = mix(sources, MixingMatrix(EQ8_MATRIX))
        got = mix((s for s in sources), MixingMatrix(EQ8_MATRIX))
        for g, w in zip(got, want, strict=True):
            assert g.samples.tobytes() == w.samples.tobytes()
            assert g.sample_rate_hz == w.sample_rate_hz


class TestSignal:
    @pytest.mark.parametrize("rate", [8000.7, 8000.0, "8000", None, 0, -8000])
    def test_rate_must_be_an_integer_above_zero(self, rate):
        with pytest.raises(ParameterError, match="sample rate"):
            Signal(np.ones(4), rate)

    @pytest.mark.parametrize("rate", [8000, np.int64(8000)])
    def test_integer_rate_is_kept_as_int(self, rate):
        signal = Signal(np.ones(4), rate)
        assert type(signal.sample_rate_hz) is int
        assert signal.sample_rate_hz == 8000


class TestSynthSource:
    def test_gaussian_kurtosis(self):
        signal = synth_source("gaussian", 100000, seed=11)
        assert abs(float(row_kurtosis(signal.samples))) < 0.1

    def test_uniform_kurtosis(self):
        signal = synth_source("uniform", 100000, seed=12)
        assert abs(float(row_kurtosis(signal.samples)) - (-1.2)) < 0.05

    def test_deterministic_for_seed(self):
        a = synth_source("laplacian", 4096, seed=13)
        b = synth_source("laplacian", 4096, seed=13)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind", ["laplacian", "uniform", "gaussian", "ar1"])
    def test_unit_variance(self, kind):
        signal = synth_source(kind, 8192, seed=14, pole=0.7)
        assert abs(signal.samples.var() - 1.0) < 1e-9
        assert abs(signal.samples.mean()) < 1e-12

    @pytest.mark.parametrize("pole", [0.9, -0.5, 0.5, 0.0, 0.99])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_ar1_equals_lfilter(self, pole, seed):
        noise = np.random.default_rng(seed).standard_normal(3000 + 1000)
        expected = lfilter([1.0], [1.0, -pole], noise)[1000:]
        expected = expected - expected.mean()
        expected = expected / expected.std()
        got = synth_source("ar1", 3000, seed=seed, pole=pole).samples
        assert np.array_equal(got, expected)

    def test_invalid_pole(self):
        with pytest.raises(ParameterError):
            synth_source("ar1", 100, seed=0, pole=1.0)

    def test_invalid_kind_and_count(self):
        for kind in ("cauchy", "sine"):
            with pytest.raises(ParameterError, match="unknown source kind"):
                synth_source(kind, 100, seed=0)
        with pytest.raises(ParameterError):
            synth_source("gaussian", 0, seed=0)

    @pytest.mark.parametrize("n, seed", [(2.5, 0), ("10", 0), (10, -1), (10, 1.5), (10, None)])
    def test_count_and_seed_must_be_integers_in_range(self, n, seed):
        with pytest.raises(ParameterError, match="must be an integer"):
            synth_source("laplacian", n, seed)

    @pytest.mark.parametrize("pole", ["0.5", None, np.nan, 0.5j], ids=repr)
    def test_pole_must_be_a_real_number_of_magnitude_below_1(self, pole):
        # a string, None or a complex pole fails the type test, NaN the magnitude test
        with pytest.raises(ParameterError, match="pole"):
            synth_source("ar1", 100, seed=0, pole=pole)

    @pytest.mark.parametrize("kind", ["laplacian", "uniform", "gaussian"])
    @pytest.mark.parametrize("pole", ["x", 1.0, np.nan])
    def test_every_kind_checks_the_pole(self, kind, pole):
        # the kinds that do not read the pole reject a bad one as "ar1" does
        with pytest.raises(ParameterError, match="pole"):
            synth_source(kind, 10, seed=0, pole=pole)

    @pytest.mark.parametrize("kind", ["laplacian", "uniform", "gaussian", "ar1"])
    def test_one_sample_has_no_unit_variance(self, kind):
        # one sample centres to 0.0, which no scale brings to unit variance
        with pytest.raises(ParameterError, match=">= 2"):
            synth_source(kind, 1, 0)
        assert synth_source(kind, 2, 0).samples.var() == 1.0

    def test_numpy_integers_accepted(self):
        got = synth_source("laplacian", np.int64(64), np.int64(3))
        assert got.samples.tobytes() == synth_source("laplacian", 64, 3).samples.tobytes()


def test_package_imports_without_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys, bss_uwpd, bss_uwpd.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"


# each array field of the frozen value types: (build from an array, field, array)
_ARRAY_FIELDS = {
    "Signal.samples": (lambda a: Signal(a, 8000), "samples", [0.5, -0.25, 1.0]),
    "MixingMatrix.entries": (MixingMatrix, "entries", [[2.0, 1.0], [1.0, 1.0]]),
    "FilterPair.h": (lambda a: FilterPair(h=a, g=[0.5, -0.5]), "h", [0.5, 0.5]),
    "FilterPair.g": (lambda a: FilterPair(h=[0.5, 0.5], g=a), "g", [0.5, -0.5]),
    "UnmixingModel.mean": (
        lambda a: UnmixingModel(a, np.eye(2), np.eye(2)), "mean", [1.0, -2.0]
    ),
    "UnmixingModel.whitening": (
        lambda a: UnmixingModel(np.zeros(2), a, np.eye(2)), "whitening", [[2.0, 0.0], [0.0, 0.5]]
    ),
    "UnmixingModel.rotation": (
        lambda a: UnmixingModel(np.zeros(2), np.eye(2), a), "rotation", [[0.0, 1.0], [1.0, 0.0]]
    ),
}


@pytest.mark.parametrize("case", list(_ARRAY_FIELDS))
def test_array_fields_are_read_only_copies(case):
    build, name, values = _ARRAY_FIELDS[case]
    given = np.array(values)
    field = getattr(build(given), name)
    assert field.dtype == np.float64
    with pytest.raises(ValueError):
        field[0] = 7.0
    given[...] = 7.0
    assert np.array_equal(field, values)


@pytest.mark.parametrize("case", list(_ARRAY_FIELDS))
def test_read_only_view_of_a_writable_array_is_copied(case):
    build, name, values = _ARRAY_FIELDS[case]
    given = np.array(values)
    view = given[...]
    view.setflags(write=False)
    field = getattr(build(view), name)
    given[...] = 7.0
    assert np.array_equal(field, values)


def test_frozen_float64_array_is_kept_without_a_copy():
    # neither the rows nor the array under them can write
    frozen = np.array([[0.5, -0.25, 1.0], [2.0, 0.0, -1.5]])
    frozen.setflags(write=False)
    signals = [Signal(row, 8000) for row in frozen]
    assert all(s.samples.base is frozen for s in signals)
    # another dtype is converted into a read-only float64 copy
    narrow = frozen.astype(np.float32)
    narrow.setflags(write=False)
    samples = Signal(narrow[0], 8000).samples
    assert samples.dtype == np.float64 and not samples.flags.writeable
    assert not np.shares_memory(samples, narrow)
