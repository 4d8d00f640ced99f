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
    MixingMatrix,
    ParameterError,
    Signal,
    UnsupportedRateError,
    WavFormatError,
    decimate_to_8k,
    mix,
    read_wav,
    synth_source,
    write_wav,
)
from bss_uwpd.audio_io import _lowpass_taps
from bss_uwpd.stats import kurtosis

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

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(Signal([0.0], 8000), tmp_path)


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

    @pytest.mark.parametrize("rate", [12000, 44100])
    def test_non_integer_ratio_rejected(self, rate):
        with pytest.raises(UnsupportedRateError):
            decimate_to_8k(Signal(np.zeros(100) + 0.1, rate))

    @pytest.mark.parametrize("factor", range(2, 13))
    def test_taps_equal_firwin(self, factor):
        rate, numtaps = 8000 * factor, 64 * factor + 1
        taps = _lowpass_taps(numtaps, 0.45 * 8000, rate)
        assert np.array_equal(taps, firwin(numtaps, 0.45 * 8000, fs=rate))


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


class TestSynthSource:
    def test_gaussian_kurtosis(self):
        signal = synth_source("gaussian", 100000, seed=11)
        assert abs(kurtosis(signal.samples)) < 0.1

    def test_uniform_kurtosis(self):
        signal = synth_source("uniform", 100000, seed=12)
        assert abs(kurtosis(signal.samples) - (-1.2)) < 0.05

    def test_deterministic_for_seed(self):
        a = synth_source("laplacian", 4096, seed=13)
        b = synth_source("laplacian", 4096, seed=13)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind", ["laplacian", "uniform", "gaussian", "ar1", "sine"])
    def test_unit_variance(self, kind):
        signal = synth_source(kind, 8192, seed=14, pole=0.7, freq_hz=440.0)
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

    def test_invalid_frequency(self):
        with pytest.raises(ParameterError):
            synth_source("sine", 100, seed=0, freq_hz=4000.0)

    def test_invalid_kind_and_count(self):
        with pytest.raises(ParameterError):
            synth_source("cauchy", 100, seed=0)
        with pytest.raises(ParameterError):
            synth_source("gaussian", 0, seed=0)


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
