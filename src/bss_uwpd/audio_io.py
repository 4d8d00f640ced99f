"""Speech audio I/O, synthetic test sources, and instantaneous mixing.

Signals are plain sample arrays with a rate; mixtures are memoryless linear
combinations x_i(t) = sum_j a[i][j] * s_j(t) of two equal-length sources.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    UnsupportedRateError,
    WavFormatError,
)

PIPELINE_RATE_HZ = 8000

_PCM_FULL_SCALE = 32768  # 16-bit integer range is [-32768, 32767]


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued sequence.

    samples are stored as a read-only float64 array; sample_rate_hz is the
    rate in Hz. At least one sample, all values finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("signal must hold at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("signal samples must be finite")
        if self.sample_rate_hz <= 0:
            raise ParameterError("sample rate must be positive")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class MixingMatrix:
    """An invertible 2x2 matrix of mixing gains."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.shape != (2, 2):
            raise DimensionError("mixing matrix must be 2x2")
        if not np.all(np.isfinite(a)):
            raise ParameterError("mixing matrix entries must be finite")
        if abs(np.linalg.det(a)) <= 1e-12:
            raise ParameterError("mixing matrix is singular; sources unrecoverable")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


def read_wav(path) -> Signal:
    """Read a mono 16-bit PCM WAV file, scaling samples to [-1, 1).

    Raises WavFormatError naming the offending header field for any other
    WAV flavor; OSError for unreadable paths.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            sampwidth = handle.getsampwidth()
            rate = handle.getframerate()
            n_frames = handle.getnframes()
            if channels != 1:
                raise WavFormatError(
                    f"{path}: channels: expected 1 (mono), got {channels}"
                )
            if sampwidth != 2:
                raise WavFormatError(
                    f"{path}: bits per sample: expected 16, got {8 * sampwidth}"
                )
            frames = handle.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        # wave raises a bare EOFError for a file that ends inside its header
        reason = str(exc) or "file ends inside the header"
        raise WavFormatError(f"{path}: malformed WAV header: {reason}") from exc
    if len(frames) % 2:
        raise WavFormatError(f"{path}: data chunk: ends in a partial 16-bit sample")
    if not frames:
        raise WavFormatError(f"{path}: data chunk: empty")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64)
    return Signal(samples / _PCM_FULL_SCALE, rate)


def write_wav(signal: Signal, path) -> None:
    """Write a Signal as mono 16-bit PCM WAV to a path or a binary file.

    Values outside [-1, 1) are clipped; quantization is round-to-nearest.
    """
    if not hasattr(path, "write"):
        with open(path, "wb") as raw:
            return write_wav(signal, raw)
    scaled = np.rint(signal.samples * _PCM_FULL_SCALE)
    quantized = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(signal.sample_rate_hz)
        handle.writeframes(quantized.tobytes())


def _lowpass_taps(numtaps: int, cutoff_hz: float, rate_hz: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass with unit gain at DC, equal bit for
    bit to scipy.signal.firwin(numtaps, cutoff_hz, fs=rate_hz)."""
    cutoff = cutoff_hz / (0.5 * rate_hz)
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    # firwin's Hamming weight is 1.0 - 0.54, one ulp below the literal 0.46
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    h = cutoff * np.sinc(cutoff * m) * window
    return h / h.sum()


def decimate_to_8k(signal: Signal) -> Signal:
    """Decimate a signal to 8 kHz with a linear-phase anti-alias FIR.

    The input rate must be an integer multiple of 8000 Hz. The low-pass
    cutoff sits at 0.45 * 8000 Hz and the group delay is compensated so the
    output stays aligned with the input.
    """
    rate = signal.sample_rate_hz
    if rate == PIPELINE_RATE_HZ:
        return signal
    if rate % PIPELINE_RATE_HZ != 0:
        raise UnsupportedRateError(
            f"cannot decimate {rate} Hz to {PIPELINE_RATE_HZ} Hz: "
            "rate is not an integer multiple"
        )
    factor = rate // PIPELINE_RATE_HZ
    numtaps = 64 * factor + 1  # odd length: integer group delay
    taps = _lowpass_taps(numtaps, 0.45 * PIPELINE_RATE_HZ, rate)
    half = (numtaps - 1) // 2
    n = signal.samples.size
    filtered = np.convolve(signal.samples, taps, mode="full")[half : half + n]
    return Signal(filtered[::factor], PIPELINE_RATE_HZ)


def mix(sources, a: MixingMatrix):
    """Form two instantaneous mixtures x = A s from two sources.

    Returns two Signals with the sources' rate. Sources must agree in
    length and rate.
    """
    s1, s2 = sources
    if len(s1) != len(s2):
        raise DimensionError(
            f"source lengths differ: {len(s1)} vs {len(s2)}"
        )
    if s1.sample_rate_hz != s2.sample_rate_hz:
        raise DimensionError(
            f"source rates differ: {s1.sample_rate_hz} vs {s2.sample_rate_hz}"
        )
    stacked = np.vstack([s1.samples, s2.samples])
    mixed = a.entries @ stacked
    rate = s1.sample_rate_hz
    return Signal(mixed[0], rate), Signal(mixed[1], rate)


def synth_source(
    kind: str,
    n: int,
    seed: int,
    pole: float = 0.9,
    freq_hz: float = 440.0,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
) -> Signal:
    """Generate a deterministic unit-variance test source.

    kind is one of "laplacian", "uniform", "gaussian", "ar1" (first-order
    autoregression with the given pole), or "sine" (given frequency with a
    seeded random phase). The output is centered and scaled to unit sample
    variance.
    """
    if n < 1:
        raise ParameterError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "laplacian":
        samples = rng.laplace(size=n)
    elif kind == "uniform":
        samples = rng.uniform(-1.0, 1.0, size=n)
    elif kind == "gaussian":
        samples = rng.standard_normal(n)
    elif kind == "ar1":
        if abs(pole) >= 1.0:
            raise ParameterError(f"AR(1) pole magnitude must be < 1, got {pole}")
        burn_in = 1000
        noise = rng.standard_normal(n + burn_in)
        # y[t] = pole * y[t-1] + noise[t] from y[-1] = 0, as lfilter runs it
        ar = accumulate(noise.tolist(), lambda y, v: pole * y + v, initial=0.0)
        samples = np.fromiter(ar, np.float64, n + burn_in + 1)[burn_in + 1 :]
    elif kind == "sine":
        if not 0.0 < freq_hz < sample_rate_hz / 2:
            raise ParameterError(
                f"sine frequency must lie in (0, {sample_rate_hz / 2}) Hz, "
                f"got {freq_hz}"
            )
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n) / sample_rate_hz
        samples = np.sin(2.0 * np.pi * freq_hz * t + phase)
    else:
        raise ParameterError(f"unknown source kind: {kind!r}")
    samples = samples - samples.mean()
    std = samples.std()
    if std > 0.0:
        samples = samples / std
    return Signal(samples, sample_rate_hz)
