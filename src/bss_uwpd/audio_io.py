"""Speech audio I/O, synthetic test sources, and instantaneous mixing.

Signals are plain sample arrays with a rate; mixtures are memoryless linear
combinations x_i(t) = sum_j a[i][j] * s_j(t) of two equal-length sources.
"""

from __future__ import annotations

import math
import os
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    UnsupportedRateError,
    WavFormatError,
)

PIPELINE_RATE_HZ = 8000

_PCM_FULL_SCALE = 32768  # 16-bit integer range is [-32768, 32767]


def check_rate(rate_hz, what: str) -> None:
    """The one 8 kHz rule: raise UnsupportedRateError, naming what runs at
    the rate, unless rate_hz is PIPELINE_RATE_HZ."""
    if rate_hz != PIPELINE_RATE_HZ:
        raise UnsupportedRateError(f"{what} runs at {PIPELINE_RATE_HZ} Hz only, got {rate_hz} Hz")


def set_read_only(obj, **arrays):
    """Set each named field of a frozen dataclass to a read-only float64
    array that the caller's array cannot change: the array itself when it
    is float64 and neither it nor any array under it can write, else a
    read-only copy."""
    for name, value in arrays.items():
        base = value
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None or type(value) is not np.ndarray or value.dtype != np.float64:
            value = np.array(value, dtype=np.float64)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued sequence.

    samples are stored as a read-only float64 array; sample_rate_hz is the
    rate in Hz, an integer > 0. At least one sample, all values finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("signal must hold at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("signal samples must be finite")
        if not isinstance(self.sample_rate_hz, Integral) or self.sample_rate_hz <= 0:
            raise ParameterError(f"sample rate must be an integer > 0: {self.sample_rate_hz!r}")
        set_read_only(self, samples=arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class MixingMatrix:
    """An invertible 2x2 matrix of mixing gains: |det| exceeds 1e-12 times
    its bound, the product of the row norms (Hadamard), at any scale."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.shape != (2, 2):
            raise DimensionError("mixing matrix must be 2x2")
        if not np.all(np.isfinite(a)):
            raise ParameterError("mixing matrix entries must be finite")
        # scaled by a power of two, exactly, so that neither side overflows
        unit = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
        if abs(np.linalg.det(unit)) <= 1e-12 * np.prod(np.linalg.norm(unit, axis=1)):
            raise ParameterError("mixing matrix is singular; sources unrecoverable")
        set_read_only(self, entries=a)


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


@contextmanager
def atomic_file(path):
    """A binary handle on a new temporary file beside path (parents are
    made, the mode is the umask's), renamed onto path once the block
    completes and removed if it fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = f"{path}.{os.urandom(6).hex()}"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_wav(signal: Signal, path) -> None:
    """Write a Signal to a path as mono 16-bit PCM WAV, atomically (see
    atomic_file). Values outside [-1, 1) are clipped; quantization is
    round-to-nearest.
    """
    scaled = np.rint(signal.samples * _PCM_FULL_SCALE)
    quantized = np.clip(scaled, -32768, 32767).astype("<i2")
    with atomic_file(path) as raw, wave.open(raw, "wb") as handle:
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
    factor, rest = divmod(rate, PIPELINE_RATE_HZ)
    if rest:
        raise UnsupportedRateError(
            f"cannot decimate {rate} Hz to {PIPELINE_RATE_HZ} Hz: "
            "rate is not an integer multiple"
        )
    if factor == 1:
        return signal
    numtaps = 64 * factor + 1  # odd length: integer group delay
    taps = _lowpass_taps(numtaps, 0.45 * PIPELINE_RATE_HZ, rate)
    half = (numtaps - 1) // 2
    n = signal.samples.size
    filtered = np.convolve(signal.samples, taps, mode="full")[half : half + n]
    return Signal(filtered[::factor], PIPELINE_RATE_HZ)


def pair_rate(s1: Signal, s2: Signal) -> int:
    """The rate of two Signals of one rate and length. Raises
    UnsupportedRateError if the rates differ, DimensionError if the lengths do."""
    if s1.sample_rate_hz != s2.sample_rate_hz:
        raise UnsupportedRateError(
            f"signal rates differ: {s1.sample_rate_hz} vs {s2.sample_rate_hz} Hz"
        )
    if len(s1) != len(s2):
        raise DimensionError(f"signal lengths differ: {len(s1)} vs {len(s2)}")
    return s1.sample_rate_hz


# A peak outside [2**-64, 2**64) is brought to [0.5, 1) before any statistic
# is taken: far enough outside, fourth moments, covariances and dot products
# over- or underflow.
_PEAK_EXPONENTS = range(-63, 65)


def scale_into_range(x, peak):
    """x and 0 when its peak (max |x|, given) lies in [2**-64, 2**64); else
    x * 2**-e and e, which brings the peak into [0.5, 1). A power of two
    scales exactly."""
    e = math.frexp(peak)[1]
    if e in _PEAK_EXPONENTS:
        return x, 0
    return np.ldexp(x, -e), e


def mix(sources, a: MixingMatrix):
    """The two instantaneous mixtures x = A s of two sources of one length
    and rate (checked by pair_rate), as Signals at the sources' rate."""
    if len(sources := tuple(sources)) != 2:
        raise DimensionError(f"need two sources, got {len(sources)}")
    rate = pair_rate(*sources)
    mixed = a.entries @ np.vstack([s.samples for s in sources])
    return Signal(mixed[0], rate), Signal(mixed[1], rate)


def synth_source(kind: str, n: int, seed: int, pole: float = 0.9) -> Signal:
    """Generate a deterministic unit-variance test source at 8000 Hz.

    kind is one of "laplacian", "uniform", "gaussian" or "ar1" (first-order
    autoregression with the given real pole of magnitude below 1). The n >= 2
    samples are centered and scaled to unit sample variance.
    """
    if not isinstance(n, Integral) or n < 2:
        raise ParameterError(f"sample count must be an integer >= 2, got {n!r}")
    if not isinstance(seed, Integral) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    if kind == "laplacian":
        samples = rng.laplace(size=n)
    elif kind == "uniform":
        samples = rng.uniform(-1.0, 1.0, size=n)
    elif kind == "gaussian":
        samples = rng.standard_normal(n)
    elif kind == "ar1":
        if not (isinstance(pole, Real) and abs(pole) < 1.0):  # NaN fails the test too
            raise ParameterError(f"AR(1) pole must be a real number of magnitude < 1, got {pole!r}")
        burn_in = 1000
        noise = rng.standard_normal(n + burn_in)
        # y[t] = pole * y[t-1] + noise[t] from y[-1] = 0, as lfilter runs it
        ar = accumulate(noise.tolist(), lambda y, v: pole * y + v, initial=0.0)
        samples = np.fromiter(ar, np.float64, n + burn_in + 1)[burn_in + 1 :]
    else:
        raise ParameterError(f"unknown source kind: {kind!r}")
    samples = samples - samples.mean()
    return Signal(samples / samples.std(), PIPELINE_RATE_HZ)
