"""The benchmark's three workloads.

An operation is one mixture pair: it is separated by each method
(proposed, plain FastICA, SOBI) and the three estimate pairs are then
scored. Each workload builds a fixed round of pairs from the seed; every
pass runs whole rounds. Inputs are speech-like synthetic sources made
here, never by the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve, firwin

from bss_uwpd import audio_io, cli, filterbank, metrics, pipeline, separators, stats

import checks

METHODS = ("proposed", "fastica", "sobi")
FS = audio_io.PIPELINE_RATE_HZ

# Mixing matrices from mild to near-collinear (condition numbers about
# 1.9, 6.9, 7.0 and 26).
MILD = ((1.0, 0.3), (0.3, 1.0))
EQ8 = ((2.0, 1.0), (1.0, 1.0))
STRONG = ((1.0, 0.8), (0.7, 1.0))
NEAR_COLLINEAR = ((1.0, 0.95), (0.9, 1.0))

# Make-up of one speech-like source: bursty supergaussian energy in its own
# band, a weaker bursty component in the partner band, Gaussian noise in a
# shared mid band and a white floor (powers sum to 1).
BAND_LOW = (0.0, 700.0)
BAND_HIGH = (2000.0, 3300.0)
BAND_MID = (900.0, 1900.0)
ENV_BW_HZ = 100.0
P_OWN, P_OTHER, P_FLOOR = 0.22, 0.132, 0.01
P_MID = 1.0 - P_OWN - P_OTHER - P_FLOOR


def _band_noise(rng, n, band, fs):
    low, high = band
    if low <= 0.0:
        taps = firwin(1025, high, fs=fs)
    else:
        taps = firwin(1025, [low, high], fs=fs, pass_zero=False)
    out = fftconvolve(rng.standard_normal(n), taps, mode="same")
    return out / out.std()


def _bursty_band(rng, n, band, fs):
    carrier = _band_noise(rng, n, band, fs)
    envelope = fftconvolve(rng.standard_normal(n), firwin(2049, ENV_BW_HZ, fs=fs), mode="same")
    burst = envelope**2 * carrier
    return burst / burst.std()


def speech_source(rng, n, own_band, other_band, fs=FS) -> np.ndarray:
    """One unit-variance speech-like source."""
    s = (
        np.sqrt(P_OWN) * _bursty_band(rng, n, own_band, fs)
        + np.sqrt(P_OTHER) * _bursty_band(rng, n, other_band, fs)
        + np.sqrt(P_MID) * _band_noise(rng, n, BAND_MID, fs)
        + np.sqrt(P_FLOOR) * rng.standard_normal(n)
    )
    s -= s.mean()
    return s / s.std()


def source_pair(seed: int, index: int, n: int, fs=FS):
    """Two independent sources with swapped band roles, seeded from
    (seed, index) so every pair of a run differs and repeats exactly."""
    seq = np.random.SeedSequence([seed % 2**63, index])
    rng1, rng2 = (np.random.default_rng(s) for s in seq.spawn(2))
    return (
        speech_source(rng1, n, BAND_LOW, BAND_HIGH, fs),
        speech_source(rng2, n, BAND_HIGH, BAND_LOW, fs),
    )


def separate(method, x1, x2):
    if method == "proposed":
        return pipeline.separate_proposed(x1, x2)
    name = {"fastica": pipeline.METHOD_FASTICA, "sobi": pipeline.METHOD_SOBI}[method]
    return pipeline.separate_baseline(x1, x2, name)


@dataclass
class Outcome:
    """One operation: wall time of each timed call, summed call time, and
    the problems its output checks found."""

    times: dict
    calls_s: float
    problems: list


def _peak_mib(call):
    """Result of a call and its tracemalloc peak (MiB) above what was
    traced before it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20


@contextlib.contextmanager
def _traced_memory():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


# --- traced re-enactments of public calls ---------------------------------


def traced_fit(tr, name, fit, x):
    """A separator call, then its whitening step re-enacted below it."""
    with tr.span(f"separators.{name}") as span:
        model = fit(x)
        span["attrs"]["iterations" if name == "fastica" else "sweeps"] = model.iterations
    with tr.reenact(span), tr.span("stats.whiten"):
        stats.fit_whitening(x)
    return model


def traced_separate(tr, method, x1, x2, problems):
    """Time the real separation, then re-enact the public calls it makes;
    energy-conservation problems of the re-enacted trees go to problems."""
    with tr.span(f"pipeline.{method}") as span:
        result = separate(method, x1, x2)
    with tr.reenact(span):
        x = np.vstack([x1.samples, x2.samples])
        if method == "proposed":
            tree = filterbank.build_cb_tree(FS)
            filters = filterbank.db4_filters()
            nodes = []
            for signal in (x1, x2):
                with tr.span("filterbank.decompose") as fb:
                    nodes.append(filterbank.decompose_nodes(signal, tree, filters))
                fb["attrs"]["nodes"] = len(nodes[-1])
            with tr.span("stats.score") as sc:
                scores = stats.score_nodes(*nodes)
            sc["attrs"]["nodes"] = len(scores)
            with tr.span("stats.select"):
                best = stats.select_best_node(scores, tree.fs_hz)
            for signal, coeffs in zip((x1, x2), nodes):
                problems += checks.energy_problems(signal.samples, coeffs, tree_leaves(tree))
            subband = np.vstack([nodes[0][best.node], nodes[1][best.node]])
            del nodes
            model = traced_fit(tr, "fastica", separators.fastica, subband)
        elif method == "fastica":
            model = traced_fit(tr, "fastica", separators.fastica, x)
        else:
            model = traced_fit(tr, "sobi", separators.sobi, x)
        with tr.span("separators.apply"):
            separators.apply_unmixing(model, x, mean=x.mean(axis=1))
    return result


def traced_evaluate(tr, estimates, references):
    """Time the real scoring, then re-enact the public calls it makes."""
    with tr.span("metrics.evaluate") as span:
        report = metrics.evaluate_pair(estimates, references)
    with tr.reenact(span):
        with tr.span("metrics.align"):
            permutation, signs = metrics.align(estimates, references)
        refs = [r.samples for r in references]
        for k in range(2):
            i = permutation.index(k)
            aligned = signs[i] * estimates[i].samples
            with tr.span("metrics.bss_decompose"):
                decomposition = metrics.bss_decompose(aligned, refs, k)
            metrics.sir(decomposition)
            metrics.sdr(decomposition)
            with tr.span("metrics.segsnr"):
                metrics.segmental_snr(aligned, refs[k])
            with tr.span("metrics.overall_snr"):
                metrics.overall_snr(aligned, refs[k])
    return report


def tree_leaves(tree):
    return [(leaf.level, leaf.position) for leaf in tree.leaves]


def verify_filterbank(x1, x2, selected):
    """Energy conservation of both channels' trees and the selected node
    against an independent kurtosis ranking."""
    tree = filterbank.build_cb_tree(FS)
    filters = filterbank.db4_filters()
    nodes1 = filterbank.decompose_nodes(x1, tree, filters)
    nodes2 = filterbank.decompose_nodes(x2, tree, filters)
    leaves = tree_leaves(tree)
    return (
        checks.energy_problems(x1.samples, nodes1, leaves)
        + checks.energy_problems(x2.samples, nodes2, leaves)
        + checks.selection_problems(selected, nodes1, nodes2)
    )


def filterbank_peak_mib(x1, x2):
    """tracemalloc peak of decomposing both channels, both trees alive."""
    tree = filterbank.build_cb_tree(FS)
    filters = filterbank.db4_filters()
    with _traced_memory():
        _, peak = _peak_mib(
            lambda: [filterbank.decompose_nodes(x, tree, filters) for x in (x1, x2)]
        )
    return peak


# --- library workloads ------------------------------------------------------


@dataclass
class Pair:
    sources: tuple
    matrix: np.ndarray
    mixtures: tuple


class LibraryWorkload:
    """Library calls on in-memory 8 kHz pairs."""

    def __init__(self, n, n_sources, matrices):
        self.n = n
        self.n_sources = n_sources
        self.matrices = [np.array(m) for m in matrices]
        self.round = []
        self.selected = {}

    def make_inputs(self, seed):
        self.round = []
        for index in range(self.n_sources):
            s1, s2 = source_pair(seed, index, self.n)
            sources = (audio_io.Signal(s1, FS), audio_io.Signal(s2, FS))
            for a in self.matrices:
                mixtures = audio_io.mix(sources, audio_io.MixingMatrix(a))
                self.round.append(Pair(sources, a, mixtures))

    def op(self, index) -> Outcome:
        pair = self.round[index]
        times = {}
        results = {}
        for method in METHODS:
            start = time.perf_counter()
            results[method] = separate(method, *pair.mixtures)
            times[method] = time.perf_counter() - start
        reports = {}
        times["evaluate"] = []
        for method in METHODS:
            start = time.perf_counter()
            reports[method] = metrics.evaluate_pair(results[method].estimates, pair.sources)
            times["evaluate"].append(time.perf_counter() - start)
        calls_s = sum(times[m] for m in METHODS) + sum(times["evaluate"])
        return Outcome(times, calls_s, self._check(index, results, reports))

    def _check(self, index, results, reports):
        pair = self.round[index]
        node = results["proposed"].selected_node
        first = self.selected.setdefault(index, node)
        problems = [] if node == first else [f"proposed: selected {node}, earlier {first}"]
        refs = [s.samples for s in pair.sources]
        for method in METHODS:
            result = results[method]
            estimates = [e.samples for e in result.estimates]
            program_sirs = [s.sir_db for s in reports[method].per_source]
            problems += checks.estimate_problems(method, estimates, self.n)
            problems += checks.unmixing_problems(method, result.model.combined, pair.matrix)
            problems += checks.sir_problems(method, estimates, refs, program_sirs)
        return problems

    def traced_op(self, index, tr):
        pair = self.round[index]
        problems = []
        with tr.span("op"):
            results = {m: traced_separate(tr, m, *pair.mixtures, problems) for m in METHODS}
            reports = {
                m: traced_evaluate(tr, results[m].estimates, pair.sources) for m in METHODS
            }
        return problems + self._check(index, results, reports)

    def peak_mib(self):
        pair = self.round[0]
        peaks = []
        with _traced_memory():
            for method in METHODS:
                result, peak = _peak_mib(lambda: separate(method, *pair.mixtures))
                peaks.append(peak)
                peaks.append(
                    _peak_mib(lambda: metrics.evaluate_pair(result.estimates, pair.sources))[1]
                )
        return max(peaks)

    def filterbank_peak_mib(self):
        return filterbank_peak_mib(*self.round[0].mixtures)

    def verify(self):
        problems = []
        for index, selected in sorted(self.selected.items()):
            problems += verify_filterbank(*self.round[index].mixtures, selected)
        return problems


# --- the command-line protocol ----------------------------------------------


@dataclass
class CliPair:
    sources: tuple
    references: tuple
    matrix: np.ndarray


def run_cli(argv):
    """cli.main in process with stdout captured; a non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"bss-uwpd {argv[0]} exited with {code}")


def _artifacts(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class CliWorkload:
    """`cli.main` in process: mix 16 kHz mono WAV sources, separate with
    each method, evaluate each estimate pair with --json."""

    def __init__(self, work_dir, n_16k, n_sources, matrices):
        self.work_dir = Path(work_dir)
        self.n_16k = n_16k
        self.n = n_16k // 2
        self.n_sources = n_sources
        self.matrices = [np.array(m) for m in matrices]
        self.round = []
        self.selected = {}
        self.reference_bytes = {}
        self._ops = 0

    def make_inputs(self, seed):
        inputs = self.work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.round = []
        for index in range(self.n_sources):
            sources, references = [], []
            for k, s in enumerate(source_pair(seed, index, self.n_16k, fs=2 * FS), start=1):
                path = inputs / f"src{index}_{k}.wav"
                audio_io.write_wav(audio_io.Signal(0.9 * s / np.abs(s).max(), 2 * FS), path)
                ref = inputs / f"ref{index}_{k}.wav"
                audio_io.write_wav(audio_io.decimate_to_8k(audio_io.read_wav(path)), ref)
                sources.append(path)
                references.append(ref)
            for a in self.matrices:
                self.round.append(CliPair(tuple(sources), tuple(references), a))

    def _fresh_dir(self):
        self._ops += 1
        out = self.work_dir / f"op{self._ops}"
        out.mkdir(parents=True)
        return out

    @staticmethod
    def _argv(pair, out):
        matrix = ",".join(repr(float(v)) for v in pair.matrix.ravel())
        mix = ["mix", *pair.sources, "--matrix", matrix, "--out", out]
        separate_argv = {
            m: ["separate", out / "mix1.wav", out / "mix2.wav", "--method", m,
                "--out", out, "--seed", "42"]
            for m in METHODS
        }
        evaluate_argv = {
            m: ["evaluate", out / f"est_{m}_1.wav", out / f"est_{m}_2.wav",
                *pair.references, "--json", out / f"eval_{m}.jsonl", "--method-label", m]
            for m in METHODS
        }
        return mix, separate_argv, evaluate_argv

    def op(self, index) -> Outcome:
        pair = self.round[index]
        out = self._fresh_dir()
        mix, separate_argv, evaluate_argv = self._argv(pair, out)
        times = {}
        start = time.perf_counter()
        run_cli(mix)
        times["mix"] = time.perf_counter() - start
        for method in METHODS:
            start = time.perf_counter()
            run_cli(separate_argv[method])
            times[method] = time.perf_counter() - start
        times["evaluate"] = []
        for method in METHODS:
            start = time.perf_counter()
            run_cli(evaluate_argv[method])
            times["evaluate"].append(time.perf_counter() - start)
        calls_s = times["mix"] + sum(times[m] for m in METHODS) + sum(times["evaluate"])
        problems = self._check(index, out)
        shutil.rmtree(out)
        return Outcome(times, calls_s, problems)

    def _check(self, index, out):
        pair = self.round[index]
        problems = []
        mixtures = np.vstack([checks.read_pcm16(out / f"mix{k}.wav") for k in (1, 2)])
        refs = [checks.read_pcm16(p) for p in pair.references]
        for method in METHODS:
            estimates = [checks.read_pcm16(out / f"est_{method}_{k}.wav") for k in (1, 2)]
            problems += checks.estimate_problems(
                method, estimates, mixtures.shape[1], unit_variance=False
            )
            unmixing = checks.fitted_unmixing(mixtures, np.vstack(estimates))
            problems += checks.unmixing_problems(method, unmixing, pair.matrix)
            rows = [json.loads(r) for r in (out / f"eval_{method}.jsonl").read_text().splitlines()]
            program_sirs = [rows[k]["SIR"] for k in range(2)]
            problems += checks.sir_problems(method, estimates, refs, program_sirs)
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        proposed = next(r for r in records if r["method"] == "proposed")
        self.selected.setdefault(index, tuple(proposed["selected_node"]))
        artifacts = _artifacts(out)
        first = self.reference_bytes.setdefault(index, artifacts)
        if artifacts != first:
            differing = sorted(
                name for name in set(first) | set(artifacts)
                if first.get(name) != artifacts.get(name)
            )
            problems.append(f"cli: artifacts differ between repetitions: {differing}")
        return problems

    def traced_op(self, index, tr):
        pair = self.round[index]
        out = self._fresh_dir()
        reenact_dir = self._fresh_dir()
        mix, separate_argv, evaluate_argv = self._argv(pair, out)
        problems = []
        with tr.span("op"):
            with tr.span("cli.mix") as span:
                run_cli(mix)
            with tr.reenact(span):
                decimated = [
                    self._traced_decimate(tr, self._traced_read(tr, p)) for p in pair.sources
                ]
                with tr.span("audio_io.mix"):
                    mixed = audio_io.mix(decimated, audio_io.MixingMatrix(pair.matrix))
                for k, signal in enumerate(mixed, start=1):
                    self._traced_write(tr, _peak_normalized(signal), reenact_dir / f"mix{k}.wav")
            for method in METHODS:
                with tr.span("cli.separate") as span:
                    run_cli(separate_argv[method])
                with tr.reenact(span):
                    x1, x2 = (self._traced_read(tr, out / f"mix{k}.wav") for k in (1, 2))
                    result = traced_separate(tr, method, x1, x2, problems)
                    for k, estimate in enumerate(result.estimates, start=1):
                        self._traced_write(
                            tr, _peak_normalized(estimate), reenact_dir / f"est_{method}_{k}.wav"
                        )
            for method in METHODS:
                with tr.span("cli.evaluate") as span:
                    run_cli(evaluate_argv[method])
                with tr.reenact(span):
                    paths = evaluate_argv[method][1:5]
                    signals = [self._traced_read(tr, p) for p in paths]
                    traced_evaluate(tr, signals[:2], signals[2:])
        problems += self._check(index, out)
        shutil.rmtree(out)
        shutil.rmtree(reenact_dir)
        return problems

    @staticmethod
    def _traced_read(tr, path):
        with tr.span("audio_io.read_wav") as span:
            signal = audio_io.read_wav(path)
        span["attrs"]["bytes"] = Path(path).stat().st_size
        return signal

    @staticmethod
    def _traced_write(tr, signal, path):
        with tr.span("audio_io.write_wav") as span:
            audio_io.write_wav(signal, path)
        span["attrs"]["bytes"] = Path(path).stat().st_size

    @staticmethod
    def _traced_decimate(tr, signal):
        with tr.span("audio_io.decimate"):
            return audio_io.decimate_to_8k(signal)

    def peak_mib(self):
        pair = self.round[0]
        out = self._fresh_dir()
        mix, separate_argv, evaluate_argv = self._argv(pair, out)
        run_cli(mix)
        with _traced_memory():
            peaks = [_peak_mib(lambda: run_cli(separate_argv[m]))[1] for m in METHODS]
            peaks += [_peak_mib(lambda: run_cli(evaluate_argv[m]))[1] for m in METHODS]
        shutil.rmtree(out)
        return max(peaks)

    def _read_mixtures(self, index):
        out = self._fresh_dir()
        run_cli(self._argv(self.round[index], out)[0])
        mixtures = [audio_io.read_wav(out / f"mix{k}.wav") for k in (1, 2)]
        shutil.rmtree(out)
        return mixtures

    def filterbank_peak_mib(self):
        return filterbank_peak_mib(*self._read_mixtures(0))

    def verify(self):
        problems = []
        for index, selected in sorted(self.selected.items()):
            problems += verify_filterbank(*self._read_mixtures(index), selected)
        return problems


def _peak_normalized(signal):
    samples = signal.samples
    return audio_io.Signal(0.9 * samples / np.abs(samples).max(), signal.sample_rate_hz)


# workload name -> factory taking the directory for per-run files
WORKLOADS = {
    "speech_60s": lambda work_dir: LibraryWorkload(480000, 1, (EQ8,)),
    "speech_4s": lambda work_dir: LibraryWorkload(
        32768, 6, (MILD, EQ8, STRONG, NEAR_COLLINEAR)
    ),
    "cli_protocol": lambda work_dir: CliWorkload(work_dir, 65536, 4, (EQ8, NEAR_COLLINEAR)),
}
