"""Command-line harness: mix two speech files, separate, evaluate.

Subcommands
    mix         decimate two mono WAVs to 8 kHz, mix them with a 2x2
                matrix, write mix1.wav/mix2.wav plus a manifest
    separate    run one separation method on a mixture pair, write
                estimate WAVs and a JSON-lines run record
    evaluate    score two estimates against two references, print the
                comparison table
    experiment  mix -> separate with every requested method -> evaluate,
                emit one combined report (text table + JSON lines)

All artifacts are written atomically (temp file + rename) and contain no
timestamps, so a fixed seed reproduces byte-identical outputs. The seed
falls back to the BSS_UWPD_SEED environment variable, then 42.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .audio_io import MixingMatrix, Signal, decimate_to_8k, mix, read_wav, write_wav
from .errors import BssError, DegenerateInputError, ParameterError
from .metrics import evaluate_pair
from .pipeline import (
    METHOD_FASTICA,
    METHOD_PROPOSED,
    METHOD_SOBI,
    SeparationResult,
    separate_baseline,
    separate_proposed,
)
from .separators import DEFAULT_SOBI_LAGS, IcaOptions

DEFAULT_MATRIX = ((2.0, 1.0), (1.0, 1.0))
MIX_PEAK = 0.9
METHOD_NAMES = (METHOD_PROPOSED, METHOD_FASTICA, METHOD_SOBI)

METRIC_COLUMNS = ("SIR", "SDR", "segSNR", "overallSNR")


def _atomic_write_bytes(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _atomic_write_text(path: Path, text: str):
    _atomic_write_bytes(path, text.encode())


def _atomic_write_wav(signal: Signal, path: Path):
    buffer = io.BytesIO()
    write_wav(signal, buffer)
    _atomic_write_bytes(path, buffer.getvalue())


def _write_mixtures(out: Path, matrix, scale, mixtures, source_paths, **extra):
    """mix1.wav, mix2.wav and mix_manifest.json, with extra manifest keys."""
    names = ["mix1.wav", "mix2.wav"]
    for mixture, name in zip(mixtures, names):
        _atomic_write_wav(mixture, out / name)
    manifest = {
        "matrix": [list(row) for row in matrix.entries.tolist()],
        "scale": scale,
        "sample_rate_hz": mixtures[0].sample_rate_hz,
        "n_samples": len(mixtures[0]),
        "sources": [Path(p).name for p in source_paths],
        "mixtures": names,
        **extra,
    }
    _atomic_write_text(out / "mix_manifest.json", json.dumps(manifest, indent=2) + "\n")


def _parse_matrix(text: str) -> MixingMatrix:
    try:
        a11, a12, a21, a22 = (float(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"--matrix needs a11,a12,a21,a22, got {text!r}") from None
    return MixingMatrix(np.array([[a11, a12], [a21, a22]]))


def _parse_lags(text: str):
    try:
        if "-" in text and "," not in text:
            first, last = text.split("-", 1)
            return tuple(range(int(first), int(last) + 1))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"--lags needs e.g. 1-20 or 1,2,5, got {text!r}") from None


def _load_mixture_inputs(paths):
    signals = []
    for path in paths:
        if not Path(path).exists():
            raise OSError(f"input file not found: {path}")
        signals.append(decimate_to_8k(read_wav(path)))
    n = min(len(s) for s in signals)
    return [Signal(s.samples[:n], s.sample_rate_hz) for s in signals]


def _make_mixtures(sources, matrix: MixingMatrix):
    x1, x2 = mix(sources, matrix)
    peak = max(np.max(np.abs(x1.samples)), np.max(np.abs(x2.samples)))
    if peak <= 0.0:
        raise DegenerateInputError("mixtures are silent; nothing to write")
    scale = MIX_PEAK / peak
    return (
        Signal(x1.samples * scale, x1.sample_rate_hz),
        Signal(x2.samples * scale, x2.sample_rate_hz),
        scale,
    )


def _ica_options(args) -> IcaOptions:
    """Fit options; without --seed the seed is BSS_UWPD_SEED, then 42."""
    seed = args.seed
    if seed is None:
        text = os.environ.get("BSS_UWPD_SEED", "42")
        try:
            seed = int(text)
        except ValueError:
            raise ParameterError(f"BSS_UWPD_SEED must be an integer, got {text!r}") from None
    return IcaOptions(
        contrast=args.contrast,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        seed=seed,
    )


def _run_method(name: str, mixtures, opts: IcaOptions, lags) -> SeparationResult:
    """Separate with one method; a fit that did not converge is warned
    about on stderr, never in the artifacts."""
    if name == METHOD_PROPOSED:
        result = separate_proposed(mixtures[0], mixtures[1], opts)
    else:
        result = separate_baseline(mixtures[0], mixtures[1], name, opts, lags)
    if not result.converged:
        print(f"warning: {name} did not converge in {result.iterations} iterations",
              file=sys.stderr)
    return result


def _write_estimates(out: Path, name: str, result: SeparationResult, seed: int):
    """Write a method's two estimates as WAVs peaking at MIX_PEAK; returns
    its run record."""
    names = [f"est_{name}_1.wav", f"est_{name}_2.wav"]
    for estimate, est_name in zip(result.estimates, names):
        peak = np.max(np.abs(estimate.samples))
        if peak > 0.0:
            estimate = Signal(estimate.samples * (MIX_PEAK / peak), estimate.sample_rate_hz)
        _atomic_write_wav(estimate, out / est_name)
    return {
        "command": "separate",
        "method": name,
        "seed": seed,
        "selected_node": list(result.selected_node) if result.selected_node else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "ill_conditioned": result.model.ill_conditioned,
        "estimates": names,
    }


def _score(method: str, estimate_paths, references):
    """Table rows scoring two estimate WAVs against two reference Signals:
    one per source, then their average."""
    report = evaluate_pair([read_wav(path) for path in estimate_paths], references)
    rows = []
    for index, source in enumerate(report.per_source, start=1):
        rows.append(
            {
                "method": method,
                "source": f"source {index}",
                "SIR": source.sir_db,
                "SDR": source.sdr_db,
                "segSNR": source.seg_snr_db,
                "overallSNR": source.overall_snr_db,
            }
        )
    rows.append(
        {
            "method": method,
            "source": "Average",
            **{
                column: float(np.mean([r[column] for r in rows]))
                for column in METRIC_COLUMNS
            },
        }
    )
    return rows


def _format_table(rows) -> str:
    header = f"{'method':<10} {'source':<10}" + "".join(
        f" {column:>12}" for column in METRIC_COLUMNS
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['method']:<10} {row['source']:<10}"
            + "".join(f" {row[column]:>12.2f}" for column in METRIC_COLUMNS)
        )
    return "\n".join(lines)


def _jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def cmd_mix(args) -> int:
    out = Path(args.out)
    matrix = _parse_matrix(args.matrix)
    sources = _load_mixture_inputs([args.source1, args.source2])
    mix1, mix2, scale = _make_mixtures(sources, matrix)
    _write_mixtures(out, matrix, scale, (mix1, mix2), (args.source1, args.source2))
    print(f"wrote mix1.wav, mix2.wav, mix_manifest.json to {out}")
    return 0


def cmd_separate(args) -> int:
    out = Path(args.out)
    opts = _ica_options(args)
    mixtures = [read_wav(args.mix1), read_wav(args.mix2)]
    result = _run_method(args.method, mixtures, opts, args.lags)
    record = _write_estimates(out, args.method, result, opts.seed)
    records_path = out / "runs.jsonl"
    existing = records_path.read_text() if records_path.exists() else ""
    _atomic_write_text(records_path, existing + _jsonl([record]))
    print(f"wrote {', '.join(record['estimates'])} and run record to {out}")
    return 0


def cmd_evaluate(args) -> int:
    references = [read_wav(args.reference1), read_wav(args.reference2)]
    rows = _score(args.method_label, [args.estimate1, args.estimate2], references)
    print(_format_table(rows))
    if args.json:
        _atomic_write_text(Path(args.json), _jsonl(rows))
    return 0


def cmd_experiment(args) -> int:
    out = Path(args.out)
    source_paths = (args.source1, args.source2)
    matrix = _parse_matrix(args.matrix)
    methods = args.methods.split(",")
    for name in methods:
        if name not in METHOD_NAMES:
            raise ParameterError(f"unknown method {name!r}")
    if len(set(map(str, source_paths))) != 2:
        raise ParameterError("source paths must be two distinct files")
    opts = _ica_options(args)
    references = _load_mixture_inputs(source_paths)
    mix1, mix2, scale = _make_mixtures(references, matrix)

    results = {}
    failures = {}
    for name in methods:
        try:
            results[name] = _run_method(name, (mix1, mix2), opts, args.lags)
        except BssError as exc:
            failures[name] = str(exc)

    # all computation done; emit artifacts, then score from the files so
    # every table cell is reproducible from the written WAVs alone
    ref_names = ["ref1.wav", "ref2.wav"]
    for reference, ref_name in zip(references, ref_names):
        _atomic_write_wav(reference, out / ref_name)
    _write_mixtures(
        out, matrix, scale, (mix1, mix2), source_paths,
        seed=opts.seed, methods=methods, references=ref_names,
    )

    ref_signals = [read_wav(out / ref_name) for ref_name in ref_names]
    records = []
    table_rows = []
    for name in methods:
        if name not in results:
            continue
        record = _write_estimates(out, name, results[name], opts.seed)
        records.append(record)
        table_rows += _score(name, [out / est for est in record["estimates"]], ref_signals)
    _atomic_write_text(out / "runs.jsonl", _jsonl(records))

    table = _format_table(table_rows)
    report_lines = [table]
    for name, message in failures.items():
        report_lines.append(f"FAILED {name}: {message}")
    _atomic_write_text(out / "report.txt", "\n".join(report_lines) + "\n")
    _atomic_write_text(out / "report.jsonl", _jsonl(table_rows))
    print("\n".join(report_lines))
    if failures:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bss-uwpd",
        description="Blind two-channel speech separation with a critical-band "
        "wavelet packet filterbank and FastICA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, help="default: BSS_UWPD_SEED, then 42")
        p.add_argument("--contrast", choices=("tanh", "gauss", "cube"), default="tanh")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-iter", type=int, default=200)
        p.add_argument("--lags", type=_parse_lags, default=DEFAULT_SOBI_LAGS,
                       help="SOBI lags, e.g. 1-20 or 1,2,5")

    p_mix = sub.add_parser("mix", help="decimate, mix, and write mixtures")
    p_mix.add_argument("source1")
    p_mix.add_argument("source2")
    p_mix.add_argument("--matrix", default="2,1,1,1", help="a11,a12,a21,a22")
    p_mix.add_argument("--out", required=True)
    p_mix.set_defaults(func=cmd_mix)

    p_sep = sub.add_parser("separate", help="separate one mixture pair")
    p_sep.add_argument("mix1")
    p_sep.add_argument("mix2")
    p_sep.add_argument("--method", choices=METHOD_NAMES, required=True)
    p_sep.add_argument("--out", required=True)
    add_common(p_sep)
    p_sep.set_defaults(func=cmd_separate)

    p_eval = sub.add_parser("evaluate", help="score estimates against references")
    p_eval.add_argument("estimate1")
    p_eval.add_argument("estimate2")
    p_eval.add_argument("reference1")
    p_eval.add_argument("reference2")
    p_eval.add_argument("--json", help="also write rows as JSON lines")
    p_eval.add_argument("--method-label", default="estimates")
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="mix, separate, evaluate end-to-end")
    p_exp.add_argument("source1")
    p_exp.add_argument("source2")
    p_exp.add_argument("--matrix", default="2,1,1,1", help="a11,a12,a21,a22")
    p_exp.add_argument("--methods", default=",".join(METHOD_NAMES),
                       help=f"comma-separated subset of {','.join(METHOD_NAMES)}")
    p_exp.add_argument("--out", required=True)
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BssError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
