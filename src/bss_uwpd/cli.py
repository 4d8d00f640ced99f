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
timestamps, so a fixed seed (by default IcaOptions') reproduces
byte-identical outputs. A command whose artifact path names one of its own
input files, or that names one source file twice, writes nothing;
evaluate refuses collinear references.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .audio_io import (MixingMatrix, Signal, atomic_file, decimate_to_8k, mix, read_wav,
                       write_wav)
from .errors import BssError, DegenerateInputError, ParameterError
from .metrics import evaluate_pair
from .pipeline import METHODS, separate
from .separators import CONTRASTS, IcaOptions

MIX_PEAK = 0.9

# the report's names of SourceMetrics' fields, in their order
METRIC_COLUMNS = ("SIR", "SDR", "segSNR", "overallSNR")

MIX_ARTIFACTS = ("mix1.wav", "mix2.wav", "mix_manifest.json")


def _keep_inputs(inputs, outputs):
    """Raise ParameterError, before anything is written, if an output path
    that exists is one of the input files (the same st_dev and st_ino)."""
    for path in filter(os.path.exists, outputs):
        if any(os.path.samefile(path, source) for source in inputs):
            raise ParameterError(f"{path} is an input file; refusing to overwrite it")


def _mix(out: Path, source_paths, matrix: MixingMatrix, **extra):
    """Decimate two mono WAVs to 8 kHz, cut them to one length, mix them and
    scale the pair to peak at MIX_PEAK; write mix1.wav, mix2.wav and
    mix_manifest.json (with extra manifest keys) only once every input has
    been checked. Returns the decimated sources."""
    if os.path.samefile(*source_paths):
        raise ParameterError("source paths must be two distinct files")
    sources = [decimate_to_8k(read_wav(path)) for path in source_paths]
    n = min(len(s) for s in sources)
    sources = [Signal(s.samples[:n], s.sample_rate_hz) for s in sources]
    mixtures = mix(sources, matrix)
    peak = max(np.max(np.abs(x.samples)) for x in mixtures)
    if peak <= 0.0:
        raise DegenerateInputError("mixtures are silent; nothing to write")
    scale = MIX_PEAK / peak
    names = list(MIX_ARTIFACTS[:2])
    for mixture, name in zip(mixtures, names):
        write_wav(Signal(mixture.samples * scale, mixture.sample_rate_hz), out / name)
    manifest = {
        "matrix": [list(row) for row in matrix.entries.tolist()],
        "scale": scale,
        "sample_rate_hz": mixtures[0].sample_rate_hz,
        "n_samples": n,
        "sources": [Path(p).name for p in source_paths],
        "mixtures": names,
        **extra,
    }
    with atomic_file(out / MIX_ARTIFACTS[2]) as handle:
        handle.write((json.dumps(manifest, indent=2) + "\n").encode())
    return sources


def _parse_matrix(text: str) -> MixingMatrix:
    try:
        a11, a12, a21, a22 = (float(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"--matrix needs a11,a12,a21,a22, got {text!r}") from None
    return MixingMatrix(np.array([[a11, a12], [a21, a22]]))


def _ica_options(args) -> IcaOptions:
    """Fit options from the two flags that add_common defines."""
    return IcaOptions(contrast=args.contrast, seed=args.seed)


def _estimate_names(method: str):
    """The names of the two estimate WAVs that separating with method writes."""
    return [f"est_{method}_{k}.wav" for k in (1, 2)]


def _separate_wavs(out: Path, mix_paths, method: str, opts: IcaOptions) -> dict:
    """Separate a mixture WAV pair with one method and write its two
    estimates as WAVs peaking at MIX_PEAK; returns its run record. A fit
    that did not converge is warned about on stderr, never in the artifacts."""
    result = separate(*(read_wav(path) for path in mix_paths), method, opts)
    model = result.model
    if not model.converged:
        print(f"warning: {method} did not converge in {model.iterations} iterations",
              file=sys.stderr)
    names = _estimate_names(method)
    for estimate, name in zip(result.estimates, names):
        # each estimate has unit variance, so its peak is at least 1
        peak = np.max(np.abs(estimate.samples))
        write_wav(Signal(estimate.samples * (MIX_PEAK / peak), estimate.sample_rate_hz),
                  out / name)
    return {
        "command": "separate",
        "method": method,
        "seed": opts.seed,
        "selected_node": list(result.selected_node) if result.selected_node else None,
        "iterations": model.iterations,
        "converged": model.converged,
        "ill_conditioned": model.ill_conditioned,
        "estimates": names,
    }


def _score(method: str, estimate_paths, references):
    """Table rows scoring two estimate WAVs against two reference Signals:
    one per source, then their average."""
    report = evaluate_pair([read_wav(path) for path in estimate_paths], references)
    rows = [{"method": method, "source": f"source {index}",
             **dict(zip(METRIC_COLUMNS, astuple(source)))}
            for index, source in enumerate(report.per_source, start=1)]
    rows.append({"method": method, "source": "Average",
                 **{c: float(np.mean([r[c] for r in rows])) for c in METRIC_COLUMNS}})
    return rows


def _format_table(rows) -> str:
    header = f"{'method':<10} {'source':<10}" + "".join(f" {c:>12}" for c in METRIC_COLUMNS)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row['method']:<10} {row['source']:<10}"
                     + "".join(f" {row[c]:>12.2f}" for c in METRIC_COLUMNS))
    return "\n".join(lines)


def _jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def cmd_mix(args) -> int:
    out = Path(args.out)
    source_paths = (args.source1, args.source2)
    _keep_inputs(source_paths, [out / name for name in MIX_ARTIFACTS])
    _mix(out, source_paths, _parse_matrix(args.matrix))
    print(f"wrote mix1.wav, mix2.wav, mix_manifest.json to {out}")
    return 0


def cmd_separate(args) -> int:
    out = Path(args.out)
    mix_paths = (args.mix1, args.mix2)
    records_path = out / "runs.jsonl"
    estimate_paths = [out / name for name in _estimate_names(args.method)]
    _keep_inputs(mix_paths, [records_path, *estimate_paths])
    record = _separate_wavs(out, mix_paths, args.method, _ica_options(args))
    existing = records_path.read_bytes() if records_path.exists() else b""
    with atomic_file(records_path) as handle:
        handle.write(existing + _jsonl([record]).encode())
    print(f"wrote {', '.join(record['estimates'])} and run record to {out}")
    return 0


def cmd_evaluate(args) -> int:
    inputs = [args.estimate1, args.estimate2, args.reference1, args.reference2]
    _keep_inputs(inputs, [args.json] if args.json else [])
    references = [read_wav(path) for path in inputs[2:]]
    rows = _score(args.method_label, inputs[:2], references)
    print(_format_table(rows))
    if args.json:
        with atomic_file(args.json) as handle:
            handle.write(_jsonl(rows).encode())
    return 0


def cmd_experiment(args) -> int:
    """mix, then separate with each method, then evaluate each estimate
    pair against the written references: the same bodies as the three
    commands, so every artifact can be rebuilt by running them in turn."""
    out = Path(args.out)
    source_paths = (args.source1, args.source2)
    matrix = _parse_matrix(args.matrix)
    methods = args.methods.split(",")
    for name in methods:
        if name not in METHODS:
            raise ParameterError(f"unknown method {name!r}")
    if len(set(methods)) != len(methods):
        raise ParameterError(f"--methods names a method twice: {args.methods!r}")
    opts = _ica_options(args)
    ref_names = ["ref1.wav", "ref2.wav"]
    report_names = ["runs.jsonl", "report.txt", "report.jsonl"]
    estimate_names = [est for name in methods for est in _estimate_names(name)]
    _keep_inputs(source_paths, [out / name for name in (*MIX_ARTIFACTS, *ref_names,
                                                         *report_names, *estimate_names)])
    sources = _mix(out, source_paths, matrix,
                   seed=opts.seed, methods=methods, references=ref_names)
    for source, ref_name in zip(sources, ref_names):
        write_wav(source, out / ref_name)

    references = [read_wav(out / ref_name) for ref_name in ref_names]
    records, table_rows, failures = [], [], []
    for name in methods:
        try:
            record = _separate_wavs(out, (out / "mix1.wav", out / "mix2.wav"), name, opts)
        except BssError as exc:
            failures.append(f"FAILED {name}: {exc}")
            continue
        records.append(record)
        table_rows += _score(name, [out / est for est in record["estimates"]], references)
    report = "\n".join([_format_table(table_rows), *failures])
    texts = (_jsonl(records), report + "\n", _jsonl(table_rows))
    for name, text in zip(report_names, texts):
        with atomic_file(out / name) as handle:
            handle.write(text.encode())
    print(report)
    return 1 if failures else 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bss-uwpd",
        description="Blind two-channel speech separation with a critical-band "
        "wavelet packet filterbank and FastICA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=IcaOptions.seed, help="default: %(default)s")
        p.add_argument("--contrast", choices=CONTRASTS, default=IcaOptions.contrast)

    p_mix = sub.add_parser("mix", help="decimate, mix, and write mixtures")
    p_mix.add_argument("source1")
    p_mix.add_argument("source2")
    p_mix.add_argument("--matrix", default="2,1,1,1", help="a11,a12,a21,a22")
    p_mix.add_argument("--out", required=True)
    p_mix.set_defaults(func=cmd_mix)

    p_sep = sub.add_parser("separate", help="separate one mixture pair")
    p_sep.add_argument("mix1")
    p_sep.add_argument("mix2")
    p_sep.add_argument("--method", choices=METHODS, required=True)
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
    p_exp.add_argument("--methods", default=",".join(METHODS),
                       help=f"comma-separated subset of {','.join(METHODS)}")
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
