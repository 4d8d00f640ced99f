import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bss_uwpd import (
    ParameterError,
    Signal,
    evaluate_pair,
    read_wav,
    synth_source,
    write_wav,
)
from bss_uwpd.cli import _parse_lags, _parse_matrix, main

from helpers import speechlike_pair


@pytest.fixture()
def speech_wavs(tmp_path):
    s1, s2 = speechlike_pair(8192, seed=3)
    p1, p2 = tmp_path / "s1.wav", tmp_path / "s2.wav"
    write_wav(Signal(0.2 * s1.samples, 8000), p1)
    write_wav(Signal(0.2 * s2.samples, 8000), p2)
    return p1, p2


@pytest.fixture()
def mixture_dir(tmp_path, speech_wavs):
    out = tmp_path / "mixdir"
    assert main(["mix", str(speech_wavs[0]), str(speech_wavs[1]), "--out", str(out)]) == 0
    return out


class TestMix:
    def test_one_second_files_give_8k_mixtures(self, tmp_path):
        for name, seed in (("a.wav", 1), ("b.wav", 2)):
            write_wav(
                Signal(0.3 * synth_source("gaussian", 16000, seed=seed).samples, 16000),
                tmp_path / name,
            )
        out = tmp_path / "out"
        code = main(["mix", str(tmp_path / "a.wav"), str(tmp_path / "b.wav"),
                     "--out", str(out)])
        assert code == 0
        mix1 = read_wav(out / "mix1.wav")
        assert mix1.sample_rate_hz == 8000
        assert len(mix1) == 8000
        manifest = json.loads((out / "mix_manifest.json").read_text())
        assert manifest["n_samples"] == 8000

    def test_manifest_matrix_is_verbatim(self, tmp_path, speech_wavs):
        out = tmp_path / "out"
        main(["mix", str(speech_wavs[0]), str(speech_wavs[1]),
              "--matrix", "2,1,1,1", "--out", str(out)])
        manifest = json.loads((out / "mix_manifest.json").read_text())
        assert manifest["matrix"] == [[2.0, 1.0], [1.0, 1.0]]

    def test_inverse_recovers_decimated_sources(self, tmp_path, speech_wavs):
        out = tmp_path / "out"
        main(["mix", str(speech_wavs[0]), str(speech_wavs[1]), "--out", str(out)])
        manifest = json.loads((out / "mix_manifest.json").read_text())
        mixed = np.vstack(
            [read_wav(out / name).samples for name in manifest["mixtures"]]
        )
        unscaled = mixed / manifest["scale"]
        recovered = np.linalg.inv(np.array(manifest["matrix"])) @ unscaled
        refs = np.vstack([read_wav(p).samples for p in speech_wavs])
        assert np.max(np.abs(recovered - refs[:, : recovered.shape[1]])) < 1e-3

    def test_non_numeric_matrix_entry(self, tmp_path, speech_wavs, capsys):
        with pytest.raises(ParameterError):
            _parse_matrix("1,2,x,4")
        code = main(["mix", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--matrix", "1,2,x,4", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--matrix" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_input(self, tmp_path):
        code = main(["mix", str(tmp_path / "missing.wav"), str(tmp_path / "x.wav"),
                     "--out", str(tmp_path / "out")])
        assert code != 0
        assert not (tmp_path / "out").exists()


class TestSeparate:
    def test_proposed_writes_estimates_and_record(self, tmp_path, mixture_dir):
        out = tmp_path / "sep"
        code = main(["separate", str(mixture_dir / "mix1.wav"),
                     str(mixture_dir / "mix2.wav"), "--method", "proposed",
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "est_proposed_1.wav").exists()
        assert (out / "est_proposed_2.wav").exists()
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        assert record["method"] == "proposed"
        assert record["selected_node"] is not None
        assert record["seed"] == 3
        assert isinstance(record["iterations"], int)
        assert isinstance(record["converged"], bool)

    def test_non_numeric_lags(self, tmp_path, mixture_dir):
        for text in ("1-x", "1,x"):
            with pytest.raises(ParameterError):
                _parse_lags(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["separate", str(mixture_dir / "mix1.wav"),
                  str(mixture_dir / "mix2.wav"), "--method", "sobi",
                  "--lags", "1-x", "--out", str(tmp_path / "sep")])
        assert exit_info.value.code == 2

    def test_truncated_wav_exits_2(self, tmp_path, mixture_dir, capsys):
        data = (mixture_dir / "mix1.wav").read_bytes()
        cut = tmp_path / "cut.wav"
        # cut inside the data chunk, to nothing, and inside the header
        for end, reason in ((-1, "data chunk"), (0, "header"), (30, "header")):
            cut.write_bytes(data[:end])
            code = main(["separate", str(cut), str(mixture_dir / "mix2.wav"),
                         "--method", "sobi", "--out", str(tmp_path / "sep")])
            assert code == 2
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--tol", "nan"], ["--tol", "inf"], ["--seed", "-1"]],
        ids=["tol-nan", "tol-inf", "seed-negative"],
    )
    def test_bad_fit_option_exits_2(self, tmp_path, mixture_dir, capsys, option):
        out = tmp_path / "sep"
        code = main(["separate", str(mixture_dir / "mix1.wav"),
                     str(mixture_dir / "mix2.wav"), "--method", "fastica",
                     *option, "--out", str(out)])
        assert code == 2
        assert option[0][2:] in capsys.readouterr().err
        assert not out.exists()

    def test_non_convergence_warns_on_stderr(self, tmp_path, mixture_dir, capsys):
        mixes = [str(mixture_dir / "mix1.wav"), str(mixture_dir / "mix2.wav")]
        out = tmp_path / "sep"
        code = main(["separate", *mixes, "--method", "fastica", "--max-iter", "1",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: fastica did not converge in 1 iterations\n"
        assert "warning" not in captured.out
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        assert record["converged"] is False
        assert record["iterations"] == 1
        main(["separate", *mixes, "--method", "sobi", "--out", str(tmp_path / "sobi")])
        assert capsys.readouterr().err == ""

    def test_sobi_record_has_no_node(self, tmp_path, mixture_dir):
        out = tmp_path / "sep"
        main(["separate", str(mixture_dir / "mix1.wav"),
              str(mixture_dir / "mix2.wav"), "--method", "sobi", "--out", str(out)])
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        assert record["selected_node"] is None

    def test_same_seed_gives_identical_wavs(self, tmp_path, mixture_dir):
        outs = []
        for name in ("sep_a", "sep_b"):
            out = tmp_path / name
            main(["separate", str(mixture_dir / "mix1.wav"),
                  str(mixture_dir / "mix2.wav"), "--method", "proposed",
                  "--out", str(out), "--seed", "11"])
            outs.append(out)
        for est in ("est_proposed_1.wav", "est_proposed_2.wav"):
            assert (outs[0] / est).read_bytes() == (outs[1] / est).read_bytes()


class TestEvaluate:
    def test_perfect_estimates_hit_caps(self, tmp_path, speech_wavs, capsys):
        json_path = tmp_path / "rows.jsonl"
        code = main(["evaluate", str(speech_wavs[0]), str(speech_wavs[1]),
                     str(speech_wavs[0]), str(speech_wavs[1]),
                     "--json", str(json_path)])
        assert code == 0
        rows = [json.loads(line) for line in json_path.read_text().splitlines()]
        by_source = {row["source"]: row for row in rows}
        for key in ("source 1", "source 2"):
            assert by_source[key]["SIR"] == 300.0
            assert by_source[key]["SDR"] == 300.0
            assert by_source[key]["segSNR"] == 35.0
        table = capsys.readouterr().out
        assert "Average" in table

    def test_average_row_is_arithmetic_mean(self, tmp_path, mixture_dir, speech_wavs):
        sep = tmp_path / "sep"
        main(["separate", str(mixture_dir / "mix1.wav"),
              str(mixture_dir / "mix2.wav"), "--method", "fastica",
              "--out", str(sep), "--seed", "0"])
        json_path = tmp_path / "rows.jsonl"
        main(["evaluate", str(sep / "est_fastica_1.wav"),
              str(sep / "est_fastica_2.wav"),
              str(speech_wavs[0]), str(speech_wavs[1]), "--json", str(json_path)])
        rows = [json.loads(line) for line in json_path.read_text().splitlines()]
        average = next(row for row in rows if row["source"] == "Average")
        sources = [row for row in rows if row["source"] != "Average"]
        for column in ("SIR", "SDR", "segSNR", "overallSNR"):
            mean = np.mean([row[column] for row in sources])
            assert abs(average[column] - mean) < 1e-9

    def test_mismatched_sample_rates_exit_2(self, tmp_path, speech_wavs, capsys):
        refs = []
        for index, path in enumerate(speech_wavs, start=1):
            ref = tmp_path / f"ref{index}_16k.wav"
            write_wav(Signal(read_wav(path).samples, 16000), ref)
            refs.append(str(ref))
        code = main(["evaluate", str(speech_wavs[0]), str(speech_wavs[1]), *refs])
        assert code == 2
        assert "sample rate" in capsys.readouterr().err


class TestExperiment:
    def test_full_run_report(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--out", str(out), "--seed", "4"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "proposed" in report and "fastica" in report and "sobi" in report
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        methods = {row["method"] for row in rows}
        assert methods == {"proposed", "fastica", "sobi"}
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        assert len(records) == 3

    def test_report_matches_metrics_recomputation(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
              "--methods", "fastica", "--out", str(out), "--seed", "4"])
        refs = [read_wav(out / name) for name in ("ref1.wav", "ref2.wav")]
        ests = [read_wav(out / name) for name in ("est_fastica_1.wav", "est_fastica_2.wav")]
        report = evaluate_pair(ests, refs)
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        for index, source in enumerate(report.per_source):
            row = next(r for r in rows if r["source"] == f"source {index + 1}")
            assert abs(row["SIR"] - source.sir_db) < 1e-12
            assert abs(row["SDR"] - source.sdr_db) < 1e-12
            assert abs(row["segSNR"] - source.seg_snr_db) < 1e-12
            assert abs(row["overallSNR"] - source.overall_snr_db) < 1e-12

    def test_seed_env_fallback(self, tmp_path, speech_wavs, monkeypatch):
        monkeypatch.setenv("BSS_UWPD_SEED", "123")
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--methods", "sobi", "--out", str(out)])
        assert code == 0
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        assert record["seed"] == 123

    def test_bad_seed_env_fails_only_where_a_seed_is_used(
        self, tmp_path, speech_wavs, monkeypatch, capsys
    ):
        monkeypatch.setenv("BSS_UWPD_SEED", "abc")
        mixdir = tmp_path / "mix"
        assert main(["mix", *map(str, speech_wavs), "--out", str(mixdir)]) == 0
        assert main(["evaluate", *map(str, speech_wavs), *map(str, speech_wavs)]) == 0
        capsys.readouterr()
        for argv in (
            ["separate", str(mixdir / "mix1.wav"), str(mixdir / "mix2.wav"),
             "--method", "sobi", "--out", str(tmp_path / "sep")],
            ["experiment", *map(str, speech_wavs), "--out", str(tmp_path / "exp")],
        ):
            assert main(argv) == 2
            assert "BSS_UWPD_SEED" in capsys.readouterr().err
        assert not (tmp_path / "sep").exists() and not (tmp_path / "exp").exists()

    def test_single_method_section(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--methods", "sobi", "--out", str(out), "--seed", "4"])
        assert code == 0
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert {row["method"] for row in rows} == {"sobi"}
        assert not (out / "est_proposed_1.wav").exists()

    def test_non_convergence_warns_outside_artifacts(self, tmp_path, speech_wavs, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--max-iter", "1", "--out", str(out), "--seed", "4"])
        assert code == 0
        err = capsys.readouterr().err
        for method in ("proposed", "fastica"):
            assert f"warning: {method} did not converge in 1 iterations" in err
        assert "sobi" not in err
        for artifact in out.iterdir():
            assert b"warning" not in artifact.read_bytes(), artifact.name

    def test_missing_input_leaves_no_artifacts(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        code = main(["experiment", str(tmp_path / "nope.wav"), str(speech_wavs[1]),
                     "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_identical_source_paths_rejected(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[0]),
                     "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # long enough that OpenBLAS splits a full-length dot over threads
        s1, s2 = speechlike_pair(32768, seed=2)
        wavs = [tmp_path / "s1.wav", tmp_path / "s2.wav"]
        for source, path in zip((s1, s2), wavs):
            write_wav(Signal(0.2 * source.samples, 8000), path)
        src = Path(__file__).resolve().parents[1] / "src"
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            subprocess.run(
                [sys.executable, "-m", "bss_uwpd.cli", "experiment",
                 str(wavs[0]), str(wavs[1]), "--out", str(out), "--seed", "5"],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_proposed_and_fastica_exceed_30db(self, tmp_path):
        s1, s2 = speechlike_pair(32768, seed=1)
        p1, p2 = tmp_path / "s1.wav", tmp_path / "s2.wav"
        write_wav(Signal(0.2 * s1.samples, 8000), p1)
        write_wav(Signal(0.2 * s2.samples, 8000), p2)
        out = tmp_path / "exp"
        code = main(["experiment", str(p1), str(p2),
                     "--methods", "proposed,fastica", "--out", str(out),
                     "--seed", "0"])
        assert code == 0
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        for row in rows:
            if row["source"] != "Average":
                assert row["SIR"] > 30.0
