import argparse
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
from bss_uwpd import separators
from bss_uwpd.cli import _parse_matrix, main

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

    def test_scaled_matrix_writes_the_same_mixtures(self, tmp_path, speech_wavs):
        # 2**-24 * EQ8 has |det| = 2**-48, far below a fixed 1e-12, but the
        # pair is rescaled to one peak, so its mixtures are EQ8's bit for bit
        for name, matrix in (("eq8", "2,1,1,1"),
                             ("scaled", ",".join(repr(2.0**-24 * v) for v in (2, 1, 1, 1)))):
            code = main(["mix", *map(str, speech_wavs), "--matrix", matrix,
                         "--out", str(tmp_path / name)])
            assert code == 0
        for wav in ("mix1.wav", "mix2.wav"):
            want = (tmp_path / "eq8" / wav).read_bytes()
            assert (tmp_path / "scaled" / wav).read_bytes() == want


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

    @pytest.mark.parametrize("option", [["--seed", "-1"]], ids=["seed-negative"])
    def test_bad_fit_option_exits_2(self, tmp_path, mixture_dir, capsys, option):
        out = tmp_path / "sep"
        code = main(["separate", str(mixture_dir / "mix1.wav"),
                     str(mixture_dir / "mix2.wav"), "--method", "fastica",
                     *option, "--out", str(out)])
        assert code == 2
        assert option[0][2:] in capsys.readouterr().err
        assert not out.exists()

    def test_non_convergence_warns_on_stderr(self, tmp_path, mixture_dir, capsys,
                                             monkeypatch):
        monkeypatch.setattr(separators, "MAX_ITERATIONS", 1)
        mixes = [str(mixture_dir / "mix1.wav"), str(mixture_dir / "mix2.wav")]
        out = tmp_path / "sep"
        code = main(["separate", *mixes, "--method", "fastica", "--out", str(out)])
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


    def test_non_utf8_run_record_file_is_appended_to(self, tmp_path, mixture_dir):
        out = tmp_path / "sep"
        out.mkdir()
        old = b"\xff\xfe not a record\n"
        (out / "runs.jsonl").write_bytes(old)
        code = main(["separate", str(mixture_dir / "mix1.wav"),
                     str(mixture_dir / "mix2.wav"), "--method", "sobi", "--out", str(out)])
        assert code == 0
        data = (out / "runs.jsonl").read_bytes()
        assert data.startswith(old)
        added = data[len(old):].decode().splitlines()
        assert len(added) == 1
        assert json.loads(added[0])["method"] == "sobi"


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

    @pytest.mark.parametrize("spelling", ["same", "link", "copy"])
    def test_one_reference_named_twice_exits_2(self, tmp_path, speech_wavs, capsys, spelling):
        # SIR is undefined against collinear references, and a byte copy
        # of the file gets past any check of its path
        first, second = speech_wavs[0], tmp_path / "second.wav"
        if spelling == "same":
            second = first
        elif spelling == "link":
            os.link(first, second)
        else:
            second.write_bytes(first.read_bytes())
        json_path = tmp_path / "rows.jsonl"
        code = main(["evaluate", *map(str, speech_wavs), str(first), str(second),
                     "--json", str(json_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "collinear" in captured.err and "Average" not in captured.out
        assert not json_path.exists()


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

    def test_equals_the_three_commands_run_in_turn(self, tmp_path):
        # 16 kHz sources, so the references and mixtures are decimated
        s1, s2 = speechlike_pair(16384, seed=7)
        wavs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for source, path in zip((s1, s2), wavs):
            peak = np.max(np.abs(source.samples))
            write_wav(Signal(0.3 * np.repeat(source.samples, 2) / peak, 16000), path)
        exp, hand = tmp_path / "exp", tmp_path / "hand"
        assert main(["experiment", *map(str, wavs), "--out", str(exp), "--seed", "42"]) == 0
        assert main(["mix", *map(str, wavs), "--out", str(hand)]) == 0
        rows = ""
        for method in ("proposed", "fastica", "sobi"):
            assert main(["separate", str(hand / "mix1.wav"), str(hand / "mix2.wav"),
                         "--method", method, "--out", str(hand), "--seed", "42"]) == 0
            ests = [str(hand / f"est_{method}_{k}.wav") for k in (1, 2)]
            refs = [str(exp / "ref1.wav"), str(exp / "ref2.wav")]
            assert main(["evaluate", *ests, *refs, "--json", str(tmp_path / "rows.jsonl"),
                         "--method-label", method]) == 0
            rows += (tmp_path / "rows.jsonl").read_text()
            for name in ests:
                assert (exp / Path(name).name).read_bytes() == Path(name).read_bytes(), name
        for name in ("mix1.wav", "mix2.wav", "runs.jsonl"):
            assert (exp / name).read_bytes() == (hand / name).read_bytes(), name
        assert (exp / "report.jsonl").read_text() == rows

    def test_failed_method_is_reported_and_exits_1(self, tmp_path, speech_wavs, capsys,
                                                   monkeypatch):
        # no lagged covariance exists at a lag past the 8192-sample pair
        monkeypatch.setattr(separators, "SOBI_LAGS", (9000,))
        out = tmp_path / "exp"
        code = main(["experiment", *map(str, speech_wavs), "--out", str(out), "--seed", "4"])
        assert code == 1
        assert "FAILED sobi: " in (out / "report.txt").read_text()
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        assert [r["method"] for r in records] == ["proposed", "fastica"]
        assert not (out / "est_sobi_1.wav").exists()
        assert "FAILED sobi" in capsys.readouterr().out

    def test_single_method_section(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--methods", "sobi", "--out", str(out), "--seed", "4"])
        assert code == 0
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert {row["method"] for row in rows} == {"sobi"}
        assert not (out / "est_proposed_1.wav").exists()

    def test_non_convergence_warns_outside_artifacts(self, tmp_path, speech_wavs, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(separators, "MAX_ITERATIONS", 1)
        out = tmp_path / "exp"
        code = main(["experiment", str(speech_wavs[0]), str(speech_wavs[1]),
                     "--out", str(out), "--seed", "4"])
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

    def test_repeated_method_rejected(self, tmp_path, speech_wavs, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", *map(str, speech_wavs), "--methods", "sobi,sobi",
                     "--out", str(out), "--seed", "4"])
        assert code == 2
        assert "twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--tol", "1e-6"], ["--max-iter", "200"],
                                        ["--lags", "1-20"]], ids=["tol", "max-iter", "lags"])
    def test_retired_fit_flags_exit_2_before_any_artifact(self, tmp_path, speech_wavs,
                                                          option, capsys):
        # the fit configuration is fixed: SOBI_LAGS, TOLERANCE, MAX_ITERATIONS
        mixes = [str(tmp_path / "mix1.wav"), str(tmp_path / "mix2.wav")]
        for argv in (["experiment", *map(str, speech_wavs)],
                     ["separate", *mixes, "--method", "sobi"]):
            out = tmp_path / "out"
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, *option, "--out", str(out)])
            assert exit_info.value.code == 2
            assert not out.exists()
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

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


class TestOneSourceNamedTwice:
    """mix and experiment exit 2 and write nothing when both source
    arguments name one file, however the second is spelled."""

    @pytest.mark.parametrize("command", ["mix", "experiment"])
    @pytest.mark.parametrize("spelling", ["dot", "link"])
    def test_exits_2_and_writes_nothing(self, tmp_path, speech_wavs, capsys, command,
                                        spelling):
        first = speech_wavs[0]
        if spelling == "link":
            second = tmp_path / "linked.wav"
            os.link(first, second)
        else:  # pathlib would drop the "."
            second = f"{first.parent}/./{first.name}"
        out = tmp_path / "out"
        options = ["--methods", "sobi"] if command == "experiment" else []
        code = main([command, str(first), str(second), "--out", str(out), *options])
        assert code == 2
        assert "two distinct files" in capsys.readouterr().err
        assert not out.exists()


class TestInputsAreNeverOverwritten:
    """A command whose artifact path is one of its input files exits 2
    before writing anything, and the input keeps its bytes."""

    @pytest.mark.parametrize("link", [False, True])
    def test_mix(self, tmp_path, speech_wavs, capsys, link):
        out = tmp_path / "out"
        out.mkdir()
        source = out / "mix1.wav"
        if link:  # the input is named by a path other than the artifact's
            os.link(speech_wavs[0], source)
            argument = speech_wavs[0]
        else:
            source.write_bytes(speech_wavs[0].read_bytes())
            argument = out / ".." / "out" / "mix1.wav"
        before = source.read_bytes()
        code = main(["mix", str(argument), str(speech_wavs[1]), "--out", str(out)])
        assert code == 2
        assert "input file" in capsys.readouterr().err
        assert source.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["mix1.wav"]

    @pytest.mark.parametrize("name", ["est_sobi_1.wav", "runs.jsonl"])
    def test_separate(self, tmp_path, mixture_dir, name):
        out = tmp_path / "sep"
        out.mkdir()
        mixture = out / name
        mixture.write_bytes((mixture_dir / "mix1.wav").read_bytes())
        before = mixture.read_bytes()
        code = main(["separate", str(mixture), str(mixture_dir / "mix2.wav"),
                     "--method", "sobi", "--out", str(out)])
        assert code == 2
        assert mixture.read_bytes() == before
        assert [p.name for p in out.iterdir()] == [name]

    def test_evaluate_json(self, tmp_path, speech_wavs, capsys):
        reference = tmp_path / "ref.wav"
        reference.write_bytes(speech_wavs[1].read_bytes())
        before = reference.read_bytes()
        code = main(["evaluate", *map(str, speech_wavs), str(speech_wavs[0]), str(reference),
                     "--json", str(reference)])
        assert code == 2
        assert "Average" not in capsys.readouterr().out
        assert reference.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.wav", "s1.wav", "s2.wav"]

    def test_experiment(self, tmp_path, speech_wavs):
        out = tmp_path / "exp"
        out.mkdir()
        source = out / "ref2.wav"
        source.write_bytes(speech_wavs[1].read_bytes())
        before = source.read_bytes()
        code = main(["experiment", str(speech_wavs[0]), str(source), "--methods", "sobi",
                     "--out", str(out)])
        assert code == 2
        assert source.read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["ref2.wav"]


class TestParserReuse:
    @staticmethod
    def _refuse_new_parsers(monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a second parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)

    def test_later_calls_build_no_parser(self, tmp_path, speech_wavs, monkeypatch):
        main(["mix", str(speech_wavs[0]), str(speech_wavs[1]), "--out", str(tmp_path / "mix")])
        self._refuse_new_parsers(monkeypatch)
        paths = [str(p) for p in speech_wavs]
        assert main(["evaluate", *paths, *paths]) == 0

    @pytest.mark.parametrize("method", ["fastica", "sobi"])
    def test_options_do_not_leak_into_later_calls(self, tmp_path, mixture_dir, method):
        mixes = [str(mixture_dir / "mix1.wav"), str(mixture_dir / "mix2.wav")]
        options = ([], ["--seed", "7", "--contrast", "cube"], [])
        outs = [tmp_path / f"sep{k}" for k in range(3)]
        for out, extra in zip(outs, options):
            assert main(["separate", *mixes, "--method", method, "--out", str(out),
                         *extra]) == 0
        for name in (f"est_{method}_1.wav", f"est_{method}_2.wav", "runs.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()
        # seed and contrast set the FastICA fit; the SOBI fit reads neither
        changed = (outs[0] / f"est_{method}_1.wav").read_bytes() != (
            outs[1] / f"est_{method}_1.wav").read_bytes()
        assert changed == (method == "fastica")
        for out, seed in zip(outs, (42, 7, 42)):
            assert json.loads((out / "runs.jsonl").read_text())["seed"] == seed

    def test_usage_error_and_help_leave_the_parser_working(self, tmp_path, mixture_dir,
                                                           monkeypatch, capsys):
        mixes = [str(mixture_dir / "mix1.wav"), str(mixture_dir / "mix2.wav")]
        out = tmp_path / "sep"
        with pytest.raises(SystemExit) as exit_info:
            main(["separate", *mixes, "--method", "nope", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        for argv in (["--help"], ["separate", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert "usage: bss-uwpd" in capsys.readouterr().out
        assert not out.exists()
        self._refuse_new_parsers(monkeypatch)
        assert main(["separate", *mixes, "--method", "sobi", "--out", str(out)]) == 0
        assert json.loads((out / "runs.jsonl").read_text())["method"] == "sobi"
