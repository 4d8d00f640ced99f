"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS|FAIL` line (visible
with `pytest -s` or on failure).
"""

import time

import numpy as np

from bss_uwpd import (
    IcaOptions,
    METHOD_FASTICA,
    MixingMatrix,
    Signal,
    apply_unmixing,
    bss_decompose,
    build_cb_tree,
    db4_filters,
    decompose_nodes,
    evaluate_pair,
    fastica,
    mix,
    sdr,
    separate_baseline,
    separate_proposed,
    separators,
    sir,
    synth_source,
    write_wav,
)
from bss_uwpd.cli import main as cli_main
from bss_uwpd.stats import row_kurtosis

from helpers import (
    EQ8_MATRIX,
    SUPPORT_HIGH,
    SUPPORT_LOW,
    amari_index,
    bands_overlap,
    speechlike_pair,
)

A = MixingMatrix(EQ8_MATRIX)


def _report(number, description, ok):
    print(f"[acceptance] criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_filterbank_invariants():
    tree = build_cb_tree(8000)
    filters = db4_filters()
    rng = np.random.default_rng(99)
    ok = True
    started = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(512, 8193))
        x = rng.standard_normal(n)
        shift = int(rng.integers(1, n))
        base = decompose_nodes(Signal(x, 8000), tree, filters)
        shifted = decompose_nodes(Signal(np.roll(x, shift), 8000), tree, filters)
        energy = sum(
            2.0 ** (-leaf.level) * (base[(leaf.level, leaf.position)] ** 2).sum()
            for leaf in tree.leaves
        )
        if abs(energy - x @ x) > 1e-6 * (x @ x):
            ok = False
        if not all(
            np.array_equal(np.roll(base[node], shift), shifted[node]) for node in base
        ):
            ok = False
    elapsed = time.perf_counter() - started
    _report(1, f"filterbank energy + shift covariance, {elapsed:.1f}s", ok and elapsed < 10.0)


def test_criterion_2_kurtosis_oracles():
    rng = np.random.default_rng(7)
    n = 100000
    t = np.arange(n)
    checks = [
        (float(row_kurtosis(rng.standard_normal(n))), 0.0, 0.1),
        (float(row_kurtosis(rng.uniform(-1, 1, n))), -1.2, 0.05),
        (float(row_kurtosis(rng.laplace(size=n))), 3.0, 0.15),
        (float(row_kurtosis(np.sin(2 * np.pi * 100 * t / 8000.0))), -1.5, 0.01),
    ]
    ok = all(abs(value - target) <= tol for value, target, tol in checks)
    _report(2, "kurtosis oracles (gaussian/uniform/laplacian/sine)", ok)


def test_criterion_3_fastica_separation():
    good = 0
    started = time.perf_counter()
    for seed in range(20):
        s1 = synth_source("uniform", 16384, seed=100 + seed)
        s2 = synth_source("uniform", 16384, seed=200 + seed)
        x1, x2 = mix((s1, s2), A)
        x = np.vstack([x1.samples, x2.samples])
        model = fastica(x, IcaOptions(seed=seed))
        estimates = apply_unmixing(model, x)
        report = evaluate_pair(estimates, np.vstack([s1.samples, s2.samples]))
        min_sir = min(source.sir_db for source in report.per_source)
        if amari_index(model.combined @ EQ8_MATRIX) < 0.05 and min_sir >= 30.0:
            good += 1
    elapsed = time.perf_counter() - started
    _report(3, f"fastica uniform mixtures {good}/20, {elapsed:.1f}s",
            good >= 19 and elapsed < 5.0)


def test_criterion_4_sobi_separation():
    good = 0
    for seed in range(20):
        s1 = synth_source("ar1", 16384, seed=300 + seed, pole=0.9)
        s2 = synth_source("ar1", 16384, seed=400 + seed, pole=-0.5)
        x1, x2 = mix((s1, s2), A)
        result = separate_baseline(x1, x2, "sobi")
        report = evaluate_pair(result.estimates, (s1, s2))
        if min(source.sir_db for source in report.per_source) >= 20.0:
            good += 1
    _report(4, f"sobi AR(1) mixtures {good}/20", good >= 19)


def test_criterion_5_proposed_pipeline():
    tree = build_cb_tree(8000)
    proposed_sirs = []
    plain_sirs = []
    overlap_ok = True
    sir_ok = True
    for seed in range(20):
        s1, s2 = speechlike_pair(32768, seed=seed)
        x1, x2 = mix((s1, s2), A)
        proposed = separate_proposed(x1, x2, IcaOptions(seed=seed))
        plain = separate_baseline(x1, x2, METHOD_FASTICA, IcaOptions(seed=seed))
        node_band = tree.band(*proposed.selected_node)
        if not (bands_overlap(node_band, SUPPORT_LOW)
                or bands_overlap(node_band, SUPPORT_HIGH)):
            overlap_ok = False
        p_report = evaluate_pair(proposed.estimates, (s1, s2))
        f_report = evaluate_pair(plain.estimates, (s1, s2))
        p_sir = min(source.sir_db for source in p_report.per_source)
        if p_sir < 30.0:
            sir_ok = False
        proposed_sirs.append(p_sir)
        plain_sirs.append(min(source.sir_db for source in f_report.per_source))
    margin = float(np.median(proposed_sirs) - np.median(plain_sirs))
    _report(
        5,
        f"proposed pipeline: overlap={overlap_ok}, min SIR "
        f"{min(proposed_sirs):.1f} dB, median margin {margin:+.1f} dB",
        overlap_ok and sir_ok and margin >= -1.0,
    )


def test_criterion_6_metrics_identities():
    rng = np.random.default_rng(17)
    r1, r2 = rng.standard_normal((2, 2048))
    r1 /= np.linalg.norm(r1)
    r2 -= (r2 @ r1) * r1
    r2 /= np.linalg.norm(r2)
    ok = True
    # exactness and orthogonality on random estimates
    for _ in range(10):
        estimate = rng.standard_normal(2048)
        d = bss_decompose(estimate, (r1, r2), 0)
        total = d.s_target + d.e_interf + d.e_artif
        if np.max(np.abs(total - estimate)) > 1e-10:
            ok = False
        norm = np.linalg.norm
        if abs(d.s_target @ d.e_interf) > 1e-8 * max(norm(d.s_target) * norm(d.e_interf), 1e-30):
            ok = False
        head = d.s_target + d.e_interf
        if abs(head @ d.e_artif) > 1e-8 * max(norm(head) * norm(d.e_artif), 1e-30):
            ok = False
        if sir(d) < sdr(d) - 1e-9:
            ok = False
    ratio_case = bss_decompose(r1 + 0.1 * r2, (r1, r2), 0)
    if abs(sir(ratio_case) - 20.0) > 1e-9:
        ok = False
    if abs(sdr(ratio_case) - sir(ratio_case)) > 1e-9:  # e_artif = 0 here
        ok = False
    _report(6, "metrics identities (exactness/orthogonality/20dB/sir>=sdr)", ok)


def test_criterion_7_experiment_determinism(tmp_path):
    s1, s2 = speechlike_pair(8192, seed=21)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(Signal(0.2 * s1.samples, 8000), p1)
    write_wav(Signal(0.2 * s2.samples, 8000), p2)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = cli_main(["experiment", str(p1), str(p2), "--out", str(out),
                         "--seed", "9"])
        assert code == 0
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in names
    )
    _report(7, f"experiment determinism over {len(names)} artifacts", ok)


def test_criterion_8_gaussian_unidentifiability():
    s1 = synth_source("gaussian", 16384, seed=31)
    s2 = synth_source("gaussian", 16384, seed=32)
    x1, x2 = mix((s1, s2), A)
    x = np.vstack([x1.samples, x2.samples])
    model = fastica(x, IcaOptions(seed=0))
    # no rotation is identifiable here; the fit must still end within its
    # budget with a finite orthonormal rotation
    rotation = model.rotation
    ok = (
        model.iterations <= separators.MAX_ITERATIONS
        and np.all(np.isfinite(rotation))
        and np.max(np.abs(rotation @ rotation.T - np.eye(2))) <= 1e-9
    )
    _report(
        8,
        f"gaussian sources: iterations={model.iterations}, converged={model.converged}",
        ok,
    )
