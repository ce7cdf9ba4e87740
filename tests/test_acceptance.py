"""Acceptance gate: one test per headline claim, summarized at session end.

Every test records a PASS/FAIL line through ``record_criterion`` before its
assertions so the terminal summary always shows the full scorecard.  The
benchmark fixtures run at the published scale (T = 500 trials), so this file
dominates the suite's runtime.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from conftest import record_criterion

from mtconf import (
    NOISE_COV,
    Method,
    NoiseKind,
    Role,
    RoundConfig,
    ScoreKind,
    SplitSpec,
    TrialSplits,
    concat,
    coverage_bounds_check,
    derive_seed,
    fit_method,
    fit_quantile_models,
    gen_multiround,
    gen_synthetic,
    mc_slack,
    partition,
    pilot_tau,
    predict_quantiles,
    run_protocol,
    run_sc_baseline,
    run_trials,
    split_cal_test,
    trial_rng,
)
from mtconf.scores import interval_bounds, score_matrix
from mtconf.synthetic import NOISE_FACTOR

SEED = 20250811
ALPHAS = (0.30, 0.20, 0.10, 0.05)
N_TRAIN = N_TUNE = N_CAL = 5000
N_TEST = 2000
TRIALS = 500

TOKENS = (
    ("ia", Method.IA, ScoreKind.CQR),
    ("qn", Method.QN_MAX, ScoreKind.QN),
    ("cpts", Method.COPULA, ScoreKind.CQR),
    ("cqr_mm", Method.MINIMAX, ScoreKind.CQR),
    ("qn_mm", Method.MINIMAX, ScoreKind.QN),
)
JOINT_TOKENS = ("qn", "cpts", "cqr_mm", "qn_mm")


def _table_cells(noise):
    """One benchmark table: every method at every level, shared seed paths."""
    cells = {}
    spec = SplitSpec(seed=SEED, n_tune=N_TUNE, n_cal=N_CAL, n_test=N_TEST)
    splits = TrialSplits(spec, N_CAL + N_TEST)
    for alpha in ALPHAS:
        train = gen_synthetic(N_TRAIN, noise, derive_seed(SEED, 0), role=Role.TRAIN)
        models = fit_quantile_models(train, alpha)
        pool = predict_quantiles(
            models,
            gen_synthetic(N_TUNE + N_CAL + N_TEST, noise, derive_seed(SEED, 1), role=Role.CAL),
        )
        tune, cal, test = partition(pool, spec)
        rest = concat([cal, test], Role.CAL)
        for name, method, kind in TOKENS:
            cells[alpha, name] = run_trials(rest, tune, method, kind, alpha, TRIALS, splits)
    return cells


@pytest.fixture(scope="session")
def indep_table():
    started = time.perf_counter()
    cells = _table_cells(NoiseKind.INDEPENDENT)
    return cells, time.perf_counter() - started


@pytest.fixture(scope="session")
def corr_table():
    return _table_cells(NoiseKind.CORRELATED)


def _drawn_cell(noise, alpha, method, kind, trials, n_train, n_tune, n_cal, n_test, run=0):
    """A benchmark cell with its own train/tune/pool draws, keyed by run."""
    train = gen_synthetic(n_train, noise, derive_seed(SEED, 0, run), role=Role.TRAIN)
    models = fit_quantile_models(train, alpha)
    pool = predict_quantiles(
        models,
        gen_synthetic(n_tune + n_cal + n_test, noise, derive_seed(SEED, 1, run), role=Role.CAL),
    )
    spec = SplitSpec(seed=derive_seed(SEED, 2, run), n_tune=n_tune, n_cal=n_cal, n_test=n_test)
    tune, cal, test = partition(pool, spec)
    splits = TrialSplits(spec, n_cal + n_test)
    return run_trials(concat([cal, test], Role.CAL), tune, method, kind, alpha, trials, splits)


def test_criterion_1_independent_joint_coverage(indep_table):
    cells, elapsed = indep_table
    worst, where = 0.0, ""
    for alpha in ALPHAS:
        for name in JOINT_TOKENS:
            dev = abs(cells[alpha, name].ejc - (1.0 - alpha))
            if dev > worst:
                worst, where = dev, f"{name}@{1 - alpha:.2f}"
    ok = worst <= 0.015 and elapsed <= 300.0
    record_criterion(
        1,
        "independent-noise joint coverage within 0.015",
        ok,
        f"max |EJC-(1-a)| = {worst:.4f} ({where}), table runtime {elapsed:.0f}s",
    )
    assert worst <= 0.015, f"worst deviation {worst:.4f} at {where}"
    assert elapsed <= 300.0, f"table took {elapsed:.0f}s"


def _ia_margins(cells):
    """IA's joint coverage minus the best joint method's, per level."""
    return {
        alpha: cells[alpha, "ia"].ejc - max(cells[alpha, name].ejc for name in JOINT_TOKENS)
        for alpha in ALPHAS
    }


def test_criterion_2_correlated_ia_margin(corr_table, indep_table):
    # IA over-covers only through overlap of its per-target miss events, each
    # of probability alpha_1 = 1 - (1-alpha)^(1/K), so the attainable margin
    # scales with alpha: it is capped by the comonotone value alpha - alpha_1
    # (about 2*alpha/3 for K = 3).  The requirement alpha/10 asks for the same
    # share of that cap (about 15%) at every level and equals 0.01 at 0.90.
    ia90 = corr_table[0.10, "ia"].ejc
    in_band = 0.905 <= ia90 <= 0.935
    corr = _ia_margins(corr_table)
    indep = _ia_margins(indep_table[0])
    short = [a for a in ALPHAS if corr[a] < a / 10]
    # Negative control: under independent noise IA sits at 1 - alpha like the
    # joint methods, so the same rule must fail at every level.
    vacuous = [a for a in ALPHAS if indep[a] >= a / 10]
    ok = in_band and not short and not vacuous
    record_criterion(
        2,
        "correlated-noise IA over-coverage margin >= alpha/10",
        ok,
        f"IA@0.90 = {ia90:.4f} (band [0.905, 0.935]); margins "
        + ", ".join(
            f"1-a={1 - a:.2f}: {corr[a]:+.4f} (need >= {a / 10:.3f}, indep {indep[a]:+.4f})"
            for a in ALPHAS
        ),
    )
    assert in_band, f"IA@0.90 = {ia90:.4f}"
    assert not short, {a: f"{corr[a]:+.4f} < {a / 10:.3f}" for a in short}
    assert not vacuous, {a: f"indep {indep[a]:+.4f} >= {a / 10:.3f}" for a in vacuous}


def test_criterion_3_coverage_sandwich(indep_table, corr_table):
    failures = []
    checked = 0
    for cells in (indep_table[0], corr_table):
        for alpha in (0.10, 0.20):
            for name in ("qn", "cqr_mm", "qn_mm"):
                report = coverage_bounds_check(cells[alpha, name], alpha, N_CAL)
                checked += 1
                if not report.passed:
                    failures.append(f"{name}@a={alpha}: {report.message}")
    ok = not failures
    record_criterion(
        3,
        "joint coverage sandwich with MC slack",
        ok,
        f"{checked - len(failures)}/{checked} cells in bounds" + (
            "; " + "; ".join(failures) if failures else ""
        ),
    )
    assert ok, failures


def test_criterion_4_threshold_convergence():
    alpha = 0.10
    train = gen_synthetic(10000, NoiseKind.CORRELATED, derive_seed(SEED, 0), role=Role.TRAIN)
    models = fit_quantile_models(train, alpha)

    def scores_of(n, seed):
        ds = predict_quantiles(models, gen_synthetic(n, NoiseKind.CORRELATED, seed, role=Role.CAL))
        return score_matrix(ds.lo, ds.hi, ds.targets, ScoreKind.CQR)

    # Oracle threshold: the (1 - alpha) quantile of max-k F_k(S_k) under the
    # true score law, estimated from one million draws with the CDFs taken on
    # those same draws.
    big = scores_of(1_000_000, derive_seed(SEED, 99))
    m = big.shape[0]
    cols = [np.sort(big[:, k]) for k in range(3)]
    tvals = np.max(
        np.column_stack(
            [np.searchsorted(cols[k], big[:, k], side="right") / m for k in range(3)]
        ),
        axis=1,
    )
    lam_star = float(np.quantile(tvals, 1.0 - alpha))

    medians = []
    for n in (500, 5000, 50000):
        errs = []
        for s in range(20):
            tune = scores_of(n, derive_seed(SEED, 1, n, s))
            cal = scores_of(n, derive_seed(SEED, 2, n, s))
            lam = fit_method(Method.MINIMAX, cal, alpha, ScoreKind.CQR, tune).lam
            errs.append(abs(lam - lam_star))
        medians.append(float(np.median(errs)))
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and medians[-1] <= 0.01
    record_criterion(
        4,
        "minimax threshold converges to the oracle",
        ok,
        f"lam* = {lam_star:.5f}; median errors " + " > ".join(f"{e:.5f}" for e in medians),
    )
    assert decreasing, medians
    assert medians[-1] <= 0.01, medians


def test_criterion_5_balance_beats_copula():
    mm = _drawn_cell(
        NoiseKind.CORRELATED, 0.10, Method.MINIMAX, ScoreKind.CQR,
        500, 5000, 5000, 5000, 2000,
    )
    cp = _drawn_cell(
        NoiseKind.CORRELATED, 0.10, Method.COPULA, ScoreKind.CQR,
        500, 5000, 5000, 5000, 2000,
    )
    spread_mm = float(mm.esc.max() - mm.esc.min())
    spread_cp = float(cp.esc.max() - cp.esc.min())
    ok = spread_mm <= 0.02 and spread_mm <= spread_cp
    record_criterion(
        5,
        "per-target balance at 1-a=0.90",
        ok,
        f"minimax spread {spread_mm:.4f} (cap 0.02), copula spread {spread_cp:.4f}",
    )
    assert spread_mm <= 0.02
    assert spread_mm <= spread_cp


def test_criterion_6_tuning_size_sensitivity():
    means = {}
    for n_tune in (50, 5000):
        spreads = []
        for run in range(5):
            m = _drawn_cell(
                NoiseKind.CORRELATED, 0.10, Method.MINIMAX, ScoreKind.CQR,
                200, 5000, n_tune, 2000, 1000, run=run,
            )
            spreads.append(float(m.esc.max() - m.esc.min()))
        means[n_tune] = float(np.mean(spreads))
    gap = means[50] - means[5000]
    ok = gap >= 0.02 and means[5000] <= 0.02
    record_criterion(
        6,
        "coverage balance needs tuning data",
        ok,
        f"mean spread n_tune=50: {means[50]:.4f}, n_tune=5000: {means[5000]:.4f} "
        f"(gap {gap:+.4f}, need >= +0.02)",
    )
    assert gap >= 0.02, means
    assert means[5000] <= 0.02, means


def test_criterion_7_early_stopping_protocol():
    cfg0 = RoundConfig()
    n_tune, n_cal, n_test, trials = 2000, 2000, 1000, 200
    data = gen_multiround(n_tune + n_cal + n_test, cfg0, derive_seed(SEED, 10))
    spec = SplitSpec(seed=derive_seed(SEED, 11), n_tune=n_tune, n_cal=n_cal, n_test=n_test)
    tune, cal, test = partition(data, spec)
    pool = concat([cal, test], Role.CAL)
    splits = TrialSplits(spec, pool.n)
    kind = ScoreKind.CQR
    tune_s = score_matrix(tune.lo, tune.hi, tune.targets, kind)

    joint_fail = []
    early_out = []
    sc_fails = 0
    tau10 = None
    for alpha in (0.15, 0.10, 0.05):
        pcal, ptest = split_cal_test(pool, n_cal, n_test, trial_rng(spec, 0))
        calib = fit_method(
            Method.MINIMAX,
            score_matrix(pcal.lo, pcal.hi, pcal.targets, kind),
            alpha,
            kind,
            tune_s,
        )
        tau = pilot_tau(ptest, cfg0, calib=calib)
        if alpha == 0.10:
            tau10 = tau
        cfg = replace(cfg0, tau=tau)
        joint = run_protocol(pool, tune, Method.MINIMAX, kind, alpha, cfg, trials, splits)
        sc = run_sc_baseline(pool, tune, Method.MINIMAX, kind, alpha, cfg, trials, splits)
        slack = mc_slack(alpha, trials, n_test)
        early = 1.0 - joint.histogram[-1] / joint.histogram.sum()
        early_out.append(f"{early:.2f}")
        if not (0.3 <= early <= 0.7 and joint.eac >= 1.0 - alpha - slack):
            joint_fail.append(f"1-a={1 - alpha:.2f}: eac={joint.eac:.4f} early={early:.2f}")
        sc_fails += sc.eac < 1.0 - alpha - slack

    # The label sweep: each task count's data drawn under the same seed (the
    # generator keys tasks by index, so counts share a prefix), its pool
    # re-split by the same table.
    results = []
    for labels in (1, 2, 3, 4, 5):
        cfg = replace(cfg0, tasks=labels, tau=tau10)
        tune, cal, test = partition(gen_multiround(spec.total, cfg, derive_seed(SEED, 10)), spec)
        pool = concat([cal, test], Role.CAL)
        results.append(run_protocol(pool, tune, Method.MINIMAX, kind, 0.10, cfg, 100, splits))
    r_avg = [r.r_avg for r in results]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(r_avg, r_avg[1:]))
    sweep_slack = mc_slack(0.10, 100, n_test)
    sweep_cov = all(r.eac >= 0.90 - sweep_slack for r in results)

    ok = not joint_fail and sc_fails >= 1 and non_increasing and sweep_cov
    record_criterion(
        7,
        "accepted-round coverage and label sweep",
        ok,
        f"early stop {'/'.join(early_out)}, SC fails at {sc_fails} level(s), "
        f"r_avg sweep {'/'.join(f'{r:.3f}' for r in r_avg)}",
    )
    assert not joint_fail, joint_fail
    assert sc_fails >= 1
    assert non_increasing, r_avg
    assert sweep_cov, [r.eac for r in results]


def _quantile_oracle(alpha: Fraction, values) -> float:
    rank = math.ceil((1 - alpha) * (len(values) + 1))
    if rank > len(values):
        return math.inf
    return float(sorted(values)[rank - 1])


def test_criterion_8_micro_oracles():
    # (a) the split-conformal threshold against exact sort-and-index on every
    # small integer multiset.  The levels hold 1/(n + 1) for every size n,
    # where the rank is exactly n, and levels below it, where it overflows.
    alphas = sorted(
        {Fraction(i, 20) for i in range(1, 20)}
        | {Fraction(1, d) for d in range(2, 11)}
        | {Fraction(1, 100)}
    )
    mismatch = 0
    cases = 0
    for size in range(1, 9):
        for multiset in combinations_with_replacement(range(1, 6), size):
            values = np.array(multiset, dtype=np.float64)
            for alpha in alphas:
                cases += 1
                got = fit_method(Method.SINGLE, values[:, None], float(alpha), ScoreKind.CQR).lam
                want = _quantile_oracle(alpha, multiset)
                mismatch += not (got == want or (math.isinf(got) and math.isinf(want)))
    quantile_ok = mismatch == 0

    # (b) score/interval round trip on random cases across all score kinds
    rng = np.random.default_rng(derive_seed(SEED, 8))
    trip_bad = 0
    trip_cases = 0
    for kind in ScoreKind:
        n = 12500
        lo = rng.normal(size=(n, 2))
        hi = lo + rng.uniform(0.05, 3.0, size=(n, 2))
        z = lo + rng.normal(scale=2.0, size=(n, 2))
        zetas = rng.normal(scale=1.0, size=2)
        scores = score_matrix(lo, hi, z, kind)
        ilo, ihi = interval_bounds(lo, hi, zetas, kind)
        by_score = scores <= zetas
        by_interval = (ilo <= z) & (z <= ihi)
        trip_bad += int(np.sum(by_score != by_interval))
        trip_cases += by_score.size
    trip_ok = trip_bad == 0

    # (c) the generator's Cholesky factor reconstructs the noise correlation matrix
    chol_err = float(np.max(np.abs(NOISE_FACTOR @ NOISE_FACTOR.T - NOISE_COV)))
    chol_ok = chol_err <= 1e-12

    # (d) pinball fits land the right fraction of training points below them
    worst_frac = 0.0
    for i, noise in enumerate((NoiseKind.INDEPENDENT, NoiseKind.CORRELATED)):
        train = gen_synthetic(10000, noise, derive_seed(SEED, 5, i), role=Role.TRAIN)
        models = fit_quantile_models(train, 0.2)
        for k, (lo_m, hi_m) in enumerate(models):
            z = train.targets[:, k]
            for model, level in ((lo_m, 0.1), (hi_m, 0.9)):
                frac = float(np.mean(z < model.predict(train.features)))
                worst_frac = max(worst_frac, abs(frac - level))
    pinball_ok = worst_frac <= 0.02

    ok = quantile_ok and trip_ok and chol_ok and pinball_ok
    record_criterion(
        8,
        "micro-oracles",
        ok,
        f"quantile {cases} cases ({mismatch} off), round-trip {trip_cases} cases "
        f"({trip_bad} off), cholesky err {chol_err:.1e}, pinball max dev {worst_frac:.4f}",
    )
    assert quantile_ok and trip_ok and chol_ok and pinball_ok


def test_criterion_9_byte_identical_outputs(tmp_path):
    from mtconf.cli import main

    bench = [
        "run", "--experiment", "table1", "--methods", "qn,cqr_minimax",
        "--alphas", "0.2,0.1", "--trials", "3", "--ntrain", "80", "--ntune", "60",
        "--ncal", "60", "--ntest", "40", "--seed", "17",
    ]
    multi = [
        "run", "--experiment", "multiround", "--alphas", "0.1", "--trials", "3",
        "--ntune", "150", "--ncal", "120", "--ntest", "80", "--seed", "17",
    ]
    blobs = {}
    for label, args, threads in (
        ("bench_a", bench, "1"),
        ("bench_b", bench, "1"),
        ("bench_threaded", bench, "4"),
        ("multi_a", multi, "1"),
        ("multi_threaded", multi, "2"),
    ):
        out = tmp_path / label
        assert main(args + ["--output-dir", str(out), "--threads", threads]) == 0
        blobs[label] = (out / "results.csv").read_bytes()
    bench_ok = blobs["bench_a"] == blobs["bench_b"] == blobs["bench_threaded"]
    multi_ok = blobs["multi_a"] == blobs["multi_threaded"]
    ok = bench_ok and multi_ok
    record_criterion(
        9,
        "byte-identical CSV across reruns and threads",
        ok,
        f"benchmark rerun+threads {'match' if bench_ok else 'DIFFER'}, "
        f"protocol threads {'match' if multi_ok else 'DIFFER'}",
    )
    assert bench_ok and multi_ok
