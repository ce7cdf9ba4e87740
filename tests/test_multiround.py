"""Early-stopping protocol: walks, accounting, baselines, and pilot thresholds."""

import dataclasses

import numpy as np
import pytest

from mtconf import (
    Calibration,
    LabeledSet,
    Method,
    ProtocolResult,
    Role,
    RoundConfig,
    ScoreKind,
    SplitSpec,
    TrialSplits,
    fit_method,
    gen_multiround,
    mc_slack,
    pilot_tau,
    run_protocol,
    run_sc_baseline,
    split_cal_test,
    trial_rng,
)
from mtconf.multiround import _walk
from mtconf.scores import score_matrix
from conftest import KINDS_AND_TIES
from reference import raw_tau, reference_bounds, reference_walk


CFG = RoundConfig()
DATA = gen_multiround(900, CFG, seed=40, role=Role.CAL)
TUNE = gen_multiround(300, CFG, seed=41, role=Role.TUNE)
SPEC = SplitSpec(seed=42, n_tune=1, n_cal=600, n_test=300)
SPLITS = TrialSplits(SPEC, DATA.n)
MINIMAX_CQR = (Method.MINIMAX, ScoreKind.CQR)


def with_tau(tau):
    return dataclasses.replace(CFG, tau=tau)


def test_infinite_threshold_accepts_the_first_round():
    res = run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, with_tau(np.inf), 5, SPLITS)
    assert res.histogram[0] == 5 * SPEC.n_test
    assert np.all(res.histogram[1:] == 0)
    assert res.r_avg == CFG.rates[0]
    assert res.eac >= 1 - 0.1 - mc_slack(0.1, res.trials, res.n_test)


def test_tiny_threshold_pushes_walks_to_the_last_round():
    # not exactly all of them: bands clipped at the unit-interval boundary can
    # collapse to zero length and still qualify under a vanishing threshold
    tiny = run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, with_tau(1e-9), 5, SPLITS)
    default = run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, CFG, 5, SPLITS)
    total = 5 * SPEC.n_test
    assert tiny.histogram[-1] >= 0.95 * total
    assert tiny.r_avg <= default.r_avg
    rounds = np.arange(CFG.rounds)
    assert np.average(rounds, weights=tiny.histogram) >= np.average(
        rounds, weights=default.histogram
    )


def test_histogram_accounts_for_every_test_sample():
    res = run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, CFG, 6, SPLITS)
    assert res.histogram.sum() == 6 * SPEC.n_test
    assert min(CFG.rates) <= res.r_avg <= max(CFG.rates)
    # accepted-round coverage is implied whenever every round is covered
    assert res.eac >= res.ejc_all - 1e-12
    with pytest.raises(ValueError, match="read-only"):
        res.histogram[0] = 0


def test_walk_takes_the_first_round_that_fits():
    cfg = RoundConfig(rounds=3, tasks=2, sigma=(0.3, 0.2, 0.1), rates=(4.0, 2.0, 1.0), tau=0.1)
    lengths = np.array(
        [
            [5.0, 5.0, 0.20, 0.05, 0.01, 0.01],  # round 1 half-fits, round 2 fits
            [5.0, 5.0, 0.05, 0.05, 0.01, 0.01],  # round 1 fits outright
            [5.0, 5.0, 0.20, 0.20, 0.20, 0.20],  # nothing fits
        ]
    )
    covered = np.array(
        [
            [True, True, True, True, True, False],
            [True, True, True, False, True, True],
            [True, True, True, True, True, True],
        ]
    )
    accepted, accepted_cov = _walk(lengths.T, covered.T, cfg)
    assert accepted.tolist() == [2, 1, 2]
    assert accepted_cov.tolist() == [False, False, True]


def test_walk_accepted_round_is_monotone_in_the_threshold():
    rng = np.random.default_rng(43)
    lengths = rng.uniform(0.0, 1.0, size=(60, 5)) * np.array([1.0, 0.8, 0.5, 0.3, 0.2])
    covered = np.ones_like(lengths, dtype=bool)
    cfg = RoundConfig()
    previous = np.full(60, -1)
    for tau in (0.8, 0.4, 0.2, 0.1, 0.05):
        accepted, _ = _walk(lengths.T, covered.T, dataclasses.replace(cfg, tau=tau))
        assert np.all(accepted >= previous)
        previous = accepted


def test_sc_baseline_equals_plain_conformal_for_one_round():
    cfg1 = RoundConfig(rounds=1, sigma=(0.1,), rates=(1.0,), tau=np.inf)
    data = gen_multiround(500, cfg1, seed=44)
    tune = gen_multiround(100, cfg1, seed=45)
    splits = TrialSplits(SplitSpec(seed=46, n_tune=1, n_cal=300, n_test=200), data.n)
    sc = run_sc_baseline(data, tune, *MINIMAX_CQR, 0.1, cfg1, 4, splits)
    plain = run_protocol(data, tune, Method.SINGLE, ScoreKind.CQR, 0.1, cfg1, 4, splits)
    assert sc.eac == plain.eac
    assert np.array_equal(sc.histogram, plain.histogram)
    assert sc.ejc_all == plain.ejc_all


def test_sc_baseline_covers_without_early_stopping():
    res = run_sc_baseline(DATA, TUNE, *MINIMAX_CQR, 0.1, with_tau(np.inf), 5, SPLITS)
    assert res.eac >= 1 - 0.1 - mc_slack(0.1, res.trials, res.n_test)


def test_pilot_tau_with_a_fitted_calibration_is_usable():
    tau = pilot_tau(DATA, TUNE, *MINIMAX_CQR, 0.1, CFG, SPLITS)
    assert np.isfinite(tau) and tau > 0


def test_pilot_tau_rejects_infinite_lengths():
    # a level too strict for three calibration rows: every margin is +inf
    starved = TrialSplits(SplitSpec(seed=42, n_tune=1, n_cal=3, n_test=300), DATA.n)
    with pytest.raises(ValueError, match="not finite"):
        pilot_tau(DATA, TUNE, Method.IA, ScoreKind.CQR, 0.05, CFG, starved)


def test_pilot_tau_rejects_a_zero_median_length():
    # at alpha = 0.999999 the margins are the lowest calibration scores, which
    # clip more than half of the intervals to length 0
    with pytest.raises(ValueError, match="median interval length is 0$"):
        pilot_tau(DATA, TUNE, *MINIMAX_CQR, 0.999999, CFG, SPLITS)


def test_protocol_rejects_mismatched_layout():
    three = dataclasses.replace(CFG, rounds=3, sigma=CFG.sigma[:3], rates=CFG.rates[:3])
    with pytest.raises(ValueError, match="round layout"):
        run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, three, 2, SPLITS)


@pytest.mark.parametrize("trials", [0, -1])
def test_protocols_need_at_least_one_trial(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        run_protocol(DATA, TUNE, *MINIMAX_CQR, 0.1, CFG, trials, SPLITS)
    with pytest.raises(ValueError, match="at least one trial"):
        run_sc_baseline(DATA, TUNE, *MINIMAX_CQR, 0.1, CFG, trials, SPLITS)


def reference_protocol(data, tune, method, alpha, cfg, trials, spec, kind, per_round):
    """The protocol built from public per-trial pieces: split, score, fit, and
    the original evaluation arithmetic and walk."""
    tune_s = score_matrix(tune.lo, tune.hi, tune.targets, kind)
    rates = np.asarray(cfg.rates)
    eac, inv_rate, ejc_all = np.empty(trials), np.empty(trials), np.empty(trials)
    hist = np.zeros(cfg.rounds, dtype=np.int64)
    for t in range(trials):
        cal, test = split_cal_test(data, spec.n_cal, spec.n_test, trial_rng(spec, t))
        cal_s = score_matrix(cal.lo, cal.hi, cal.targets, kind)
        if per_round:
            zetas = np.empty(cfg.n_targets)
            for b in range(cfg.rounds):
                cols = slice(b * cfg.tasks, (b + 1) * cfg.tasks)
                if cfg.tasks == 1:
                    rcal = fit_method(Method.SINGLE, cal_s[:, cols], alpha, kind)
                else:
                    rcal = fit_method(method, cal_s[:, cols], alpha, kind, tune_s[:, cols])
                zetas[cols] = rcal.margins(cfg.tasks)
            calib = Calibration(method=method, score_kind=kind, alpha=alpha, per_target_zeta=zetas)
        else:
            calib = fit_method(method, cal_s, alpha, kind, tune_s)
        margins = calib.margins(cfg.n_targets)
        covered = score_matrix(test.lo, test.hi, test.targets, kind) <= margins
        ilo, ihi = reference_bounds(test.lo, test.hi, margins, kind)
        lengths = np.maximum(0.0, ihi - ilo)
        accepted, accepted_cov = reference_walk(lengths, covered, cfg)
        eac[t] = accepted_cov.mean()
        inv_rate[t] = np.mean(1.0 / rates[accepted])
        ejc_all[t] = covered.all(axis=1).mean()
        hist += np.bincount(accepted, minlength=cfg.rounds)
    return ProtocolResult(
        eac=float(eac.mean()), r_avg=float(1.0 / inv_rate.mean()), histogram=hist,
        ejc_all=float(ejc_all.mean()), trials=trials, n_test=spec.n_test,
    )


def assert_same_protocol(got, want):
    assert (got.eac, got.r_avg, got.ejc_all) == (want.eac, want.r_avg, want.ejc_all)
    assert np.array_equal(got.histogram, want.histogram)
    assert (got.trials, got.n_test) == (want.trials, want.n_test)


def staged_rows(n, cfg, seed, role=Role.CAL, tied=False):
    """Round-shaped rows whose bands shrink by round and never collapse.

    Clipped ``gen_multiround`` bands can have zero width, which the
    width-normalized scores refuse; these rows admit every score kind.
    ``tied`` snaps the same draws to a power-of-two step below an eighth of
    each round's sigma, so band ends, targets, scores and lengths repeat
    exactly across rows.
    """
    rng = np.random.default_rng(seed)
    scale = np.repeat(np.asarray(cfg.sigma), cfg.tasks)
    step = 2.0 ** np.floor(np.log2(scale / 8.0))
    snap = (lambda x: np.round(x / step) * step) if tied else (lambda x: x)
    center = snap(rng.normal(size=(n, cfg.n_targets)))
    half = snap(rng.uniform(0.5, 1.5, size=center.shape) * scale)
    targets = center + snap(rng.normal(size=center.shape) * scale)
    return LabeledSet(
        features=rng.normal(size=n), targets=targets, lo=center - half, hi=center + half, role=role
    )


def assert_protocols_match(data, tune, method, alpha, cfg, trials, spec, kind):
    splits = TrialSplits(spec, data.n)
    joint = run_protocol(data, tune, method, kind, alpha, cfg, trials, splits)
    want = reference_protocol(data, tune, method, alpha, cfg, trials, spec, kind, False)
    assert_same_protocol(joint, want)
    sc = run_sc_baseline(data, tune, method, kind, alpha, cfg, trials, splits)
    want = reference_protocol(data, tune, method, alpha, cfg, trials, spec, kind, True)
    assert_same_protocol(sc, want)
    return joint, sc


@pytest.mark.parametrize("kind, tied", KINDS_AND_TIES)
@pytest.mark.parametrize("tasks", [1, 3])
@pytest.mark.parametrize("method", [Method.IA, Method.QN_MAX, Method.MINIMAX, Method.COPULA])
def test_protocols_equal_the_per_trial_pipeline(method, tasks, kind, tied):
    cfg = dataclasses.replace(CFG, tasks=tasks)
    data = staged_rows(420, cfg, seed=50, tied=tied)
    tune = staged_rows(120, cfg, seed=51, role=Role.TUNE, tied=tied)
    spec = SplitSpec(seed=52, n_tune=1, n_cal=240, n_test=150)
    rc = dataclasses.replace(cfg, tau=raw_tau(data, cfg))
    for alpha in (0.2, 0.05):
        assert_protocols_match(data, tune, method, alpha, rc, 3, spec, kind)


@pytest.mark.parametrize("kind, tied", KINDS_AND_TIES)
@pytest.mark.parametrize(
    "method, tasks", [(m, t) for m in Method for t in (1, 3) if m is not Method.SINGLE or t == 1]
)
def test_protocols_on_a_shared_split_table_equal_fresh_draws(method, tasks, kind, tied):
    cfg = dataclasses.replace(CFG, tasks=tasks)
    if method is Method.SINGLE:  # one target: one round of one task
        cfg = RoundConfig(rounds=1, sigma=(0.1,), rates=(1.0,))
    data = staged_rows(420, cfg, seed=70, tied=tied)
    tune = staged_rows(120, cfg, seed=71, role=Role.TUNE, tied=tied)
    spec = SplitSpec(seed=72, n_tune=1, n_cal=240, n_test=150)
    rc = dataclasses.replace(cfg, tau=raw_tau(data, cfg))
    splits = TrialSplits(spec, data.n)
    # Every cell reuses the splits the cells before it drew, and the last draws one more.
    for alpha, trials in ((0.2, 2), (0.05, 3)):
        for run in (run_protocol, run_sc_baseline):
            got = run(data, tune, method, kind, alpha, rc, trials, splits)
            fresh = TrialSplits(spec, data.n)
            assert_same_protocol(got, run(data, tune, method, kind, alpha, rc, trials, fresh))


@pytest.mark.parametrize("kind", [ScoreKind.CQR, ScoreKind.QN])
@pytest.mark.parametrize("method", [Method.IA, Method.QN_MAX, Method.MINIMAX, Method.COPULA])
def test_protocols_equal_the_per_trial_pipeline_at_size(method, kind):
    # 5 rounds x 3 tasks = 15 targets, a thousand test rows
    cfg = dataclasses.replace(CFG, tasks=3)
    data = staged_rows(2600, cfg, seed=66)
    tune = staged_rows(600, cfg, seed=67, role=Role.TUNE)
    spec = SplitSpec(seed=68, n_tune=1, n_cal=1500, n_test=1000)
    rc = dataclasses.replace(cfg, tau=raw_tau(data, cfg))
    assert_protocols_match(data, tune, method, 0.1, rc, 3, spec, kind)


def test_single_protocol_equals_the_per_trial_pipeline():
    cfg1 = RoundConfig(rounds=1, sigma=(0.1,), rates=(1.0,), tau=0.3)
    data = gen_multiround(300, cfg1, seed=53)
    tune = gen_multiround(80, cfg1, seed=54)
    spec = SplitSpec(seed=55, n_tune=1, n_cal=150, n_test=100)
    splits = TrialSplits(spec, data.n)
    got = run_protocol(data, tune, Method.SINGLE, ScoreKind.CQR, 0.1, cfg1, 4, splits)
    want = reference_protocol(data, tune, Method.SINGLE, 0.1, cfg1, 4, spec, ScoreKind.CQR, False)
    assert_same_protocol(got, want)


@pytest.mark.parametrize("tasks", [1, 3])
@pytest.mark.parametrize("method", [Method.MINIMAX, Method.COPULA])
def test_protocols_equal_the_pipeline_at_the_rank_extremes(method, tasks):
    cfg = dataclasses.replace(CFG, tasks=tasks)
    data = staged_rows(60, cfg, seed=56)
    tune = staged_rows(40, cfg, seed=57, role=Role.TUNE)
    # rank ceil(0.95 * 6) = 6 overflows n_cal = 5 in every round: thresholds +inf
    starved = SplitSpec(seed=58, n_tune=1, n_cal=5, n_test=40)
    joint, sc = assert_protocols_match(data, tune, method, 0.05, cfg, 2, starved, ScoreKind.CQR)
    assert joint.ejc_all == 1.0 and sc.ejc_all == 1.0
    # every tuning score lies above every pool score: level 0, thresholds -inf
    far = LabeledSet(
        features=tune.features, targets=tune.hi + 100.0, lo=tune.lo, hi=tune.hi, role=Role.TUNE
    )
    spec = SplitSpec(seed=59, n_tune=1, n_cal=30, n_test=30)
    joint, _ = assert_protocols_match(data, far, method, 0.2, cfg, 2, spec, ScoreKind.CQR)
    assert joint.ejc_all == 0.0


def reference_pilot(data, tune, method, kind, alpha, cfg, spec):
    """The pilot from public pieces: trial 0's split, ``fit_method`` and the
    median over its test rows of the next-to-last round's longest
    ``reference_bounds`` interval."""
    cal, test = split_cal_test(data, spec.n_cal, spec.n_test, trial_rng(spec, 0))
    scores = [score_matrix(s.lo, s.hi, s.targets, kind) for s in (cal, tune)]
    calib = fit_method(method, scores[0], alpha, kind, scores[1])
    ilo, ihi = reference_bounds(test.lo, test.hi, calib.margins(cfg.n_targets), kind)
    lengths = np.maximum(0.0, ihi - ilo)
    b = max(cfg.rounds - 2, 0)
    return float(np.quantile(lengths[:, b * cfg.tasks:(b + 1) * cfg.tasks].max(axis=1), 0.5))


@pytest.mark.parametrize("kind, tied", KINDS_AND_TIES)
@pytest.mark.parametrize("tasks", [1, 3])
@pytest.mark.parametrize("method", [Method.IA, Method.QN_MAX, Method.MINIMAX, Method.COPULA])
def test_pilot_tau_equals_the_reference_pipeline_bit_for_bit(method, tasks, kind, tied):
    cfg = dataclasses.replace(CFG, tasks=tasks)
    # 600 tuning rows keep the CDF methods' 15-target thresholds finite at alpha 0.1.
    data = staged_rows(420, cfg, seed=60, tied=tied)
    tune = staged_rows(600, cfg, seed=61, role=Role.TUNE, tied=tied)
    spec = SplitSpec(seed=62, n_tune=1, n_cal=240, n_test=150)
    for alpha in (0.2, 0.1):
        got = pilot_tau(data, tune, method, kind, alpha, cfg, TrialSplits(spec, data.n))
        assert got == reference_pilot(data, tune, method, kind, alpha, cfg, spec)
