"""Monte Carlo harness: metrics, determinism, and the coverage sandwich."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from mtconf import (
    InsufficientSamplesError,
    LabeledSet,
    Method,
    Role,
    ScoreKind,
    SplitSpec,
    TrialMetrics,
    TrialSplits,
    coverage_bounds_check,
    fit_method,
    mc_slack,
    run_trials,
    split_cal_test,
    trial_rng,
)
from mtconf.evaluate import _mean_lengths, _test_metrics
from mtconf.scores import _scale_ratios, interval_lengths, score_matrix
from reference import reference_bounds, reference_evaluation


def banded(n, k, seed, role=Role.CAL):
    """iid rows with a quantile band and a target drawn around one center."""
    rng = np.random.default_rng(seed)
    center = rng.normal(size=(n, k)) * (1.0 + np.arange(k))
    half = rng.uniform(0.5, 1.5, size=(n, k))
    targets = center + rng.normal(size=(n, k))
    return LabeledSet(
        features=rng.normal(size=n),
        targets=targets,
        lo=center - half,
        hi=center + half,
        role=role,
    )


def test_test_metrics_hand_case():
    data = LabeledSet(
        features=np.zeros(4),
        targets=np.array([[0.5, 0.0], [2.0, 0.5], [-1.0, 0.9], [0.2, 2.0]]),
        lo=np.zeros((4, 2)),
        hi=np.ones((4, 2)),
        role=Role.TEST,
    )
    scores = score_matrix(data.lo, data.hi, data.targets, ScoreKind.CQR)
    margins = np.zeros((2, 1))  # one zero threshold per target
    lengths = interval_lengths(data.lo.T.copy(), data.hi.T.copy(), margins, ScoreKind.CQR)
    ejc, esc, mil = _test_metrics(scores.T <= margins, lengths)
    # rows covered per target: z in [0, 1]
    assert ejc == 0.25
    assert np.allclose(esc, [0.5, 0.75])
    assert np.allclose(mil, [1.0, 1.0])


def test_joint_coverage_never_exceeds_any_single_target():
    data = banded(1200, 3, seed=1)
    tune = banded(300, 3, seed=2)
    spec = SplitSpec(seed=5, n_tune=1, n_cal=800, n_test=400)
    for method in (Method.QN_MAX, Method.IA, Method.MINIMAX, Method.COPULA):
        metrics = run_trials(data, tune, method, ScoreKind.CQR, 0.1, 8, spec)
        assert metrics.esc.min() >= metrics.ejc - 1e-12
        assert metrics.trials == 8 and metrics.n_test == 400


def test_one_target_joint_equals_per_target():
    data = banded(600, 1, seed=3)
    tune = banded(100, 1, seed=4)
    spec = SplitSpec(seed=6, n_tune=1, n_cal=400, n_test=200)
    metrics = run_trials(data, tune, Method.SINGLE, ScoreKind.CQR, 0.2, 10, spec)
    assert metrics.ejc == metrics.esc[0]


def test_starved_calibration_covers_everything_with_infinite_bands():
    data = banded(30, 2, seed=7)
    tune = banded(50, 2, seed=8)
    # rank ceil(0.95 * 5) = 5 exceeds n_cal = 4: thresholds go infinite
    spec = SplitSpec(seed=9, n_tune=1, n_cal=4, n_test=20)
    metrics = run_trials(data, tune, Method.MINIMAX, ScoreKind.CQR, 0.05, 3, spec)
    assert metrics.ejc == 1.0
    assert np.all(metrics.esc == 1.0)
    assert np.all(np.isinf(metrics.mil))


def test_run_trials_deterministic_given_spec():
    data = banded(900, 2, seed=10)
    tune = banded(200, 2, seed=11)
    spec = SplitSpec(seed=12, n_tune=1, n_cal=600, n_test=300)
    a = run_trials(data, tune, Method.MINIMAX, ScoreKind.QN, 0.1, 6, spec)
    b = run_trials(data, tune, Method.MINIMAX, ScoreKind.QN, 0.1, 6, spec)
    assert a.ejc == b.ejc
    assert np.array_equal(a.esc, b.esc)
    assert np.array_equal(a.mil, b.mil)


def test_mean_lengths_grow_as_alpha_shrinks():
    data = banded(1000, 2, seed=13)
    tune = banded(200, 2, seed=14)
    spec = SplitSpec(seed=15, n_tune=1, n_cal=700, n_test=300)
    tight = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.30, 5, spec)
    wide = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.05, 5, spec)
    assert np.all(wide.mil >= tight.mil)


def test_mc_slack_formula():
    assert mc_slack(0.1, 500, 2000) == pytest.approx(
        3.0 * math.sqrt(0.1 * 0.9 / (500 * 2000))
    )


def _metrics(ejc):
    return TrialMetrics(
        ejc=ejc, esc=np.array([ejc]), mil=np.array([1.0]), trials=400, n_test=1000
    )


def test_coverage_bounds_check_three_outcomes():
    ok = coverage_bounds_check(_metrics(0.9), alpha=0.1, n_cal=999)
    assert ok.passed and "within" in ok.message
    assert ok.lower == pytest.approx(0.9 - ok.mc_slack)
    assert ok.upper == pytest.approx(0.9 + 1 / 1000 + ok.mc_slack)
    over = coverage_bounds_check(_metrics(0.95), alpha=0.1, n_cal=999)
    assert not over.passed and "over-coverage" in over.message
    under = coverage_bounds_check(_metrics(0.85), alpha=0.1, n_cal=999)
    assert not under.passed and "under-coverage" in under.message


def test_run_trials_input_errors():
    data = banded(100, 2, seed=16)
    tune = banded(50, 2, seed=17)
    spec = SplitSpec(seed=18, n_tune=1, n_cal=80, n_test=40)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            run_trials(data, tune, Method.QN_MAX, ScoreKind.CQR, 0.1, trials, spec)
    with pytest.raises(InsufficientSamplesError):
        run_trials(data, tune, Method.QN_MAX, ScoreKind.CQR, 0.1, 2, spec)


def test_metrics_arrays_are_read_only():
    metrics = _metrics(0.9)
    with pytest.raises(ValueError, match="read-only"):
        metrics.esc[0] = 0.0


def test_sandwich_holds_for_maxscore_on_exchangeable_rows():
    data = banded(3000, 3, seed=19)
    tune = banded(500, 3, seed=20)
    spec = SplitSpec(seed=21, n_tune=1, n_cal=2000, n_test=1000)
    metrics = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.2, 50, spec)
    report = coverage_bounds_check(metrics, alpha=0.2, n_cal=2000)
    assert report.passed, report.message


def reference_trials(data, tune, method, kind, alpha, trials, spec):
    """The per-trial pipeline built from public pieces: split, score, fit, and
    the original evaluation arithmetic."""
    tune_scores = score_matrix(tune.lo, tune.hi, tune.targets, kind)
    ejc = np.empty(trials)
    esc = np.empty((trials, data.n_targets))
    mil = np.empty((trials, data.n_targets))
    for t in range(trials):
        cal, test = split_cal_test(data, spec.n_cal, spec.n_test, trial_rng(spec, t))
        calib = fit_method(
            method, score_matrix(cal.lo, cal.hi, cal.targets, kind), alpha, kind, tune_scores
        )
        test_scores = score_matrix(test.lo, test.hi, test.targets, kind)
        ejc[t], esc[t], mil[t] = reference_evaluation(calib, test_scores, test.lo, test.hi)
    return TrialMetrics(
        ejc=float(ejc.mean()), esc=esc.mean(axis=0), mil=mil.mean(axis=0),
        trials=trials, n_test=spec.n_test,
    )


def assert_same_metrics(got, want):
    assert got.ejc == want.ejc
    assert np.array_equal(got.esc, want.esc)
    assert np.array_equal(got.mil, want.mil)
    assert (got.trials, got.n_test) == (want.trials, want.n_test)


@pytest.mark.parametrize("kind", list(ScoreKind))
@pytest.mark.parametrize("method", list(Method))
def test_run_trials_equals_the_per_trial_pipeline(method, kind):
    k = 1 if method is Method.SINGLE else 3
    data = banded(360, k, seed=30)
    tune = banded(90, k, seed=31)
    spec = SplitSpec(seed=32, n_tune=1, n_cal=200, n_test=120)
    for alpha in (0.3, 0.1):
        got = run_trials(data, tune, method, kind, alpha, 4, spec)
        assert_same_metrics(got, reference_trials(data, tune, method, kind, alpha, 4, spec))


@pytest.mark.parametrize("kind", list(ScoreKind))
@pytest.mark.parametrize("method", list(Method))
def test_run_trials_on_a_shared_split_table_equals_fresh_draws(method, kind):
    k = 1 if method is Method.SINGLE else 3
    data = banded(360, k, seed=40)
    tune = banded(90, k, seed=41)
    spec = SplitSpec(seed=42, n_tune=1, n_cal=200, n_test=120)
    splits = TrialSplits(spec, data.n)
    # The second cell reuses the first's four splits and draws two more.
    for alpha, trials in ((0.3, 4), (0.1, 6)):
        got = run_trials(data, tune, method, kind, alpha, trials, spec, splits=splits)
        assert_same_metrics(got, run_trials(data, tune, method, kind, alpha, trials, spec))


def test_run_trials_rejects_a_split_table_of_another_pool():
    data = banded(100, 2, seed=43)
    tune = banded(50, 2, seed=44)
    spec = SplitSpec(seed=45, n_tune=1, n_cal=60, n_test=30)
    with pytest.raises(ValueError, match="split table"):
        run_trials(data, tune, Method.IA, ScoreKind.CQR, 0.1, 2, spec, splits=TrialSplits(spec, 99))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 15])
def test_mean_lengths_add_like_the_row_mean_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for n in (*range(1, 40), 127, 128, 129, 255, 256, 257, 1000, 2000, 4097):
        ilo = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, k))
        # Cauchy widths: some negative (clipped to 0), a few huge.
        ihi = ilo + rng.standard_cauchy(size=(n, k))
        for infinite in (False, True):
            if infinite:  # starved margins: (-inf, +inf) rows and one-sided bands
                ihi[rng.random((n, k)) < 0.1] = np.inf
                ilo[rng.random((n, k)) < 0.1] = -np.inf
            lengths = np.maximum(0.0, ihi - ilo)
            want = lengths.mean(axis=0).tobytes()
            # (K, n) target rows, contiguous as the trials keep them and as a view.
            for rows in (np.ascontiguousarray(lengths.T), lengths.T):
                got = _mean_lengths(rows)
                assert got.shape == (k,) and got.tobytes() == want, (n, infinite)
        # The in-place lengths of every score kind against the reference bounds,
        # on (n, K) bands and on the (K, n) rows with (K, 1) margins: margins
        # finite (Cauchy, so some negative and some emptying the band), partly
        # +inf, and all +inf.
        lo = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, k))
        hi = lo + rng.uniform(0.01, 3.0, size=(n, k))
        finite = rng.standard_cauchy(size=k)
        partly = np.where(rng.random(k) < 0.5, np.inf, finite)
        for margins, kind in product((finite, partly, np.full(k, np.inf)), ScoreKind):
            ratios = _scale_ratios(lo, hi) if kind.normalized else None
            ilo, ihi = reference_bounds(lo, hi, margins, kind)
            want = np.maximum(0.0, ihi - ilo)
            got = interval_lengths(lo.copy(), hi.copy(), margins, kind, ratios)
            assert got.tobytes() == want.tobytes(), (n, kind)
            rows = interval_lengths(
                np.array(lo.T, order="C"), np.array(hi.T, order="C"), margins[:, None], kind,
                None if ratios is None else np.array(ratios.T, order="C"),
            )
            assert rows.tobytes() == np.ascontiguousarray(want.T).tobytes(), (n, kind)
            assert _mean_lengths(rows).tobytes() == want.mean(axis=0).tobytes(), (n, kind)


@pytest.mark.parametrize("kind", [ScoreKind.CQR, ScoreKind.QN])
@pytest.mark.parametrize("method", [Method.IA, Method.QN_MAX, Method.MINIMAX, Method.COPULA])
def test_run_trials_equals_the_per_trial_pipeline_at_size(method, kind):
    # a thousand test rows on three targets, then fifteen targets
    data = banded(2600, 3, seed=60)
    tune = banded(800, 3, seed=61)
    spec = SplitSpec(seed=62, n_tune=1, n_cal=1500, n_test=1000)
    got = run_trials(data, tune, method, kind, 0.1, 3, spec)
    assert_same_metrics(got, reference_trials(data, tune, method, kind, 0.1, 3, spec))
    data = banded(700, 15, seed=63)
    tune = banded(300, 15, seed=64)
    spec = SplitSpec(seed=65, n_tune=1, n_cal=400, n_test=300)
    got = run_trials(data, tune, method, kind, 0.05, 3, spec)
    assert_same_metrics(got, reference_trials(data, tune, method, kind, 0.05, 3, spec))


@pytest.mark.parametrize("method", [Method.MINIMAX, Method.COPULA])
def test_run_trials_equals_the_pipeline_at_the_rank_extremes(method):
    data = banded(40, 2, seed=33)
    tune = banded(60, 2, seed=34)
    # rank ceil(0.95 * 6) = 6 overflows n_cal = 5: level m, thresholds +inf
    starved = SplitSpec(seed=35, n_tune=1, n_cal=5, n_test=30)
    got = run_trials(data, tune, method, ScoreKind.CQR, 0.05, 3, starved)
    assert_same_metrics(got, reference_trials(data, tune, method, ScoreKind.CQR, 0.05, 3, starved))
    assert got.ejc == 1.0 and np.all(np.isposinf(got.mil))
    # every tuning score lies above every pool score: level 0, thresholds -inf
    far = LabeledSet(
        features=tune.features, targets=tune.hi + 100.0, lo=tune.lo, hi=tune.hi, role=Role.TUNE
    )
    spec = SplitSpec(seed=36, n_tune=1, n_cal=25, n_test=15)
    got = run_trials(data, far, method, ScoreKind.CQR, 0.2, 3, spec)
    assert_same_metrics(got, reference_trials(data, far, method, ScoreKind.CQR, 0.2, 3, spec))
    assert got.ejc == 0.0 and np.all(got.esc == 0.0) and np.all(got.mil == 0.0)


@pytest.mark.parametrize("method", [Method.IA, Method.MINIMAX, Method.COPULA])
def test_run_trials_working_set_does_not_grow_with_trials(method):
    data = banded(900, 3, seed=37)
    tune = banded(300, 3, seed=38)
    spec = SplitSpec(seed=39, n_tune=1, n_cal=600, n_test=300)

    def peak(trials):
        tracemalloc.start()
        try:
            run_trials(data, tune, method, ScoreKind.CQR, 0.1, trials, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations (caches, lazy imports) stay out of the comparison
    # Batching trials into (T, n_cal, K) int64 ranks would add 14 KB per trial here.
    assert abs(peak(50) - peak(5)) < 64 * 1024
