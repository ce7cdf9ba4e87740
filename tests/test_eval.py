"""Monte Carlo harness: metrics, determinism, and the coverage sandwich."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtconf import (
    InsufficientSamplesError,
    LabeledSet,
    Method,
    Role,
    RoundConfig,
    ScoreKind,
    SplitSpec,
    TrialMetrics,
    TrialSplits,
    coverage_bounds_check,
    fit_method,
    mc_slack,
    run_protocol,
    run_sc_baseline,
    run_trials,
    split_cal_test,
    trial_rng,
)
from mtconf.evaluate import _length_rows, _test_metrics, _trial_mil
from mtconf.scores import _scale_ratios, interval_bounds, interval_lengths, score_matrix
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
    ejc, esc = _test_metrics(scores.T <= margins)
    mil = _trial_mil(_length_rows(data.lo, data.hi, ScoreKind.CQR), np.arange(4), margins)
    # rows covered per target: z in [0, 1]
    assert ejc == 0.25
    assert np.allclose(esc, [0.5, 0.75])
    assert np.array_equal(mil, [1.0, 1.0])


def test_joint_coverage_never_exceeds_any_single_target():
    data = banded(1200, 3, seed=1)
    tune = banded(300, 3, seed=2)
    spec = SplitSpec(seed=5, n_tune=1, n_cal=800, n_test=400)
    for method in (Method.QN_MAX, Method.IA, Method.MINIMAX, Method.COPULA):
        metrics = run_trials(data, tune, method, ScoreKind.CQR, 0.1, 8, TrialSplits(spec, data.n))
        assert metrics.esc.min() >= metrics.ejc - 1e-12
        assert metrics.trials == 8 and metrics.n_test == 400


def test_one_target_joint_equals_per_target():
    data = banded(600, 1, seed=3)
    tune = banded(100, 1, seed=4)
    spec = SplitSpec(seed=6, n_tune=1, n_cal=400, n_test=200)
    metrics = run_trials(data, tune, Method.SINGLE, ScoreKind.CQR, 0.2, 10, TrialSplits(spec, 600))
    assert metrics.ejc == metrics.esc[0]


def test_starved_calibration_covers_everything_with_infinite_bands():
    data = banded(30, 2, seed=7)
    tune = banded(50, 2, seed=8)
    # rank ceil(0.95 * 5) = 5 exceeds n_cal = 4: thresholds go infinite
    spec = SplitSpec(seed=9, n_tune=1, n_cal=4, n_test=20)
    metrics = run_trials(data, tune, Method.MINIMAX, ScoreKind.CQR, 0.05, 3, TrialSplits(spec, 30))
    assert metrics.ejc == 1.0
    assert np.all(metrics.esc == 1.0)
    assert np.all(np.isinf(metrics.mil))


def test_run_trials_deterministic_given_spec():
    data = banded(900, 2, seed=10)
    tune = banded(200, 2, seed=11)
    spec = SplitSpec(seed=12, n_tune=1, n_cal=600, n_test=300)
    a = run_trials(data, tune, Method.MINIMAX, ScoreKind.QN, 0.1, 6, TrialSplits(spec, data.n))
    b = run_trials(data, tune, Method.MINIMAX, ScoreKind.QN, 0.1, 6, TrialSplits(spec, data.n))
    assert a.ejc == b.ejc
    assert np.array_equal(a.esc, b.esc)
    assert np.array_equal(a.mil, b.mil)


def test_mean_lengths_grow_as_alpha_shrinks():
    data = banded(1000, 2, seed=13)
    tune = banded(200, 2, seed=14)
    spec = SplitSpec(seed=15, n_tune=1, n_cal=700, n_test=300)
    splits = TrialSplits(spec, data.n)
    tight = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.30, 5, splits)
    wide = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.05, 5, splits)
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
    splits = TrialSplits(SplitSpec(seed=18, n_tune=1, n_cal=80, n_test=40), data.n)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            run_trials(data, tune, Method.QN_MAX, ScoreKind.CQR, 0.1, trials, splits)
    with pytest.raises(InsufficientSamplesError):
        run_trials(data, tune, Method.QN_MAX, ScoreKind.CQR, 0.1, 2, splits)


def test_metrics_arrays_are_read_only():
    metrics = _metrics(0.9)
    with pytest.raises(ValueError, match="read-only"):
        metrics.esc[0] = 0.0


def test_sandwich_holds_for_maxscore_on_exchangeable_rows():
    data = banded(3000, 3, seed=19)
    tune = banded(500, 3, seed=20)
    spec = SplitSpec(seed=21, n_tune=1, n_cal=2000, n_test=1000)
    splits = TrialSplits(spec, data.n)
    metrics = run_trials(data, tune, Method.QN_MAX, ScoreKind.QN, 0.2, 50, splits)
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


def assert_matches_reference(got, want, ulps=64):
    """Coverage bit for bit; ``mil`` with its infinities in the same places and
    every finite entry within ``ulps`` of the reference's.  The trials take a
    pairwise row mean of max(0, w + 2q), the reference an axis-0 mean of
    max(0, (hi + q) - (lo - q)), so the last bits may differ."""
    assert got.ejc == want.ejc
    assert np.array_equal(got.esc, want.esc)
    assert (got.trials, got.n_test) == (want.trials, want.n_test)
    finite = np.isfinite(want.mil)
    assert np.array_equal(np.isfinite(got.mil), finite)
    assert np.array_equal(got.mil[~finite], want.mil[~finite])
    got, want = got.mil[finite], want.mil[finite]
    assert np.all(np.abs(got - want) <= ulps * np.spacing(want))


@pytest.mark.parametrize("kind", list(ScoreKind))
@pytest.mark.parametrize("method", list(Method))
def test_run_trials_equals_the_per_trial_pipeline(method, kind):
    k = 1 if method is Method.SINGLE else 3
    data = banded(360, k, seed=30)
    tune = banded(90, k, seed=31)
    spec = SplitSpec(seed=32, n_tune=1, n_cal=200, n_test=120)
    splits = TrialSplits(spec, data.n)
    for alpha in (0.3, 0.1):
        got = run_trials(data, tune, method, kind, alpha, 4, splits)
        assert_matches_reference(got, reference_trials(data, tune, method, kind, alpha, 4, spec))


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
        got = run_trials(data, tune, method, kind, alpha, trials, splits)
        fresh = TrialSplits(spec, data.n)
        assert_same_metrics(got, run_trials(data, tune, method, kind, alpha, trials, fresh))


@pytest.mark.parametrize("loop", [run_trials, run_protocol, run_sc_baseline], ids=lambda f: f.__name__)
def test_run_trials_rejects_a_split_table_of_another_pool(loop):
    data = banded(100, 2, seed=43)
    tune = banded(50, 2, seed=44)
    spec = SplitSpec(seed=45, n_tune=1, n_cal=60, n_test=30)
    # The protocols take a round layout of the pool's two targets before the trials.
    layout = () if loop is run_trials else (RoundConfig(2, 1, (0.2, 0.1), (2.0, 1.0)),)
    with pytest.raises(ValueError, match="split table"):
        loop(data, tune, Method.IA, ScoreKind.CQR, 0.1, *layout, 2, TrialSplits(spec, 99))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 15])
def test_interval_lengths_equal_the_reference_bounds_bit_for_bit(k):
    # The protocols' in-place lengths of every score kind against the
    # reference bounds, on (n, K) bands and on the (K, n) rows with (K, 1)
    # margins: margins finite (Cauchy, so some negative and some emptying the
    # band), partly +inf, and all +inf.  One-sided lengths are the upper ends.
    rng = np.random.default_rng(k)
    for n in (*range(1, 40), 127, 128, 129, 255, 256, 257, 1000, 2000, 4097):
        lo = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, k))
        hi = lo + rng.uniform(0.01, 3.0, size=(n, k))
        finite = rng.standard_cauchy(size=k)
        partly = np.where(rng.random(k) < 0.5, np.inf, finite)
        for margins, kind in product((finite, partly, np.full(k, np.inf)), ScoreKind):
            ratios = _scale_ratios(lo, hi) if kind.normalized else None
            ilo, ihi = reference_bounds(lo, hi, margins, kind)
            want = ihi if kind.one_sided else np.maximum(0.0, ihi - ilo)
            got = interval_lengths(lo.copy(), hi.copy(), margins, kind, ratios)
            assert got.tobytes() == want.tobytes(), (n, kind)
            rows = interval_lengths(
                np.array(lo.T, order="C"), np.array(hi.T, order="C"), margins[:, None], kind,
                None if ratios is None else np.array(ratios.T, order="C"),
            )
            assert rows.tobytes() == np.ascontiguousarray(want.T).tobytes(), (n, kind)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    n=st.integers(1, 300),
    kind=st.sampled_from([ScoreKind.CQR, ScoreKind.QN]),
    infinite=st.sampled_from(["none", "partly", "wholly"]),
)
def test_trial_mean_lengths_equal_the_clipped_mean_of_the_interval_bounds(
    seed, k, n, kind, infinite
):
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=k)
    hi = lo + rng.uniform(0.01, 3.0, size=(n, k)) * 10.0 ** rng.uniform(-1, 1, size=k)
    # Cauchy margins, so that some rows clip to 0; then +-inf on some or all targets.
    margins = rng.standard_cauchy(size=k)
    signs = rng.choice([-np.inf, np.inf], size=k)
    if infinite != "none":
        margins = np.where(rng.random(k) < 0.5, signs, margins) if infinite == "partly" else signs
    test = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    got = _trial_mil(_length_rows(lo, hi, kind), test, margins[:, None])
    ilo, ihi = interval_bounds(lo[test], hi[test], margins, kind)
    want = np.maximum(0.0, ihi - ilo).mean(axis=0)
    # An infinite margin gives +inf or 0 on both sides, exactly.
    finite = np.isfinite(margins)
    assert np.array_equal(got[~finite], want[~finite])
    # The bounds round (hi + q) and (lo - q), so their error scales with those
    # ends, not with a length that cancels to nearly 0: ulps of the largest.
    ends = np.abs(np.concatenate([lo[test], hi[test], ilo, ihi]))[:, finite]
    scale = np.maximum(ends.max(axis=0), want[finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 64 * np.spacing(scale))


@pytest.mark.parametrize("kind", [ScoreKind.CQR, ScoreKind.QN])
def test_trial_mean_lengths_dyadic_hand_case(kind):
    # Ends, widths, ratios w_1/w_0 and margins are multiples of 1/8, so every
    # step is exact and both ways of forming a length agree bit for bit.
    lo = np.array([[0.0, -1.0], [0.5, 2.0], [-2.0, 0.25], [1.0, -0.5]])
    hi = lo + np.array([[1.0, 0.5], [2.0, 4.0], [0.5, 0.25], [1.0, 2.0]])
    margins = np.array([0.25, -0.375])
    rows = _length_rows(lo, hi, kind)
    # Target 1, CQR: max(0, w - 0.75) = 0, 3.25, 0, 1.25.  QN scales the margin
    # by w_1/w_0 = 0.5, 2, 0.5, 2: 0.125, 2.5, 0, 0.5.
    qn = kind is ScoreKind.QN
    got = _trial_mil(rows, np.arange(4), margins[:, None])
    assert np.array_equal(got, [1.625, 0.78125 if qn else 1.125])
    ilo, ihi = interval_bounds(lo, hi, margins, kind)
    assert np.array_equal(got, np.maximum(0.0, ihi - ilo).mean(axis=0))
    # The test columns 2 and 0 alone.
    assert np.array_equal(_trial_mil(rows, np.array([2, 0]), margins[:, None]), [1.25, qn / 16])


@pytest.mark.parametrize("kind", [ScoreKind.CQR, ScoreKind.QN])
@pytest.mark.parametrize("method", [Method.IA, Method.QN_MAX, Method.MINIMAX, Method.COPULA])
def test_run_trials_equals_the_per_trial_pipeline_at_size(method, kind):
    # a thousand test rows on three targets, then fifteen targets
    data = banded(2600, 3, seed=60)
    tune = banded(800, 3, seed=61)
    spec = SplitSpec(seed=62, n_tune=1, n_cal=1500, n_test=1000)
    got = run_trials(data, tune, method, kind, 0.1, 3, TrialSplits(spec, data.n))
    assert_matches_reference(got, reference_trials(data, tune, method, kind, 0.1, 3, spec))
    data = banded(700, 15, seed=63)
    tune = banded(300, 15, seed=64)
    spec = SplitSpec(seed=65, n_tune=1, n_cal=400, n_test=300)
    got = run_trials(data, tune, method, kind, 0.05, 3, TrialSplits(spec, data.n))
    assert_matches_reference(got, reference_trials(data, tune, method, kind, 0.05, 3, spec))


@pytest.mark.parametrize("kind", list(ScoreKind))
@pytest.mark.parametrize("method", [Method.MINIMAX, Method.COPULA])
def test_run_trials_equals_the_pipeline_at_the_rank_extremes(method, kind):
    data = banded(40, 2, seed=33)
    tune = banded(60, 2, seed=34)
    # rank ceil(0.95 * 6) = 6 overflows n_cal = 5: level m, thresholds +inf
    starved = SplitSpec(seed=35, n_tune=1, n_cal=5, n_test=30)
    got = run_trials(data, tune, method, kind, 0.05, 3, TrialSplits(starved, data.n))
    assert_matches_reference(got, reference_trials(data, tune, method, kind, 0.05, 3, starved))
    assert got.ejc == 1.0 and np.all(np.isposinf(got.mil))
    # every tuning score lies above every pool score: level 0, thresholds -inf,
    # so every interval is empty, the one-sided (-inf, -inf] included
    far = LabeledSet(
        features=tune.features, targets=tune.hi + 100.0, lo=tune.lo, hi=tune.hi, role=Role.TUNE
    )
    spec = SplitSpec(seed=36, n_tune=1, n_cal=25, n_test=15)
    got = run_trials(data, far, method, kind, 0.2, 3, TrialSplits(spec, data.n))
    assert_matches_reference(got, reference_trials(data, far, method, kind, 0.2, 3, spec))
    assert got.ejc == 0.0 and np.all(got.esc == 0.0) and np.all(got.mil == 0.0)


@pytest.mark.parametrize("method", [Method.IA, Method.MINIMAX, Method.COPULA])
def test_run_trials_working_set_does_not_grow_with_trials(method):
    data = banded(900, 3, seed=37)
    tune = banded(300, 3, seed=38)
    splits = TrialSplits(SplitSpec(seed=39, n_tune=1, n_cal=600, n_test=300), data.n)
    for t in range(50):  # the table's own growth stays out of the comparison
        splits[t]

    def peak(trials):
        tracemalloc.start()
        try:
            run_trials(data, tune, method, ScoreKind.CQR, 0.1, trials, splits)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations (caches, lazy imports) stay out of the comparison
    # Batching trials into (T, n_cal, K) int64 ranks would add 14 KB per trial here.
    assert abs(peak(50) - peak(5)) < 64 * 1024
