"""Calibration strategies: thresholds, reductions, and coverage contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtconf import (
    Calibration,
    Method,
    ScoreKind,
    coverage_mask,
    fit_cdf,
    fit_method,
    interval_array,
)
from mtconf.calibrate import _conformal_rank, _kth_smallest, _rank_levels, _score_rows
from mtconf.scores import score_matrix


def split_threshold(values, alpha):
    """SINGLE's threshold on one column of calibration scores."""
    calib = fit_method(Method.SINGLE, np.asarray(values)[:, None], alpha, ScoreKind.CQR)
    return calib.per_target_zeta[0]


def test_single_order_statistic_cases():
    scores = np.arange(1.0, 100.0)  # 1..99
    calib = fit_method(Method.SINGLE, scores[:, None], 0.1, ScoreKind.CQR)
    assert calib.per_target_zeta[0] == 90.0
    assert math.isinf(split_threshold(np.arange(5.0), 0.1))


def test_conformal_rank_values():
    assert _conformal_rank(99, 0.1) == 90
    assert _conformal_rank(100, 0.1) == 91
    for alpha in (0.0, -0.1, 1.0):
        with pytest.raises(ValueError):
            _conformal_rank(10, alpha)


def test_conformal_rank_snaps_float_rank_products():
    # (1 - 0.7) * 10 floats to 3.0000000000000004; a naive ceil would take
    # the 4th order statistic.
    assert _conformal_rank(9, 0.7) == 3
    assert _conformal_rank(19, 0.95) == 1
    assert _conformal_rank(24, 0.44) == 14
    assert split_threshold(np.arange(1.0, 25.0), 0.44) == 14.0
    # (1 - alpha) * 6 is about 6e-13, within the slack of 0, yet its ceiling is 1.
    alpha = 1.0 - 1e-13
    assert _conformal_rank(5, alpha) == math.ceil((1 - Fraction(alpha)) * 6) == 1
    scores = np.arange(5.0, 0.0, -1.0)[:, None]
    assert fit_method(Method.SINGLE, scores, alpha, ScoreKind.CQR).per_target_zeta[0] == 1.0


def test_kth_smallest_direct_cases():
    values = np.array([4.0, 1.0, 3.0, 2.0])
    assert _kth_smallest(values.copy(), 2) == 2.0
    assert _kth_smallest(values.copy(), 4) == 4.0
    assert math.isinf(_kth_smallest(values[:2].copy(), 3))


def test_single_rejects_bad_scores():
    with pytest.raises(ValueError):
        fit_method(Method.SINGLE, np.empty((0, 1)), 0.1, ScoreKind.CQR)
    with pytest.raises(ValueError):
        fit_method(Method.SINGLE, np.array([[1.0], [np.inf]]), 0.1, ScoreKind.CQR)


def test_single_rejects_bad_shape_and_level():
    # Scores are (n, K): one target's column is (n, 1), not (n,).
    with pytest.raises(ValueError, match="2-d"):
        fit_method(Method.SINGLE, np.array([1.0, 2.0]), 0.1, ScoreKind.CQR)
    for alpha in (0.0, -0.1):
        with pytest.raises(ValueError):
            fit_method(Method.SINGLE, np.array([[1.0]]), alpha, ScoreKind.CQR)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=47),
)
@settings(max_examples=300, deadline=None)
def test_single_threshold_matches_sorted_indexing(values, numerator):
    alpha = Fraction(numerator, 48)
    rank = math.ceil((1 - alpha) * (len(values) + 1))
    got = split_threshold(np.array(values), float(alpha))
    assert got == (math.inf if rank > len(values) else sorted(values)[rank - 1])


def test_ia_reduces_to_single_for_one_target():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=80)
    ia = fit_method(Method.IA, scores[:, None], 0.1, ScoreKind.CQR)
    single = fit_method(Method.SINGLE, scores[:, None], 0.1, ScoreKind.CQR)
    assert ia.per_target_zeta[0] == single.per_target_zeta[0]


def test_ia_uses_root_corrected_level():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(200, 3))
    alpha = 0.1
    alpha_1 = 1.0 - (1.0 - alpha) ** (1.0 / 3.0)
    assert alpha_1 == pytest.approx(0.03451, abs=5e-6)
    ia = fit_method(Method.IA, scores, alpha, ScoreKind.CQR)
    for k in range(3):
        single = fit_method(Method.SINGLE, scores[:, k : k + 1], alpha_1, ScoreKind.CQR)
        assert ia.per_target_zeta[k] == single.per_target_zeta[0]


def test_maxscore_equals_single_on_identical_columns():
    rng = np.random.default_rng(2)
    col = rng.normal(size=150)
    scores = np.column_stack([col, col, col])
    maxscore = fit_method(Method.QN_MAX, scores, 0.2, ScoreKind.QN)
    assert maxscore.per_target_zeta[0] == split_threshold(col, 0.2)


def test_empirical_cdf_counts():
    cdf = fit_cdf(np.array([3.0, 1.0, 2.0]))
    assert cdf.tolist() == [1.0, 2.0, 3.0] and not cdf.flags.writeable
    # A calibration score's rank is the count of tuning scores at or below it.
    cal, tune = np.array([[2.0], [0.5], [99.0]]), np.array([[3.0], [1.0], [2.0]])
    pool = _score_rows(Method.COPULA, cal, tune)
    assert pool.ranks.tolist() == [[2, 0, 3]]
    for bad in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            fit_cdf(bad)
    with pytest.raises(ValueError, match="finite"):
        fit_cdf(np.array([1.0, np.nan]))


def test_minimax_k1_covers_the_same_calibration_subset_as_single():
    # With the CDF fitted on the calibration scores themselves the rank
    # transform is order-preserving, so the threshold keeps the same covered
    # subset as plain split conformal.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        scores = rng.normal(size=(n, 1))
        mm = fit_method(Method.MINIMAX, scores, 0.1, ScoreKind.CQR, scores)
        single = fit_method(Method.SINGLE, scores[:, :1], 0.1, ScoreKind.CQR)
        got = scores[:, 0] <= mm.per_target_zeta[0]
        want = scores[:, 0] <= single.per_target_zeta[0]
        assert np.array_equal(got, want)


def test_minimax_comonotone_columns_share_one_zeta():
    rng = np.random.default_rng(3)
    tune = rng.normal(size=300)
    cal = rng.normal(size=200)
    mm = fit_method(
        Method.MINIMAX, np.column_stack([cal, cal]), 0.1, ScoreKind.CQR,
        np.column_stack([tune, tune]),
    )
    assert mm.per_target_zeta[0] == mm.per_target_zeta[1]


def test_minimax_small_sample_caps_level_and_goes_infinite():
    rng = np.random.default_rng(4)
    tune = rng.normal(size=(50, 2))
    cal = rng.normal(size=(5, 2))
    mm = fit_method(Method.MINIMAX, cal, 0.1, ScoreKind.CQR, tune)
    assert mm.per_target_level[0] == 1.0
    assert np.all(np.isinf(mm.per_target_zeta))
    covered = coverage_mask(rng.normal(size=(40, 2)), mm)
    assert covered.all()


def test_copula_k1_matches_minimax_level():
    rng = np.random.default_rng(5)
    tune = rng.normal(size=(120, 1))
    cal = rng.normal(size=(90, 1))
    cp = fit_method(Method.COPULA, cal, 0.1, ScoreKind.CQR, tune)
    mm = fit_method(Method.MINIMAX, cal, 0.1, ScoreKind.CQR, tune)
    assert cp.per_target_level[0] == pytest.approx(mm.per_target_level[0])
    assert cp.per_target_zeta[0] == mm.per_target_zeta[0]


def test_copula_symmetric_on_comonotone_columns():
    rng = np.random.default_rng(6)
    tune = rng.normal(size=250)
    cal = rng.normal(size=180)
    cp = fit_method(
        Method.COPULA, np.column_stack([cal, cal]), 0.1, ScoreKind.CQR,
        np.column_stack([tune, tune]),
    )
    assert cp.per_target_level[0] == cp.per_target_level[1]


def test_copula_levels_never_exceed_the_symmetric_start():
    # The descent starts at the symmetric minimax level and only moves down.
    rng = np.random.default_rng(7)
    z = rng.normal(size=(400, 3))
    tune = z @ np.array([[1.0, 0.5, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    cal = rng.normal(size=(300, 3)) @ np.array(
        [[1.0, 0.5, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]]
    )
    cp = fit_method(Method.COPULA, cal, 0.1, ScoreKind.CQR, tune)
    mm = fit_method(Method.MINIMAX, cal, 0.1, ScoreKind.CQR, tune)
    assert np.all(cp.per_target_level <= mm.per_target_level[0] + 1e-12)


def test_copula_small_sample_sets_full_levels():
    rng = np.random.default_rng(8)
    tune = rng.normal(size=(30, 2))
    cp = fit_method(Method.COPULA, rng.normal(size=(4, 2)), 0.05, ScoreKind.CQR, tune)
    assert np.all(cp.per_target_level == 1.0)
    assert np.all(np.isinf(cp.per_target_zeta))


def test_leave_one_out_coverage_is_exactly_the_conformal_rank():
    # For n+1 exchangeable rows, rotating the held-out row through all
    # positions covers exactly ceil((1-alpha)(n+1)) of them: the left-out
    # score is covered iff its overall rank is at most that rank.
    rng = np.random.default_rng(9)
    n_plus_1, alpha = 21, 0.1
    scores = rng.normal(size=n_plus_1)
    covered = 0
    for i in range(n_plus_1):
        rest = np.delete(scores, i)
        covered += scores[i] <= split_threshold(rest, alpha)
    assert covered == math.ceil((1 - alpha) * n_plus_1)


def test_leave_one_out_coverage_maxscore_two_targets():
    rng = np.random.default_rng(10)
    n_plus_1, alpha = 21, 0.1
    lo = rng.normal(size=(n_plus_1, 2))
    hi = lo + rng.uniform(0.5, 2.0, size=(n_plus_1, 2))
    z = rng.normal(size=(n_plus_1, 2))
    from mtconf.scores import score_matrix

    scores = score_matrix(lo, hi, z, ScoreKind.QN)
    covered = 0
    for i in range(n_plus_1):
        rest = np.delete(scores, i, axis=0)
        calib = fit_method(Method.QN_MAX, rest, alpha, ScoreKind.QN)
        ilo, ihi = interval_array(lo[i : i + 1], hi[i : i + 1], calib)
        covered += bool(np.all((ilo <= z[i]) & (z[i] <= ihi)))
    assert covered == math.ceil((1 - alpha) * n_plus_1)


def test_minimax_balances_per_target_coverage():
    # Wildly different score scales per target; the rank transform should
    # bring the per-target coverages within a few percent of each other.
    rng = np.random.default_rng(11)
    n_tune = 5000

    def draw(n):
        return np.column_stack(
            [
                rng.normal(size=n),
                50.0 * rng.exponential(size=n) - 40.0,
                0.01 * rng.standard_t(df=3, size=n),
            ]
        )

    mm = fit_method(Method.MINIMAX, draw(5000), 0.1, ScoreKind.CQR, draw(n_tune))
    covered = coverage_mask(draw(20000), mm)
    per_target = covered.mean(axis=0)
    assert per_target.max() - per_target.min() <= 2.0 / math.sqrt(n_tune) + 0.02


def test_fit_method_contracts():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=(60, 2))
    with pytest.raises(ValueError, match="exactly one target"):
        fit_method(Method.SINGLE, scores, 0.1, ScoreKind.CQR)
    # SINGLE's threshold is a (1,) ``per_target_zeta``, also on rank overflow
    # (alpha 0.01 on 60 rows).
    for alpha in (0.1, 0.01):
        got = fit_method(Method.SINGLE, scores[:, :1], alpha, ScoreKind.CQR)
        assert got.per_target_zeta.shape == (1,)
        assert math.isinf(got.per_target_zeta[0]) == (alpha == 0.01)
        assert got.per_target_zeta.size == 1 and got.per_target_level is None
        with pytest.raises(ValueError, match="different target count"):
            got.margins(2)
    with pytest.raises(ValueError, match="needs tuning scores"):
        fit_method(Method.MINIMAX, scores, 0.1, ScoreKind.CQR)
    with pytest.raises(ValueError, match="needs tuning scores"):
        fit_method(Method.COPULA, scores, 0.1, ScoreKind.CQR)
    with pytest.raises(ValueError, match="target count"):
        fit_method(Method.MINIMAX, scores, 0.1, ScoreKind.CQR, rng.normal(size=(30, 3)))


@pytest.mark.parametrize(
    "method, k, order",
    [(m, k, order) for m in Method for k, order in ((1, "C"), (3, "C"), (3, "F"))
     if m is not Method.SINGLE or k == 1],
)
def test_public_calibrations_leave_their_inputs_unchanged(method, k, order):
    # For one target, or Fortran-ordered scores, the (K, n) score rows are a
    # view of the caller's array; the order statistics partition gathered copies.
    rng = np.random.default_rng(14)
    cal = np.asarray(rng.normal(size=(40, k)), order=order)
    tune = np.asarray(rng.normal(size=(30, k)), order=order)
    before = cal.copy(), tune.copy()
    fit_method(method, cal, 0.2, ScoreKind.CQR, tune)
    assert np.array_equal(cal, before[0]) and np.array_equal(tune, before[1])


@pytest.mark.parametrize(
    "method, k", [(m, k) for m in Method for k in (1, 3) if m is not Method.SINGLE or k == 1]
)
def test_every_record_carries_read_only_per_target_thresholds(method, k):
    rng = np.random.default_rng(16)
    cal, tune = rng.normal(size=(50, k)), rng.normal(size=(40, k))
    calib = fit_method(method, cal, 0.2, ScoreKind.CQR, tune)
    zeta = calib.per_target_zeta
    assert zeta.shape == (k,) and zeta.dtype == np.float64 and not zeta.flags.writeable
    assert calib.margins(k) is zeta and calib.per_target_zeta.size == k
    if method is Method.QN_MAX:
        assert zeta.tolist() == [zeta[0]] * k
    with pytest.raises(ValueError, match="different target count"):
        calib.margins(k + 1)


def test_ia_k1_intervals_match_single_conformal():
    rng = np.random.default_rng(13)
    lo = rng.normal(size=(40, 1))
    hi = lo + rng.uniform(0.5, 1.5, size=(40, 1))
    z = rng.normal(size=(40, 1))
    from mtconf.scores import score_matrix

    scores = score_matrix(lo, hi, z, ScoreKind.CQR)
    ia = fit_method(Method.IA, scores, 0.2, ScoreKind.CQR)
    single = fit_method(Method.SINGLE, scores, 0.2, ScoreKind.CQR)
    got, want = interval_array(lo, hi, ia), interval_array(lo, hi, single)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_interval_array_matches_row_inversion():
    lo = np.array([[0.0, 1.0], [-1.0, 2.0]])
    hi = np.array([[1.0, 2.0], [0.0, 6.0]])
    calib = Calibration(
        method=Method.IA,
        score_kind=ScoreKind.CQR,
        alpha=0.1,
        per_target_zeta=np.array([0.25, -0.5]),
    )
    ilo, ihi = interval_array(lo, hi, calib)
    assert ilo.tolist() == [[-0.25, 1.5], [-1.25, 2.5]]
    assert ihi.tolist() == [[1.25, 1.5], [0.25, 5.5]]
    # QN divides each margin by the first target's width over the target's own.
    qn = Calibration(Method.QN_MAX, ScoreKind.QN, 0.1, np.full(2, 1.0))
    ilo, ihi = interval_array(lo, hi, qn)
    assert ilo.tolist() == [[-1.0, 0.0], [-2.0, -2.0]]
    assert ihi.tolist() == [[2.0, 3.0], [1.0, 10.0]]


def test_single_split_conformal_marginal_coverage():
    # Classic guarantee: P(new score <= threshold) >= 1 - alpha, checked by
    # simulation over many repetitions of (calibrate, test one point).
    rng = np.random.default_rng(15)
    alpha, n, reps = 0.2, 19, 4000
    draws = rng.normal(size=(reps, n + 1))
    hits = 0
    for row in draws:
        hits += row[-1] <= split_threshold(row[:-1], alpha)
    coverage = hits / reps
    assert coverage >= 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / reps)
    # and not grossly conservative: the upper sandwich plus MC slack
    assert coverage <= 1 - alpha + 1 / (n + 1) + 3 * math.sqrt(alpha * (1 - alpha) / reps)


@st.composite
def rank_tables(draw):
    """(ranks, m): calibration rows' tuning ranks in [0, m], ties and all."""
    m = draw(st.integers(1, 12))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 4)))
    return draw(arrays(np.int64, shape, elements=st.integers(0, m))), m


def required_rows(percent, n):
    """ceil((1 - alpha)(n + 1)) for alpha = percent / 100, in exact arithmetic."""
    return math.ceil((1 - Fraction(percent, 100)) * (n + 1))


def rows_inside(ranks, levels):
    return int((ranks <= levels).all(axis=1).sum())


def pseudo_observation_descent(pseudo, required):
    """COPULA's descent on CDF values pseudo = ranks / m, as first written."""
    levels = np.full(pseudo.shape[1], np.sort(pseudo.max(axis=1))[required - 1])
    below = pseudo <= levels
    changed = True
    while changed:
        changed = False
        for k in range(pseudo.shape[1]):
            others = np.all(np.delete(below, k, axis=1), axis=1)
            candidate = np.sort(pseudo[others, k])[required - 1]
            if candidate < levels[k]:
                levels[k] = candidate
                below[:, k] = pseudo[:, k] <= candidate
                changed = True
    return levels


@given(rank_tables(), st.integers(1, 99), st.sampled_from([Method.MINIMAX, Method.COPULA]))
@settings(max_examples=400, deadline=None)
def test_rank_levels_hold_the_conformal_mass_and_are_minimal(table, percent, method):
    ranks, m = table
    n, n_targets = ranks.shape
    need = required_rows(percent, n)
    levels = _rank_levels(method, ranks.max(axis=1), m, percent / 100, ranks.T)
    if need > n:
        assert np.all(levels == m)
        return
    assert rows_inside(ranks, levels) >= need
    # MINIMAX: the least symmetric box, by sorting the row maxima.
    symmetric = np.sort(ranks.max(axis=1))[need - 1]
    if method is Method.MINIMAX:
        assert np.all(levels == symmetric)
        return
    assert np.all(levels <= symmetric)
    assert np.array_equal(levels / m, pseudo_observation_descent(ranks / m, need))
    # COPULA: lowering any one coordinate to the next lower attained rank
    # loses the mass (below every attained rank the box is empty).
    for k in range(n_targets):
        lower = ranks[ranks[:, k] < levels[k], k]
        if lower.size:
            dropped = levels.copy()
            dropped[k] = lower.max()
            assert rows_inside(ranks, dropped) < need


def looped_copula_levels(ranks, m, alpha):
    """COPULA's descent on (K, n) ranks with sweeps repeated until one lowers
    no level, as it ran before stopping after one sweep."""
    row_max = ranks.max(axis=0)
    required = _conformal_rank(row_max.size, alpha)
    if required > row_max.size:
        return np.full(len(ranks), m)
    levels = np.full(len(ranks), _kth_smallest(row_max, required))
    below = ranks <= levels[:, None]
    inside = below.sum(axis=0)
    changed = True
    while changed:
        changed = False
        for k in range(len(ranks)):
            others = inside - below[k] == len(ranks) - 1
            candidate = _kth_smallest(ranks[k][others], required)
            if candidate < levels[k]:
                levels[k] = candidate
                inside -= below[k]
                below[k] = ranks[k] <= candidate
                inside += below[k]
                changed = True
    return levels


@st.composite
def wide_rank_tables(draw):
    """(K, n) tuning ranks in [0, m] with K 1-6, n 1-60 and m 1-40; small m ties."""
    m = draw(st.integers(1, 40))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 60)))
    return draw(arrays(np.int64, shape, elements=st.integers(0, m))), m


@given(wide_rank_tables(), st.integers(1, 99))
@settings(max_examples=400, deadline=None)
def test_copula_descent_needs_one_sweep(table, percent):
    ranks, m = table
    alpha = percent / 100
    levels = _rank_levels(Method.COPULA, ranks.max(axis=0), m, alpha, ranks)
    assert np.array_equal(levels, looped_copula_levels(ranks, m, alpha))
    required = _conformal_rank(ranks.shape[1], alpha)
    if required > ranks.shape[1]:
        return
    # A second sweep from the result lowers no coordinate.
    below = ranks <= levels[:, None]
    for k in range(len(ranks)):
        others = np.delete(below, k, axis=0).all(axis=0)
        assert _kth_smallest(ranks[k][others], required) >= levels[k]


@st.composite
def tied_score_pairs(draw):
    """(n, K) calibration and (m, K) tuning scores of small integers, so
    values repeat and pool and tuning values tie."""
    k = draw(st.integers(1, 4))
    scores = lambda n: arrays(np.float64, (n, k), elements=st.integers(-6, 6).map(float))
    return draw(scores(draw(st.integers(1, 60)))), draw(scores(draw(st.integers(1, 30))))


@given(tied_score_pairs())
@settings(max_examples=300, deadline=None)
def test_pool_ranks_are_the_right_searchsorted_counts(pair):
    cal, tune = pair
    want = np.stack([np.searchsorted(np.sort(t), c, side="right") for t, c in zip(tune.T, cal.T)])
    pool = _score_rows(Method.COPULA, cal, tune)
    assert pool.ranks.dtype == want.dtype and np.array_equal(pool.ranks, want)


@given(rank_tables(), st.integers(1, 99), st.integers(1, 99))
@settings(max_examples=200, deadline=None)
def test_minimax_rank_level_is_monotone_in_alpha(table, a, b):
    ranks, m = table
    small, large = sorted((a, b))
    assert np.all(
        _rank_levels(Method.MINIMAX, ranks.max(axis=1), m, small / 100)
        >= _rank_levels(Method.MINIMAX, ranks.max(axis=1), m, large / 100)
    )


@given(
    arrays(np.float64, (15, 2), elements=st.integers(-5, 5).map(float)),
    arrays(np.float64, (25, 2), elements=st.integers(-6, 6).map(float)),
    st.integers(1, 99),
    st.integers(1, 99),
)
@settings(max_examples=200, deadline=None)
def test_minimax_thresholds_are_monotone_in_alpha(tune, cal, a, b):
    small, large = sorted((a, b))
    wide = fit_method(Method.MINIMAX, cal, small / 100, ScoreKind.CQR, tune).per_target_zeta
    narrow = fit_method(Method.MINIMAX, cal, large / 100, ScoreKind.CQR, tune).per_target_zeta
    assert np.all(wide >= narrow)


def test_copula_levels_are_not_monotone_in_alpha():
    # The descent stops at a componentwise-minimal box, not at the least sum:
    # at alpha = 0.6 it returns (5, 5) though (1, 6) also holds the 5 rows.
    ranks = np.array([(5, 1), (5, 2), (5, 3), (5, 4), (5, 5)] + [(1, 6)] * 6)
    assert _rank_levels(Method.COPULA, ranks.max(axis=1), 6, 0.6, ranks.T).tolist() == [5, 5]
    assert _rank_levels(Method.COPULA, ranks.max(axis=1), 6, 0.55, ranks.T).tolist() == [1, 6]
    assert rows_inside(ranks, np.array([1, 6])) >= required_rows(60, 11)


def leave_one_out_covered(method, ranks, m, alpha):
    """How many rows of an (n + 1, K) rank table lie in the box of levels
    that the other n rows give, the held-out row rotated through all of them."""
    covered = 0
    for i in range(len(ranks)):
        rest = np.delete(ranks, i, axis=0)
        table = None if method is Method.MINIMAX else np.array(rest.T)
        covered += bool(np.all(ranks[i] <= _rank_levels(method, rest.max(axis=1), m, alpha, table)))
    return covered


@given(
    arrays(np.int64, st.tuples(st.integers(2, 30), st.integers(1, 4)), elements=st.integers(0, 40)),
    st.integers(1, 99),
)
@settings(max_examples=300, deadline=None)
def test_minimax_leave_one_out_covers_the_conformal_rank(ranks, percent):
    # The held-out row is covered iff its row maximum is at most the
    # required-th smallest of the others' maxima: at least required of the
    # n + 1 rows, exactly required when the maxima are distinct.
    need = required_rows(percent, len(ranks) - 1)
    covered = leave_one_out_covered(Method.MINIMAX, ranks, 40, percent / 100)
    assert covered >= need
    if np.unique(ranks.max(axis=1)).size == len(ranks):
        assert covered == need


def test_copula_leave_one_out_can_fall_short():
    # COPULA's box is not a level set of one per-row score, so the exchange
    # argument does not hold: rows (1, 4), (4, 2), (1, 0) at alpha = 0.5 need
    # 2 of 3 covered, and only the last row lies in the box the others give.
    ranks = np.array([[1, 4, 1], [4, 2, 0]]).T
    assert leave_one_out_covered(Method.COPULA, ranks, 4, 0.5) == 1
    assert required_rows(50, 2) == 2
    assert leave_one_out_covered(Method.MINIMAX, ranks, 4, 0.5) >= 2


@given(
    arrays(np.float64, st.integers(1, 50), elements=st.integers(-8, 8).map(float)),
    st.integers(1, 60),
)
@settings(max_examples=300, deadline=None)
def test_order_statistic_core_is_the_sorted_entry_or_inf(values, rank):
    got = _kth_smallest(values.copy(), rank)
    assert got == (math.inf if rank > values.size else np.sort(values)[rank - 1])
    ranks = values.astype(np.int64) + 8
    if rank <= ranks.size:
        assert _kth_smallest(ranks, rank) == np.sort(ranks)[rank - 1]


@given(
    arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
           elements=st.integers(-6, 6).map(float)),
    st.integers(1, 99),
)
@settings(max_examples=300, deadline=None)
def test_calibrators_take_the_exact_conformal_rank(scores, percent):
    alpha = percent / 100
    n, n_targets = scores.shape

    def order_stat(values, need):
        return math.inf if need > n else np.sort(values)[need - 1]

    need = required_rows(percent, n)
    single = fit_method(Method.SINGLE, scores[:, :1], alpha, ScoreKind.CQR)
    assert single.per_target_zeta[0] == order_stat(scores[:, 0], need)
    maxscore = fit_method(Method.QN_MAX, scores, alpha, ScoreKind.QN)
    assert maxscore.per_target_zeta[0] == order_stat(scores.max(axis=1), need)
    zeta = fit_method(Method.IA, scores, alpha, ScoreKind.CQR).per_target_zeta
    # IA's level (1 - alpha)^(1/K) is irrational in general; a float level
    # within 1e-6 ranks of an integer rank means that integer.
    x = Fraction((1.0 - alpha) ** (1.0 / n_targets)) * (n + 1)
    need_1 = round(x) if abs(x - round(x)) < Fraction(1, 10**6) else math.ceil(x)
    assert zeta.tolist() == [order_stat(scores[:, k], need_1) for k in range(n_targets)]


@given(
    arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
           elements=st.integers(-6, 6).map(float)),
    st.integers(1, 99),
    st.integers(1, 99),
)
@settings(max_examples=200, deadline=None)
def test_ia_and_maxscore_thresholds_are_monotone_in_alpha(scores, a, b):
    small, large = sorted((a, b))
    wide = fit_method(Method.IA, scores, small / 100, ScoreKind.CQR).per_target_zeta
    assert np.all(wide >= fit_method(Method.IA, scores, large / 100, ScoreKind.CQR).per_target_zeta)
    strict, loose = (fit_method(Method.QN_MAX, scores, p / 100, ScoreKind.QN) for p in (small, large))
    assert strict.per_target_zeta[0] >= loose.per_target_zeta[0]


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Method)),
    st.sampled_from(list(ScoreKind)),
    st.sampled_from([0.3, 0.1, 0.01]),
)
@settings(max_examples=150, deadline=None)
def test_coverage_mask_agrees_with_interval_array_for_fitted_methods(seed, method, kind, alpha):
    rng = np.random.default_rng(seed)
    n_targets = 1 if method is Method.SINGLE else 3

    def draw(n):
        lo = rng.normal(size=(n, n_targets))
        hi = lo + rng.uniform(0.1, 2.0, size=lo.shape)
        return lo, hi, lo + rng.normal(scale=2.0, size=lo.shape)

    cal, tune, (lo, hi, z) = draw(50), draw(40), draw(200)
    calib = fit_method(method, score_matrix(*cal, kind), alpha, kind, score_matrix(*tune, kind))
    ilo, ihi = interval_array(lo, hi, calib)
    covered = coverage_mask(score_matrix(lo, hi, z, kind), calib)
    assert np.array_equal(covered, (ilo <= z) & (z <= ihi))


@st.composite
def pooled_cells(draw):
    """A method and score kind, (N, K) pool and (m, K) tuning scores of small
    integers (ties within and across them), the column blocks, a subset of the
    pool's rows and a level.  Tuning sometimes lies above every pool score, and
    small row counts starve the rank."""
    method = draw(st.sampled_from(list(Method)))
    kind = draw(st.sampled_from(list(ScoreKind)))
    k = 1 if method is Method.SINGLE else draw(st.integers(1, 4))
    blocks = (slice(None),)
    if k > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, k - 1))
        blocks = (slice(0, cut), slice(cut, k))
    scores = lambda n, lift: arrays(
        np.float64, (n, k), elements=st.integers(-6, 6).map(lambda v: float(v + lift))
    )
    pool = draw(scores(draw(st.integers(1, 60)), 0))
    tune = draw(scores(draw(st.integers(1, 30)), draw(st.sampled_from([0, 0, 20]))))
    rows = np.array(draw(st.permutations(range(len(pool))))[: draw(st.integers(1, len(pool)))])
    return method, kind, pool, tune, blocks, rows, draw(st.integers(1, 99)) / 100


def sorted_thresholds(method, cal, tune, alpha):
    """(K,) thresholds of ``method`` on (n, K) ``cal`` by sorting: the required-th
    smallest score (per target for SINGLE and IA, of the row maxima for QN_MAX),
    or for the CDF methods each level's tuning order statistic (-inf at 0 and
    +inf at m), with the levels from the tuning ranks.  +inf when starved."""
    n, k = cal.shape
    level = 1.0 - (1.0 - alpha) ** (1.0 / k) if method is Method.IA else alpha
    required = _conformal_rank(n, level)
    if method in (Method.SINGLE, Method.IA, Method.QN_MAX):
        if required > n:
            return np.full(k, np.inf)
        if method is Method.QN_MAX:
            return np.full(k, np.sort(cal.max(axis=1))[required - 1])
        return np.sort(cal, axis=0)[required - 1]
    tune = np.sort(tune, axis=0)
    ranks = np.stack([np.searchsorted(t, c, side="right") for t, c in zip(tune.T, cal.T)])
    levels = _rank_levels(method, ranks.max(axis=0), len(tune), alpha, ranks)
    table = np.vstack([np.full(k, -np.inf), tune[:-1], np.full(k, np.inf)])
    return table[np.broadcast_to(levels, (k,)), np.arange(k)]


@given(pooled_cells())
@settings(max_examples=400, deadline=None)
def test_cell_thresholds_equal_fit_method_on_the_gathered_rows(case):
    method, kind, scores, tune, blocks, rows, alpha = case
    pool = _score_rows(method, scores, tune)
    kept = [None if a is None else a.copy() for a in (pool.columns, pool.table, pool.ranks)]
    for cols in blocks:
        thresholds = pool.cell(rows.size, alpha, cols)
        margins, levels = thresholds(rows)
        # Each trial gets its own arrays, also on rank overflow, and MINIMAX
        # always shares one level.
        again = thresholds(rows)
        assert not np.shares_memory(margins, again[0])
        assert levels is None or not np.shares_memory(levels, again[1])
        assert method is not Method.MINIMAX or levels.shape == (1,)
        cal = scores[rows][:, cols]
        want = fit_method(method, cal, alpha, kind, tune[:, cols])
        assert margins.dtype == np.float64
        assert margins.tobytes() == want.margins(margins.size).tobytes()
        assert margins.tobytes() == sorted_thresholds(method, cal, tune[:, cols], alpha).tobytes()
        m = len(tune)
        if levels is not None:
            assert np.array_equal(np.broadcast_to(levels, margins.shape) / m, want.per_target_level)
        n_targets = margins.size
        required = _conformal_rank(rows.size, alpha)
        if method is Method.IA:
            required = _conformal_rank(rows.size, 1.0 - (1.0 - alpha) ** (1.0 / n_targets))
        if required > rows.size:  # starved: no finite threshold certifies the level
            assert np.all(margins == np.inf) and (levels is None or np.all(levels == m))
        elif levels is not None and tune.min() > scores.max():  # every rank is 0
            assert np.all(margins == -np.inf) and np.all(levels == 0)
    # A trial partitions its own gathered copies, never the pool.
    after = (pool.columns, pool.table, pool.ranks)
    assert all(a is None or np.array_equal(a, b) for a, b in zip(kept, after))
