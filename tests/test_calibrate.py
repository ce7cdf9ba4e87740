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
    EmpiricalCdf,
    Method,
    QuantileRow,
    ScoreKind,
    calibrate_copula,
    calibrate_ia,
    calibrate_maxscore,
    calibrate_minimax,
    calibrate_single,
    conservative_level,
    coverage_mask,
    fit_cdf,
    fit_method,
    intervals_for,
)
from mtconf.calibrate import _rank_levels, interval_array


def test_single_order_statistic_cases():
    scores = np.arange(1.0, 100.0)  # 1..99
    calib = calibrate_single(scores, 0.1)
    assert calib.lam == 90.0
    assert math.isinf(calibrate_single(np.arange(5.0), 0.1).lam)


def test_conservative_level_values():
    assert conservative_level(99, 0.1) == pytest.approx(90 / 99)
    assert conservative_level(100, 0.1) > 0.9
    with pytest.raises(ValueError):
        conservative_level(10, 0.0)


def test_single_rejects_bad_scores():
    with pytest.raises(ValueError):
        calibrate_single(np.array([]), 0.1)
    with pytest.raises(ValueError):
        calibrate_single(np.array([1.0, np.inf]), 0.1)


def test_ia_reduces_to_single_for_one_target():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=80)
    ia = calibrate_ia(scores[:, None], 0.1)
    single = calibrate_single(scores, 0.1)
    assert ia.per_target_zeta[0] == single.lam


def test_ia_uses_root_corrected_level():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(200, 3))
    alpha = 0.1
    alpha_1 = 1.0 - (1.0 - alpha) ** (1.0 / 3.0)
    assert alpha_1 == pytest.approx(0.03451, abs=5e-6)
    ia = calibrate_ia(scores, alpha)
    for k in range(3):
        assert ia.per_target_zeta[k] == calibrate_single(scores[:, k], alpha_1).lam


def test_maxscore_equals_single_on_identical_columns():
    rng = np.random.default_rng(2)
    col = rng.normal(size=150)
    scores = np.column_stack([col, col, col])
    assert calibrate_maxscore(scores, 0.2).lam == calibrate_single(col, 0.2).lam


def test_empirical_cdf_counts():
    cdf = fit_cdf(np.array([1.0, 2.0, 3.0]))
    assert cdf.eval(2.0) == pytest.approx(2 / 3)
    assert cdf.eval(0.5) == 0.0
    assert cdf.eval(99.0) == 1.0
    assert np.allclose(cdf(np.array([0.5, 2.0])), [0.0, 2 / 3])
    with pytest.raises(ValueError):
        fit_cdf(np.array([]))


def test_minimax_k1_covers_the_same_calibration_subset_as_single():
    # With the CDF fitted on the calibration scores themselves the rank
    # transform is order-preserving, so the threshold keeps the same covered
    # subset as plain split conformal.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        scores = rng.normal(size=(n, 1))
        mm = calibrate_minimax(scores, scores, 0.1)
        single = calibrate_single(scores[:, 0], 0.1)
        got = scores[:, 0] <= mm.per_target_zeta[0]
        want = scores[:, 0] <= single.lam
        assert np.array_equal(got, want)


def test_minimax_comonotone_columns_share_one_zeta():
    rng = np.random.default_rng(3)
    tune = rng.normal(size=300)
    cal = rng.normal(size=200)
    mm = calibrate_minimax(
        np.column_stack([tune, tune]), np.column_stack([cal, cal]), 0.1
    )
    assert mm.per_target_zeta[0] == mm.per_target_zeta[1]


def test_minimax_small_sample_caps_level_and_goes_infinite():
    rng = np.random.default_rng(4)
    tune = rng.normal(size=(50, 2))
    cal = rng.normal(size=(5, 2))
    mm = calibrate_minimax(tune, cal, 0.1)
    assert mm.lam == 1.0
    assert np.all(np.isinf(mm.per_target_zeta))
    covered = coverage_mask(rng.normal(size=(40, 2)), mm)
    assert covered.all()


def test_copula_k1_matches_minimax_level():
    rng = np.random.default_rng(5)
    tune = rng.normal(size=(120, 1))
    cal = rng.normal(size=(90, 1))
    cp = calibrate_copula(tune, cal, 0.1)
    mm = calibrate_minimax(tune, cal, 0.1)
    assert cp.per_target_level[0] == pytest.approx(mm.lam)
    assert cp.per_target_zeta[0] == mm.per_target_zeta[0]


def test_copula_symmetric_on_comonotone_columns():
    rng = np.random.default_rng(6)
    tune = rng.normal(size=250)
    cal = rng.normal(size=180)
    cp = calibrate_copula(
        np.column_stack([tune, tune]), np.column_stack([cal, cal]), 0.1
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
    cp = calibrate_copula(tune, cal, 0.1)
    mm = calibrate_minimax(tune, cal, 0.1)
    assert np.all(cp.per_target_level <= mm.lam + 1e-12)


def test_copula_small_sample_sets_full_levels():
    rng = np.random.default_rng(8)
    cp = calibrate_copula(rng.normal(size=(30, 2)), rng.normal(size=(4, 2)), 0.05)
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
        covered += scores[i] <= calibrate_single(rest, alpha).lam
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
        row = QuantileRow(lo=lo[i], hi=hi[i])
        covered += bool(intervals_for(row, calib).contains(z[i]).all())
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

    mm = calibrate_minimax(draw(n_tune), draw(5000), 0.1)
    covered = coverage_mask(draw(20000), mm)
    per_target = covered.mean(axis=0)
    assert per_target.max() - per_target.min() <= 2.0 / math.sqrt(n_tune) + 0.02


def test_fit_method_contracts():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=(60, 2))
    with pytest.raises(ValueError, match="exactly one target"):
        fit_method(Method.SINGLE, scores, 0.1, ScoreKind.CQR)
    single = fit_method(Method.SINGLE, scores[:, :1], 0.1, ScoreKind.CQR)
    assert single.per_target_zeta.shape == (1,)
    with pytest.raises(ValueError, match="needs tuning scores"):
        fit_method(Method.MINIMAX, scores, 0.1, ScoreKind.CQR)
    with pytest.raises(ValueError, match="needs tuning scores"):
        fit_method(Method.COPULA, scores, 0.1, ScoreKind.CQR)
    with pytest.raises(ValueError, match="target count"):
        calibrate_minimax(rng.normal(size=(30, 3)), scores, 0.1)


def test_calibration_margins_expand_and_validate():
    calib = Calibration(method=Method.QN_MAX, score_kind=ScoreKind.QN, alpha=0.1, lam=2.0)
    assert np.all(calib.margins(3) == 2.0)
    fitted = Calibration(
        method=Method.IA,
        score_kind=ScoreKind.CQR,
        alpha=0.1,
        per_target_zeta=np.array([1.0, 2.0]),
    )
    with pytest.raises(ValueError, match="different target count"):
        fitted.margins(3)


def test_ia_k1_intervals_match_single_conformal():
    rng = np.random.default_rng(13)
    lo = rng.normal(size=(40, 1))
    hi = lo + rng.uniform(0.5, 1.5, size=(40, 1))
    z = rng.normal(size=(40, 1))
    from mtconf.scores import score_matrix

    scores = score_matrix(lo, hi, z, ScoreKind.CQR)
    ia = fit_method(Method.IA, scores, 0.2, ScoreKind.CQR)
    single = fit_method(Method.SINGLE, scores, 0.2, ScoreKind.CQR)
    row = QuantileRow(lo=lo[0], hi=hi[0])
    got = intervals_for(row, ia)
    want = intervals_for(row, single)
    assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)


def test_interval_array_matches_row_inversion():
    rng = np.random.default_rng(14)
    lo = rng.normal(size=(10, 2))
    hi = lo + rng.uniform(0.2, 2.0, size=(10, 2))
    calib = Calibration(
        method=Method.IA,
        score_kind=ScoreKind.CQR,
        alpha=0.1,
        per_target_zeta=np.array([0.3, -0.1]),
    )
    ilo, ihi = interval_array(lo, hi, calib)
    for i in range(10):
        ivs = intervals_for(QuantileRow(lo=lo[i], hi=hi[i]), calib)
        assert np.allclose(ivs.lo, ilo[i]) and np.allclose(ivs.hi, ihi[i])


def test_single_split_conformal_marginal_coverage():
    # Classic guarantee: P(new score <= threshold) >= 1 - alpha, checked by
    # simulation over many repetitions of (calibrate, test one point).
    rng = np.random.default_rng(15)
    alpha, n, reps = 0.2, 19, 4000
    draws = rng.normal(size=(reps, n + 1))
    hits = 0
    for row in draws:
        hits += row[-1] <= calibrate_single(row[:-1], alpha).lam
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
    levels = _rank_levels(method, ranks, m, percent / 100)
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


@given(rank_tables(), st.integers(1, 99), st.integers(1, 99))
@settings(max_examples=200, deadline=None)
def test_minimax_rank_level_is_monotone_in_alpha(table, a, b):
    ranks, m = table
    small, large = sorted((a, b))
    assert np.all(
        _rank_levels(Method.MINIMAX, ranks, m, small / 100)
        >= _rank_levels(Method.MINIMAX, ranks, m, large / 100)
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
    wide = calibrate_minimax(tune, cal, small / 100).per_target_zeta
    narrow = calibrate_minimax(tune, cal, large / 100).per_target_zeta
    assert np.all(wide >= narrow)


def test_copula_levels_are_not_monotone_in_alpha():
    # The descent stops at a componentwise-minimal box, not at the least sum:
    # at alpha = 0.6 it returns (5, 5) though (1, 6) also holds the 5 rows.
    ranks = np.array([(5, 1), (5, 2), (5, 3), (5, 4), (5, 5)] + [(1, 6)] * 6)
    assert _rank_levels(Method.COPULA, ranks, 6, 0.6).tolist() == [5, 5]
    assert _rank_levels(Method.COPULA, ranks, 6, 0.55).tolist() == [1, 6]
    assert rows_inside(ranks, np.array([1, 6])) >= required_rows(60, 11)
