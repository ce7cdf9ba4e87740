"""Score definitions over (n, K) bands, and interval inversion."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import KINDS_AND_TIES
from mtconf import ScoreKind
from mtconf.scores import interval_bounds, score_matrix


def quarter_grid(lo, widths, z, tied):
    """Bands and targets as drawn, or snapped to multiples of 1/4 with every
    band at least 1/4 wide: targets then often sit on a band end, so scores
    are exactly 0 and repeat across rows."""
    if not tied:
        return lo, lo + widths, z
    lo, z = np.round(4.0 * lo) / 4.0, np.round(4.0 * z) / 4.0
    return lo, lo + np.ceil(4.0 * widths) / 4.0, z


def test_cqr_hand_cases():
    lo, hi = np.zeros((3, 1)), np.ones((3, 1))
    z = np.array([[2.0], [0.5], [0.0]])
    assert score_matrix(lo, hi, z, ScoreKind.CQR)[:, 0].tolist() == [1.0, -0.5, 0.0]


def test_qn_reference_target_equals_cqr():
    lo, hi = np.zeros((1, 2)), np.array([[2.0, 1.0]])
    z = np.array([[3.0, 2.0]])
    qn, cqr = (score_matrix(lo, hi, z, kind)[0, 0] for kind in (ScoreKind.QN, ScoreKind.CQR))
    assert qn == cqr


def test_qn_hand_value_and_width_scale_invariance():
    lo = np.zeros((1, 2))
    narrow = score_matrix(lo, np.array([[2.0, 1.0]]), np.array([[3.0, 2.0]]), ScoreKind.QN)
    assert narrow[0, 1] == pytest.approx(2.0)
    # Scaling every band width by 10 leaves the ratio unchanged, so a target
    # with the same raw violation gets the same normalized score.
    wide = score_matrix(lo, np.array([[20.0, 10.0]]), np.array([[3.0, 11.0]]), ScoreKind.QN)
    assert wide[0, 1] == pytest.approx(2.0)


def test_zero_width_band_is_rejected_naming_the_target():
    lo, hi = np.array([[0.0, 0.5]]), np.array([[1.0, 0.5]])
    with pytest.raises(ValueError, match="target 1"):
        score_matrix(lo, hi, np.zeros((1, 2)), ScoreKind.QN)


@pytest.mark.parametrize("kind, tied", KINDS_AND_TIES)
def test_score_matrix_matches_scalar_dispatch(kind, tied):
    rng = np.random.default_rng(0)
    n, k = 20, 3
    lo = rng.normal(size=(n, k))
    widths = rng.uniform(0.2, 2.0, size=(n, k))
    lo, hi, z = quarter_grid(lo, widths, rng.normal(size=(n, k)), tied)
    got = score_matrix(lo, hi, z, kind)
    for i in range(n):
        for j in range(k):
            want = max(lo[i, j] - z[i, j], z[i, j] - hi[i, j])
            if kind.normalized:
                want *= (hi[i, 0] - lo[i, 0]) / (hi[i, j] - lo[i, j])
            assert got[i, j] == pytest.approx(want, abs=1e-12)


def test_interval_bounds_hand_cases():
    lo, hi = np.zeros((1, 1)), np.ones((1, 1))
    ilo, ihi = interval_bounds(lo, hi, 0.5, ScoreKind.CQR)
    assert (ilo[0, 0], ihi[0, 0]) == (-0.5, 1.5)
    ilo, ihi = interval_bounds(lo, hi, math.inf, ScoreKind.CQR)
    assert (ilo[0, 0], ihi[0, 0]) == (-math.inf, math.inf)


def test_negative_margin_can_empty_the_interval():
    ilo, ihi = interval_bounds(np.zeros((1, 1)), np.ones((1, 1)), -0.8, ScoreKind.CQR)
    assert ilo[0, 0] > ihi[0, 0]


@pytest.mark.parametrize("kind, tied", KINDS_AND_TIES)
def test_score_interval_round_trip(kind, tied):
    rng = np.random.default_rng(7)
    n, k = 400, 2
    lo = rng.normal(size=(n, k))
    widths = rng.uniform(0.05, 3.0, size=(n, k))
    lo, hi, z = quarter_grid(lo, widths, rng.normal(scale=2.0, size=(n, k)), tied)
    zetas = rng.normal(scale=1.5, size=k)
    scores = score_matrix(lo, hi, z, kind)
    ilo, ihi = interval_bounds(lo, hi, zetas, kind)
    by_score = scores <= zetas
    by_interval = (ilo <= z) & (z <= ihi)
    assert np.array_equal(by_score, by_interval)


@given(
    st.floats(-50, 50), st.floats(0.01, 50), st.floats(-200, 200), st.floats(-10, 10)
)
@settings(max_examples=300, deadline=None)
def test_cqr_round_trip_property(lo, width, z, zeta):
    lo, hi, z = np.array([[lo]]), np.array([[lo + width]]), np.array([[z]])
    score = score_matrix(lo, hi, z, ScoreKind.CQR)[0, 0]
    # cases within rounding distance of the decision boundary can land on
    # either side once zeta is added to an endpoint; skip that null set
    scale = max(1.0, abs(lo[0, 0]), abs(hi[0, 0]), abs(z[0, 0]))
    assume(abs(score - zeta) > 1e-12 * scale)
    ilo, ihi = interval_bounds(lo, hi, zeta, ScoreKind.CQR)
    assert (score <= zeta) == (ilo[0, 0] <= z[0, 0] <= ihi[0, 0])


def test_interval_bounds_broadcasts_scalar_and_infinite_margins():
    lo = np.zeros((3, 2))
    hi = np.ones((3, 2))
    ilo, ihi = interval_bounds(lo, hi, 0.25, ScoreKind.CQR)
    assert np.all(ilo == -0.25) and np.all(ihi == 1.25)
    ilo, ihi = interval_bounds(lo, hi, np.array([math.inf, 0.0]), ScoreKind.QN)
    assert np.all(np.isneginf(ilo[:, 0])) and np.all(np.isposinf(ihi[:, 0]))
    assert np.all(ilo[:, 1] == 0.0) and np.all(ihi[:, 1] == 1.0)


def test_interval_bounds_takes_one_margin_per_target():
    lo, hi = np.zeros((1, 2)), np.array([[1.0, 2.0]])
    ilo, ihi = interval_bounds(lo, hi, np.array([0.5, 0.0]), ScoreKind.CQR)
    assert ilo[0].tolist() == [-0.5, 0.0]
    assert ihi[0].tolist() == [1.5, 2.0]
    with pytest.raises(ValueError):
        interval_bounds(lo, hi, np.array([0.5, 0.0, 1.0]), ScoreKind.CQR)
