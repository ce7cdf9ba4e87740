"""Nonconformity scores, the finite-sample empirical quantile, and inversion.

The two-sided scores measure how far a target value sits outside its
estimated quantile band; negative values mean the band already contains the
target.  The width-normalized variants rescale each target's score by the
ratio of the first target's band width to its own, which puts all targets on
a shared scale before any max is taken across them.  One-sided variants keep
only the upper violation, for settings where only an upper bound matters.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import IntervalSet, QuantileRow

# Below this band width the normalized score's scale ratio is numerically
# meaningless, so we refuse to compute it.
MIN_BAND_WIDTH = 1e-12

# Absolute slack when turning beta * m into an order-statistic rank.  Ranks
# arrive as ratios like ceil((1 - alpha) * (n + 1)) / n, and the round trip
# ratio -> float -> ratio * m can land a few ulps off an exact integer.
_RANK_EPS = 1e-9


class ScoreKind(Enum):
    """Which nonconformity score a pipeline uses."""

    CQR = "cqr"
    QN = "qn"
    CQR_ONE_SIDED = "cqr_one_sided"
    QN_ONE_SIDED = "qn_one_sided"

    @property
    def one_sided(self) -> bool:
        return self in (ScoreKind.CQR_ONE_SIDED, ScoreKind.QN_ONE_SIDED)

    @property
    def normalized(self) -> bool:
        return self in (ScoreKind.QN, ScoreKind.QN_ONE_SIDED)


def _ceil_rank(x: float) -> int:
    """ceil(x) with snapping for values a few ulps away from an integer."""
    nearest = round(x)
    if abs(x - nearest) < _RANK_EPS * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def emp_quantile(beta: float, values: np.ndarray) -> float:
    """Order-statistic quantile: the ceil(beta * m)-th smallest of m values.

    ``beta`` may exceed 1 (conformal calibration passes ranks like
    ceil((1 - alpha) * (n + 1)) / n).  When the implied rank exceeds m there
    is no valid finite threshold and +inf is returned.

    Parameters
    ----------
    beta : float
        Quantile level, must be positive.
    values : array_like
        Non-empty sample.

    Returns
    -------
    float
        The rank-th order statistic, or +inf when the rank overflows.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("emp_quantile needs a non-empty 1-d sample")
    if not beta > 0.0:
        raise ValueError("quantile level must be positive")
    m = values.size
    rank = _ceil_rank(beta * m)
    if rank > m:
        return math.inf
    return float(np.partition(values, rank - 1)[rank - 1])


def _band_widths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    widths = hi - lo
    bad = widths < MIN_BAND_WIDTH
    if np.any(bad):
        k = int(np.argwhere(bad)[0][-1])
        raise ValueError(
            f"target {k} has a quantile band narrower than {MIN_BAND_WIDTH}; "
            "width-normalized scores are undefined"
        )
    return widths


def _scale_ratios(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Width ratio of the first target's band to each target's band."""
    widths = _band_widths(np.atleast_2d(lo), np.atleast_2d(hi))
    return widths[:, :1] / widths


def cqr_score(q: QuantileRow, z: np.ndarray, k: int) -> float:
    """Two-sided band violation max(lo - z, z - hi) for target k."""
    z = np.asarray(z, dtype=np.float64)
    return float(max(q.lo[k] - z[k], z[k] - q.hi[k]))


def qn_score(q: QuantileRow, z: np.ndarray, k: int) -> float:
    """Width-normalized two-sided score for target k.

    The raw violation is multiplied by (hi[0] - lo[0]) / (hi[k] - lo[k]), so
    every target's score lives on the first target's band scale.
    """
    ratio = _scale_ratios(q.lo, q.hi)[0, k]
    return cqr_score(q, z, k) * float(ratio)


def one_sided_score(q: QuantileRow, z: np.ndarray, k: int, kind: ScoreKind) -> float:
    """Upper-bound violation z - hi for target k, optionally width-normalized."""
    if not kind.one_sided:
        raise ValueError("one_sided_score needs a one-sided ScoreKind")
    z = np.asarray(z, dtype=np.float64)
    raw = float(z[k] - q.hi[k])
    if kind is ScoreKind.QN_ONE_SIDED:
        raw *= float(_scale_ratios(q.lo, q.hi)[0, k])
    return raw


def score_value(q: QuantileRow, z: np.ndarray, k: int, kind: ScoreKind) -> float:
    """Dispatch to the requested score for a single (row, target) pair."""
    if kind is ScoreKind.CQR:
        return cqr_score(q, z, k)
    if kind is ScoreKind.QN:
        return qn_score(q, z, k)
    return one_sided_score(q, z, k, kind)


def score_matrix(lo: np.ndarray, hi: np.ndarray, targets: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Vectorized scores for every (sample, target) pair.

    Parameters
    ----------
    lo, hi : ndarray, shape (n, K)
        Quantile band per sample and target.
    targets : ndarray, shape (n, K)
        Realized target values.
    kind : ScoreKind

    Returns
    -------
    ndarray, shape (n, K)
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if kind.one_sided:
        raw = targets - hi
    else:
        raw = np.maximum(lo - targets, targets - hi)
    if kind.normalized:
        raw = raw * _scale_ratios(lo, hi)
    return raw


def invert_threshold(q: QuantileRow, k: int, zeta: float, kind: ScoreKind) -> tuple[float, float]:
    """Endpoints of {z : score(q, z, k) <= zeta} for one target.

    For two-sided kinds this is the band widened by the (de-normalized)
    margin on both sides; for one-sided kinds the lower endpoint is -inf.
    zeta = +inf yields (-inf, +inf).  A negative margin can empty the
    interval, in which case the returned pair is inverted (lo > hi).
    """
    if math.isinf(zeta) and zeta > 0:
        return (-math.inf, math.inf)
    margin = zeta
    if kind.normalized:
        margin = zeta / float(_scale_ratios(q.lo, q.hi)[0, k])
    hi = float(q.hi[k]) + margin
    if kind.one_sided:
        return (-math.inf, hi)
    return (float(q.lo[k]) - margin, hi)


def interval_bounds(
    lo: np.ndarray,
    hi: np.ndarray,
    zetas: float | np.ndarray,
    kind: ScoreKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``invert_threshold`` over (n, K) quantile arrays.

    ``zetas`` is a scalar margin shared by all targets or a (K,) vector of
    per-target margins, in the score's own domain.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    margins = np.broadcast_to(np.asarray(zetas, dtype=np.float64), lo.shape).copy()
    if kind.normalized:
        finite = np.isfinite(margins)
        ratios = _scale_ratios(lo, hi)
        margins[finite] = margins[finite] / np.broadcast_to(ratios, lo.shape)[finite]
    out_hi = hi + margins
    if kind.one_sided:
        out_lo = np.full_like(out_hi, -math.inf)
    else:
        out_lo = lo - margins
    return out_lo, out_hi


def intervals_from_row(q: QuantileRow, zetas: np.ndarray, kind: ScoreKind) -> IntervalSet:
    """Per-target intervals for one quantile row and per-target margins."""
    zetas = np.asarray(zetas, dtype=np.float64)
    if zetas.shape != (q.n_targets,):
        raise ValueError("need one margin per target")
    pairs = [invert_threshold(q, k, float(zetas[k]), kind) for k in range(q.n_targets)]
    lo, hi = zip(*pairs)
    return IntervalSet(lo=np.array(lo), hi=np.array(hi))
