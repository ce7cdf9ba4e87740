"""Conformal calibration strategies for joint coverage over several targets.

All strategies consume a matrix of calibration scores (one column per target)
and produce per-target score thresholds.  A future target vector is covered
when every per-target score lands at or below its threshold, so joint
coverage is controlled by how the thresholds are chosen:

* ``SINGLE``    plain split conformal for one target.
* ``IA``        independent per-target calibration at the Bonferroni-like
                corrected level 1 - (1 - alpha)^(1/K); exact only when the
                target scores are independent, conservative otherwise.
* ``QN_MAX``    calibrates the per-sample maximum score once; sensible when
                the score already puts all targets on one scale.
* ``MINIMAX``   rank-transforms each target's scores through its tuning-set
                empirical CDF before taking the maximum, which equalizes the
                per-target miscoverage without any distributional assumption.
* ``COPULA``    estimates the score dependence with an empirical copula on
                the tuning transforms and picks per-target levels minimizing
                their sum subject to the joint-coverage constraint.

``MINIMAX`` and ``COPULA`` need tuning scores that are disjoint from the
calibration scores; the others ignore the tuning set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .core import IntervalSet, QuantileRow
from .scores import (
    ScoreKind,
    _ceil_rank,
    interval_bounds,
    intervals_from_row,
)


class Method(Enum):
    SINGLE = "single"
    IA = "ia"
    QN_MAX = "qn_max"
    COPULA = "copula"
    MINIMAX = "minimax"


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF of a scalar score sample."""

    sorted_samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.sort(np.asarray(self.sorted_samples, dtype=np.float64))
        if samples.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("empirical CDF samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "sorted_samples", samples)

    @property
    def m(self) -> int:
        return self.sorted_samples.size

    def eval(self, zeta) -> np.ndarray | float:
        """Fraction of samples at or below ``zeta`` (vectorized)."""
        frac = np.searchsorted(self.sorted_samples, zeta, side="right") / self.m
        if np.ndim(zeta) == 0:
            return float(frac)
        return frac

    __call__ = eval


def fit_cdf(tune_scores: np.ndarray) -> EmpiricalCdf:
    """Empirical CDF of one target's tuning scores."""
    return EmpiricalCdf(sorted_samples=np.asarray(tune_scores, dtype=np.float64))


def _order_statistic(cdf: EmpiricalCdf, j: int) -> float:
    """The j-th smallest tuning sample, -inf for j = 0."""
    return -math.inf if j == 0 else float(cdf.sorted_samples[j - 1])


def _conformal_rank(n: int, alpha: float) -> int:
    """The split-conformal rank ceil((1 - alpha) * (n + 1)) of n calibration scores."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _ceil_rank((1.0 - alpha) * (n + 1))


def _kth_smallest(values: np.ndarray, rank: int):
    """The rank-th smallest of 1-d ``values``, +inf when rank exceeds their count;
    every calibration threshold is one, of scores, row maxima or tuning ranks."""
    if rank > values.size:
        return math.inf
    return np.partition(values, rank - 1)[rank - 1]


def conservative_level(n: int, alpha: float) -> float:
    """Finite-sample quantile level ceil((1 - alpha) * (n + 1)) / n."""
    return _conformal_rank(n, alpha) / n


@dataclass(frozen=True)
class Calibration:
    """Fitted thresholds for one method, score kind, and level.

    ``lam`` is the scalar threshold for SINGLE / QN_MAX (raw score domain)
    and the max-CDF level in [0, 1] for MINIMAX.  ``per_target_zeta`` holds
    raw-score thresholds for every method that has them; infinite entries
    mean the corresponding interval side is uninformative.  ``per_target_level``
    keeps the COPULA solution in CDF coordinates.  ``cdfs`` are the tuning
    CDFs for the methods that use them.
    """

    method: Method
    score_kind: ScoreKind
    alpha: float
    lam: float | None = None
    per_target_zeta: np.ndarray | None = None
    per_target_level: np.ndarray | None = None
    cdfs: tuple[EmpiricalCdf, ...] | None = None

    def __post_init__(self) -> None:
        if self.per_target_zeta is not None:
            zeta = np.asarray(self.per_target_zeta, dtype=np.float64)
            zeta.setflags(write=False)
            object.__setattr__(self, "per_target_zeta", zeta)
        if self.per_target_level is not None:
            lev = np.asarray(self.per_target_level, dtype=np.float64)
            lev.setflags(write=False)
            object.__setattr__(self, "per_target_level", lev)

    @property
    def n_targets(self) -> int:
        if self.per_target_zeta is not None:
            return self.per_target_zeta.size
        raise ValueError("scalar calibration has no fixed target count")

    def margins(self, n_targets: int) -> np.ndarray:
        """Per-target raw-score thresholds, expanded for scalar methods."""
        if self.per_target_zeta is not None:
            if self.per_target_zeta.size != n_targets:
                raise ValueError("calibration was fitted for a different target count")
            return self.per_target_zeta
        return np.full(n_targets, self.lam, dtype=np.float64)


def _check_scores(scores: np.ndarray, ndim: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != ndim or scores.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-d score array")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def calibrate_single(
    scores: np.ndarray, alpha: float, score_kind: ScoreKind = ScoreKind.CQR
) -> Calibration:
    """Split conformal threshold for one target.

    The threshold is the ceil((1 - alpha) * (n + 1))-th smallest calibration
    score, +inf when that rank exceeds n (alpha too small for the sample size
    to certify anything).
    """
    scores = _check_scores(scores, 1)
    lam = float(_kth_smallest(scores, _conformal_rank(scores.size, alpha)))
    return Calibration(method=Method.SINGLE, score_kind=score_kind, alpha=alpha, lam=lam)


def calibrate_ia(
    scores: np.ndarray, alpha: float, score_kind: ScoreKind = ScoreKind.CQR
) -> Calibration:
    """Independent per-target calibration at the K-th-root corrected level.

    Each target is calibrated on its own at alpha_1 = 1 - (1 - alpha)^(1/K),
    which yields joint coverage exactly 1 - alpha when the target scores are
    independent and over-covers under positive dependence.
    """
    return fit_method(Method.IA, scores, alpha, score_kind)


def calibrate_maxscore(
    scores: np.ndarray, alpha: float, score_kind: ScoreKind = ScoreKind.QN
) -> Calibration:
    """Single-threshold calibration of the row-wise maximum score."""
    return fit_method(Method.QN_MAX, scores, alpha, score_kind)


def _rank_levels(method: Method, row_max: np.ndarray, m: int, alpha: float, ranks=None) -> np.ndarray:
    """Integer per-target CDF levels j in [0, m] for MINIMAX or COPULA.

    Calibration row i lies in the box of levels j when its rank is at most
    j[k] in every target row k of the (K, n) ``ranks``.  With required =
    ceil((1 - alpha)(n + 1)), MINIMAX shares one level among all targets (once
    without ``ranks``): the required-th smallest of the rows' largest ranks
    ``row_max``, the least symmetric box holding ``required`` rows.  COPULA
    starts there and cyclically lowers each coordinate to the required-th
    smallest rank among the rows the other coordinates keep inside, a value
    every time attained by some row; coordinates never rise, so the sweep
    ends at a componentwise-minimal box.  A running per-row count of inside
    coordinates tells which rows the others keep.  When ``required`` exceeds
    n no finite level certifies 1 - alpha and every level is m.
    """
    n = row_max.size
    required = _conformal_rank(n, alpha)
    n_targets = 1 if ranks is None else len(ranks)
    if required > n:
        return np.full(n_targets, m)
    levels = np.full(n_targets, _kth_smallest(row_max, required))
    if method is Method.MINIMAX:
        return levels
    below = ranks <= levels[:, None]
    inside = below.sum(axis=0)
    changed = True
    while changed:
        changed = False
        for k in range(n_targets):
            others = inside - below[k] == n_targets - 1
            candidate = _kth_smallest(ranks[k][others], required)
            if candidate < levels[k]:
                levels[k] = candidate
                inside -= below[k]
                below[k] = ranks[k] <= candidate
                inside += below[k]
                changed = True
    return levels


def _calibrate_ranks(
    method: Method,
    cdfs: tuple[EmpiricalCdf, ...],
    row_max: np.ndarray,
    alpha: float,
    score_kind: ScoreKind,
    ranks: np.ndarray | None = None,
) -> Calibration:
    """MINIMAX or COPULA calibration from the calibration rows' tuning ranks.

    ``row_max`` holds each row's largest rank and ``ranks`` (COPULA only) all
    of them.  A level j maps back to the j-th tuning order statistic of its
    target (-inf at j = 0); level m accepts every transformed score, so it
    maps to +inf rather than to the largest tuning sample.
    """
    m = cdfs[0].m
    levels = np.broadcast_to(_rank_levels(method, row_max, m, alpha, ranks), (len(cdfs),))
    zeta = [math.inf if j == m else _order_statistic(cdf, j) for cdf, j in zip(cdfs, levels)]
    return Calibration(
        method=method,
        score_kind=score_kind,
        alpha=alpha,
        lam=float(levels[0]) / m if method is Method.MINIMAX else None,
        per_target_zeta=np.array(zeta),
        per_target_level=levels / m,
        cdfs=cdfs,
    )


def calibrate_minimax(
    tune_scores: np.ndarray,
    cal_scores: np.ndarray,
    alpha: float,
    score_kind: ScoreKind = ScoreKind.CQR,
) -> Calibration:
    """Joint calibration through per-target rank transforms.

    Each target's calibration scores are mapped through that target's
    tuning-set empirical CDF, the per-sample maximum of the transforms is
    calibrated like a single conformal score, and the resulting level is
    mapped back to one raw-score threshold per target.  Because all targets
    share one level on the transformed scale, their miscoverage rates are
    asymptotically equalized regardless of the score distributions.  Rank
    overflow (too few calibration rows for the level) gives level 1 and
    infinite thresholds.
    """
    return fit_method(Method.MINIMAX, cal_scores, alpha, score_kind, tune_scores)


def calibrate_copula(
    tune_scores: np.ndarray,
    cal_scores: np.ndarray,
    alpha: float,
    score_kind: ScoreKind = ScoreKind.CQR,
) -> Calibration:
    """Per-target levels from an empirical copula of the score transforms.

    The calibration scores are mapped to pseudo-observations through the
    tuning CDFs and the fitted copula is their joint empirical CDF.  The
    levels v seek a small sum(v) subject to the copula putting mass at least
    ceil((1 - alpha) * (n + 1)) / n on the box (-inf, v]; the finite-sample
    rank matches the plain conformal correction, so with one target the
    solution coincides with the minimax level.  The coordinate descent of
    ``_rank_levels`` returns a box no single level can shrink, which need
    not have the least sum.
    """
    return fit_method(Method.COPULA, cal_scores, alpha, score_kind, tune_scores)


@dataclass(frozen=True)
class _ScoredPool:
    """What ``method`` reads of a set of scored rows, computed once; a
    calibration on any subset of the rows gathers from here.

    ``columns`` holds the checked scores target by target, (K, n).  Per
    column block a calibration may cover (``blocks``), ``row_max[b]`` is each
    row's largest score (QN_MAX) or tuning rank (MINIMAX, COPULA) in it; the
    CDF methods keep the tuning ``cdfs`` and COPULA the (K, n) ``ranks``.
    """

    method: Method
    score_kind: ScoreKind
    columns: np.ndarray
    blocks: tuple[slice, ...]
    row_max: np.ndarray | None = None
    cdfs: tuple[EmpiricalCdf, ...] | None = None
    ranks: np.ndarray | None = None

    def calibrate(self, rows: np.ndarray, alpha: float, block: int = 0) -> Calibration:
        """Calibrate on rows ``rows`` and the target columns ``blocks[block]``."""
        method, kind, cols = self.method, self.score_kind, self.blocks[block]
        n = rows.size
        rank = _conformal_rank(n, alpha)
        if self.row_max is None:  # SINGLE or IA: one threshold per target row
            cal = np.take(self.columns[cols], rows, axis=1)
            if method is Method.IA:
                rank = _conformal_rank(n, 1.0 - (1.0 - alpha) ** (1.0 / len(cal)))
            zeta = np.array([_kth_smallest(col, rank) for col in cal], dtype=np.float64)
            lam = float(zeta[0]) if method is Method.SINGLE else None
            return Calibration(method, kind, alpha, lam=lam, per_target_zeta=zeta)
        row_max = np.take(self.row_max[block], rows)
        if method is Method.QN_MAX:
            return Calibration(method, kind, alpha, lam=float(_kth_smallest(row_max, rank)))
        ranks = None if self.ranks is None else np.take(self.ranks[cols], rows, axis=1)
        return _calibrate_ranks(method, self.cdfs[cols], row_max, alpha, kind, ranks)


def _score_rows(
    method: Method, score_kind: ScoreKind, scores, tune_scores=None, blocks=(slice(None),)
) -> _ScoredPool:
    """Check (n, K) scores once and reduce them to what ``method`` reads."""
    if not isinstance(method, Method):
        raise ValueError(f"unknown method {method!r}")
    scores = _check_scores(scores, 2)
    if method is Method.SINGLE and any(scores[:, cols].shape[1] != 1 for cols in blocks):
        raise ValueError("SINGLE calibration applies to exactly one target")
    columns = np.ascontiguousarray(scores.T)
    pool = partial(_ScoredPool, method, score_kind, columns, blocks)
    block_max = lambda rows: np.stack([rows[cols].max(axis=0) for cols in blocks])
    if method in (Method.SINGLE, Method.IA):
        return pool()
    if method is Method.QN_MAX:
        return pool(block_max(columns))
    if tune_scores is None:
        raise ValueError(f"{method.value} calibration needs tuning scores")
    tune_scores = _check_scores(tune_scores, 2)
    if tune_scores.shape[1] != scores.shape[1]:
        raise ValueError("tuning and calibration scores disagree on target count")
    cdfs = tuple(fit_cdf(col) for col in tune_scores.T)
    # (K, n) integer ranks: how many tuning scores of each target lie at or
    # below.  A CDF value is its rank over m, so the CDF methods compare integers.
    ranks = np.stack(
        [np.searchsorted(c.sorted_samples, col, side="right") for c, col in zip(cdfs, columns)]
    )
    return pool(block_max(ranks), cdfs, ranks if method is Method.COPULA else None)


def fit_method(
    method: Method,
    cal_scores: np.ndarray,
    alpha: float,
    score_kind: ScoreKind,
    tune_scores: np.ndarray | None = None,
) -> Calibration:
    """Calibrate ``method`` on the given scores; one entry point for harnesses."""
    pool = _score_rows(method, score_kind, cal_scores, tune_scores)
    return pool.calibrate(np.arange(pool.columns.shape[1]), alpha)


def intervals_for(q: QuantileRow, calib: Calibration) -> IntervalSet:
    """Per-target prediction intervals for one quantile row."""
    return intervals_from_row(q, calib.margins(q.n_targets), calib.score_kind)


def interval_array(lo: np.ndarray, hi: np.ndarray, calib: Calibration) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized intervals for (n, K) quantile arrays."""
    return interval_bounds(lo, hi, calib.margins(np.asarray(lo).shape[1]), calib.score_kind)


def coverage_mask(scores: np.ndarray, calib: Calibration) -> np.ndarray:
    """Boolean (n, K) mask of per-target coverage given raw scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores <= calib.margins(scores.shape[1])
