"""Conformal calibration strategies for joint coverage over several targets.

``fit_method(method, cal_scores, alpha, kind, tune_scores=None)`` is the one
way to calibrate.  It takes a matrix of calibration scores (one column per
target) and returns per-target score thresholds.  A future target vector is
covered when every per-target score lands at or below its threshold, so
joint coverage is controlled by how the thresholds are chosen:

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
                their sum subject to the joint-coverage constraint; with one
                target its level is MINIMAX's.

``MINIMAX`` and ``COPULA`` need tuning scores that are disjoint from the
calibration scores; the others ignore the tuning set.  Every method takes
the ceil((1 - a)(n + 1))-th smallest of n per-row values, with a = alpha
(IA's corrected level for IA).  When that rank exceeds n, a is too small for
n rows to certify anything: every threshold is +inf and every CDF level is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scores import ScoreKind, _ceil_rank, interval_bounds


class Method(Enum):
    SINGLE = "single"
    IA = "ia"
    QN_MAX = "qn_max"
    COPULA = "copula"
    MINIMAX = "minimax"


def _conformal_rank(n: int, alpha: float) -> int:
    """The split-conformal rank ceil((1 - alpha) * (n + 1)) of n calibration scores."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _ceil_rank((1.0 - alpha) * (n + 1))


def _kth_smallest(values: np.ndarray, rank: int):
    """The rank-th smallest along the last axis of ``values``, +inf when rank
    exceeds their count; every calibration threshold is one, of scores, row
    maxima or tuning ranks.  ``values`` is scratch, partitioned in place:
    every caller passes a gathered copy."""
    if rank > values.shape[-1]:
        return np.full(values.shape[:-1], math.inf)
    values.partition(rank - 1)
    return values[rank - 1] if values.ndim == 1 else values[:, rank - 1].copy()


@dataclass(frozen=True)
class Calibration:
    """Fitted thresholds for one method, score kind, and level.

    ``per_target_zeta`` holds the (K,) raw-score thresholds of every method
    (K copies of one threshold for QN_MAX); infinite entries mean the
    corresponding interval side is uninformative.  ``per_target_level`` keeps
    the CDF methods' levels in [0, 1] (K copies of one max-CDF level for
    MINIMAX).
    """

    method: Method
    score_kind: ScoreKind
    alpha: float
    per_target_zeta: np.ndarray
    per_target_level: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("per_target_zeta", "per_target_level"):
            if getattr(self, name) is not None:
                values = np.asarray(getattr(self, name), dtype=np.float64)
                values.setflags(write=False)
                object.__setattr__(self, name, values)

    def margins(self, n_targets: int) -> np.ndarray:
        """Per-target raw-score thresholds, checked against the target count."""
        if self.per_target_zeta.size != n_targets:
            raise ValueError("calibration was fitted for a different target count")
        return self.per_target_zeta


def _check_scores(scores: np.ndarray, ndim: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != ndim or scores.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-d score array")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def fit_cdf(tune_scores: np.ndarray) -> np.ndarray:
    """One target's empirical CDF: its checked tuning scores, sorted and
    read-only.  A score's CDF value is the count of samples at or below it
    over their number."""
    samples = np.sort(_check_scores(tune_scores, 1))
    samples.setflags(write=False)
    return samples


def _rank_levels(method: Method, row_max: np.ndarray, m: int, alpha: float, ranks=None) -> np.ndarray:
    """Integer per-target CDF levels j in [0, m] for MINIMAX or COPULA.

    Calibration row i lies in the box of levels j when its rank is at most
    j[k] in every target row k of the (K, n) ``ranks``.  With required =
    ceil((1 - alpha)(n + 1)), MINIMAX shares one level among all targets (once
    without ``ranks``): the required-th smallest of the rows' largest ranks
    ``row_max``, the least symmetric box holding ``required`` rows.  COPULA
    starts there and lowers each coordinate in turn to the required-th
    smallest rank among the rows the other coordinates keep inside (boolean
    masks: a running AND over those visited, suffix ANDs over the rest).  One
    sweep ends at a componentwise-minimal box: lowering a coordinate only
    shrinks the row sets the others count, and the required-th smallest over
    a subset is never smaller, so a second sweep would lower no level.  When
    ``required`` exceeds n no finite level certifies 1 - alpha: every level
    is m.  ``row_max`` is scratch, partitioned in place.
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
    kept = np.ones(n, dtype=bool)  # rows kept by every coordinate before k, at its final level
    later = [kept]  # later[-1 - k]: rows kept by every coordinate after k, at its first level
    for row in below[:0:-1]:
        later.append(later[-1] & row)
    for k, row in enumerate(ranks):
        candidate = _kth_smallest(row[kept & later[-1 - k]], required)
        if candidate < levels[k]:
            levels[k] = candidate
            below[k] = row <= candidate
        kept = kept & below[k]
    return levels


@dataclass(frozen=True)
class _ScoredPool:
    """What ``method`` reads of a set of scored rows, computed once; ``cell``
    fixes a cell's rank, slices and row maxima, and each trial gathers its
    rows from there.

    ``columns`` holds the checked scores target by target, (K, n).  The CDF
    methods keep each target's threshold at level j in a (K, m + 1) ``table``:
    the j-th tuning order statistic, -inf at j = 0 and +inf at j = m (every
    transformed score), and the (K, n) integer tuning ``ranks`` of the rows.
    """

    method: Method
    columns: np.ndarray
    table: np.ndarray | None = None
    ranks: np.ndarray | None = None

    def cell(self, n: int, alpha: float, cols: slice = slice(None)):
        """Calibration of the columns ``cols`` on ``n`` rows at level ``alpha``,
        its rank (IA's root-corrected), slices and row maxima (of the scores
        for QN_MAX, of the tuning ranks for MINIMAX and COPULA) fixed once: a
        function of row indices that gathers them, partitions that copy and
        returns new (K,) thresholds (+inf on rank overflow) and the CDF
        methods' integer levels ((1,) for MINIMAX, None for the others)."""
        method, columns = self.method, self.columns[cols]
        n_targets = len(columns)
        if method is Method.SINGLE and n_targets != 1:
            raise ValueError("SINGLE calibration applies to exactly one target")
        rank = _conformal_rank(n, alpha)
        if method is Method.IA:
            rank = _conformal_rank(n, 1.0 - (1.0 - alpha) ** (1.0 / n_targets))
        if method in (Method.SINGLE, Method.IA):  # one threshold per target row
            return lambda rows: (_kth_smallest(columns.take(rows, axis=1), rank), None)
        if method is Method.QN_MAX:
            row_max = columns.max(axis=0)
            return lambda rows: (np.full(n_targets, _kth_smallest(row_max.take(rows), rank)), None)
        table, ranks, targets = self.table[cols], self.ranks[cols], np.arange(n_targets)
        row_max, m = ranks.max(axis=0), table.shape[1] - 1
        lookup = lambda levels: (table[targets, levels], levels)
        if method is Method.MINIMAX:  # the function keeps the row maxima, not the ranks
            return lambda rows: lookup(_rank_levels(method, row_max.take(rows), m, alpha))
        return lambda rows: lookup(
            _rank_levels(method, row_max.take(rows), m, alpha, ranks.take(rows, axis=1))
        )


def _score_rows(method: Method, scores, tune_scores=None) -> _ScoredPool:
    """Check (n, K) scores once and reduce them to what ``method`` reads."""
    if not isinstance(method, Method):
        raise ValueError(f"unknown method {method!r}")
    scores = _check_scores(scores, 2)
    columns = np.ascontiguousarray(scores.T)
    if method not in (Method.MINIMAX, Method.COPULA):
        return _ScoredPool(method, columns)
    if tune_scores is None:
        raise ValueError(f"{method.value} calibration needs tuning scores")
    tune_scores = _check_scores(tune_scores, 2)
    if tune_scores.shape[1] != scores.shape[1]:
        raise ValueError("tuning and calibration scores disagree on target count")
    cdfs = tuple(fit_cdf(col) for col in tune_scores.T)
    table = np.stack([np.r_[-math.inf, c[:-1], math.inf] for c in cdfs])
    # (K, n) integer ranks: how many tuning scores of each target lie at or
    # below.  A CDF value is its rank over m, so the CDF methods compare integers.
    # Needles in sorted order give the same counts, each search starting where the last ended.
    ranks = np.empty(columns.shape, dtype=np.intp)
    for c, col, out in zip(cdfs, columns, ranks):
        order = np.argsort(col)
        out[order] = np.searchsorted(c, col[order], side="right")
    return _ScoredPool(method, columns, table, ranks)


def fit_method(
    method: Method,
    cal_scores: np.ndarray,
    alpha: float,
    score_kind: ScoreKind,
    tune_scores: np.ndarray | None = None,
) -> Calibration:
    """Calibrate ``method`` on (n, K) ``cal_scores`` at miscoverage ``alpha``;
    MINIMAX and COPULA also read (m, K) ``tune_scores``."""
    pool = _score_rows(method, cal_scores, tune_scores)
    n = pool.columns.shape[1]
    zeta, levels = pool.cell(n, alpha)(np.arange(n))
    if levels is not None:
        levels = np.broadcast_to(levels, zeta.shape) / (pool.table.shape[1] - 1)
    return Calibration(method, score_kind, alpha, zeta, levels)


def interval_array(lo: np.ndarray, hi: np.ndarray, calib: Calibration) -> tuple[np.ndarray, np.ndarray]:
    """Per-target prediction intervals (lo, hi), each (n, K), for (n, K) quantile bands."""
    return interval_bounds(lo, hi, calib.margins(np.asarray(lo).shape[1]), calib.score_kind)


def coverage_mask(scores: np.ndarray, calib: Calibration) -> np.ndarray:
    """Boolean (n, K) mask of per-target coverage given raw scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores <= calib.margins(scores.shape[1])
