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

from .scores import ScoreKind, _ceil_rank, interval_bounds


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



def fit_cdf(tune_scores: np.ndarray) -> EmpiricalCdf:
    """Empirical CDF of one target's tuning scores."""
    return EmpiricalCdf(sorted_samples=np.asarray(tune_scores, dtype=np.float64))


def _conformal_rank(n: int, alpha: float) -> int:
    """The split-conformal rank ceil((1 - alpha) * (n + 1)) of n calibration scores."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _ceil_rank((1.0 - alpha) * (n + 1))


def _kth_smallest(values: np.ndarray, rank: int, scratch: bool = False):
    """The rank-th smallest along the last axis of ``values``, +inf when rank
    exceeds their count; every calibration threshold is one, of scores, row
    maxima or tuning ranks.  A ``scratch`` array is partitioned in place."""
    if rank > values.shape[-1]:
        return np.full(values.shape[:-1], math.inf)
    values = values if scratch else values.copy()
    values.partition(rank - 1)
    return values[rank - 1] if values.ndim == 1 else values[:, rank - 1].copy()


@dataclass(frozen=True)
class Calibration:
    """Fitted thresholds for one method, score kind, and level.

    ``lam`` is the scalar threshold for SINGLE / QN_MAX (raw score domain)
    and the max-CDF level in [0, 1] for MINIMAX.  ``per_target_zeta`` holds
    raw-score thresholds for every method that has them; infinite entries
    mean the corresponding interval side is uninformative.  ``per_target_level``
    keeps the COPULA solution in CDF coordinates.
    """

    method: Method
    score_kind: ScoreKind
    alpha: float
    lam: float | None = None
    per_target_zeta: np.ndarray | None = None
    per_target_level: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("per_target_zeta", "per_target_level"):
            if getattr(self, name) is not None:
                values = np.asarray(getattr(self, name), dtype=np.float64)
                values.setflags(write=False)
                object.__setattr__(self, name, values)

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
    levels = np.full(n_targets, _kth_smallest(row_max, required, scratch=True))
    if method is Method.MINIMAX:
        return levels
    below = ranks <= levels[:, None]
    kept = np.ones(n, dtype=bool)  # rows kept by every coordinate before k, at its final level
    later = [kept]  # later[-1 - k]: rows kept by every coordinate after k, at its first level
    for row in below[:0:-1]:
        later.append(later[-1] & row)
    for k, row in enumerate(ranks):
        candidate = _kth_smallest(row[kept & later[-1 - k]], required, scratch=True)
        if candidate < levels[k]:
            levels[k] = candidate
            below[k] = row <= candidate
        kept = kept & below[k]
    return levels


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
    """What ``method`` reads of a set of scored rows, computed once; ``cell``
    fixes a cell's rank and slices, and each trial gathers its rows from here.

    ``columns`` holds the checked scores target by target, (K, n).  Per
    column block a calibration may cover (``blocks``), ``row_max[b]`` is each
    row's largest score (QN_MAX) or tuning rank (MINIMAX, COPULA) in it.  The
    CDF methods keep each target's threshold at level j in a (K, m + 1)
    ``table``: the j-th tuning order statistic, -inf at j = 0 and +inf at
    j = m (every transformed score); COPULA also keeps the (K, n) ``ranks``.
    """

    method: Method
    score_kind: ScoreKind
    columns: np.ndarray
    blocks: tuple[slice, ...]
    row_max: np.ndarray | None = None
    table: np.ndarray | None = None
    ranks: np.ndarray | None = None

    def cell(self, n: int, alpha: float, block: int = 0):
        """Calibration of the columns ``blocks[block]`` on ``n`` rows at level
        ``alpha``, its rank (IA's root-corrected) and slices fixed once: a
        function of row indices that gathers them, partitions that copy and
        returns new (K,) thresholds (+inf on rank overflow) and the CDF
        methods' integer levels ((1,) for MINIMAX, None for the others)."""
        method, cols = self.method, self.blocks[block]
        columns = self.columns[cols]
        n_targets = len(columns)
        rank = _conformal_rank(n, alpha)
        if method is Method.IA:
            rank = _conformal_rank(n, 1.0 - (1.0 - alpha) ** (1.0 / n_targets))
        if self.row_max is None:  # SINGLE or IA: one threshold per target row
            return lambda rows: (_kth_smallest(columns.take(rows, axis=1), rank, True), None)
        row_max = self.row_max[block]
        if method is Method.QN_MAX:
            return lambda rows: (
                np.full(n_targets, _kth_smallest(row_max.take(rows), rank, True)), None
            )
        table, targets = self.table[cols], np.arange(n_targets)
        m = table.shape[1] - 1
        lookup = lambda levels: (table[targets, levels], levels)
        if method is Method.MINIMAX:
            return lambda rows: lookup(_rank_levels(method, row_max.take(rows), m, alpha))
        ranks = self.ranks[cols]
        return lambda rows: lookup(
            _rank_levels(method, row_max.take(rows), m, alpha, ranks.take(rows, axis=1))
        )


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
    table = np.stack([np.r_[-math.inf, c.sorted_samples[:-1], math.inf] for c in cdfs])
    # (K, n) integer ranks: how many tuning scores of each target lie at or
    # below.  A CDF value is its rank over m, so the CDF methods compare integers.
    # Needles in sorted order give the same counts, each search starting where the last ended.
    ranks = np.empty(columns.shape, dtype=np.intp)
    for c, col, out in zip(cdfs, columns, ranks):
        order = np.argsort(col)
        out[order] = np.searchsorted(c.sorted_samples, col[order], side="right")
    return pool(block_max(ranks), table, ranks if method is Method.COPULA else None)


def fit_method(
    method: Method,
    cal_scores: np.ndarray,
    alpha: float,
    score_kind: ScoreKind,
    tune_scores: np.ndarray | None = None,
) -> Calibration:
    """Calibrate ``method`` on the given scores; one entry point for harnesses."""
    pool = _score_rows(method, score_kind, cal_scores, tune_scores)
    n = pool.columns.shape[1]
    zeta, levels = pool.cell(n, alpha)(np.arange(n))
    lam = float(zeta[0]) if method in (Method.SINGLE, Method.QN_MAX) else None
    if levels is not None:
        levels = np.broadcast_to(levels, zeta.shape) / (pool.table.shape[1] - 1)
        lam = float(levels[0]) if method is Method.MINIMAX else None
    zeta = None if method is Method.QN_MAX else zeta
    return Calibration(method, score_kind, alpha, lam, zeta, levels)


def interval_array(lo: np.ndarray, hi: np.ndarray, calib: Calibration) -> tuple[np.ndarray, np.ndarray]:
    """Per-target prediction intervals (lo, hi), each (n, K), for (n, K) quantile bands."""
    return interval_bounds(lo, hi, calib.margins(np.asarray(lo).shape[1]), calib.score_kind)


def coverage_mask(scores: np.ndarray, calib: Calibration) -> np.ndarray:
    """Boolean (n, K) mask of per-target coverage given raw scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores <= calib.margins(scores.shape[1])
