"""Monte Carlo harness: repeated cal/test splits, coverage and length metrics.

Each trial re-splits a fixed evaluation pool into calibration and test sets,
calibrates one method, and measures coverage and interval lengths on the
test set; the tuning set is drawn once outside this module.  One trial
engine, ``_trials``, serves ``run_trials`` and ``multiround``'s stopping
protocols.  Per cell it scores the pool once, keeps the scores as contiguous
(K, N) target rows and fixes each column block's ``_ScoredPool.cell`` (the
conformal rank, the row maxima, the CDF methods' threshold table).  A trial
gathers and partitions its calibration rows for (K, 1) margins, gathers its
test columns of the score rows, and yields their coverage mask, test indices
and margins.  The two reductions own their (K, N) length rows: ``run_trials``
takes one pairwise mean of max(0, w + 2q) over gathered band widths, and the
protocols widen gathered band ends for the per-row lengths their walk
compares with tau.  Every loop takes its splits from a ``TrialSplits`` table,
which carries the split sizes; the cells on one pool share one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .calibrate import Method, _score_rows

# split_cal_test, fit_method, coverage_mask and interval_array are imported
# only for perfbench/layers.py, which times layers by rebinding those names
# in this module.
from .calibrate import coverage_mask, fit_method, interval_array  # noqa: F401
from .core import LabeledSet, TrialSplits, split_cal_test  # noqa: F401
from .scores import ScoreKind, score_matrix


@dataclass(frozen=True)
class TrialMetrics:
    """Averages over Monte Carlo trials.

    ``ejc`` is the empirical joint coverage (all targets at once), ``esc``
    the per-target coverage, and ``mil`` the per-target mean interval length,
    each averaged per test set first and across trials second.  Infinite
    interval lengths propagate into ``mil`` untouched.
    """

    ejc: float
    esc: np.ndarray
    mil: np.ndarray
    trials: int
    n_test: int

    def __post_init__(self) -> None:
        for name in ("esc", "mil"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def _joint(covered: np.ndarray) -> float:
    """Share of the (K, n) coverage mask's test rows covered in every target."""
    return np.count_nonzero(np.logical_and.reduce(covered, axis=0)) / covered.shape[1]


def _test_metrics(covered: np.ndarray) -> tuple[float, np.ndarray]:
    """Joint and per-target coverage of one test set's (K, n) coverage mask."""
    per_target = np.fromiter(map(np.count_nonzero, covered), np.float64, len(covered))
    return _joint(covered), per_target / covered.shape[1]


def _length_rows(lo, hi, kind: ScoreKind) -> list[np.ndarray]:
    """The (K, N) target rows of a trial's mean lengths: the band widths w, and
    for QN their ratios w_k / w_0."""
    widths = hi - lo
    rows = (widths, widths / widths[:, :1]) if kind.normalized else (widths,)
    return [np.ascontiguousarray(r.T) for r in rows]


def _trial_mil(rows: list[np.ndarray], test: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """A trial's per-target mean interval length on its test columns ``test``,
    from ``_length_rows`` and (K, 1) margins q: mean max(0, w + 2q), with q scaled
    by w_k/w_0 for QN, so q = +inf gives +inf and q = -inf gives 0."""
    widths, *ratios = (r.take(test, axis=1) for r in rows)
    widths += np.multiply(ratios[0], 2.0 * margins, out=ratios[0]) if ratios else 2.0 * margins
    return np.maximum(0.0, widths, out=widths).mean(axis=1)


def _trials(
    data: LabeledSet, tune: LabeledSet, method: Method, kind: ScoreKind, alpha: float,
    trials: int, splits: TrialSplits, blocks=(slice(None),),
):
    """One cell's Monte Carlo trials, lazily: per trial, the test rows' (K, n)
    coverage mask, their indices and the (K, 1) margins (one buffer, refilled
    by the next trial), each column block calibrated on its own.  The checks,
    the scoring and one ``_ScoredPool.cell`` per block are done now."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if splits.n != data.n:
        raise ValueError(f"the split table re-splits {splits.n} rows, the pool has {data.n}")
    scores, tune_scores = score_matrix(data.lo, data.hi, data.targets, kind), None
    if method in (Method.MINIMAX, Method.COPULA):
        tune_scores = score_matrix(tune.lo, tune.hi, tune.targets, kind)
    pool = _score_rows(method, scores, tune_scores)
    cells = [(cols, pool.cell(splits.spec.n_cal, alpha, cols)) for cols in blocks]
    columns = pool.columns  # the trials keep the score rows and the cells, not the pool
    margins = np.empty((data.n_targets, 1))

    def trial(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cal, test = splits[t]
        for cols, thresholds in cells:
            margins[cols, 0] = thresholds(cal)[0]
        return columns.take(test, axis=1) <= margins, test, margins

    return map(trial, range(trials))


def run_trials(
    data: LabeledSet,
    tune: LabeledSet,
    method: Method,
    score_kind: ScoreKind,
    alpha: float,
    trials: int,
    splits: TrialSplits,
) -> TrialMetrics:
    """Repeated-split evaluation of one method at one level.

    ``data`` is the pooled evaluation set that trial t re-splits into the
    calibration and test rows ``splits[t]``, of sizes ``splits.spec.n_cal``
    and ``splits.spec.n_test``; the table is shared with the other cells on
    this pool.  ``tune`` is the fixed tuning set used by the methods that
    need one.
    """
    cell = _trials(data, tune, method, score_kind, alpha, trials, splits)
    rows = _length_rows(data.lo, data.hi, score_kind)
    per_trial = starmap(lambda c, test, m: (*_test_metrics(c), _trial_mil(rows, test, m)), cell)
    ejc, esc, mil = map(np.array, zip(*per_trial))
    return TrialMetrics(
        float(ejc.mean()), esc.mean(axis=0), mil.mean(axis=0), trials, splits.spec.n_test
    )


@dataclass(frozen=True)
class CoverageBoundsReport:
    """Outcome of the finite-sample coverage sandwich check."""

    passed: bool
    ejc: float
    lower: float
    upper: float
    mc_slack: float
    message: str


def mc_slack(alpha: float, trials: int, n_test: int) -> float:
    """Three-sigma Monte Carlo allowance for an averaged coverage estimate,
    counting test-set sampling only: a trial's measured standard deviation
    follows sqrt(alpha (1 - alpha) (1/n_cal + 1/n_test)) (Vovk 2012)."""
    return 3.0 * math.sqrt(alpha * (1.0 - alpha) / (trials * n_test))


def coverage_bounds_check(
    metrics: TrialMetrics, alpha: float, n_cal: int
) -> CoverageBoundsReport:
    """Check ejc against [1 - alpha, 1 - alpha + 1/(n_cal + 1)] with MC slack.

    The sandwich holds for exchangeable scores with almost-surely distinct
    values; the slack widens both sides by three binomial standard errors of
    the test draws (``mc_slack``) so a finite harness does not flag ordinary
    Monte Carlo noise.
    """
    slack = mc_slack(alpha, metrics.trials, metrics.n_test)
    lower = 1.0 - alpha - slack
    upper = 1.0 - alpha + 1.0 / (n_cal + 1) + slack
    passed = lower <= metrics.ejc <= upper
    if passed:
        message = f"ejc={metrics.ejc:.4f} within [{lower:.4f}, {upper:.4f}]"
    elif metrics.ejc > upper:
        message = f"ejc={metrics.ejc:.4f}: over-coverage beyond the {upper:.4f} bound"
    else:
        message = f"ejc={metrics.ejc:.4f}: under-coverage below the {lower:.4f} bound"
    return CoverageBoundsReport(
        passed=passed,
        ejc=metrics.ejc,
        lower=lower,
        upper=upper,
        mc_slack=slack,
        message=message,
    )
