"""Monte Carlo harness: repeated cal/test splits, coverage and length metrics.

Each trial re-splits a fixed evaluation pool into calibration and test sets,
calibrates one method, and records the joint-coverage indicator, per-target
coverage, and per-target interval lengths averaged over the test set.  The
tuning set is drawn once outside this module and stays fixed across trials.
The pool is scored, and ranked in the sorted tuning columns, once per cell,
together with every other per-cell invariant (row maxima, band-width
ratios, the CDF methods' per-level threshold table); a trial takes its
split as row indices, gathers its (K,) margins from that table (no
``Calibration``) and its test rows, and takes interval lengths in place in
its own copies of the bands.  A trial's split depends only on its spec, pool
size and index, never on what ran before, so every cell on one pool can
share it through one ``TrialSplits`` table.

Per-trial results are written into preallocated arrays indexed by trial and
reduced with numpy means (pairwise summation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibrate import Calibration, Method, _score_rows, _ScoredPool

# split_cal_test, fit_method, coverage_mask and interval_array are imported
# only for perfbench/layers.py, which times layers by rebinding those names
# in this module.
from .calibrate import coverage_mask, fit_method, interval_array  # noqa: F401
from .core import LabeledSet, SplitSpec, TrialSplits, split_cal_test, split_source  # noqa: F401
from .scores import ScoreKind, _scale_ratios, interval_lengths, score_matrix


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
        esc = np.asarray(self.esc, dtype=np.float64)
        mil = np.asarray(self.mil, dtype=np.float64)
        esc.setflags(write=False)
        mil.setflags(write=False)
        object.__setattr__(self, "esc", esc)
        object.__setattr__(self, "mil", mil)


def _score_pool(
    data: LabeledSet, tune: LabeledSet, method: Method, score_kind: ScoreKind, blocks=(slice(None),)
) -> _ScoredPool:
    """Score the pool, and the tuning set for the CDF methods, once per cell."""
    scores = score_matrix(data.lo, data.hi, data.targets, score_kind)
    tune_scores = None
    if method in (Method.MINIMAX, Method.COPULA):
        tune_scores = score_matrix(tune.lo, tune.hi, tune.targets, score_kind)
    return _score_rows(method, score_kind, scores, tune_scores, blocks)


def evaluate_calibration(
    calib: Calibration, columns: np.ndarray, lo: np.ndarray, hi: np.ndarray, ratios=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint coverage, per-target coverage, and mean lengths on one test set.

    ``columns`` are the test rows' scores target by target, (K, n), and
    ``lo``/``hi`` their (n, K) quantile bands, with width ``ratios`` when
    given.  The bands are copied, not changed.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    return _test_metrics(calib.margins(lo.shape[1]), calib.score_kind, columns, lo, hi, ratios)


def _test_metrics(margins, kind: ScoreKind, columns, lo, hi, ratios):
    """``evaluate_calibration`` from (K,) ``margins`` in the scratch bands
    ``lo``/``hi``; each target's mean length sums in row order."""
    covered = columns <= margins[:, None]
    n = covered.shape[1]
    return (
        np.count_nonzero(np.logical_and.reduce(covered, axis=0)) / n,
        covered.sum(axis=1) / n,
        _mean_lengths(interval_lengths(lo, hi, margins, kind, ratios)),
    )


def _mean_lengths(lengths: np.ndarray) -> np.ndarray:
    """Per-target mean of (n, K) interval lengths, bit for bit
    ``lengths.mean(axis=0)``.

    That mean adds each target's lengths one row after another (pairwise
    only for K = 1, where the column is contiguous); a running sum along the
    target's (K, n) row does the same additions in the same order, faster.
    """
    rows = lengths.T
    if len(rows) == 1:
        return rows.mean(axis=1)
    return np.add.accumulate(rows, axis=1)[:, -1] / rows.shape[1]


def run_trials(
    data: LabeledSet,
    tune: LabeledSet,
    method: Method,
    score_kind: ScoreKind,
    alpha: float,
    trials: int,
    spec: SplitSpec,
    *,
    splits: TrialSplits | None = None,
) -> TrialMetrics:
    """Repeated-split evaluation of one method at one level.

    ``data`` is the pooled evaluation set that gets re-split into calibration
    and test sets of sizes ``spec.n_cal`` and ``spec.n_test`` in every trial;
    ``tune`` is the fixed tuning set used by the methods that need one.
    Trials take their splits from ``splits``, a table shared with the other
    cells on this pool, or draw each one afresh without it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    split = split_source(spec, data.n, splits)
    pool = _score_pool(data, tune, method, score_kind)
    ratios = _scale_ratios(data.lo, data.hi) if score_kind.normalized else None
    n_targets = data.n_targets
    ejc = np.empty(trials)
    esc = np.empty((trials, n_targets))
    mil = np.empty((trials, n_targets))
    for t in range(trials):
        cal, test = split(t)
        rows = partial(np.take, indices=test, axis=0)
        ejc[t], esc[t], mil[t] = _test_metrics(
            pool.thresholds(cal, alpha)[0], score_kind, np.take(pool.columns, test, axis=1),
            rows(data.lo), rows(data.hi), ratios if ratios is None else rows(ratios),
        )
    return TrialMetrics(
        ejc=float(ejc.mean()),
        esc=esc.mean(axis=0),
        mil=mil.mean(axis=0),
        trials=trials,
        n_test=spec.n_test,
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
