"""Monte Carlo harness: repeated cal/test splits, coverage and length metrics.

Each trial re-splits a fixed evaluation pool into calibration and test sets,
calibrates one method, and records the joint-coverage indicator, per-target
coverage, and per-target interval lengths averaged over the test set.  The
tuning set is drawn once outside this module and stays fixed across trials.
The pool is scored, and ranked in the sorted tuning columns, once per cell,
together with every other per-cell invariant (row maxima, the CDF methods'
threshold table, the conformal rank of ``_ScoredPool.cell``, the bands and
their width ratios as contiguous (K, N) target rows); a trial gathers and
partitions its calibration rows for (K,) margins (no ``Calibration``),
gathers its test columns from each target row, and takes interval lengths
in place in those copies.  A trial's split depends only on its spec, pool
size and index, never on what ran before, so every cell on one pool can
share it through one ``TrialSplits`` table.

Per-trial results are written into preallocated arrays indexed by trial and
reduced with numpy means (pairwise summation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("esc", "mil"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def _score_pool(
    data: LabeledSet, tune: LabeledSet, method: Method, score_kind: ScoreKind, blocks=(slice(None),)
) -> _ScoredPool:
    """Score the pool, and the tuning set for the CDF methods, once per cell."""
    scores = score_matrix(data.lo, data.hi, data.targets, score_kind)
    tune_scores = None
    if method in (Method.MINIMAX, Method.COPULA):
        tune_scores = score_matrix(tune.lo, tune.hi, tune.targets, score_kind)
    return _score_rows(method, score_kind, scores, tune_scores, blocks)


def _band_rows(lo, hi, kind: ScoreKind, ratios=None) -> list[np.ndarray]:
    """Copies of (n, K) bands as contiguous (K, n) target rows, with their
    width ratios (``_scale_ratios`` when not given) for the normalized kinds."""
    rows = [np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)]
    if kind.normalized:
        rows.append(_scale_ratios(*rows) if ratios is None else ratios)
    return [np.array(np.transpose(r), order="C") for r in rows]


def evaluate_calibration(
    calib: Calibration, columns: np.ndarray, lo: np.ndarray, hi: np.ndarray, ratios=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint coverage, per-target coverage, and mean lengths on one test set.

    ``columns`` are the test rows' scores target by target, (K, n), and
    ``lo``/``hi`` their (n, K) quantile bands, with width ``ratios`` when
    given.  The bands are copied, not changed.
    """
    rows = _band_rows(lo, hi, calib.score_kind, ratios)
    margins = calib.margins(len(rows[0]))[:, None]
    return _test_metrics(margins, calib.score_kind, np.asarray(columns), *rows)


def _test_metrics(margins, kind: ScoreKind, columns, lo, hi, ratios=None):
    """``evaluate_calibration`` from (K, 1) ``margins`` on (K, n) target rows:
    scores ``columns``, scratch bands ``lo``/``hi`` and their ``ratios``."""
    covered = columns <= margins
    n = covered.shape[1]
    return (
        np.count_nonzero(np.logical_and.reduce(covered, axis=0)) / n,
        np.fromiter(map(np.count_nonzero, covered), np.float64, len(covered)) / n,
        _mean_lengths(interval_lengths(lo, hi, margins, kind, ratios)),
    )


def _mean_lengths(rows: np.ndarray) -> np.ndarray:
    """Per-target mean of (K, n) interval lengths, bit for bit the (n, K)
    ``rows.T.mean(axis=0)``.

    That mean adds each target's lengths one row after another (pairwise
    only for K = 1, where the column is contiguous); a running sum along the
    target's contiguous row does the same additions in the same order, faster.
    """
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
    thresholds = pool.cell(spec.n_cal, alpha)
    rows = [pool.columns, *_band_rows(data.lo, data.hi, score_kind)]
    ejc = np.empty(trials)
    esc, mil = np.empty((trials, data.n_targets)), np.empty((trials, data.n_targets))
    for t in range(trials):
        cal, test = split(t)
        ejc[t], esc[t], mil[t] = _test_metrics(
            thresholds(cal)[0][:, None], score_kind, *(r.take(test, axis=1) for r in rows)
        )
    return TrialMetrics(
        float(ejc.mean()), esc.mean(axis=0), mil.mean(axis=0), trials=trials, n_test=spec.n_test
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
