"""The harness's original evaluation arithmetic, kept as the equivalence oracle.

``tests/test_eval.py`` and ``tests/test_multiround.py`` rebuild the Monte
Carlo loops from public per-trial pieces and require the library loops to
return exactly the same numbers.  Their evaluation must not call the code
under test, so these are test-local copies of the arithmetic as first
written: short-axis means and ``all`` over (n, K) boolean masks, margins
expanded to (n, K) before the width ratios divide the finite ones, and the
reshape-``all`` protocol walk.  ``raw_tau`` keeps the threshold rule the
protocol tests were written with: the median of the next-to-last round's
widest raw band.
"""

import numpy as np


def reference_bounds(lo, hi, zetas, kind):
    """Interval endpoints for (n, K) bands and scalar or (K,) margins."""
    margins = np.broadcast_to(np.asarray(zetas, dtype=np.float64), lo.shape).copy()
    if kind.normalized:
        widths = hi - lo
        ratios = widths[:, :1] / widths
        finite = np.isfinite(margins)
        margins[finite] = margins[finite] / ratios[finite]
    return lo - margins, hi + margins


def reference_evaluation(calib, scores, lo, hi):
    """Joint coverage, per-target coverage and mean lengths of (n, K) test rows."""
    covered = scores <= calib.margins(scores.shape[1])
    ilo, ihi = reference_bounds(lo, hi, calib.margins(lo.shape[1]), calib.score_kind)
    lengths = np.maximum(0.0, ihi - ilo)
    return float(covered.all(axis=1).mean()), covered.mean(axis=0), lengths.mean(axis=0)


def reference_walk(lengths, covered, cfg):
    """Accepted round and accepted-round coverage from (n, K) lengths and coverage."""
    n = lengths.shape[0]
    ok = (lengths <= cfg.tau).reshape(n, cfg.rounds, cfg.tasks).all(axis=2)
    accepted = np.where(ok.any(axis=1), ok.argmax(axis=1), cfg.rounds - 1)
    cov_round = covered.reshape(n, cfg.rounds, cfg.tasks).all(axis=2)
    return accepted, cov_round[np.arange(n), accepted]


def raw_tau(data, cfg):
    """Median over the rows of the next-to-last round's widest raw band (round 0
    when it is the only one)."""
    b = max(cfg.rounds - 2, 0)
    cols = slice(b * cfg.tasks, (b + 1) * cfg.tasks)
    widths = data.hi[:, cols] - data.lo[:, cols]
    return float(np.quantile(widths.max(axis=1), 0.5))
