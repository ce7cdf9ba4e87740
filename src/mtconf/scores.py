"""Nonconformity scores over (n, K) quantile bands, and their inversion to intervals.

The CQR score measures how far a target value sits outside its estimated
quantile band on either side; negative values mean the band already contains
the target.  The width-normalized QN score rescales each target's CQR score
by the ratio of the first target's band width to its own, which puts all
targets on a shared scale before any max is taken across them.  Every
interval is the band widened by the margin on both sides.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

# Below this band width the normalized score's scale ratio is numerically
# meaningless, so we refuse to compute it.
MIN_BAND_WIDTH = 1e-12

# Relative slack when taking the ceiling of a float rank product.  A level
# alpha given as a float makes (1 - alpha) * (n + 1) land a few ulps off an
# integer: (1 - 0.7) * 10 is 3.0000000000000004, whose plain ceiling is 4.
_RANK_EPS = 1e-9


class ScoreKind(Enum):
    """Which nonconformity score a pipeline uses."""

    CQR = "cqr"
    QN = "qn"

    @property
    def normalized(self) -> bool:
        return self is ScoreKind.QN


def _ceil_rank(x: float) -> int:
    """ceil(x) with snapping for values a few ulps away from a positive
    integer, so a positive x never ranks below 1."""
    nearest = round(x)
    if nearest >= 1 and abs(x - nearest) < _RANK_EPS * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def _scale_ratios(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Width ratio of the first target's band to each target's band."""
    widths = np.atleast_2d(hi) - np.atleast_2d(lo)
    bad = widths < MIN_BAND_WIDTH
    if np.any(bad):
        k = int(np.argwhere(bad)[0][-1])
        raise ValueError(
            f"target {k} has a quantile band narrower than {MIN_BAND_WIDTH}; "
            "width-normalized scores are undefined"
        )
    return widths[:, :1] / widths


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
    raw = np.maximum(lo - targets, targets - hi)
    if kind.normalized:
        raw = raw * _scale_ratios(lo, hi)
    return raw


def interval_bounds(
    lo: np.ndarray,
    hi: np.ndarray,
    zetas: float | np.ndarray,
    kind: ScoreKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of {z : score(lo, hi, z) <= zeta} for every (sample, target) pair.

    This is the band widened by the (de-normalized) margin on both sides.  A
    margin of +inf yields (-inf, +inf).  A negative margin can empty an
    interval, which is then returned inverted (lo > hi).  ``zetas`` is a
    scalar margin shared by all targets or a (K,) vector of per-target
    margins, in the score's own domain; it broadcasts against the (n, K)
    bands.  QN divides every finite margin by the band-width ratio
    ``_scale_ratios(lo, hi)``.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    return _widen(lo, hi, np.asarray(zetas, dtype=np.float64), kind)


def _widen(lo, hi, margins, kind: ScoreKind, ratios=None) -> tuple[np.ndarray, np.ndarray]:
    """``interval_bounds`` over bands in any layout, written in ``lo``/``hi``."""
    if kind.normalized:
        scaled = margins / (_scale_ratios(lo, hi) if ratios is None else ratios)
        finite = np.isfinite(margins)
        margins = scaled if finite.all() else np.where(finite, scaled, margins)
    hi += margins
    lo -= margins
    return lo, hi


def interval_lengths(lo, hi, margins, kind: ScoreKind, ratios=None) -> np.ndarray:
    """``np.maximum(0.0, ihi - ilo)`` of ``interval_bounds``, same arithmetic, in the
    scratch bands ``lo``/``hi``."""
    lo, hi = _widen(lo, hi, margins, kind, ratios)
    hi -= lo
    return np.maximum(0.0, hi, out=hi)
