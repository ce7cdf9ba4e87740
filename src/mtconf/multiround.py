"""Early-stopping protocol over staged predictions and its evaluation.

A staged process produces one block of ``tasks`` intervals per round, rounds
getting tighter but slower.  The protocol walks the rounds in order and
accepts the first round whose intervals are all no longer than ``tau``
(falling back to the last round), trading interval tightness against the
per-round speed-up factors.  Calibrating all rounds jointly keeps the
accepted-round coverage honest no matter where the walk stops; calibrating
each round separately does not, because acceptance selects on interval
length, which is informative about conformity.  Both protocols and the tau
pilot run on the Monte Carlo trial engine of ``evaluate`` on the splits of a
``TrialSplits`` table (one column block per round when calibrated separately)
and only walk and reduce each trial's coverage mask and stopping lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fit_method, coverage_mask, interval_array, split_cal_test, score_matrix and
# gen_multiround are imported only for perfbench/layers.py, which times those
# layers by rebinding them here.
from .calibrate import Method, coverage_mask, fit_method, interval_array  # noqa: F401
from .core import LabeledSet, TrialSplits, split_cal_test  # noqa: F401
from .evaluate import _joint, _trials
from .scores import ScoreKind, _scale_ratios, interval_lengths, score_matrix  # noqa: F401
from .synthetic import RoundConfig, gen_multiround  # noqa: F401


@dataclass(frozen=True)
class ProtocolResult:
    """Accepted-round coverage and throughput of one protocol run.

    ``eac`` averages the indicator that the accepted round's intervals cover
    all of that round's targets.  ``r_avg`` is the harmonic-style average
    speed-up: trial means of inverse rates are averaged and inverted, so it
    equals total truths over total acquisition cost.  ``histogram`` counts
    accepted rounds pooled over trials and test samples.  ``ejc_all`` is the
    plain joint coverage over every round at once, kept for diagnostics.
    """

    eac: float
    r_avg: float
    histogram: np.ndarray
    ejc_all: float
    trials: int
    n_test: int

    def __post_init__(self) -> None:
        hist = np.asarray(self.histogram, dtype=np.int64)
        hist.setflags(write=False)
        object.__setattr__(self, "histogram", hist)


def _walk(
    lengths: np.ndarray, covered: np.ndarray, cfg: RoundConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Accepted round index and accepted-round coverage per test sample, from
    (K, n) target rows; a round holds where all of its task rows do."""
    n = lengths.shape[1]
    shape = (cfg.rounds, cfg.tasks, n)
    ok = np.logical_and.reduce((lengths <= cfg.tau).reshape(shape), axis=1)
    accepted = np.full(n, cfg.rounds - 1)
    for b in range(cfg.rounds - 2, -1, -1):
        accepted[ok[b]] = b
    return accepted, np.logical_and.reduce(covered.reshape(shape), axis=1)[accepted, np.arange(n)]


def _round_slice(cfg: RoundConfig, b: int) -> slice:
    return slice(b * cfg.tasks, (b + 1) * cfg.tasks)


def _protocol_cells(
    data: LabeledSet, tune: LabeledSet, method: Method, kind: ScoreKind, alpha: float,
    cfg: RoundConfig, trials: int, splits: TrialSplits, per_round: bool = False,
):
    """Per trial, the test rows' (K, n) coverage mask and (K, n) interval lengths
    of one protocol cell, calibrated jointly or round by round."""
    if data.n_targets != cfg.n_targets:
        raise ValueError("data does not match the round layout")
    # Calibrated round by round, single-task rounds use plain split conformal.
    fit = Method.SINGLE if per_round and cfg.tasks == 1 else method
    blocks = tuple(_round_slice(cfg, b) for b in range(cfg.rounds)) if per_round else (slice(None),)
    cell = _trials(data, tune, fit, kind, alpha, trials, splits, blocks)
    # (K, N) band rows, and for QN their width ratios, gathered by each trial.
    bands = [data.lo, data.hi] + ([_scale_ratios(data.lo, data.hi)] if kind.normalized else [])
    bands = [np.array(r.T, order="C") for r in bands]
    for covered, test, margins in cell:
        lo, hi, *ratios = (r.take(test, axis=1) for r in bands)
        yield covered, interval_lengths(lo, hi, margins, kind, *ratios)


def _protocol_trials(
    data: LabeledSet, tune: LabeledSet, method: Method, score_kind: ScoreKind, alpha: float,
    cfg: RoundConfig, trials: int, splits: TrialSplits, per_round: bool,
) -> ProtocolResult:
    cells = _protocol_cells(data, tune, method, score_kind, alpha, cfg, trials, splits, per_round)
    n_test = splits.spec.n_test
    eac, inv_rate, ejc_all = [], [], []
    hist = np.zeros(cfg.rounds, dtype=np.int64)
    inv_rates = 1.0 / np.asarray(cfg.rates, dtype=np.float64)
    for covered, lengths in cells:
        accepted, accepted_cov = _walk(lengths, covered, cfg)
        eac.append(np.count_nonzero(accepted_cov) / n_test)
        inv_rate.append(np.mean(inv_rates[accepted]))
        ejc_all.append(_joint(covered))
        hist += np.bincount(accepted, minlength=cfg.rounds)
    return ProtocolResult(
        eac=float(np.mean(eac)), r_avg=float(1.0 / np.mean(inv_rate)), histogram=hist,
        ejc_all=float(np.mean(ejc_all)), trials=trials, n_test=n_test,
    )


def run_protocol(
    data: LabeledSet,
    tune: LabeledSet,
    method: Method,
    score_kind: ScoreKind,
    alpha: float,
    cfg: RoundConfig,
    trials: int,
    splits: TrialSplits,
) -> ProtocolResult:
    """Early-stopping evaluation with all rounds calibrated jointly.

    Trial t calibrates on and walks the rows ``splits[t]`` of ``data``, as in
    ``run_trials``.
    """
    return _protocol_trials(data, tune, method, score_kind, alpha, cfg, trials, splits, False)


def run_sc_baseline(
    data: LabeledSet,
    tune: LabeledSet,
    method: Method,
    score_kind: ScoreKind,
    alpha: float,
    cfg: RoundConfig,
    trials: int,
    splits: TrialSplits,
) -> ProtocolResult:
    """Early-stopping evaluation with each round calibrated separately.

    Single-task rounds use plain split conformal; multi-task rounds use
    ``method`` per round.  Every round is calibrated at the full level, so
    any shortfall in ``eac`` is pure length-selection bias.  The splits are
    as in ``run_protocol``.
    """
    return _protocol_trials(data, tune, method, score_kind, alpha, cfg, trials, splits, True)


def pilot_tau(
    data: LabeledSet, tune: LabeledSet, method: Method, score_kind: ScoreKind, alpha: float,
    cfg: RoundConfig, splits: TrialSplits,
) -> float:
    """A stopping threshold that makes about half the samples stop early.

    Runs trial 0 of ``run_protocol`` (all rounds calibrated jointly on the
    rows ``splits[0]``) and takes the median over its test rows of the
    next-to-last round's longest interval, the widest chance to stop before
    the final one (round 0 when it is the only one).  Lengths shrink across
    rounds, so a threshold at that median accepts roughly half the samples
    by then.  A median that is not finite (every margin +inf at a level too
    strict for the calibration set) or not positive (lengths clipped to 0)
    is a ``ValueError``.
    """
    _, lengths = next(_protocol_cells(data, tune, method, score_kind, alpha, cfg, 1, splits))
    widest = lengths[_round_slice(cfg, max(cfg.rounds - 2, 0))].max(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf between infinite lengths
        tau = float(np.quantile(widest, 0.5))
    if not np.isfinite(tau):
        raise ValueError("the tau pilot's interval lengths are not finite")
    if tau <= 0.0:
        raise ValueError(f"the tau pilot's median interval length is {tau:g}")
    return tau
