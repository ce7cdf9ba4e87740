"""Early-stopping protocol over staged predictions and its evaluation.

A staged process produces one block of ``tasks`` intervals per round, rounds
getting tighter but slower.  The protocol walks the rounds in order and
accepts the first round whose intervals are all no longer than ``tau``
(falling back to the last round), trading interval tightness against the
per-round speed-up factors.  Calibrating all rounds jointly keeps the
accepted-round coverage honest no matter where the walk stops; calibrating
each round separately does not, because acceptance selects on interval
length, which is informative about conformity.  Both protocols run on the
Monte Carlo trial engine of ``evaluate`` (one column block per round when
calibrated separately) and only walk and reduce each trial's coverage mask
and stopping lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# fit_method, coverage_mask, interval_array, split_cal_test and score_matrix
# are imported only for perfbench/layers.py, which times those layers by
# rebinding them here.
from .calibrate import Calibration, Method, coverage_mask, fit_method, interval_array  # noqa: F401
from .core import LabeledSet, Role, SplitSpec, TrialSplits, concat, partition, split_cal_test  # noqa: F401
from .evaluate import _joint, _trials
from .scores import ScoreKind, _scale_ratios, interval_lengths, score_matrix  # noqa: F401
from .synthetic import RoundConfig, gen_multiround


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


def _protocol_trials(
    data: LabeledSet,
    tune: LabeledSet,
    alpha: float,
    cfg: RoundConfig,
    trials: int,
    spec: SplitSpec,
    score_kind: ScoreKind,
    method: Method,
    per_round: bool,
    splits: TrialSplits | None,
) -> ProtocolResult:
    if data.n_targets != cfg.n_targets:
        raise ValueError("data does not match the round layout")
    # Calibrated round by round, single-task rounds use plain split conformal.
    fit = Method.SINGLE if per_round and cfg.tasks == 1 else method
    blocks = tuple(_round_slice(cfg, b) for b in range(cfg.rounds)) if per_round else (slice(None),)
    cell = _trials(data, tune, fit, score_kind, alpha, trials, spec, splits, blocks)
    # (K, N) band rows, and for QN their width ratios, gathered by each trial.
    bands = [data.lo, data.hi] + ([_scale_ratios(data.lo, data.hi)] if score_kind.normalized else [])
    bands = [np.array(r.T, order="C") for r in bands]
    eac, inv_rate, ejc_all = [], [], []
    hist = np.zeros(cfg.rounds, dtype=np.int64)
    inv_rates = 1.0 / np.asarray(cfg.rates, dtype=np.float64)
    for covered, test, margins in cell:
        lo, hi, *ratios = (r.take(test, axis=1) for r in bands)
        lengths = interval_lengths(lo, hi, margins, score_kind, *ratios)
        accepted, accepted_cov = _walk(lengths, covered, cfg)
        eac.append(np.count_nonzero(accepted_cov) / spec.n_test)
        inv_rate.append(np.mean(inv_rates[accepted]))
        ejc_all.append(_joint(covered))
        hist += np.bincount(accepted, minlength=cfg.rounds)
    return ProtocolResult(
        eac=float(np.mean(eac)), r_avg=float(1.0 / np.mean(inv_rate)), histogram=hist,
        ejc_all=float(np.mean(ejc_all)), trials=trials, n_test=spec.n_test,
    )


def run_protocol(
    data: LabeledSet,
    tune: LabeledSet,
    method: Method,
    alpha: float,
    cfg: RoundConfig,
    trials: int,
    spec: SplitSpec,
    score_kind: ScoreKind = ScoreKind.CQR,
    *,
    splits: TrialSplits | None = None,
) -> ProtocolResult:
    """Early-stopping evaluation with all rounds calibrated jointly.

    Trials take their splits from ``splits`` when given, as ``run_trials`` does.
    """
    return _protocol_trials(
        data, tune, alpha, cfg, trials, spec, score_kind, method, False, splits
    )


def run_sc_baseline(
    data: LabeledSet,
    tune: LabeledSet,
    alpha: float,
    cfg: RoundConfig,
    trials: int,
    spec: SplitSpec,
    score_kind: ScoreKind = ScoreKind.CQR,
    method: Method = Method.MINIMAX,
    *,
    splits: TrialSplits | None = None,
) -> ProtocolResult:
    """Early-stopping evaluation with each round calibrated separately.

    Single-task rounds use plain split conformal; multi-task rounds use
    ``method`` per round.  Every round is calibrated at the full level, so
    any shortfall in ``eac`` is pure length-selection bias.  ``splits`` is
    as in ``run_protocol``.
    """
    return _protocol_trials(
        data, tune, alpha, cfg, trials, spec, score_kind, method, True, splits
    )


def pilot_tau(data: LabeledSet, cfg: RoundConfig, calib: Calibration | None = None) -> float:
    """A stopping threshold that makes about half the samples stop early.

    Takes the median of the next-to-last round's interval lengths, the
    widest chance to stop before the final one (round 0 when it is the only
    one).  With a calibration the lengths include the conformal margins that
    the protocol will actually compare against ``tau``; without one the raw
    band widths are used.  Lengths shrink across rounds, so a threshold at
    that median accepts roughly half the samples by then.  A median that is
    not finite (a level too strict for the calibration set makes every
    margin +inf) is a ``ValueError``.
    """
    cols = _round_slice(cfg, max(cfg.rounds - 2, 0))
    if calib is None:
        lengths = data.hi[:, cols] - data.lo[:, cols]
    else:
        lo, hi, margins = np.array(data.lo), np.array(data.hi), calib.margins(data.n_targets)
        lengths = interval_lengths(lo, hi, margins, calib.score_kind)[:, cols]
    with np.errstate(invalid="ignore"):  # inf - inf between infinite lengths
        tau = float(np.quantile(lengths.max(axis=1), 0.5))
    if not np.isfinite(tau):
        raise ValueError("the tau pilot's interval lengths are not finite")
    return tau


def sweep_labels(
    label_values: list[int],
    base_cfg: RoundConfig,
    method: Method,
    alpha: float,
    trials: int,
    spec: SplitSpec,
    data_seed: int,
    n: int | None = None,
    score_kind: ScoreKind = ScoreKind.CQR,
    quantile_alpha: float = 0.1,
    n_pred: int = 32,
    *,
    splits: TrialSplits | None = None,
) -> list[ProtocolResult]:
    """Protocol results across task counts with nested draws.

    For each entry of ``label_values`` the round layout is rebuilt with that
    many tasks and fresh data is generated under ``data_seed``; the generator
    keys its substreams by task index, so smaller task counts reuse a prefix
    of the larger ones' draws and the sweep is monotone sample by sample.
    Every task count re-splits a pool of the same size under ``spec``, so
    all of them share one split table, ``splits`` when given.
    """
    if n is None:
        n = spec.total
    if splits is None:
        splits = TrialSplits(spec, spec.n_cal + spec.n_test)
    results = []
    for labels in label_values:
        cfg = replace(base_cfg, tasks=labels)
        data = gen_multiround(n, cfg, data_seed, quantile_alpha=quantile_alpha, n_pred=n_pred)
        tune, cal, test = partition(data, spec)
        pool = concat([cal, test], Role.CAL)
        results.append(
            run_protocol(pool, tune, method, alpha, cfg, trials, spec, score_kind, splits=splits)
        )
    return results
