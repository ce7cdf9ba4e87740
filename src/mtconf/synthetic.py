"""Synthetic three-target regression data and a staged multi-round generator.

The regression generator produces one scalar feature and three heterogeneous
targets (different scales, different noise families) so that joint-coverage
methods have something asymmetric to balance.  The multi-round generator
mimics a staged acquisition process: the same latent truths are predicted in
several rounds of decreasing noise, and each round contributes its own block
of targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LabeledSet, Role, rng_for
from .scores import _ceil_rank

# Noise cross-correlation used by the correlated variant.
NOISE_COV = np.array(
    [
        [1.0, 0.8, 0.7],
        [0.8, 1.0, 0.4],
        [0.7, 0.4, 1.0],
    ]
)
NOISE_COV.setflags(write=False)
# Its lower Cholesky factor, which mixes the correlated variant's base noises.
NOISE_FACTOR = np.linalg.cholesky(NOISE_COV)
NOISE_FACTOR.setflags(write=False)

# The pinball fit's number of full-batch subgradient steps and first step size.
FIT_EPOCHS, FIT_STEP = 2000, 0.5
# Half-width, in standardized units, of the band around each line whose
# entries the pinball fit re-tests between its full epochs.
_NEAR = 0.01
# The near-line flag states per line whose subgradient sums the pinball fit
# keeps between its full epochs.
_MEMO_STATES = 4


class NoiseKind(str, Enum):
    INDEPENDENT = "independent"
    CORRELATED = "correlated"


def regression_mean(u: np.ndarray) -> np.ndarray:
    """Noise-free responses [10u + 10, -2u + 1, 0.1u^2] as an (n, 3) array."""
    u = np.asarray(u, dtype=np.float64)
    return np.column_stack([10.0 * u + 10.0, -2.0 * u + 1.0, 0.1 * u**2])


def gen_synthetic(
    n: int, noise: NoiseKind, seed: int, role: Role = Role.TRAIN
) -> LabeledSet:
    """Draw n samples of the three-target regression problem.

    The feature is uniform on (-5, 5).  Base noises are N(10, 1),
    Exponential(1), Exponential(1); the correlated variant multiplies the
    stacked base draws (including the Gaussian's offset mean) by
    ``NOISE_FACTOR``, the lower Cholesky factor of ``NOISE_COV``, so target
    means shift as well as mix.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = rng_for(seed)
    u = rng.uniform(-5.0, 5.0, size=n)
    eps = np.column_stack(
        [
            rng.normal(10.0, 1.0, size=n),
            rng.exponential(1.0, size=n),
            rng.exponential(1.0, size=n),
        ]
    )
    if noise is NoiseKind.CORRELATED:
        eps = eps @ NOISE_FACTOR.T
    return LabeledSet(features=u, targets=regression_mean(u) + eps, role=role)


@dataclass(frozen=True)
class QuantReg:
    """A fitted linear conditional-quantile model for one target."""

    weight: float
    bias: float
    level: float

    def predict(self, u: np.ndarray) -> np.ndarray:
        return self.weight * np.asarray(u, dtype=np.float64) + self.bias


def fit_quantreg(train: LabeledSet, k: int, level: float) -> QuantReg:
    """Fit a linear quantile model by full-batch pinball subgradient descent.

    Runs ``FIT_EPOCHS`` (2000) full-batch steps with step size ``FIT_STEP``
    (0.5) decayed by 1/sqrt(epoch) from a zero initialization and returns the
    mean of the final quarter of the iterates (subgradient iterates oscillate,
    the tail average does not).  The descent operates on standardized copies of
    the feature and target: a fixed step budget cannot traverse the raw
    target offsets, while on standardized data these settings keep the
    below-quantile fraction within a few 1e-3 of the level.  Coefficients are
    mapped back to the original units before returning.
    """
    return _fit_lines(train, [k], [[level]])[0][0]


def fit_quantile_models(train: LabeledSet, alpha: float | tuple[float, ...]) -> list:
    """Fit the (alpha/2, 1 - alpha/2) model pair for every target, or given a
    sequence of alphas, one such pair list per alpha, from one descent.

    All 2K lines per alpha (K targets) descend together, each exactly as
    ``fit_quantreg`` would fit it alone: the models are bit-identical to 2K
    separate fits.  That holds because every step is elementwise IEEE
    arithmetic on per-line coefficients or rows, and each row's subgradient
    is one ``np.add.reduce`` along a contiguous row, the same pairwise sum as
    a single line's.  The subgradient rows persist across epochs: only the
    entries whose below-line flag flipped are rewritten and only their lines
    re-summed, and between an alpha's full epochs only the entries near a
    line are re-tested, while a bound on the lines' movement and rounding
    shows that no other flag can flip (see ``_fit_lines``).  A memo of line
    sums, keyed by a line's near-entry flags, returns a sum only for the
    flags that produced it.  Every entry still holds what a full rewrite
    would compute, so the sums and the models keep their bits.  A rewrite that sums in another order or rounds once where this
    rounds twice changes the bits: ``dot``, ``matmul`` or ``einsum`` for the
    sums, sorting or ``count_nonzero`` for the below-line counts, or testing
    ``zs - b < us * w`` instead of ``zs < us * w + b``.
    """
    targets = [k for k in range(train.n_targets) for _ in range(2)]
    groups = [[a / 2.0, 1.0 - a / 2.0] * train.n_targets for a in np.atleast_1d(alpha).tolist()]
    fits = [list(zip(models[::2], models[1::2])) for models in _fit_lines(train, targets, groups)]
    return fits if np.ndim(alpha) else fits[0]


def _fit_lines(train: LabeledSet, targets: list[int], groups: list[list[float]]) -> list:
    """``fit_quantreg`` for line j of every group, target ``targets[j]`` at
    the group's level j, in one descent; one model list per group.

    Holds 2 floats and a flag per training row and line across the epochs, the
    persisting coefficient and subgradient entries and the below-line flags,
    and per line of one group the standardized target and a full epoch's
    predictions and flags.  Entries hold coefficient ``level - flag`` and
    subgradient ``coefficient * u``, the IEEE expressions a full rewrite
    evaluates.  A line with a flipped flag has its entries rewritten (all of
    them in a full epoch, the flipped ones otherwise) and its two rows
    re-summed, each with one ``np.add.reduce`` along the contiguous row; the
    other lines keep their rows and sums.

    Each group has its own full epochs.  One computes every ``us * w + b`` and
    ``zs < pred`` of the group's lines, stores them as w0 and b0, and keeps
    their near-line set, the entries with ``|zs - pred| <= _NEAR``, with 5
    words and 2 flags each: u, zs, line, two positions and two flags.  Later
    epochs evaluate the same expressions on the set alone, until an entry
    outside it could flip.  Let p0 and p be an entry's computed prediction at
    its group's last full epoch and now, U the largest |us|, A = U max|w0| +
    max|b0|, E = U max|w - w0| + max|b - b0| taken over the group's lines
    exactly on the stored doubles, and u = 2^-53.  Outside the set the computed
    |zs - p0| exceeds _NEAR, so the exact one does (rounding is monotone and
    _NEAR is a double), and the flag cannot flip while the exact |p - p0| <=
    _NEAR.  That difference is at most E plus the two roundings of each of p
    and p0, below 2.01u (U|w| + |b|) + 2^-1074 each.  A group's full epoch runs
    when ``not U * dw + db + slack <= _NEAR``, with dw and db the computed
    max|w - w0| and max|b - b0| over its lines.  That sum takes at most four
    roundings on either coefficient, so a near epoch runs only if E + slack <=
    (1 + 4.01u) _NEAR; then E <= 1.01 _NEAR, U|w| + |b| <= A + E, and the
    rounding of p, p0 and the test is below 4.02u A + 6.05u _NEAR + 2^-1073,
    which the group's slack 2^-49 (A + _NEAR + 1) exceeds more than twice.  A
    movement or slack that is infinite or NaN takes the full epoch; while U, A
    and the steps are finite, so are the predictions, and an entry whose zs is
    not finite is outside the set and cannot flip.

    Between full epochs an entry outside the set keeps its flag and every entry
    holds the expressions of its own flag, so a line's rows, and their sums,
    follow from the flags of its entries in the set.  The groups' sets are kept
    sorted by line, so those flags are one contiguous segment, and one near
    epoch re-tests them all unless every group had a full epoch (a group that
    had one finds no flip: the same expressions on the same lines).  It keys
    each re-summed line's sums by the segment's bytes: it copies the sums a key
    holds, or sums the rows and keeps the result while the line holds fewer
    than ``_MEMO_STATES`` keys.  The lines oscillate, so their flags return to
    states they held.  A full epoch can flip any flag of its group and empties
    its lines' memo; the memo holds at most ``_MEMO_STATES`` flags per entry of
    the set.
    """
    if not all(0.0 < level < 1.0 for group in groups for level in group):
        raise ValueError("quantile level must lie in (0, 1)")
    u = train.features
    u_mean, u_sd = float(u.mean()), float(u.std())
    u_sd = u_sd if u_sd > 1e-12 else 1.0
    us = (u - u_mean) / u_sd
    n, per, m = us.size, len(targets), len(targets) * len(groups)
    zs = np.empty((per, n))
    z_scales = []
    for j, k in enumerate(targets):
        z = train.targets[:, k]
        z_mean, z_sd = float(z.mean()), float(z.std())
        z_sd = z_sd if z_sd > 1e-12 else 1.0
        zs[j] = (z - z_mean) / z_sd
        z_scales.append((z_mean, z_sd))
    levels = np.array(groups).reshape(-1)
    # Each line's (w, b), stepped by the sums of its (grad, coeff) rows; line
    # j of group g is line g * per + j.
    coef, acc = np.zeros((m, 2)), np.zeros((m, 2))
    w, b = coef[:, 0], coef[:, 1]
    n_tail = FIT_EPOCHS // 4
    tail_start = FIT_EPOCHS - n_tail + 1
    # The subgradient rows persist: every entry starts above its line
    # (coeff = level, grad = level * u) and changes only when its flag flips.
    # Entry (l, i) sits at l * 2n + i of ``grads`` and of ``coeffs``.
    rows = np.empty((m, 2, n))
    rows[:, 1] = levels[:, None]
    np.multiply(rows[:, 1], us, out=rows[:, 0])
    grads, coeffs = rows.reshape(-1), rows.reshape(-1)[n:]
    sums = np.add.reduce(rows, axis=2)
    # Each group's flags; its full epoch swaps them with ``now``.
    pred, now = np.empty((per, n)), np.empty((per, n), dtype=bool)
    below = [np.zeros((per, n), dtype=bool) for _ in groups]
    us_max = float(np.abs(us).max())
    # The near-line sets: an entry's index in its group's flags, its line and
    # grad position, its u and zs, and its flag.
    near = near_line = near_grad = near_u = near_z = near_below = np.empty(0, dtype=np.intp)
    seg, memo = [0] * (m + 1), [{} for _ in range(m)]
    # The lines at their group's last full epoch; a NaN slack makes the first
    # epoch a full one, whatever the width.
    coef0, moved, slack = coef.copy(), coef.copy(), [math.nan] * len(groups)
    group_moved, bounds = moved.reshape(len(groups), per, 2), np.arange(m + 1)
    for epoch, step in enumerate([FIT_STEP / math.sqrt(e) for e in range(1, FIT_EPOCHS + 1)], 1):
        np.subtract(coef, coef0, out=moved)
        np.abs(moved, out=moved)
        refresh = []
        for g, (dw, db) in enumerate(np.maximum.reduce(group_moved, axis=1).tolist()):
            if not us_max * dw + db + slack[g] <= _NEAR:
                refresh.append(g)
        for g in refresh:
            # A full epoch: every prediction and flag, then the near-line set.
            lo, hi = g * per, (g + 1) * per
            first, last = seg[lo], seg[hi]
            flags = below[g]
            flags.reshape(-1)[near[first:last]] = near_below[first:last]
            np.multiply(us, w[lo:hi, None], out=pred)
            np.add(pred, b[lo:hi, None], out=pred)
            # For finite doubles, zs - pred < 0 exactly when zs < pred.
            np.less(zs, pred, out=now)
            # The last epoch's flags turn into the flips; this epoch's are kept.
            np.not_equal(now, flags, out=flags)
            flipped_lines = flags.any(axis=1).nonzero()[0].tolist()
            below[g], flags, now = now, now, flags
            for j in flipped_lines:
                # Rewritten whole: an entry whose flag held keeps its value.
                l = lo + j
                np.subtract(levels[l], flags[j], out=rows[l, 1])
                np.multiply(rows[l, 1], us, out=rows[l, 0])
                np.add.reduce(rows[l], axis=1, out=sums[l])
            np.subtract(zs, pred, out=pred)
            np.abs(pred, out=pred)
            np.less_equal(pred, _NEAR, out=now)
            at = np.flatnonzero(now)
            every = at + lo * n
            line = every // n
            # One array at a time, so each old one goes as its new one comes.
            near_u = _splice(near_u, first, last, us[every - line * n])
            every += line * n
            near_grad = _splice(near_grad, first, last, every)
            near_z = _splice(near_z, first, last, zs.reshape(-1)[at])
            near_below = _splice(near_below, first, last, flags.reshape(-1)[at])
            near_line = _splice(near_line, first, last, line)
            near = _splice(near, first, last, at)
            near_now = np.empty(near.size, dtype=bool)
            # Line l's entries of the sets are near_below[seg[l]:seg[l + 1]].
            seg = np.searchsorted(near_line, bounds).tolist()
            memo[lo:hi] = [{} for _ in range(per)]
            coef0[lo:hi] = coef[lo:hi]
            reach = us_max * float(np.abs(w[lo:hi]).max()) + float(np.abs(b[lo:hi]).max())
            slack[g] = 2.0**-49 * (reach + _NEAR + 1.0)
        if len(refresh) < len(groups):
            # The same expressions on the sets alone; their flags reach their
            # group's flags at its next full epoch.
            near_pred = w.take(near_line)
            near_pred *= near_u
            near_pred += b.take(near_line)
            np.less(near_z, near_pred, out=near_now)
            np.not_equal(near_now, near_below, out=near_below)
            at = near_below.nonzero()[0]
            near_below, near_now = near_now, near_below
            if at.size:
                # level - 1.0 or level - 0.0, then times u: a full rewrite's values.
                line = near_line[at]
                c = levels[line]
                c -= near_below[at]
                grad_at = near_grad[at]
                coeffs[grad_at] = c
                c *= near_u[at]
                grads[grad_at] = c
                for l in set(line.tolist()):
                    # The line's rows follow from its flags in the set.
                    key = near_below[seg[l]:seg[l + 1]].tobytes()
                    kept = memo[l].get(key)
                    if kept is not None:
                        sums[l] = kept
                        continue
                    np.add.reduce(rows[l], axis=1, out=sums[l])
                    if len(memo[l]) < _MEMO_STATES:
                        memo[l][key] = sums[l].copy()
        steps = sums / n
        steps *= step
        coef += steps
        if epoch >= tail_start:
            acc += coef
    tails = (acc / n_tail).tolist()
    return [[QuantReg(z_sd * w / u_sd, z_mean + z_sd * (b - w * u_mean / u_sd), level)
             for level, (z_mean, z_sd), (w, b) in zip(group, z_scales, tails[g * per:])]
            for g, group in enumerate(groups)]


def _splice(held: np.ndarray, a: int, b: int, part: np.ndarray) -> np.ndarray:
    """``held`` with ``held[a:b]`` replaced by ``part``."""
    return part if a == 0 and b == held.size else np.concatenate((held[:a], part, held[b:]))


def predict_quantiles(
    models: list[tuple[QuantReg, QuantReg]], data: LabeledSet
) -> LabeledSet:
    """Attach model quantile bands to a labeled set, repairing crossings.

    Where the two fitted lines cross, the band is repaired pointwise to
    (min, max) so every row satisfies lo <= hi.
    """
    if len(models) != data.n_targets:
        raise ValueError("need one model pair per target")
    lo = np.column_stack([pair[0].predict(data.features) for pair in models])
    hi = np.column_stack([pair[1].predict(data.features) for pair in models])
    return LabeledSet(
        features=data.features,
        targets=data.targets,
        role=data.role,
        lo=np.minimum(lo, hi),
        hi=np.maximum(lo, hi),
    )


@dataclass(frozen=True)
class RoundConfig:
    """Layout of a staged prediction process.

    ``rounds`` acquisition rounds, each predicting the same ``tasks`` latent
    truths with per-round prediction noise ``sigma`` (non-increasing) and a
    speed-up factor ``rates`` (strictly decreasing, final round rate is the
    baseline).  ``quantile_alpha`` and ``n_pred`` set the bands that
    ``gen_multiround`` draws; ``tau`` is the interval-length acceptance
    threshold used by the early-stopping protocol.
    """

    rounds: int = 5
    tasks: int = 1
    sigma: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05, 0.02)
    rates: tuple[float, ...] = (16.0, 8.0, 4.0, 2.0, 1.0)
    tau: float = 0.1
    quantile_alpha: float = 0.1
    n_pred: int = 32

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.tasks < 1:
            raise ValueError("rounds and tasks must be positive")
        if len(self.sigma) != self.rounds or len(self.rates) != self.rounds:
            raise ValueError("sigma and rates need one entry per round")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma entries must be non-negative")
        if any(b > a for a, b in zip(self.sigma, self.sigma[1:])):
            raise ValueError("sigma must be non-increasing across rounds")
        if any(b >= a for a, b in zip(self.rates, self.rates[1:])):
            raise ValueError("rates must be strictly decreasing across rounds")
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.quantile_alpha < 1.0:
            raise ValueError(f"quantile_alpha must lie in (0, 1), got {self.quantile_alpha}")
        if self.n_pred < 2:
            raise ValueError(f"n_pred must be at least 2 prediction samples, got {self.n_pred}")

    @property
    def n_targets(self) -> int:
        return self.rounds * self.tasks


def gen_multiround(n: int, cfg: RoundConfig, seed: int, role: Role = Role.TRAIN) -> LabeledSet:
    """Staged predictions of uniform latent truths with shrinking noise.

    Each of ``cfg.tasks`` latent truths is uniform on (0, 1) and repeats as
    the target in every round, so the full target matrix has
    ``rounds * tasks`` columns with column (b, l) holding truth l.  Round b
    predicts each truth with ``n_pred`` noisy samples (truth plus centered
    Gaussian noise of scale sigma[b], clipped to [0, 1]); the quantile band
    is the empirical (quantile_alpha / 2, 1 - quantile_alpha / 2) pair of
    those samples, so later rounds carry tighter bands.

    Latent truths and per-round noise use substreams keyed by task and round
    indices: a configuration with fewer tasks sees a prefix of the draws of a
    larger one under the same seed, which makes task-count sweeps comparable
    sample by sample.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    truths = np.column_stack(
        [rng_for(seed, 0, l).uniform(0.0, 1.0, size=n) for l in range(cfg.tasks)]
    )
    lo_rank = _ceil_rank((cfg.quantile_alpha / 2.0) * cfg.n_pred)
    hi_rank = _ceil_rank((1.0 - cfg.quantile_alpha / 2.0) * cfg.n_pred)
    n_targets = cfg.n_targets
    lo = np.empty((n, n_targets))
    hi = np.empty((n, n_targets))
    targets = np.empty((n, n_targets))
    for b in range(cfg.rounds):
        for l in range(cfg.tasks):
            k = b * cfg.tasks + l
            # truth + sigma * noise, clipped, in place; one row sort gives both ranks
            samples = rng_for(seed, 1, b, l).normal(0.0, 1.0, size=(n, cfg.n_pred))
            samples *= cfg.sigma[b]
            samples += truths[:, [l]]
            np.clip(samples, 0.0, 1.0, out=samples)
            samples.sort(axis=1)
            lo[:, k] = samples[:, lo_rank - 1]
            hi[:, k] = samples[:, hi_rank - 1]
            targets[:, k] = truths[:, l]
    return LabeledSet(features=np.zeros(n), targets=targets, role=role, lo=lo, hi=hi)
