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
    return _fit_lines(train, [(k, level)])[0]


def fit_quantile_models(train: LabeledSet, alpha: float) -> list[tuple[QuantReg, QuantReg]]:
    """Fit the (alpha/2, 1 - alpha/2) model pair for every target.

    All 2K lines (K targets) descend together, each exactly as
    ``fit_quantreg`` would fit it alone: the models are bit-identical to 2K
    separate fits.  That holds because every step is elementwise IEEE
    arithmetic on (2K,) coefficient arrays or (2K, n) rows, and each row's
    subgradient is one ``np.add.reduce`` along a contiguous row, the same
    pairwise sum as a single line's.  A rewrite that sums in another order or
    rounds once where this rounds twice changes the bits: ``dot``, ``matmul``
    or ``einsum`` for the sums, sorting or ``count_nonzero`` for the
    below-line counts, or testing ``zs - b < us * w`` instead of
    ``zs < us * w + b``.
    """
    levels = (alpha / 2.0, 1.0 - alpha / 2.0)
    models = _fit_lines(train, [(k, lvl) for k in range(train.n_targets) for lvl in levels])
    return list(zip(models[::2], models[1::2]))


def _fit_lines(train: LabeledSet, lines: list[tuple[int, float]]) -> list[QuantReg]:
    """``fit_quantreg`` for every (target, level) line, in one descent.

    Holds 3 floats per training row and line: the standardized target, and
    the line's prediction-then-subgradient and coefficient rows.
    """
    if not all(0.0 < level < 1.0 for _, level in lines):
        raise ValueError("quantile level must lie in (0, 1)")
    u = train.features
    u_mean, u_sd = float(u.mean()), float(u.std())
    u_sd = u_sd if u_sd > 1e-12 else 1.0
    us = (u - u_mean) / u_sd
    n, m = us.size, len(lines)
    zs = np.empty((m, n))
    z_scales = []
    for i, (k, _) in enumerate(lines):
        z = train.targets[:, k]
        z_mean, z_sd = float(z.mean()), float(z.std())
        z_sd = z_sd if z_sd > 1e-12 else 1.0
        zs[i] = (z - z_mean) / z_sd
        z_scales.append((z_mean, z_sd))
    levels = np.array([level for _, level in lines])[:, None]
    w, b = np.zeros(m), np.zeros(m)
    w_acc, b_acc = np.zeros(m), np.zeros(m)
    n_tail = FIT_EPOCHS // 4
    tail_start = FIT_EPOCHS - n_tail + 1
    # One epoch in one (2m, n) buffer: the grad rows first hold the
    # prediction, then coeff * u; a single reduce sums them and the coeff rows.
    rows = np.empty((2 * m, n))
    grad, coeff = rows[:m], rows[m:]
    for epoch in range(1, FIT_EPOCHS + 1):
        np.multiply(us, w[:, None], out=grad)
        np.add(grad, b[:, None], out=grad)
        # For finite doubles, zs - pred < 0 exactly when zs < pred; the float
        # out stores the mask as 1.0/0.0.
        np.less(zs, grad, out=coeff)
        np.subtract(levels, coeff, out=coeff)
        np.multiply(coeff, us, out=grad)
        steps = np.add.reduce(rows, axis=1) / n
        steps *= FIT_STEP / math.sqrt(epoch)
        w += steps[:m]
        b += steps[m:]
        if epoch >= tail_start:
            w_acc += w
            b_acc += b
    models = []
    tails = zip((w_acc / n_tail).tolist(), (b_acc / n_tail).tolist())
    for (_, level), (z_mean, z_sd), (w, b) in zip(lines, z_scales, tails):
        weight = z_sd * w / u_sd
        bias = z_mean + z_sd * (b - w * u_mean / u_sd)
        models.append(QuantReg(weight=weight, bias=bias, level=level))
    return models


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
