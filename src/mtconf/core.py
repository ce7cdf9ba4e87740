"""Shared dataset containers, deterministic seeding, and split bookkeeping.

Everything downstream (scoring, calibration, the experiment harness) works on
the small set of containers defined here.  All containers are immutable after
construction; the numpy arrays they hold are marked read-only so a stray
in-place edit fails loudly instead of corrupting a shared split.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class InsufficientSamplesError(ValueError):
    """Raised when a requested split needs more samples than are available."""


class Role(str, Enum):
    """What a labeled set is used for in the pipeline."""

    TRAIN = "train"
    TUNE = "tune"
    CAL = "cal"
    TEST = "test"


# Stream tags keep the fixed tune/cal/test draw and the per-trial re-splits on
# disjoint branches of the seed tree.
_PARTITION_STREAM = 0
_TRIAL_STREAM = 1


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an integer path.

    Uses the SeedSequence spawn-key mechanism, so streams for different paths
    are statistically independent and the derivation is order-free: stream
    (seed, 3) is the same whether or not (seed, 2) was ever created.  So
    trial t's split depends on nothing but its spec, pool size and t, and
    every cell on a pool can share it (``TrialSplits``).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a plain integer seed for APIs that want one."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_rng(spec: "SplitSpec", trial: int) -> np.random.Generator:
    """Generator for one Monte Carlo trial, independent across trial indices."""
    return rng_for(spec.seed, _TRIAL_STREAM, trial)


@dataclass(frozen=True)
class LabeledSet:
    """A feature/target sample with optional per-target quantile estimates.

    ``features`` is (n,), ``targets`` is (n, K).  ``lo``/``hi`` are (n, K)
    once a quantile model has been applied, ``None`` before that.
    """

    features: np.ndarray
    targets: np.ndarray
    role: Role
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets[:, None]
        if feats.ndim != 1 or targets.ndim != 2 or targets.shape[0] != feats.shape[0]:
            raise ValueError("features must be (n,) and targets (n, K)")
        if targets.shape[1] < 1:
            raise ValueError("need at least one target")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets must be finite")
        arrays = {"features": feats, "targets": targets}
        if (self.lo is None) != (self.hi is None):
            raise ValueError("provide both quantile sides or neither")
        if self.lo is not None:
            lo = np.asarray(self.lo, dtype=np.float64)
            hi = np.asarray(self.hi, dtype=np.float64)
            if lo.shape != targets.shape or hi.shape != targets.shape:
                raise ValueError("quantile arrays must match targets shape")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("quantile estimates must be finite")
            if np.any(lo > hi):
                raise ValueError("crossed quantile rows; repair before constructing")
            arrays["lo"] = lo
            arrays["hi"] = hi
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[1]

    @property
    def has_quantiles(self) -> bool:
        return self.lo is not None

    def subset(self, indices: np.ndarray, role: Role) -> "LabeledSet":
        indices = np.asarray(indices)
        return LabeledSet(
            features=self.features[indices],
            targets=self.targets[indices],
            role=role,
            lo=None if self.lo is None else self.lo[indices],
            hi=None if self.hi is None else self.hi[indices],
        )


def concat(sets: Sequence[LabeledSet], role: Role) -> LabeledSet:
    """Stack labeled sets that agree on K and on quantile availability."""
    if not sets:
        raise ValueError("nothing to concatenate")
    with_q = [s.has_quantiles for s in sets]
    if any(with_q) != all(with_q):
        raise ValueError("cannot mix sets with and without quantile estimates")
    return LabeledSet(
        features=np.concatenate([s.features for s in sets]),
        targets=np.concatenate([s.targets for s in sets]),
        role=role,
        lo=np.concatenate([s.lo for s in sets]) if all(with_q) else None,
        hi=np.concatenate([s.hi for s in sets]) if all(with_q) else None,
    )


@dataclass(frozen=True)
class SplitSpec:
    """Sizes and seed for the tune/calibration/test partition."""

    seed: int
    n_tune: int
    n_cal: int
    n_test: int

    def __post_init__(self) -> None:
        for name in ("n_tune", "n_cal", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def total(self) -> int:
        return self.n_tune + self.n_cal + self.n_test


def partition(data: LabeledSet, spec: SplitSpec) -> tuple[LabeledSet, LabeledSet, LabeledSet]:
    """Disjoint tune/cal/test subsets drawn without replacement.

    The draw depends only on ``spec.seed`` and ``data.n``, so repeating the
    call reproduces the same index sets.  Raises InsufficientSamplesError when
    the requested sizes exceed the available samples.
    """
    if spec.total > data.n:
        raise InsufficientSamplesError(
            f"need {spec.total} samples for the requested split, have {data.n}"
        )
    perm = rng_for(spec.seed, _PARTITION_STREAM).permutation(data.n)
    a, b = spec.n_tune, spec.n_tune + spec.n_cal
    tune = data.subset(perm[:a], Role.TUNE)
    cal = data.subset(perm[a:b], Role.CAL)
    test = data.subset(perm[b : b + spec.n_test], Role.TEST)
    return tune, cal, test


def split_indices(
    n: int, n_cal: int, n_test: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of one random calibration/test re-split of n pooled rows."""
    if n_cal + n_test > n:
        raise InsufficientSamplesError(
            f"need {n_cal + n_test} samples for the requested split, have {n}"
        )
    perm = rng.permutation(n)
    return perm[:n_cal], perm[n_cal : n_cal + n_test]


def split_cal_test(data: LabeledSet, n_cal: int, n_test: int, rng: np.random.Generator) -> tuple[LabeledSet, LabeledSet]:
    """One random calibration/test re-split of a pooled labeled set."""
    cal_idx, test_idx = split_indices(data.n, n_cal, n_test, rng)
    return data.subset(cal_idx, Role.CAL), data.subset(test_idx, Role.TEST)


class TrialSplits:
    """Every trial's split of one n-row pool under one spec, drawn on first use
    and kept: the one split source of the trial loops.

    A split depends only on (spec, n, trial), so the cells that re-split one
    pool share a table and draw each trial once between them.  The kept
    index arrays are read-only: an in-place edit would corrupt every later
    cell.  A full table holds trials * n int64 indices.
    """

    def __init__(self, spec: SplitSpec, n: int) -> None:
        self.spec = spec
        self.n = n
        self._drawn: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __getitem__(self, trial: int) -> tuple[np.ndarray, np.ndarray]:
        """Trial ``trial``'s calibration/test row indices."""
        split = self._drawn.get(trial)
        if split is None:
            spec = self.spec
            split = split_indices(self.n, spec.n_cal, spec.n_test, trial_rng(spec, trial))
            for indices in split:
                indices.setflags(write=False)
            self._drawn[trial] = split
        return split
