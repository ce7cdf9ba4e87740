"""Containers, seed streams, and partition bookkeeping."""

import numpy as np
import pytest

from mtconf import (
    InsufficientSamplesError,
    LabeledSet,
    Role,
    SplitSpec,
    TrialSplits,
    concat,
    derive_seed,
    partition,
    rng_for,
    split_cal_test,
    trial_rng,
)
from mtconf import core
from mtconf.core import split_indices


def toy_set(n=10, k=2, seed=0, quantiles=False, role=Role.CAL):
    rng = np.random.default_rng(seed)
    kwargs = {}
    if quantiles:
        lo = rng.normal(size=(n, k))
        kwargs = dict(lo=lo, hi=lo + rng.uniform(0.1, 1.0, size=(n, k)))
    return LabeledSet(
        features=rng.normal(size=n), targets=rng.normal(size=(n, k)), role=role, **kwargs
    )


def test_rng_for_is_deterministic_and_path_sensitive():
    a = rng_for(1, 2, 3).uniform(size=4)
    b = rng_for(1, 2, 3).uniform(size=4)
    c = rng_for(1, 2, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_path_sensitive():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(7) != derive_seed(8)


def test_trial_rng_differs_across_trials_and_from_partition_stream():
    spec = SplitSpec(seed=5, n_tune=2, n_cal=2, n_test=2)
    t0 = trial_rng(spec, 0).uniform(size=8)
    t1 = trial_rng(spec, 1).uniform(size=8)
    part = rng_for(spec.seed, 0).uniform(size=8)
    assert not np.array_equal(t0, t1)
    assert not np.array_equal(t0, part)


def test_partition_sizes_and_roles():
    tune, cal, test = partition(toy_set(n=10), SplitSpec(seed=1, n_tune=3, n_cal=4, n_test=3))
    assert (tune.n, cal.n, test.n) == (3, 4, 3)
    assert (tune.role, cal.role, test.role) == (Role.TUNE, Role.CAL, Role.TEST)


def test_partition_is_deterministic_and_disjoint():
    data = toy_set(n=10)
    spec = SplitSpec(seed=1, n_tune=3, n_cal=4, n_test=3)
    first = partition(data, spec)
    second = partition(data, spec)
    for a, b in zip(first, second):
        assert np.array_equal(a.features, b.features)
    pooled = np.concatenate([part.features for part in first])
    assert np.array_equal(np.sort(pooled), np.sort(data.features))


def test_partition_overflow_is_an_explicit_error():
    with pytest.raises(InsufficientSamplesError, match="insufficient|need"):
        partition(toy_set(n=10), SplitSpec(seed=1, n_tune=5, n_cal=5, n_test=5))


def test_split_cal_test_sizes_rng_and_overflow():
    data = toy_set(n=12, quantiles=True)
    cal, test = split_cal_test(data, 7, 5, np.random.default_rng(0))
    assert (cal.n, test.n) == (7, 5)
    assert cal.has_quantiles and test.has_quantiles
    other_cal, _ = split_cal_test(data, 7, 5, np.random.default_rng(1))
    assert not np.array_equal(cal.features, other_cal.features)
    with pytest.raises(InsufficientSamplesError):
        split_cal_test(data, 10, 5, np.random.default_rng(0))


def test_labeled_set_validation():
    with pytest.raises(ValueError):
        LabeledSet(features=np.zeros((2, 2)), targets=np.zeros((2, 1)), role=Role.CAL)
    with pytest.raises(ValueError):
        LabeledSet(features=np.zeros(3), targets=np.zeros((2, 1)), role=Role.CAL)
    with pytest.raises(ValueError):
        LabeledSet(
            features=np.zeros(2), targets=np.array([[1.0], [np.nan]]), role=Role.CAL
        )
    with pytest.raises(ValueError, match="both quantile sides"):
        LabeledSet(
            features=np.zeros(2), targets=np.zeros((2, 1)), role=Role.CAL, lo=np.zeros((2, 1))
        )
    with pytest.raises(ValueError, match="crossed"):
        LabeledSet(
            features=np.zeros(1),
            targets=np.zeros((1, 1)),
            role=Role.CAL,
            lo=np.array([[1.0]]),
            hi=np.array([[0.0]]),
        )


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_labeled_set_rejects_non_finite_features(bad):
    with pytest.raises(ValueError, match="features must be finite"):
        LabeledSet(features=[0.0, bad, 1.0], targets=np.zeros((3, 1)), role=Role.CAL)


def test_labeled_set_arrays_are_read_only():
    data = toy_set(quantiles=True)
    for arr in (data.features, data.targets, data.lo, data.hi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_labeled_set_accepts_1d_targets():
    data = LabeledSet(features=np.zeros(3), targets=np.arange(3.0), role=Role.CAL)
    assert data.targets.shape == (3, 1)
    assert data.n_targets == 1


def test_subset_gathers_rows_and_quantiles():
    data = toy_set(n=6, k=2, quantiles=True)
    sub = data.subset(np.array([4, 1]), Role.TEST)
    assert sub.n == 2 and sub.role is Role.TEST and sub.has_quantiles
    assert np.array_equal(sub.features, data.features[[4, 1]])
    assert np.array_equal(sub.lo, data.lo[[4, 1]]) and np.array_equal(sub.hi, data.hi[[4, 1]])
    assert sub.n_targets == 2


def test_concat_stacks_and_rejects_mixed_quantiles():
    a = toy_set(n=3, seed=1, quantiles=True)
    b = toy_set(n=4, seed=2, quantiles=True)
    merged = concat([a, b], Role.CAL)
    assert merged.n == 7 and merged.role is Role.CAL and merged.has_quantiles
    assert np.array_equal(merged.features[:3], a.features)
    with pytest.raises(ValueError, match="mix"):
        concat([a, toy_set(n=2, seed=3, quantiles=False)], Role.CAL)
    with pytest.raises(ValueError):
        concat([], Role.CAL)


def test_split_spec_validates_sizes():
    with pytest.raises(ValueError):
        SplitSpec(seed=0, n_tune=0, n_cal=1, n_test=1)
    spec = SplitSpec(seed=0, n_tune=2, n_cal=3, n_test=4)
    assert spec.total == 9


def test_trial_splits_draw_each_trial_once_on_first_use(monkeypatch):
    spec = SplitSpec(seed=7, n_tune=1, n_cal=6, n_test=4)
    draws = []
    monkeypatch.setattr(core, "split_indices", lambda *a: draws.append(a) or split_indices(*a))
    table = TrialSplits(spec, 12)
    assert draws == []
    cal, test = table[3]
    want = split_indices(12, 6, 4, trial_rng(spec, 3))
    assert np.array_equal(cal, want[0]) and np.array_equal(test, want[1])
    assert table[3][0] is cal and table[3][1] is test
    table[0]
    assert len(draws) == 2


@pytest.mark.parametrize(
    "n, dtype",
    [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_trial_splits_keep_the_narrowest_unsigned_indices(monkeypatch, n, dtype):
    # The pool's last row index, n - 1, sets the width: 255 is the last that
    # fits a byte, 65,535 the last that fits two.
    spec = SplitSpec(seed=9, n_tune=1, n_cal=n // 2, n_test=n - n // 2)
    draws = []
    monkeypatch.setattr(core, "split_indices", lambda *a: draws.append(a) or split_indices(*a))
    table = TrialSplits(spec, n)
    for trial in (0, 1, 0, 1):
        got = table[trial]
        want = split_indices(n, spec.n_cal, spec.n_test, trial_rng(spec, trial))
        for indices, expected in zip(got, want):
            assert indices.dtype == dtype and not indices.flags.writeable
            assert np.array_equal(indices, expected)
    assert len(draws) == 2


def test_trial_splits_are_read_only():
    table = TrialSplits(SplitSpec(seed=8, n_tune=1, n_cal=5, n_test=3), 10)
    for indices in table[1]:
        with pytest.raises(ValueError, match="read-only"):
            indices[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            indices.sort()
