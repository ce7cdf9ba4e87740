"""Synthetic generators and the pinball-loss quantile fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtconf import (
    NOISE_COV,
    NoiseKind,
    QuantReg,
    Role,
    RoundConfig,
    fit_quantile_models,
    fit_quantreg,
    gen_multiround,
    gen_synthetic,
    predict_quantiles,
    regression_mean,
)
from mtconf.core import LabeledSet, rng_for
from mtconf.scores import _ceil_rank
from mtconf.synthetic import FIT_EPOCHS, FIT_STEP


def test_regression_mean_values():
    row = regression_mean(np.array([0.0]))
    assert np.allclose(row, [[10.0, 1.0, 0.0]])
    rows = regression_mean(np.array([-5.0, 2.0]))
    assert np.allclose(rows, [[-40.0, 11.0, 2.5], [30.0, -3.0, 0.4]])


def test_gen_synthetic_shapes_and_determinism():
    a = gen_synthetic(100, NoiseKind.INDEPENDENT, seed=7, role=Role.CAL)
    b = gen_synthetic(100, NoiseKind.INDEPENDENT, seed=7, role=Role.CAL)
    c = gen_synthetic(100, NoiseKind.INDEPENDENT, seed=8)
    assert a.n == 100 and a.n_targets == 3 and not a.has_quantiles
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)
    assert np.all(np.abs(a.features) < 5.0)
    with pytest.raises(ValueError):
        gen_synthetic(0, NoiseKind.INDEPENDENT, seed=1)


def test_independent_noise_moments():
    data = gen_synthetic(200_000, NoiseKind.INDEPENDENT, seed=11)
    resid = data.targets - regression_mean(data.features)
    assert resid[:, 0].mean() == pytest.approx(10.0, abs=0.02)
    assert resid[:, 0].std() == pytest.approx(1.0, abs=0.02)
    assert resid[:, 1].mean() == pytest.approx(1.0, abs=0.02)
    assert resid[:, 2].mean() == pytest.approx(1.0, abs=0.02)
    # exponential noises are nonnegative
    assert resid[:, 1].min() >= 0.0
    assert np.corrcoef(resid.T)[0, 1] == pytest.approx(0.0, abs=0.02)


def test_correlated_noise_covariance_and_mean():
    data = gen_synthetic(200_000, NoiseKind.CORRELATED, seed=12)
    resid = data.targets - regression_mean(data.features)
    cov = np.cov(resid.T)
    assert np.allclose(cov, NOISE_COV, atol=0.03)
    want_mean = np.linalg.cholesky(NOISE_COV) @ np.array([10.0, 1.0, 1.0])
    assert np.allclose(resid.mean(axis=0), want_mean, atol=0.03)


def _line_set(rng, n, weight, bias, noise_std=0.0):
    u = rng.uniform(-5.0, 5.0, size=n)
    z = weight * u + bias + noise_std * rng.normal(size=n)
    return LabeledSet(features=u, targets=z[:, None], role=Role.TRAIN)


def test_fit_quantreg_recovers_a_noiseless_line():
    data = _line_set(np.random.default_rng(20), 2000, weight=3.0, bias=1.0)
    for level in (0.1, 0.5, 0.9):
        model = fit_quantreg(data, 0, level)
        assert model.weight == pytest.approx(3.0, abs=0.05)
        assert model.bias == pytest.approx(1.0, abs=0.05)


def test_fit_quantreg_matches_a_grid_search_oracle():
    # Independent check of the optimizer: brute-force the pinball loss over a
    # coefficient grid and require the fit to land near the grid minimizer.
    data = _line_set(np.random.default_rng(21), 4000, weight=2.0, bias=1.0, noise_std=1.0)
    u, z = data.features, data.targets[:, 0]
    level = 0.5
    weights = np.linspace(1.0, 3.0, 81)
    biases = np.linspace(0.0, 2.0, 81)
    losses = np.empty((weights.size, biases.size))
    for i, w in enumerate(weights):
        res = z[None, :] - (w * u)[None, :] - biases[:, None]
        losses[i] = np.mean(np.where(res >= 0, level * res, (level - 1.0) * res), axis=1)
    i, j = np.unravel_index(np.argmin(losses), losses.shape)
    model = fit_quantreg(data, 0, level)
    assert model.weight == pytest.approx(weights[i], abs=0.1)
    assert model.bias == pytest.approx(biases[j], abs=0.1)


def test_fit_quantreg_hits_the_target_exceedance_fraction():
    data = _line_set(np.random.default_rng(22), 6000, weight=-2.0, bias=0.5, noise_std=2.0)
    model = fit_quantreg(data, 0, 0.25)
    below = np.mean(data.targets[:, 0] < model.predict(data.features))
    assert below == pytest.approx(0.25, abs=0.03)


def first_written_quantreg(train, k, level):
    """``fit_quantreg``'s descent as first written, one temporary per step."""
    u, z = train.features, train.targets[:, k]
    u_mean, u_sd = float(u.mean()), float(u.std())
    z_mean, z_sd = float(z.mean()), float(z.std())
    u_sd = u_sd if u_sd > 1e-12 else 1.0
    z_sd = z_sd if z_sd > 1e-12 else 1.0
    us = (u - u_mean) / u_sd
    zs = (z - z_mean) / z_sd
    w = b = w_acc = b_acc = 0.0
    n_tail = max(1, FIT_EPOCHS // 4)
    for epoch in range(1, FIT_EPOCHS + 1):
        residual = zs - (w * us + b)
        coeff = level - (residual < 0.0)
        lr = FIT_STEP / math.sqrt(epoch)
        w += lr * float(np.mean(coeff * us))
        b += lr * float(np.mean(coeff))
        if epoch >= FIT_EPOCHS - n_tail + 1:
            w_acc += w
            b_acc += b
    w, b = w_acc / n_tail, b_acc / n_tail
    return z_sd * w / u_sd, z_mean + z_sd * (b - w * u_mean / u_sd)


# The constant sets reach the 1e-12 sd fallbacks of the standardization.
BIT_IDENTITY_CASES = [
    pytest.param(n, noise, None, id=f"{n}-{noise.value}")
    for n in (1, 2, 7, 50, 129, 5000)
    for noise in NoiseKind
] + [
    pytest.param(50, NoiseKind.CORRELATED, flat, id=f"50-constant_{flat}")
    for flat in ("feature", "target")
]


@pytest.mark.parametrize("n, noise, flat", BIT_IDENTITY_CASES)
def test_fit_quantreg_is_bit_identical_to_the_first_written_descent(n, noise, flat):
    train = gen_synthetic(n, noise, seed=24 + n)
    features, targets = train.features, train.targets.copy()
    if flat == "feature":
        features = np.full(n, 1.5)
    elif flat == "target":
        targets[:, 1] = -3.0
    train = LabeledSet(features=features, targets=targets, role=Role.TRAIN)
    for k, level in ((0, 0.05), (1, 0.5), (2, 0.975)):
        model = fit_quantreg(train, k, level)
        assert (model.weight, model.bias) == first_written_quantreg(train, k, level)
    for alpha in (0.05, 0.3):
        for k, pair in enumerate(fit_quantile_models(train, alpha)):
            for model, level in zip(pair, (alpha / 2.0, 1.0 - alpha / 2.0)):
                assert model.level == level
                assert (model.weight, model.bias) == first_written_quantreg(train, k, level)


def test_fit_quantile_models_orders_the_pair():
    data = gen_synthetic(3000, NoiseKind.INDEPENDENT, seed=23)
    pairs = fit_quantile_models(data, alpha=0.2)
    assert len(pairs) == 3
    for lo, hi in pairs:
        assert lo.level == pytest.approx(0.1)
        assert hi.level == pytest.approx(0.9)


def test_predict_quantiles_attaches_bands():
    data = gen_synthetic(50, NoiseKind.INDEPENDENT, seed=24)
    flat = [(QuantReg(0.0, 0.0, 0.05), QuantReg(0.0, 1.0, 0.95))] * 3
    banded = predict_quantiles(flat, data)
    assert banded.has_quantiles
    assert np.all(banded.lo == 0.0) and np.all(banded.hi == 1.0)
    assert np.array_equal(banded.targets, data.targets)


def test_predict_quantiles_repairs_crossings():
    data = gen_synthetic(200, NoiseKind.INDEPENDENT, seed=25)
    # lines cross at u = 0; raw lo > hi on one side
    crossing = [(QuantReg(1.0, 0.0, 0.05), QuantReg(-1.0, 0.0, 0.95))] * 3
    banded = predict_quantiles(crossing, data)
    assert np.all(banded.lo <= banded.hi)
    assert np.allclose(banded.hi[:, 0], np.abs(data.features))


def test_predict_quantiles_model_count_mismatch():
    data = gen_synthetic(10, NoiseKind.INDEPENDENT, seed=26)
    with pytest.raises(ValueError, match="one model pair per target"):
        predict_quantiles([(QuantReg(0.0, 0.0, 0.05), QuantReg(0.0, 1.0, 0.95))], data)


def test_round_config_validation():
    RoundConfig()  # defaults are valid
    RoundConfig(rounds=2, sigma=(0.1, 0.0), rates=(2.0, 1.0))  # zero noise allowed
    with pytest.raises(ValueError, match="sigma"):
        RoundConfig(rounds=2, sigma=(0.1, 0.2), rates=(2.0, 1.0))
    with pytest.raises(ValueError, match="rates"):
        RoundConfig(rounds=2, sigma=(0.2, 0.1), rates=(1.0, 1.0))
    with pytest.raises(ValueError):
        RoundConfig(rounds=3, sigma=(0.2, 0.1), rates=(2.0, 1.0))
    with pytest.raises(ValueError, match="tau"):
        RoundConfig(tau=0.0)
    # gen_multiround reads its band settings from the layout, which checks them.
    with pytest.raises(ValueError, match="n_pred must be at least 2 prediction samples, got 1"):
        RoundConfig(n_pred=1)
    for quantile_alpha in (0.0, 2.0, -0.5):
        message = rf"quantile_alpha must lie in \(0, 1\), got {quantile_alpha}$"
        with pytest.raises(ValueError, match=message):
            RoundConfig(quantile_alpha=quantile_alpha)


def test_gen_multiround_layout_and_truths():
    cfg = RoundConfig(tasks=2)
    data = gen_multiround(400, cfg, seed=30)
    assert data.n_targets == cfg.rounds * cfg.tasks
    assert data.has_quantiles
    assert np.all(data.features == 0.0)
    # the latent truth for a task repeats across rounds
    for b in range(1, cfg.rounds):
        for task in range(cfg.tasks):
            assert np.array_equal(
                data.targets[:, b * cfg.tasks + task], data.targets[:, task]
            )
    assert data.targets.min() >= 0.0 and data.targets.max() <= 1.0
    assert data.lo.min() >= 0.0 and data.hi.max() <= 1.0


def test_gen_multiround_bands_tighten_with_the_noise_schedule():
    cfg = RoundConfig(tasks=1)
    data = gen_multiround(500, cfg, seed=31)
    widths = (data.hi - data.lo).mean(axis=0)
    assert np.all(np.diff(widths) < 0.0)


def test_gen_multiround_zero_noise_collapses_bands():
    cfg = RoundConfig(rounds=2, sigma=(0.0, 0.0), rates=(2.0, 1.0))
    data = gen_multiround(100, cfg, seed=32)
    assert np.array_equal(data.lo, data.targets)
    assert np.array_equal(data.hi, data.targets)


def test_gen_multiround_tiny_quantile_alpha_takes_the_row_extremes():
    # (1e-11 / 2) * 32 is far below 1, yet it ranks the lower end at 1.
    n, n_pred, sigma = 50, 32, 0.3
    cfg = RoundConfig(rounds=1, sigma=(sigma,), rates=(1.0,), quantile_alpha=1e-11, n_pred=n_pred)
    data = gen_multiround(n, cfg, seed=34)
    truths = rng_for(34, 0, 0).uniform(0.0, 1.0, size=n)
    noise = rng_for(34, 1, 0, 0).normal(0.0, 1.0, size=(n, n_pred))
    samples = np.clip(truths[:, None] + sigma * noise, 0.0, 1.0)
    assert np.array_equal(data.lo[:, 0], samples.min(axis=1))
    assert np.array_equal(data.hi[:, 0], samples.max(axis=1))


def test_gen_multiround_task_streams_do_not_shift():
    # adding a second task must not change the first task's draws
    one = gen_multiround(300, RoundConfig(tasks=1), seed=33)
    two = gen_multiround(300, RoundConfig(tasks=2), seed=33)
    rounds = 5
    for b in range(rounds):
        assert np.array_equal(one.targets[:, b], two.targets[:, b * 2])
        assert np.array_equal(one.lo[:, b], two.lo[:, b * 2])
        assert np.array_equal(one.hi[:, b], two.hi[:, b * 2])


def test_gen_multiround_input_validation():
    with pytest.raises(ValueError):
        gen_multiround(0, RoundConfig(), seed=1)


def partition_bands(n, cfg, seed):
    """``gen_multiround``'s bands, selected with a two-kth ``np.partition``."""
    quantile_alpha, n_pred = cfg.quantile_alpha, cfg.n_pred
    truths = np.column_stack(
        [rng_for(seed, 0, l).uniform(0.0, 1.0, size=n) for l in range(cfg.tasks)]
    )
    lo_rank = _ceil_rank((quantile_alpha / 2.0) * n_pred)
    hi_rank = _ceil_rank((1.0 - quantile_alpha / 2.0) * n_pred)
    lo, hi = np.empty((n, cfg.n_targets)), np.empty((n, cfg.n_targets))
    for b in range(cfg.rounds):
        for l in range(cfg.tasks):
            noise = rng_for(seed, 1, b, l).normal(0.0, 1.0, size=(n, n_pred))
            samples = np.clip(truths[:, [l]] + cfg.sigma[b] * noise, 0.0, 1.0)
            part = np.partition(samples, (lo_rank - 1, hi_rank - 1), axis=1)
            lo[:, b * cfg.tasks + l] = part[:, lo_rank - 1]
            hi[:, b * cfg.tasks + l] = part[:, hi_rank - 1]
    return lo, hi


@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.05, 0.4, 1e3]),
    st.booleans(),
    st.floats(0.001, 0.999),
    st.integers(2, 64),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_gen_multiround_bands_equal_the_partition_reference(
    n, tasks, sigma, quiet_last, quantile_alpha, n_pred, seed
):
    # A large sigma clips most samples to 0 or 1, so the sorted rows tie there;
    # sigma 0 makes every sample its truth.
    cfg = RoundConfig(rounds=2, tasks=tasks, sigma=(sigma, 0.0 if quiet_last else sigma),
                      rates=(2.0, 1.0), quantile_alpha=quantile_alpha, n_pred=n_pred)
    data = gen_multiround(n, cfg, seed)
    lo, hi = partition_bands(n, cfg, seed)
    assert data.lo.tobytes() == lo.tobytes() and data.hi.tobytes() == hi.tobytes()
