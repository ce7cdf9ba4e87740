"""The three workloads: their `ctool` invocations, output checks and exact calibrations.

Every workload runs `ctool run` through `mtconf.cli.main` at published sizes,
which the benchmark passes explicitly rather than taking ctool's defaults.
The benchmark's ``--seed`` becomes ctool's ``--seed``, so it fixes the data
of every Monte Carlo cell.  The exact calibrations are made apart from
ctool, on inputs drawn under ctool's default seed: their outcome does not
depend on ``--seed``, so the number that fails repeats in every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import checks

# Seed of the exact calibrations and the LP check (ctool's default seed).
EXACT_SEED = 20250811

FULL = ("ia", "qn", "cpts", "cqr_minimax", "qn_minimax")
TABLE1_ALPHAS = (0.30, 0.20, 0.10, 0.05)
TABLE1_TRIALS = 40
NTUNE_VALUES = (50, 500, 1000, 2000, 5000, 10000)
NTUNE_TRIALS = 10
MULTIROUND_ALPHAS = (0.15, 0.10, 0.05)
MULTIROUND_TRIALS = 50
RATES = (16.0, 8.0, 4.0, 2.0, 1.0)


def _list(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    ini: str = ""

    def ctool_argv(self, seed: int, outdir: Path) -> list[str]:
        argv = ["run"]
        if self.ini:
            ini = outdir.parent / f"{self.name}.ini"
            ini.write_text(self.ini, encoding="utf-8")
            argv.append(str(ini))
        return argv + [*self.argv, "--threads", "1", "--seed", str(seed), "--output-dir", str(outdir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1_mc",
            (
                "--experiment", "table1", "--noise", "correlated", "--methods", _list(FULL),
                "--alphas", _list(TABLE1_ALPHAS), "--trials", str(TABLE1_TRIALS),
                "--ntrain", "5000", "--ntune", "5000", "--ncal", "5000", "--ntest", "2000",
            ),
        ),
        Workload(
            "ntune_fit",
            (
                "--experiment", "ntune_sweep", "--noise", "correlated", "--methods", _list(FULL),
                "--alphas", "0.1", "--trials", str(NTUNE_TRIALS), "--runs", "1",
                "--ntrain", "5000", "--ncal", "2000", "--ntest", "1000",
            ),
            ini=f"[experiment]\nntune_values = {_list(NTUNE_VALUES)}\n",
        ),
        Workload(
            "multiround_k15",
            (
                "--experiment", "multiround", "--methods", "cqr_minimax",
                "--alphas", _list(MULTIROUND_ALPHAS), "--trials", str(MULTIROUND_TRIALS),
                "--ntune", "2000", "--ncal", "2000", "--ntest", "1000", "--tau", "auto",
            ),
            ini=(
                "[rounds]\nrounds = 5\ntasks = 3\nsigma = 0.4, 0.2, 0.1, 0.05, 0.02\n"
                f"rates = {_list(RATES)}\n"
            ),
        ),
    )
}


def check_outputs(name: str, outdir: Path) -> list[checks.Op]:
    """Checks of one round's `results.csv`, `plot_*.csv` and manifest."""
    if name == "table1_mc":
        return checks.check_benchmark(
            outdir, FULL, TABLE1_ALPHAS, None, 5000, 2000, TABLE1_TRIALS, mc_joint=FULL[1:]
        )
    if name == "ntune_fit":
        # At small tuning sizes the CDF transforms take few values and the
        # raw-threshold fault moves their coverage by -20 to +10 standard
        # errors depending on the seed; the exact calibrations check them.
        return checks.check_benchmark(
            outdir, FULL, (0.10,), NTUNE_VALUES, 2000, 1000, NTUNE_TRIALS, mc_joint=("qn",)
        )
    return checks.check_multiround(
        outdir, "cqr_minimax", MULTIROUND_ALPHAS, 2000, 1000, MULTIROUND_TRIALS, RATES
    )


@dataclass(frozen=True)
class ExactCase:
    """One calibration to fit and count: trial-0 split of a fixed-seed pool."""

    name: str
    token: str
    alpha: float
    cal: object  # LabeledSet
    tune: object  # LabeledSet


def exact_cases(name: str):
    """Fixed-seed inputs of a workload's exact calibrations, and the model sets fitted.

    table1_mc: every method at every level, on ctool's table1 layout.
    ntune_fit: every method at every tuning size, one model set for all sizes
    (the rank guarantee depends on neither the size nor the model).
    """
    from mtconf import (
        NoiseKind, Role, SplitSpec, concat, derive_seed, fit_quantile_models,
        gen_synthetic, partition, predict_quantiles, split_cal_test, trial_rng,
    )

    noise, seed = NoiseKind.CORRELATED, EXACT_SEED
    cases, fits = [], []
    if name == "table1_mc":
        for alpha in TABLE1_ALPHAS:
            train = gen_synthetic(5000, noise, derive_seed(seed, 0), role=Role.TRAIN)
            models = fit_quantile_models(train, alpha)
            pool = predict_quantiles(models, gen_synthetic(12000, noise, derive_seed(seed, 1), Role.CAL))
            spec = SplitSpec(seed=seed, n_tune=5000, n_cal=5000, n_test=2000)
            tune, cal, test = partition(pool, spec)
            cal0, _ = split_cal_test(concat([cal, test], Role.CAL), 5000, 2000, trial_rng(spec, 0))
            cases += [ExactCase(f"exact:{t}@{checks.fmt(alpha)}", t, alpha, cal0, tune) for t in FULL]
    elif name == "ntune_fit":
        alpha = 0.10
        train = gen_synthetic(5000, noise, derive_seed(seed, 0), role=Role.TRAIN)
        models = fit_quantile_models(train, alpha)
        fits.append((train, models))
        pool = predict_quantiles(models, gen_synthetic(3000, noise, derive_seed(seed, 1), Role.CAL))
        for value in NTUNE_VALUES:
            tune = predict_quantiles(
                models, gen_synthetic(value, noise, derive_seed(seed, 2, value), Role.TUNE)
            )
            spec = SplitSpec(seed=derive_seed(seed, 3, value), n_tune=value, n_cal=2000, n_test=1000)
            cal0, _ = split_cal_test(pool, 2000, 1000, trial_rng(spec, 0))
            cases += [
                ExactCase(f"exact:{t}/n_tune={value}", t, alpha, cal0, tune) for t in FULL
            ]
    return cases, fits


def run_exact(case: ExactCase) -> checks.Op:
    """Fit the public `fit_method` and count covered calibration rows."""
    from mtconf import fit_method, score_matrix
    from mtconf.cli import METHOD_TOKENS

    method, kind = METHOD_TOKENS[case.token]
    cal, tune = case.cal, case.tune
    calib = fit_method(
        method,
        score_matrix(cal.lo, cal.hi, cal.targets, kind),
        case.alpha,
        kind,
        score_matrix(tune.lo, tune.hi, tune.targets, kind),
    )
    own = checks.own_scores(cal.lo, cal.hi, cal.targets, kind.normalized)
    return checks.exact_op(case.name, case.token, calib.margins(own.shape[1]), own, case.alpha)
