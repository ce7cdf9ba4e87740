"""`ctool`: seeded experiment runner with CSV/JSON outputs.

Configs are INI files with [experiment], [data], and [rounds] sections; every
key has a default and command line flags override the file.  A run writes
``results.csv`` (one row per method, level, and target), ``manifest.json``
(config echo, version, wall time, warnings), and per-figure ``plot_*.csv``
files in long x/series/value form.  Identical config plus seed gives a
byte-identical results CSV, also across thread counts: cells are computed
from independent seed streams and assembled in a fixed order.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import Method, fit_method
from .core import Role, SplitSpec, concat, derive_seed, partition, split_cal_test, trial_rng
from .evaluate import TrialMetrics, run_trials
from .multiround import pilot_tau, run_protocol, run_sc_baseline, sweep_labels
from .scores import ScoreKind, score_matrix
from .synthetic import (
    NoiseKind,
    RoundConfig,
    fit_quantile_models,
    gen_multiround,
    gen_synthetic,
    predict_quantiles,
)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


EXPERIMENTS = (
    "table1",
    "coverage_sweep",
    "ntrain_sweep",
    "ntune_sweep",
    "multiround",
    "multiround_labels",
)

# Method tokens accepted in configs, mapped to (calibration, score kind).
METHOD_TOKENS: dict[str, tuple[Method, ScoreKind]] = {
    "single": (Method.SINGLE, ScoreKind.CQR),
    "ia": (Method.IA, ScoreKind.CQR),
    "qn": (Method.QN_MAX, ScoreKind.QN),
    "max_cqr": (Method.QN_MAX, ScoreKind.CQR),
    "cpts": (Method.COPULA, ScoreKind.CQR),
    "copula": (Method.COPULA, ScoreKind.CQR),
    "cqr_minimax": (Method.MINIMAX, ScoreKind.CQR),
    "qn_minimax": (Method.MINIMAX, ScoreKind.QN),
}

_FULL_BENCH = ("ia", "qn", "cpts", "cqr_minimax", "qn_minimax")
DEFAULT_METHODS = {
    "table1": _FULL_BENCH,
    "coverage_sweep": _FULL_BENCH,
    "ntrain_sweep": _FULL_BENCH,
    "ntune_sweep": _FULL_BENCH,
    "multiround": ("cqr_minimax",),
    "multiround_labels": ("cqr_minimax",),
}
DEFAULT_ALPHAS = {
    "table1": (0.30, 0.20, 0.10, 0.05),
    "coverage_sweep": (0.30, 0.25, 0.20, 0.15, 0.10, 0.05),
    "ntrain_sweep": (0.10,),
    "ntune_sweep": (0.10,),
    "multiround": (0.15, 0.10, 0.05),
    "multiround_labels": (0.10,),
}
DEFAULT_DATA = {
    "table1": dict(n_train=5000, n_tune=5000, n_cal=5000, n_test=2000, trials=500),
    "coverage_sweep": dict(n_train=5000, n_tune=5000, n_cal=5000, n_test=2000, trials=500),
    "ntrain_sweep": dict(n_train=5000, n_tune=5000, n_cal=2000, n_test=1000, trials=200),
    "ntune_sweep": dict(n_train=5000, n_tune=5000, n_cal=2000, n_test=1000, trials=200),
    "multiround": dict(n_train=0, n_tune=2000, n_cal=2000, n_test=1000, trials=200),
    "multiround_labels": dict(n_train=0, n_tune=2000, n_cal=2000, n_test=1000, trials=200),
}

CSV_COLUMNS = (
    "experiment",
    "method",
    "score_kind",
    "alpha",
    "target",
    "ejc",
    "esc",
    "mil",
    "eac",
    "r_avg",
    "n_cal",
    "n_tune",
    "T",
    "seed",
    "sweep_value",
)

# Experiments that fit quantile models to a training set of 3-target data.
_FITTED_EXPERIMENTS = ("table1", "coverage_sweep", "ntrain_sweep", "ntune_sweep")

# Below this tuning size the CDF transforms are too coarse to balance
# per-target coverage; affected rows get a manifest warning.
UNDER_TUNED = 500


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "table1"
    noise: NoiseKind = NoiseKind.INDEPENDENT
    methods: tuple[str, ...] = _FULL_BENCH
    alphas: tuple[float, ...] = DEFAULT_ALPHAS["table1"]
    n_train: int = 5000
    n_tune: int = 5000
    n_cal: int = 5000
    n_test: int = 2000
    trials: int = 500
    seed: int = 20250811
    output_dir: str = "results"
    threads: int = 1
    runs: int = 5
    tau: float | None = None  # None means pilot-chosen per level
    ntrain_values: tuple[int, ...] = (50, 500, 1000, 2000)
    ntune_values: tuple[int, ...] = (50, 500, 1000, 2000, 5000, 10000)
    label_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    rounds: int = 5
    tasks: int = 1
    sigma: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05, 0.02)
    rates: tuple[float, ...] = (16.0, 8.0, 4.0, 2.0, 1.0)
    quantile_alpha: float = 0.1
    n_pred: int = 32

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}"
            )
        for token in self.methods:
            if token not in METHOD_TOKENS:
                raise ConfigError(f"unknown method {token!r}; known: {', '.join(METHOD_TOKENS)}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        fits_models = self.experiment in _FITTED_EXPERIMENTS
        if "single" in self.methods:
            joint_targets = 3 if fits_models else self.rounds * self.tasks
            if joint_targets > 1:
                raise ConfigError(
                    "method 'single' calibrates exactly one target; this experiment has "
                    f"{joint_targets} (use ia for per-target calibration)"
                )
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alphas are miscoverage rates in (0, 1), got {a}")
        if not self.alphas:
            raise ConfigError("alphas must not be empty")
        for name in ("n_tune", "n_cal", "n_test", "trials", "threads", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.n_train < 0:
            raise ConfigError("n_train must not be negative")
        if fits_models and self.n_train < 1:
            raise ConfigError(f"n_train must be at least 1: {self.experiment} fits quantile models")
        for name in ("ntrain_values", "ntune_values", "label_values"):
            if any(v < 1 for v in getattr(self, name)):
                raise ConfigError(f"{name} must all be at least 1, got {getattr(self, name)}")
        for name in ("methods", "alphas", "ntrain_values", "ntune_values", "label_values"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} lists {', '.join(map(str, repeated))} more than once")
        if self.tau is not None and not self.tau > 0:
            raise ConfigError("tau must be positive (or omitted for pilot choice)")

    def round_config(self, tau: float) -> RoundConfig:
        return RoundConfig(
            rounds=self.rounds, tasks=self.tasks, sigma=self.sigma, rates=self.rates, tau=tau
        )


def _parse_list(text: str, conv, where: str) -> tuple:
    try:
        return tuple(conv(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise ConfigError(f"{where}: could not parse {text!r}: {err}") from err


_KEY_PARSERS = {
    ("experiment", "experiment"): str,
    ("experiment", "noise"): lambda v: NoiseKind(v),
    ("experiment", "methods"): lambda v: _parse_list(v, str, "[experiment] methods"),
    ("experiment", "alphas"): lambda v: _parse_list(v, float, "[experiment] alphas"),
    ("experiment", "seed"): int,
    ("experiment", "output_dir"): str,
    ("experiment", "threads"): int,
    ("experiment", "runs"): int,
    ("experiment", "tau"): lambda v: None if v == "auto" else float(v),
    ("experiment", "ntrain_values"): lambda v: _parse_list(v, int, "[experiment] ntrain_values"),
    ("experiment", "ntune_values"): lambda v: _parse_list(v, int, "[experiment] ntune_values"),
    ("experiment", "label_values"): lambda v: _parse_list(v, int, "[experiment] label_values"),
    ("data", "n_train"): int,
    ("data", "n_tune"): int,
    ("data", "n_cal"): int,
    ("data", "n_test"): int,
    ("data", "trials"): int,
    ("rounds", "rounds"): int,
    ("rounds", "tasks"): int,
    ("rounds", "sigma"): lambda v: _parse_list(v, float, "[rounds] sigma"),
    ("rounds", "rates"): lambda v: _parse_list(v, float, "[rounds] rates"),
    ("rounds", "tau"): lambda v: None if v == "auto" else float(v),
    ("rounds", "quantile_alpha"): float,
    ("rounds", "n_pred"): int,
}


def read_config_file(path: Path) -> dict:
    """Parse an INI config into a {field: value} dict, diagnosing bad keys."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    values: dict = {}
    for section in parser.sections():
        if section not in ("experiment", "data", "rounds"):
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            conv = _KEY_PARSERS.get((section, key))
            if conv is None:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                values[key] = conv(raw)
            except ConfigError:
                raise
            except ValueError as err:
                raise ConfigError(f"{path}: [{section}] {key}: {err}") from err
    return values


def build_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Merge file values and flag overrides onto per-experiment defaults."""
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    if merged.get("tau") == "auto":
        merged["tau"] = None
    experiment = merged.get("experiment", "table1")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        )
    defaults = dict(DEFAULT_DATA[experiment])
    defaults["methods"] = DEFAULT_METHODS[experiment]
    defaults["alphas"] = DEFAULT_ALPHAS[experiment]
    env_threads = os.environ.get("CTOOL_THREADS")
    if env_threads is not None and "threads" not in merged:
        try:
            defaults["threads"] = int(env_threads)
        except ValueError as err:
            raise ConfigError(f"CTOOL_THREADS: {err}") from err
    for key, value in defaults.items():
        merged.setdefault(key, value)
    try:
        return ExperimentConfig(**merged)
    except TypeError as err:
        raise ConfigError(str(err)) from err


def _fmt(value) -> str:
    """Serialize one CSV cell: 6 significant digits, inf spelled out."""
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6g}"


def _base_row(cfg: ExperimentConfig, token: str, alpha: float, n_tune: int | None = None) -> dict:
    kind = METHOD_TOKENS[token][1].value if token in METHOD_TOKENS else ""
    return {
        "experiment": cfg.experiment,
        "method": token,
        "score_kind": kind,
        "alpha": alpha,
        "target": None,
        "ejc": None,
        "esc": None,
        "mil": None,
        "eac": None,
        "r_avg": None,
        "n_cal": cfg.n_cal,
        "n_tune": cfg.n_tune if n_tune is None else n_tune,
        "T": cfg.trials,
        "seed": cfg.seed,
        "sweep_value": None,
    }


def _metric_rows(
    cfg: ExperimentConfig,
    token: str,
    alpha: float,
    ejc: float,
    esc: np.ndarray,
    mil: np.ndarray,
    n_tune: int | None = None,
    sweep_value=None,
) -> list[dict]:
    rows = []
    for k in range(len(esc)):
        row = _base_row(cfg, token, alpha, n_tune)
        row.update(
            target=k + 1, ejc=ejc, esc=float(esc[k]), mil=float(mil[k]), sweep_value=sweep_value
        )
        rows.append(row)
    return rows


def _parallel(tasks, threads: int) -> list:
    """Run zero-argument callables, preserving order, optionally threaded."""
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _bench_prep(cfg: ExperimentConfig, alpha: float):
    """Fixed tune set plus cal/test pool for one level of a benchmark run."""
    train = gen_synthetic(cfg.n_train, cfg.noise, derive_seed(cfg.seed, 0), role=Role.TRAIN)
    models = fit_quantile_models(train, alpha)
    raw = gen_synthetic(
        cfg.n_tune + cfg.n_cal + cfg.n_test, cfg.noise, derive_seed(cfg.seed, 1), role=Role.CAL
    )
    pool = predict_quantiles(models, raw)
    spec = SplitSpec(seed=cfg.seed, n_tune=cfg.n_tune, n_cal=cfg.n_cal, n_test=cfg.n_test)
    tune, cal, test = partition(pool, spec)
    return spec, tune, concat([cal, test], Role.CAL)


def _run_benchmark(cfg: ExperimentConfig) -> tuple[list[dict], list[str], dict]:
    preps = [_bench_prep(cfg, alpha) for alpha in cfg.alphas]
    cells = []
    for prep, alpha in zip(preps, cfg.alphas):
        spec, tune, rest = prep
        for token in cfg.methods:
            method, kind = METHOD_TOKENS[token]
            cells.append(
                lambda spec=spec, tune=tune, rest=rest, method=method, kind=kind, alpha=alpha: run_trials(
                    rest, tune, method, kind, alpha, cfg.trials, spec
                )
            )
    results = _parallel(cells, cfg.threads)
    rows: list[dict] = []
    i = 0
    for alpha in cfg.alphas:
        for token in cfg.methods:
            m: TrialMetrics = results[i]
            rows.extend(_metric_rows(cfg, token, alpha, m.ejc, m.esc, m.mil))
            i += 1
    return rows, [], {}


def _run_size_sweep(cfg: ExperimentConfig, vary: str) -> tuple[list[dict], list[str], dict]:
    """ntrain_sweep / ntune_sweep: redraw train+tune per run, average runs."""
    alpha = cfg.alphas[0]
    values = cfg.ntrain_values if vary == "n_train" else cfg.ntune_values
    raw_pool = gen_synthetic(
        cfg.n_cal + cfg.n_test, cfg.noise, derive_seed(cfg.seed, 1), role=Role.CAL
    )
    rows: list[dict] = []
    warnings: list[str] = []
    for value in values:
        n_train = value if vary == "n_train" else cfg.n_train
        n_tune = value if vary == "n_tune" else cfg.n_tune

        def one_run(run: int, n_train=n_train, n_tune=n_tune, value=value) -> list[TrialMetrics]:
            train = gen_synthetic(
                n_train, cfg.noise, derive_seed(cfg.seed, 0, value, run), role=Role.TRAIN
            )
            models = fit_quantile_models(train, alpha)
            tune = predict_quantiles(
                models,
                gen_synthetic(
                    n_tune, cfg.noise, derive_seed(cfg.seed, 2, value, run), role=Role.TUNE
                ),
            )
            pool = predict_quantiles(models, raw_pool)
            spec = SplitSpec(
                seed=derive_seed(cfg.seed, 3, value, run),
                n_tune=n_tune,
                n_cal=cfg.n_cal,
                n_test=cfg.n_test,
            )
            out = []
            for token in cfg.methods:
                method, kind = METHOD_TOKENS[token]
                out.append(run_trials(pool, tune, method, kind, alpha, cfg.trials, spec))
            return out

        per_run = _parallel(
            [lambda run=run: one_run(run) for run in range(cfg.runs)], cfg.threads
        )
        for j, token in enumerate(cfg.methods):
            ejc = float(np.mean([res[j].ejc for res in per_run]))
            esc = np.mean([res[j].esc for res in per_run], axis=0)
            mil = np.mean([res[j].mil for res in per_run], axis=0)
            rows.extend(
                _metric_rows(cfg, token, alpha, ejc, esc, mil, n_tune=n_tune, sweep_value=value)
            )
            method = METHOD_TOKENS[token][0]
            if n_tune < UNDER_TUNED and method in (Method.MINIMAX, Method.COPULA):
                warnings.append(
                    f"{token} at n_tune={n_tune}: under-tuned (below {UNDER_TUNED}); "
                    "per-target coverage may be imbalanced"
                )
    return rows, warnings, {}


def _protocol_row(cfg, token, alpha, result, tau, sweep_value=None) -> dict:
    row = _base_row(cfg, token, alpha)
    row.update(ejc=result.ejc_all, eac=result.eac, r_avg=result.r_avg, sweep_value=sweep_value)
    return row


def _pilot_tau(cfg, pool, tune, spec, alpha) -> float:
    """Median conformalized next-to-last-round length on the trial-0 split."""
    method, kind = METHOD_TOKENS[cfg.methods[0]]
    base = cfg.round_config(tau=1.0)
    cal, test = split_cal_test(pool, spec.n_cal, spec.n_test, trial_rng(spec, 0))
    calib = fit_method(
        method,
        score_matrix(cal.lo, cal.hi, cal.targets, kind),
        alpha,
        kind,
        score_matrix(tune.lo, tune.hi, tune.targets, kind),
    )
    return pilot_tau(test, base, calib=calib)


def _run_multiround(cfg: ExperimentConfig) -> tuple[list[dict], list[str], dict]:
    base = cfg.round_config(tau=cfg.tau if cfg.tau is not None else 1.0)
    data = gen_multiround(
        cfg.n_tune + cfg.n_cal + cfg.n_test,
        base,
        derive_seed(cfg.seed, 10),
        quantile_alpha=cfg.quantile_alpha,
        n_pred=cfg.n_pred,
    )
    spec = SplitSpec(seed=cfg.seed, n_tune=cfg.n_tune, n_cal=cfg.n_cal, n_test=cfg.n_test)
    tune, cal, test = partition(data, spec)
    pool = concat([cal, test], Role.CAL)
    rows: list[dict] = []
    taus: dict[str, float] = {}
    for alpha in cfg.alphas:
        tau = cfg.tau if cfg.tau is not None else _pilot_tau(cfg, pool, tune, spec, alpha)
        taus[_fmt(alpha)] = tau
        rc = cfg.round_config(tau=tau)
        for token in cfg.methods:
            method, kind = METHOD_TOKENS[token]
            joint = run_protocol(pool, tune, method, alpha, rc, cfg.trials, spec, kind)
            rows.append(_protocol_row(cfg, token, alpha, joint, tau))
            sc = run_sc_baseline(pool, tune, alpha, rc, cfg.trials, spec, kind, method)
            sc_token = "sc" if cfg.tasks == 1 else f"sc_{token}"
            sc_row = _protocol_row(cfg, sc_token, alpha, sc, tau)
            sc_row["score_kind"] = kind.value
            rows.append(sc_row)
    return rows, [], {"tau_used": taus}


def _run_label_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[str], dict]:
    alpha = cfg.alphas[0]
    base = cfg.round_config(tau=cfg.tau if cfg.tau is not None else 1.0)
    spec = SplitSpec(seed=cfg.seed, n_tune=cfg.n_tune, n_cal=cfg.n_cal, n_test=cfg.n_test)
    if cfg.tau is None:
        data = gen_multiround(
            spec.total, base, derive_seed(cfg.seed, 10), quantile_alpha=cfg.quantile_alpha,
            n_pred=cfg.n_pred,
        )
        tune, cal, test = partition(data, spec)
        tau = _pilot_tau(cfg, concat([cal, test], Role.CAL), tune, spec, alpha)
    else:
        tau = cfg.tau
    rows: list[dict] = []
    for token in cfg.methods:
        method, kind = METHOD_TOKENS[token]
        results = sweep_labels(
            list(cfg.label_values),
            replace(base, tau=tau),
            method,
            alpha,
            cfg.trials,
            spec,
            derive_seed(cfg.seed, 10),
            score_kind=kind,
            quantile_alpha=cfg.quantile_alpha,
        )
        for labels, result in zip(cfg.label_values, results):
            rows.append(_protocol_row(cfg, token, alpha, result, tau, sweep_value=labels))
    return rows, [], {"tau_used": {_fmt(alpha): tau}}


_RUNNERS = {
    "table1": _run_benchmark,
    "coverage_sweep": _run_benchmark,
    "ntrain_sweep": lambda cfg: _run_size_sweep(cfg, "n_train"),
    "ntune_sweep": lambda cfg: _run_size_sweep(cfg, "n_tune"),
    "multiround": _run_multiround,
    "multiround_labels": _run_label_sweep,
}


def _plot_rows(rows: list[dict], x_of, series_of, value_key: str) -> list[dict]:
    out = []
    for row in rows:
        if row.get(value_key) is None:
            continue
        out.append({"x": x_of(row), "series": series_of(row), "value": row[value_key]})
    return out


def emit_plotdata(rows: list[dict], outdir: Path) -> list[Path]:
    """Write per-figure long-format CSVs derived from the results rows.

    Values are formatted with the same serializer as the main CSV, so shared
    quantities (the joint-coverage series in particular) match it exactly.
    """
    if not rows:
        return []
    experiment = rows[0]["experiment"]
    files: dict[str, list[dict]] = {}
    cov = lambda row: 1.0 - row["alpha"]
    if experiment in ("table1", "coverage_sweep"):
        first = [r for r in rows if r["target"] == 1]
        files["plot_ejc.csv"] = _plot_rows(first, cov, lambda r: r["method"], "ejc")
        extremes = []
        for row in first:
            group = [
                r["esc"] for r in rows if r["method"] == row["method"] and r["alpha"] == row["alpha"]
            ]
            extremes.append({"x": cov(row), "series": f"{row['method']}/min", "value": min(group)})
            extremes.append({"x": cov(row), "series": f"{row['method']}/max", "value": max(group)})
        files["plot_esc_extremes.csv"] = extremes
        files["plot_mil.csv"] = _plot_rows(
            rows, cov, lambda r: f"{r['method']}/t{r['target']}", "mil"
        )
    elif experiment in ("ntrain_sweep", "ntune_sweep"):
        first = [r for r in rows if r["target"] == 1]
        extremes = []
        for row in first:
            group = [
                r["esc"]
                for r in rows
                if r["method"] == row["method"] and r["sweep_value"] == row["sweep_value"]
            ]
            x = row["sweep_value"]
            extremes.append({"x": x, "series": f"{row['method']}/min", "value": min(group)})
            extremes.append({"x": x, "series": f"{row['method']}/max", "value": max(group)})
        files["plot_esc_extremes.csv"] = extremes
    elif experiment == "multiround":
        files["plot_eac.csv"] = _plot_rows(rows, cov, lambda r: r["method"], "eac")
        files["plot_ravg.csv"] = _plot_rows(rows, cov, lambda r: r["method"], "r_avg")
    elif experiment == "multiround_labels":
        sv = lambda row: row["sweep_value"]
        files["plot_eac.csv"] = _plot_rows(rows, sv, lambda r: r["method"], "eac")
        files["plot_ravg.csv"] = _plot_rows(rows, sv, lambda r: r["method"], "r_avg")
    written = []
    for name, content in files.items():
        path = outdir / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("x", "series", "value"))
            for entry in content:
                writer.writerow((_fmt(entry["x"]), entry["series"], _fmt(entry["value"])))
        written.append(path)
    return written


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg)
    echo["noise"] = cfg.noise.value
    for key, value in echo.items():
        if isinstance(value, tuple):
            echo[key] = list(value)
    return echo


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns a process exit status."""
    started = time.time()
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as err:
        print(f"ctool: cannot write to output dir {outdir}: {err}", file=sys.stderr)
        return 1
    rows, warnings, extras = _RUNNERS[cfg.experiment](cfg)
    results_path = outdir / "results.csv"
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(tuple(_fmt(row[col]) for col in CSV_COLUMNS))
    plot_paths = emit_plotdata(rows, outdir)
    manifest = {
        "version": __version__,
        "config": _config_echo(cfg),
        "warnings": warnings,
        "outputs": ["results.csv"] + [p.name for p in plot_paths],
        "wall_time_s": round(time.time() - started, 3),
    }
    manifest.update(extras)
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for warning in warnings:
        print(f"ctool: warning: {warning}", file=sys.stderr)
    return 0


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctool", description="seeded multi-target conformal experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file and/or flags")
    runp.add_argument("config", nargs="?", default=None, help="INI config path (optional)")
    runp.add_argument("--experiment", choices=EXPERIMENTS)
    runp.add_argument("--noise", choices=[n.value for n in NoiseKind])
    runp.add_argument("--methods", help="comma list of method tokens")
    runp.add_argument("--alphas", help="comma list of miscoverage rates in (0, 1)")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--output-dir")
    runp.add_argument("--threads", type=int)
    runp.add_argument("--trials", type=int)
    runp.add_argument("--ntrain", type=int, help="training-set size")
    runp.add_argument("--ntune", type=int, help="tuning-set size")
    runp.add_argument("--ncal", type=int, help="calibration-set size")
    runp.add_argument("--ntest", type=int, help="test-set size")
    runp.add_argument("--runs", type=int, help="independent redraws for sweep experiments")
    runp.add_argument("--tau", help="stopping threshold, a number or 'auto'")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        file_values = read_config_file(Path(args.config)) if args.config else {}
        flag_values = {
            "experiment": args.experiment,
            "noise": NoiseKind(args.noise) if args.noise else None,
            "methods": _parse_list(args.methods, str, "--methods") if args.methods else None,
            "alphas": _parse_list(args.alphas, float, "--alphas") if args.alphas else None,
            "seed": args.seed,
            "output_dir": args.output_dir,
            "threads": args.threads,
            "trials": args.trials,
            "n_train": args.ntrain,
            "n_tune": args.ntune,
            "n_cal": args.ncal,
            "n_test": args.ntest,
            "runs": args.runs,
            "tau": (args.tau if args.tau == "auto" else float(args.tau)) if args.tau else None,
        }
        cfg = build_config(file_values, flag_values)
    except ConfigError as err:
        print(f"ctool: config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"ctool: config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
