"""`ctool`: seeded experiment runner with CSV/JSON outputs.

Configs are INI files with [experiment], [data], and [rounds] sections; every
key has a default and command line flags override the file.  A run writes
``results.csv`` (one row per method, level, and target), ``manifest.json``
(config echo, version, wall time, warnings), and per-figure ``plot_*.csv``
files in long x/series/value form.  Identical config plus seed gives a
byte-identical results CSV: cells are computed from independent seed streams
in a fixed order, and the cells that re-split one pool share each trial's
split (``TrialSplits``).
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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
# fit_method, split_cal_test and score_matrix are imported only for
# perfbench/layers.py, which times those layers by rebinding them here.
from .calibrate import Method, fit_method  # noqa: F401
from .core import Role, SplitSpec, TrialSplits, concat, derive_seed, partition
from .core import split_cal_test  # noqa: F401
from .evaluate import TrialMetrics, run_trials
from .multiround import ProtocolResult, pilot_tau, run_protocol, run_sc_baseline
from .scores import MIN_BAND_WIDTH, ScoreKind, score_matrix  # noqa: F401
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

# Below this tuning size the CDF transforms are too coarse to balance
# per-target coverage; affected trial cells get a manifest warning.
UNDER_TUNED = 500


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


class Cell(NamedTuple):
    """A method token at one level (and sweep value) with the engine's metrics,
    a size sweep's averaged over its runs, and a protocol cell's threshold.
    Runners return their cells in output order; results.csv, the plot files
    and the manifest's warnings and taus are views of them."""

    token: str
    kind: ScoreKind
    alpha: float
    metrics: TrialMetrics | ProtocolResult
    sweep_value: int | None = None
    tau: float | None = None


# Runners call the trial loops and the pilot through this module's globals, at
# call time, and keep one split table alive at a time.


def _splits(cfg: ExperimentConfig) -> TrialSplits:
    """The split table of a run that re-splits one cal/test pool under the config's seed."""
    spec = SplitSpec(seed=cfg.seed, n_tune=cfg.n_tune, n_cal=cfg.n_cal, n_test=cfg.n_test)
    return TrialSplits(spec, cfg.n_cal + cfg.n_test)


def _run_benchmark(cfg: ExperimentConfig) -> list[Cell]:
    """table1 / coverage_sweep: one partition per run into a fixed tune set and
    cal/test pool, then per level, fit the models, band both and re-split the pool."""
    train = gen_synthetic(cfg.n_train, cfg.noise, derive_seed(cfg.seed, 0), role=Role.TRAIN)
    raw = gen_synthetic(
        cfg.n_tune + cfg.n_cal + cfg.n_test, cfg.noise, derive_seed(cfg.seed, 1), role=Role.CAL
    )
    splits = _splits(cfg)
    tune, cal, test = partition(raw, splits.spec)
    rest = concat([cal, test], Role.CAL)
    # Every level's models are fitted before the first trial loop starts.
    pools = []
    for alpha in cfg.alphas:
        models = fit_quantile_models(train, alpha)
        pools.append((alpha, predict_quantiles(models, tune), predict_quantiles(models, rest)))
    cells = []
    for (alpha, tune, rest), token in product(pools, cfg.methods):
        m = run_trials(rest, tune, *METHOD_TOKENS[token], alpha, cfg.trials, splits)
        cells.append(Cell(token, METHOD_TOKENS[token][1], alpha, m))
    return cells


def _run_size_sweep(cfg: ExperimentConfig, vary: str) -> list[Cell]:
    """ntrain_sweep / ntune_sweep: redraw train+tune per run, average runs."""
    alpha = cfg.alphas[0]
    values = cfg.ntrain_values if vary == "n_train" else cfg.ntune_values

    def draw(n: int, role: Role, *path: int):
        return gen_synthetic(n, cfg.noise, derive_seed(cfg.seed, *path), role=role)

    raw_pool = draw(cfg.n_cal + cfg.n_test, Role.CAL, 1)
    cells: list[Cell] = []
    for value in values:
        sized = replace(cfg, **{vary: value})
        per_run = []
        for run in range(cfg.runs):
            # Each run's models are fitted just before its trial loops.
            models = fit_quantile_models(draw(sized.n_train, Role.TRAIN, 0, value, run), alpha)
            tune = predict_quantiles(models, draw(sized.n_tune, Role.TUNE, 2, value, run))
            pool = predict_quantiles(models, raw_pool)
            seed = derive_seed(cfg.seed, 3, value, run)
            spec = SplitSpec(seed=seed, n_tune=sized.n_tune, n_cal=cfg.n_cal, n_test=cfg.n_test)
            splits = TrialSplits(spec, pool.n)
            per_run.append([
                run_trials(pool, tune, *METHOD_TOKENS[t], alpha, cfg.trials, splits)
                for t in cfg.methods
            ])
        for token, runs in zip(cfg.methods, zip(*per_run)):
            columns = zip(*((m.ejc, m.esc, m.mil) for m in runs))
            ejc, esc, mil = (np.mean(column, axis=0) for column in columns)
            mean = TrialMetrics(float(ejc), esc, mil, trials=cfg.trials, n_test=cfg.n_test)
            cells.append(Cell(token, METHOD_TOKENS[token][1], alpha, mean, value))
    return cells


def _protocol_setup(cfg: ExperimentConfig, splits: TrialSplits):
    """Tune set and cal/test pool of a multiround run, and its tau pilot."""
    spec = splits.spec
    base = cfg.round_config(tau=1.0)  # the data and the pilot do not depend on tau
    data = gen_multiround(spec.total, base, derive_seed(cfg.seed, 10))
    # Few prediction samples can clip a band to width 0, which QN scores divide by.
    qn = [token for token in cfg.methods if METHOD_TOKENS[token][1].normalized]
    flat = (data.hi - data.lo < MIN_BAND_WIDTH).reshape(spec.total, cfg.rounds, -1).any(axis=2)
    if qn and flat.any():
        b = int(flat.any(axis=0).argmax())
        raise ValueError(
            f"round {b} has {np.count_nonzero(flat[:, b])} of {spec.total} rows with a zero-width "
            f"quantile band at n_pred={cfg.n_pred}, quantile_alpha={_fmt(cfg.quantile_alpha)}; "
            f"{qn[0]!r} divides scores by the band width: raise n_pred or use a CQR method"
        )
    tune, cal, test = partition(data, spec)
    pool = concat([cal, test], Role.CAL)

    def pilot(alpha: float) -> float:
        """The first listed method's tau pilot: trial 0 of its joint protocol."""
        try:
            return pilot_tau(pool, tune, *METHOD_TOKENS[cfg.methods[0]], alpha, base, splits)
        except ValueError as err:
            msg = f"{err} at alpha={_fmt(alpha)} with n_cal={spec.n_cal}; set a fixed --tau"
            raise ValueError(msg) from None

    return tune, pool, pilot


def _run_multiround(cfg: ExperimentConfig) -> list[Cell]:
    splits = _splits(cfg)
    tune, pool, pilot = _protocol_setup(cfg, splits)
    cells: list[Cell] = []
    for alpha in cfg.alphas:
        tau = pilot(alpha) if cfg.tau is None else cfg.tau
        rc = cfg.round_config(tau=tau)
        for token in cfg.methods:
            kind = METHOD_TOKENS[token][1]
            joint = run_protocol(pool, tune, *METHOD_TOKENS[token], alpha, rc, cfg.trials, splits)
            sc = run_sc_baseline(pool, tune, *METHOD_TOKENS[token], alpha, rc, cfg.trials, splits)
            cells.append(Cell(token, kind, alpha, joint, tau=tau))
            cells.append(Cell("sc" if cfg.tasks == 1 else f"sc_{token}", kind, alpha, sc, tau=tau))
    return cells


def _run_label_sweep(cfg: ExperimentConfig) -> list[Cell]:
    alpha = cfg.alphas[0]
    splits = _splits(cfg)
    # Every task count runs on the same splits, its data drawn once for every
    # method.  The pilot runs on the configured count's data, drawn first.
    tau, cells = cfg.tau, {}
    counts = [cfg.tasks, *cfg.label_values] if tau is None else cfg.label_values
    for labels in dict.fromkeys(counts):
        sized = replace(cfg, tasks=labels)
        tune, pool, pilot = _protocol_setup(sized, splits)
        tau = pilot(alpha) if tau is None else tau
        rc = sized.round_config(tau=tau)
        for token in cfg.methods if labels in cfg.label_values else ():
            res = run_protocol(pool, tune, *METHOD_TOKENS[token], alpha, rc, cfg.trials, splits)
            cells[token, labels] = Cell(token, METHOD_TOKENS[token][1], alpha, res, labels, tau)
    return [cells[key] for key in product(cfg.methods, cfg.label_values)]


class _Experiment(NamedTuple):
    runner: Callable[[ExperimentConfig], list[Cell]]
    fits_models: bool  # to 3-target training data; the multiround ones fit none
    defaults: dict  # those that differ from ExperimentConfig's, which are table1's


_SWEEP = dict(alphas=(0.10,), n_cal=2000, n_test=1000, trials=200)
_ROUNDS = dict(
    methods=("cqr_minimax",), n_train=0, n_tune=2000, n_cal=2000, n_test=1000, trials=200
)
EXPERIMENTS = {
    "table1": _Experiment(_run_benchmark, True, {}),
    "coverage_sweep": _Experiment(
        _run_benchmark, True, dict(alphas=(0.30, 0.25, 0.20, 0.15, 0.10, 0.05))
    ),
    "ntrain_sweep": _Experiment(partial(_run_size_sweep, vary="n_train"), True, _SWEEP),
    "ntune_sweep": _Experiment(partial(_run_size_sweep, vary="n_tune"), True, _SWEEP),
    "multiround": _Experiment(_run_multiround, False, dict(_ROUNDS, alphas=(0.15, 0.10, 0.05))),
    "multiround_labels": _Experiment(_run_label_sweep, False, dict(_ROUNDS, alphas=(0.10,))),
}


def _field(default, parse, sections, flag: str | None = None, **flag_kw):
    """A config field: default, text parser (of each entry, for a tuple field),
    INI section(s), and the command line flag with its argparse keywords."""
    sections = (sections,) if isinstance(sections, str) else sections
    meta = {"parse": parse, "sections": sections, "flag": flag, "flag_kw": flag_kw}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    # The flagged fields come first, in the order of `ctool run --help`.
    experiment: str = _field("table1", str, "experiment", "--experiment", choices=EXPERIMENTS)
    noise: NoiseKind = _field(
        NoiseKind.INDEPENDENT, NoiseKind, "experiment", "--noise",
        choices=[n.value for n in NoiseKind],
    )
    methods: tuple[str, ...] = _field(
        ("ia", "qn", "cpts", "cqr_minimax", "qn_minimax"), str, "experiment", "--methods",
        help="comma list of method tokens",
    )
    alphas: tuple[float, ...] = _field(
        (0.30, 0.20, 0.10, 0.05), float, "experiment", "--alphas",
        help="comma list of miscoverage rates in (0, 1)",
    )
    seed: int = _field(20250811, int, "experiment", "--seed")
    output_dir: str = _field("results", str, "experiment", "--output-dir")
    threads: int = _field(1, int, "experiment", "--threads")
    trials: int = _field(500, int, "data", "--trials")
    n_train: int = _field(5000, int, "data", "--ntrain", help="training-set size")
    n_tune: int = _field(5000, int, "data", "--ntune", help="tuning-set size")
    n_cal: int = _field(5000, int, "data", "--ncal", help="calibration-set size")
    n_test: int = _field(2000, int, "data", "--ntest", help="test-set size")
    runs: int = _field(
        5, int, "experiment", "--runs", help="independent redraws for sweep experiments"
    )
    # None means pilot-chosen per level.
    tau: float | None = _field(
        None, lambda v: None if v == "auto" else float(v), ("experiment", "rounds"), "--tau",
        help="stopping threshold, a number or 'auto'",
    )
    ntrain_values: tuple[int, ...] = _field((50, 500, 1000, 2000), int, "experiment")
    ntune_values: tuple[int, ...] = _field((50, 500, 1000, 2000, 5000, 10000), int, "experiment")
    label_values: tuple[int, ...] = _field((1, 2, 3, 4, 5), int, "experiment")
    rounds: int = _field(RoundConfig.rounds, int, "rounds")
    tasks: int = _field(RoundConfig.tasks, int, "rounds")
    sigma: tuple[float, ...] = _field(RoundConfig.sigma, float, "rounds")
    rates: tuple[float, ...] = _field(RoundConfig.rates, float, "rounds")
    quantile_alpha: float = _field(RoundConfig.quantile_alpha, float, "rounds")
    n_pred: int = _field(RoundConfig.n_pred, int, "rounds")

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}"
            )
        for token in self.methods:
            if token not in METHOD_TOKENS:
                raise ConfigError(f"unknown method {token!r}; known: {', '.join(METHOD_TOKENS)}")
        try:
            # The round layout's own checks, tau included (a placeholder when piloted).
            self.round_config(tau=1.0 if self.tau is None else self.tau)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        fits_models = EXPERIMENTS[self.experiment].fits_models
        # The label sweep calibrates every task count it lists.
        swept = self.label_values if self.experiment == "multiround_labels" else ()
        joint_targets = 3 if fits_models else self.rounds * max((self.tasks, *swept))
        if "single" in self.methods and joint_targets > 1:
            raise ConfigError(
                "method 'single' calibrates exactly one target; this experiment has "
                f"{joint_targets} (use ia for per-target calibration)"
            )
        qn = [token for token in self.methods if METHOD_TOKENS[token][1].normalized]
        if qn and not fits_models and 0 in self.sigma:
            raise ConfigError(
                f"method {qn[0]!r} divides scores by the quantile band width, which is zero "
                "in a round with sigma 0; use a CQR method or positive sigma"
            )
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alphas are miscoverage rates in (0, 1), got {a}")
            # The levels a run derives from alpha, in the floats it computes them in.
            if fits_models and not 0.0 < a / 2.0 < 1.0 - a / 2.0 < 1.0:
                raise ConfigError(f"alpha {a} is too small: the quantile level 1 - alpha/2 is 1")
            if "ia" in self.methods and not 0.0 < 1.0 - (1.0 - a) ** (1.0 / joint_targets) < 1.0:
                raise ConfigError(
                    f"alpha {a} is too small: ia's level 1 - (1 - alpha)^(1/{joint_targets}) is 0"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("n_train", "n_tune", "n_cal", "n_test", "trials", "threads", "runs"):
            # Only the experiments that fit quantile models need training data.
            least = 0 if name == "n_train" and not fits_models else 1
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        # The largest arrays a run allocates hold a float per row drawn and per
        # target, or per prediction sample of a multiround draw; the quantile
        # fit holds, per training row and fitted line, 4 floats and 2 one-byte
        # flags, a near-line set of every entry 6 words and 2 flags more, an
        # epoch's indices and gathers 6 words more, and the memo of line sums
        # 5 flags more (its keys hold up to 4 flag states per entry, and one
        # more is looked up): 137 bytes, two lines per target, and the
        # standardized feature's 8 bytes per row, so at most 282 bytes per
        # training row and target; a cell's per-trial results hold 1 + 2K
        # floats (joint coverage, then per-target coverage and length), a
        # protocol's 3; and the split table, one alive at a time, n_cal + n_test
        # indices per trial in the narrowest unsigned type (2 bytes to 65,536).
        width = joint_targets if fits_models else max(joint_targets, self.n_pred)
        tune_sizes = self.ntune_values if self.experiment == "ntune_sweep" else ()
        train_sizes = self.ntrain_values if self.experiment == "ntrain_sweep" else ()
        drawn = max((self.n_tune + self.n_cal + self.n_test, *tune_sizes))
        trained = max((self.n_train, *train_sizes)) if fits_models else 0
        pool = self.n_cal + self.n_test
        index = np.min_scalar_type(pool - 1).itemsize
        per_trial = max(8 * (1 + 2 * joint_targets if fits_models else 3), index * pool)
        need = max(8 * drawn * width, 282 * joint_targets * trained, per_trial * self.trials)
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # unknown here: no check
            memory = 0
        if 0 < memory < need:
            raise ConfigError(
                f"the data sizes need a {need / 2**30:.1f} GiB array, more than the "
                f"{memory / 2**30:.1f} GiB of physical memory"
            )
        for name in ("ntrain_values", "ntune_values", "label_values"):
            if any(v < 1 for v in getattr(self, name)):
                raise ConfigError(f"{name} must all be at least 1, got {getattr(self, name)}")
        for name in ("methods", "alphas", "ntrain_values", "ntune_values", "label_values"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} lists {', '.join(map(str, repeated))} more than once")

    def round_config(self, tau: float) -> RoundConfig:
        layout = {f.name: getattr(self, f.name) for f in fields(RoundConfig) if f.name != "tau"}
        return RoundConfig(**layout, tau=tau)


# (INI section, key) -> the config field it sets.
_INI_KEYS = {
    (section, f.name): f for f in fields(ExperimentConfig) for section in f.metadata["sections"]
}


def _parse(f, text: str, where: str):
    """Parse one field's text (a comma list for a tuple field) read from ``where``."""
    conv = f.metadata["parse"]
    try:
        if isinstance(f.default, tuple):
            return tuple(conv(part.strip()) for part in text.split(",") if part.strip())
        return conv(text)
    except ValueError as err:
        raise ConfigError(f"{where}: could not parse {text!r}: {err}") from err


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
        if not any(section == known for known, _ in _INI_KEYS):
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            f = _INI_KEYS.get((section, key))
            if f is None:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            if key in values:
                raise ConfigError(f"{path}: {key} is set in more than one section")
            values[key] = _parse(f, raw, f"{path}: [{section}] {key}")
    return values


def build_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Merge file values and flag overrides onto per-experiment defaults."""
    merged = {**file_values, **flag_values}
    # An unknown experiment gets no defaults; ExperimentConfig rejects it.
    experiment = EXPERIMENTS.get(merged.get("experiment", "table1"))
    defaults = experiment.defaults if experiment else {}
    for key, value in defaults.items():
        merged.setdefault(key, value)
    try:
        return ExperimentConfig(**merged)
    except TypeError as err:
        raise ConfigError(str(err)) from err


def _write_atomic(path: Path, write) -> None:
    """Write ``path`` through a temp file, so a failed run leaves no half-written output."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _n_tune(cfg: ExperimentConfig, cell: Cell) -> int:
    """The tuning-set size a cell ran with: its sweep value on ntune_sweep."""
    return cell.sweep_value if cfg.experiment == "ntune_sweep" else cfg.n_tune


def _results_table(cfg: ExperimentConfig, cells: list[Cell]) -> list[list[str]]:
    """results.csv: a row per target of each trial cell, one row per protocol cell."""
    table = [list(CSV_COLUMNS)]
    for cell in cells:
        m = cell.metrics
        row = dict.fromkeys(CSV_COLUMNS)
        row.update(
            experiment=cfg.experiment, method=cell.token, score_kind=cell.kind.value,
            alpha=cell.alpha, n_cal=cfg.n_cal, n_tune=_n_tune(cfg, cell), T=cfg.trials,
            seed=cfg.seed, sweep_value=cell.sweep_value,
        )
        if isinstance(m, ProtocolResult):
            rows = [dict(row, ejc=m.ejc_all, eac=m.eac, r_avg=m.r_avg)]
        else:
            per_target = enumerate(zip(m.esc, m.mil), 1)
            rows = [dict(row, target=k, ejc=m.ejc, esc=e, mil=l) for k, (e, l) in per_target]
        table += [[_fmt(r[col]) for col in CSV_COLUMNS] for r in rows]
    return table


def _under_tuned(cfg: ExperimentConfig, cells: list[Cell]) -> list[str]:
    """A warning, once per distinct message in cell order, for each trial cell
    of a CDF method tuned on too few rows."""
    return list(dict.fromkeys(
        f"{cell.token} at n_tune={_n_tune(cfg, cell)}: under-tuned (below {UNDER_TUNED}); "
        "per-target coverage may be imbalanced"
        for cell in cells
        if isinstance(cell.metrics, TrialMetrics)
        and METHOD_TOKENS[cell.token][0] in (Method.MINIMAX, Method.COPULA)
        and _n_tune(cfg, cell) < UNDER_TUNED
    ))


def emit_plotdata(cells: list[Cell], outdir: Path) -> list[Path]:
    """Write per-figure long-format (x, series, value) CSVs, views of the cells.

    x is a cell's sweep value, else 1 - alpha.  A protocol cell adds its accepted
    coverage and speed-up; a trial cell its per-target coverage extremes and,
    off a sweep, its joint coverage and lengths.  Values are formatted like the
    main CSV's, so shared quantities match it exactly.
    """
    files: dict[str, list[tuple]] = {}
    for cell in cells:
        m, name = cell.metrics, cell.token
        if isinstance(m, ProtocolResult):
            points = [("eac", name, m.eac), ("ravg", name, m.r_avg)]
        else:
            points = [("esc_extremes", f"{name}/{s}", getattr(m.esc, s)()) for s in ("min", "max")]
            if cell.sweep_value is None:
                mil = [("mil", f"{name}/t{k}", v) for k, v in enumerate(m.mil, 1)]
                points = [("ejc", name, m.ejc), *points, *mil]
        x = _fmt(1.0 - cell.alpha if cell.sweep_value is None else cell.sweep_value)
        for figure, series, value in points:
            rows = files.setdefault(f"plot_{figure}.csv", [("x", "series", "value")])
            rows.append((x, series, _fmt(value)))
    for filename, rows in files.items():
        _write_atomic(outdir / filename, lambda fh: csv.writer(fh).writerows(rows))
    return [outdir / filename for filename in files]


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns a process exit status."""
    started = time.perf_counter()
    outdir = Path(cfg.output_dir)
    manifest_path = outdir / "manifest.json"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.touch()
        probe.unlink()
        # Written last, the manifest then always describes the outputs beside it.
        manifest_path.unlink(missing_ok=True)
    except OSError as err:
        print(f"ctool: cannot write to output dir {outdir}: {err}", file=sys.stderr)
        return 1
    cells = EXPERIMENTS[cfg.experiment].runner(cfg)
    table, warnings = _results_table(cfg, cells), _under_tuned(cfg, cells)
    try:
        _write_atomic(outdir / "results.csv", lambda fh: csv.writer(fh).writerows(table))
        plot_paths = emit_plotdata(cells, outdir)
        manifest = {
            "version": __version__,
            "config": asdict(cfg),
            "warnings": warnings,
            "outputs": ["results.csv"] + [p.name for p in plot_paths],
            "wall_time_s": round(time.perf_counter() - started, 3),
        }
        taus = {_fmt(cell.alpha): cell.tau for cell in cells if cell.tau is not None}
        if taus:
            manifest["tau_used"] = taus
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_atomic(manifest_path, lambda fh: fh.write(text))
    except OSError as err:  # a full disk, for one
        print(f"ctool: cannot write outputs: {err}", file=sys.stderr)
        return 1
    for warning in warnings:
        print(f"ctool: warning: {warning}", file=sys.stderr)
    return 0


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctool", description="seeded multi-target conformal experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag that is not given leaves no attribute, so file values stand.
    runp = sub.add_parser(
        "run", help="run one experiment from a config file and/or flags",
        argument_default=argparse.SUPPRESS,
    )
    runp.add_argument("config", nargs="?", default=None, help="INI config path (optional)")
    for f in fields(ExperimentConfig):
        if f.metadata["flag"]:
            runp.add_argument(f.metadata["flag"], **f.metadata["flag_kw"])
    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    """Parsed values of the flags given, read like the file's."""
    values = {}
    for f in fields(ExperimentConfig):
        flag = f.metadata["flag"]
        dest = flag and flag[2:].replace("-", "_")
        if dest in vars(args):
            values[f.name] = _parse(f, getattr(args, dest), flag)
    return values


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        file_values = read_config_file(Path(args.config)) if args.config else {}
        cfg = build_config(file_values, _flag_values(args))
    except ValueError as err:  # ConfigError is one
        print(f"ctool: config error: {err}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ValueError as err:
        print(f"ctool: run error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
