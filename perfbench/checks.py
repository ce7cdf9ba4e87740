"""Output checks: properties the methods must have, computed apart from `ctool`.

None of these compares against a stored copy of earlier output.  Monte Carlo
cells are checked against the finite-sample coverage sandwich widened by an
allowance for sampling; single calibrations are checked exactly, by counting
in this module's own numpy how many calibration rows their thresholds cover
(the rank guarantee of split conformal, Lei et al., JASA 2018).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Standard errors in the Monte Carlo allowance.  Over eight seeds the valid
# methods' joint coverage stayed within 2.3 of them of 1 - alpha.
Z = 5.0

# Largest accepted excess of a fitted model's pinball loss over the exact
# linear-programming optimum (today: at most 0.03% at n_train = 5000).
PINBALL_EXCESS = 0.01

# Methods whose raw thresholds come from `calibrate._materialize_zeta`.
CDF_TOKENS = ("cpts", "copula", "cqr_minimax", "qn_minimax")
FAULT = (
    "raw-threshold fault: calibrate._materialize_zeta/raw_threshold maps the CDF level j/m "
    "to the j-th tuning order statistic, but the calibrated set is {s < (j+1)-th}"
)


@dataclass(frozen=True)
class Op:
    """One checked operation: a result cell or one exact calibration."""

    name: str
    problems: tuple[str, ...] = ()
    known_fault: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def fmt(value: float) -> str:
    """6 significant digits, the precision `ctool` writes."""
    return f"{value:.6g}"


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def allowance(alpha: float, trials: int, n_cal: int, n_test: int) -> float:
    """Z standard errors of a coverage average over `trials` re-splits.

    Each trial's coverage varies through its test set (binomial over n_test)
    and through its calibration set (the threshold's own coverage has
    variance about p(1-p)/n_cal).
    """
    p = 1.0 - alpha
    return Z * math.sqrt(p * (1.0 - p) * (1.0 / n_test + 1.0 / n_cal) / trials)


def sandwich(value: float, alpha: float, n_cal: int, a: float, upper: bool = True) -> str | None:
    """Problem text when `value` leaves [1-alpha - a, 1-alpha + 1/(n+1) + a]."""
    lo = 1.0 - alpha - a
    hi = 1.0 - alpha + 1.0 / (n_cal + 1) + a
    if value < lo:
        return f"{value:.6g} below {lo:.6g}"
    if upper and value > hi:
        return f"{value:.6g} above {hi:.6g}"
    return None


class Plots:
    """The long-form `plot_*.csv` files of one run, keyed by (file, x, series)."""

    def __init__(self, outdir: Path) -> None:
        self.values: dict[tuple[str, str, str], float] = {}
        self.duplicates: list[tuple[str, str, str]] = []
        for path in sorted(outdir.glob("plot_*.csv")):
            for row in read_csv(path):
                key = (path.name, row["x"], row["series"])
                if key in self.values:
                    self.duplicates.append(key)
                self.values[key] = float(row["value"])

    def expect(self, problems: list[str], name: str, x: str, series: str, value: float) -> None:
        got = self.values.get((name, x, series))
        if got is None:
            problems.append(f"{name} has no ({x}, {series})")
        elif got != value:
            problems.append(f"{name} ({x}, {series}) = {got!r}, results.csv gives {value!r}")


def _group(rows: list[dict], keys: tuple[str, ...]) -> dict[tuple, list[dict]]:
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault(tuple(row[k] for k in keys), []).append(row)
    return cells


def check_benchmark(
    outdir: Path,
    methods: tuple[str, ...],
    alphas: tuple[float, ...],
    sweep: tuple[int, ...] | None,
    n_cal: int,
    n_test: int,
    trials: int,
    mc_joint: tuple[str, ...],
) -> list[Op]:
    """Cells of a table1 or ntune_sweep run: one per method, level and sweep value.

    ``trials`` counts every trial behind a cell (runs times T for sweeps).
    The joint methods in ``mc_joint`` have their Monte Carlo coverage held to
    the sandwich; the others are left to the exact calibrations.  Mean
    lengths must be positive, and finite on table1: on a sweep an under-tuned
    CDF method may certify only the level-1 (infinite) interval.
    """
    rows = read_csv(outdir / "results.csv")
    plots = Plots(outdir)
    cells = _group(rows, ("method", "alpha", "sweep_value"))
    ops = []
    expected = [
        (m, fmt(a), "" if sweep is None else str(v))
        for v in (sweep or (None,))
        for a in alphas
        for m in methods
    ]
    for key in expected:
        token, alpha_s, sweep_s = key
        alpha = float(alpha_s)
        name = f"cell:{token}@{alpha_s}" + (f"/n_tune={sweep_s}" if sweep_s else "")
        cell = cells.pop(key, [])
        if sorted(r["target"] for r in cell) != ["1", "2", "3"]:
            ops.append(Op(name, (f"targets {[r['target'] for r in cell]}, want 1..3",)))
            continue
        problems: list[str] = []
        ejcs = {r["ejc"] for r in cell}
        if len(ejcs) != 1:
            problems.append(f"ejc differs across targets: {sorted(ejcs)}")
        ejc = float(cell[0]["ejc"])
        esc = [float(r["esc"]) for r in cell]
        mil = [float(r["mil"]) for r in cell]
        if not all(v > 0 and (sweep or math.isfinite(v)) for v in mil):
            problems.append(f"mil {mil} not {'positive' if sweep else 'finite and positive'}")
        a = allowance(alpha, trials, n_cal, n_test)
        if token == "ia":
            problem = sandwich(ejc, alpha, n_cal, a, upper=False)
            if problem:
                problems.append(f"joint coverage {problem}")
            alpha_1 = 1.0 - (1.0 - alpha) ** (1.0 / len(cell))
            a_1 = allowance(alpha_1, trials, n_cal, n_test)
            for r, v in zip(cell, esc):
                problem = sandwich(v, alpha_1, n_cal, a_1)
                if problem:
                    problems.append(f"target {r['target']} coverage {problem} (alpha_1)")
        elif token in mc_joint:
            problem = sandwich(ejc, alpha, n_cal, a)
            if problem:
                problems.append(f"joint coverage {problem}")
        if sweep is None:
            x = fmt(1.0 - alpha)
            plots.expect(problems, "plot_ejc.csv", x, token, ejc)
            for r, v in zip(cell, mil):
                plots.expect(problems, "plot_mil.csv", x, f"{token}/t{r['target']}", v)
        else:
            x = sweep_s
        plots.expect(problems, "plot_esc_extremes.csv", x, f"{token}/min", min(esc))
        plots.expect(problems, "plot_esc_extremes.csv", x, f"{token}/max", max(esc))
        ops.append(Op(name, tuple(problems)))
    if cells:
        ops.append(Op("cell:unexpected", (f"rows for {sorted(cells)}",)))
    if plots.duplicates:
        ops.append(Op("plot:duplicates", (f"repeated points {plots.duplicates[:3]}",)))
    return ops


def check_multiround(
    outdir: Path,
    token: str,
    alphas: tuple[float, ...],
    n_cal: int,
    n_test: int,
    trials: int,
    rates: tuple[float, ...],
) -> list[Op]:
    """Rows of a multiround run: the joint method and its per-round baseline per level."""
    rows = read_csv(outdir / "results.csv")
    plots = Plots(outdir)
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        taus = json.load(fh).get("tau_used", {})
    cells = _group(rows, ("method", "alpha"))
    ops = []
    for alpha in alphas:
        for label in (token, f"sc_{token}"):
            key = (label, fmt(alpha))
            name = f"row:{label}@{key[1]}"
            cell = cells.pop(key, [])
            if len(cell) != 1:
                ops.append(Op(name, (f"{len(cell)} rows, want 1",)))
                continue
            problems: list[str] = []
            row = cell[0]
            ejc, eac, r_avg = float(row["ejc"]), float(row["eac"]), float(row["r_avg"])
            if not eac >= ejc:
                problems.append(f"eac {eac} below ejc {ejc}")
            if not min(rates) <= r_avg <= max(rates):
                problems.append(f"r_avg {r_avg} outside [{min(rates)}, {max(rates)}]")
            if label == token:
                problem = sandwich(ejc, alpha, n_cal, allowance(alpha, trials, n_cal, n_test))
                if problem:
                    problems.append(f"joint coverage {problem}")
            tau = taus.get(key[1])
            if not (isinstance(tau, float) and math.isfinite(tau) and tau > 0):
                problems.append(f"tau_used {tau!r} not positive and finite")
            x = fmt(1.0 - alpha)
            plots.expect(problems, "plot_eac.csv", x, label, eac)
            plots.expect(problems, "plot_ravg.csv", x, label, r_avg)
            ops.append(Op(name, tuple(problems)))
    if cells:
        ops.append(Op("row:unexpected", (f"rows for {sorted(cells)}",)))
    if plots.duplicates:
        ops.append(Op("plot:duplicates", (f"repeated points {plots.duplicates[:3]}",)))
    return ops


def own_scores(lo: np.ndarray, hi: np.ndarray, targets: np.ndarray, normalized: bool) -> np.ndarray:
    """Two-sided band violation, rescaled to the first target's band width."""
    raw = np.maximum(lo - targets, targets - hi)
    if normalized:
        width = hi - lo
        raw = raw * (width[:, :1] / width)
    return raw


def required_rows(alpha: float, n: int) -> int:
    """ceil((1 - alpha)(n + 1)) in exact rational arithmetic, capped at n."""
    return min(n, math.ceil((1 - Fraction(fmt(alpha))) * (n + 1)))


def exact_op(name: str, token: str, zeta: np.ndarray, scores: np.ndarray, alpha: float) -> Op:
    """Rank check of one calibration's thresholds on its own calibration scores.

    Joint methods must cover ceil((1-alpha)(n+1)) rows on every target at once;
    IA must do so per target at alpha_1 = 1 - (1-alpha)^(1/K).
    """
    covered = scores <= np.asarray(zeta)[None, :]
    n, k = scores.shape
    if token == "ia":
        alpha_1 = 1.0 - (1.0 - alpha) ** (1.0 / k)
        need = min(n, math.ceil((1.0 - alpha_1) * (n + 1)))
        counts = {f"target {j + 1} covers": int(covered[:, j].sum()) for j in range(k)}
    else:
        need = required_rows(alpha, n)
        counts = {"covers": int(covered.all(axis=1).sum())}
    problems = tuple(
        f"{what} {got} of {n} rows, needs {need}" for what, got in counts.items() if got < need
    )
    return Op(name, problems, known_fault=bool(problems) and token in CDF_TOKENS)


def pinball_excess(features: np.ndarray, targets: np.ndarray, models) -> float:
    """Largest relative excess of the fitted pinball losses over the LP optimum.

    The optimum comes from the dual of the linear quantile regression LP:
    maximize z.d subject to X'd = 0 and -(1-tau)/n <= d <= tau/n, whose
    value equals the least mean pinball loss over all lines.
    """
    from scipy.optimize import linprog

    n = features.size
    design = np.vstack([features, np.ones(n)])
    worst = 0.0
    for k, pair in enumerate(models):
        z = targets[:, k]
        for model in pair:
            tau = model.level
            res = linprog(
                -z, A_eq=design, b_eq=np.zeros(2), bounds=(-(1 - tau) / n, tau / n), method="highs"
            )
            if res.status != 0:
                raise RuntimeError(f"pinball LP did not solve: {res.message}")
            best = -res.fun
            r = z - model.predict(features)
            fitted = float(np.mean(np.where(r >= 0, tau * r, (tau - 1) * r)))
            worst = max(worst, (fitted - best) / best)
    return worst
