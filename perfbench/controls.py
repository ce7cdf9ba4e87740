"""Controls for the benchmark's checks: each must pass on valid output and fail on broken output.

    python3 -m pytest perfbench/controls.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import csv
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from mtconf import (  # noqa: E402
    Method, NoiseKind, Role, ScoreKind, SplitSpec, derive_seed, fit_method,
    fit_quantile_models, gen_synthetic, partition, predict_quantiles,
)
from mtconf.cli import main as ctool  # noqa: E402

SMALL = dict(n_cal=1000, n_test=500, trials=5)


@pytest.fixture(scope="module")
def table1_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    status = ctool([
        "run", "--experiment", "table1", "--noise", "correlated",
        "--methods", "ia,qn,cqr_minimax", "--alphas", "0.1", "--trials", str(SMALL["trials"]),
        "--ntrain", "2000", "--ntune", "1000", "--ncal", str(SMALL["n_cal"]),
        "--ntest", str(SMALL["n_test"]), "--seed", "7", "--threads", "1", "--output-dir", str(out),
    ])
    assert status == 0
    return out


def _check(outdir: Path) -> list[checks.Op]:
    return checks.check_benchmark(
        outdir, ("ia", "qn", "cqr_minimax"), (0.1,), None, mc_joint=("qn", "cqr_minimax"), **SMALL
    )


def _rewrite(path: Path, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for row in rows:
        change(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def test_valid_table_passes(table1_out):
    assert [op.problems for op in _check(table1_out) if not op.ok] == []


def test_joint_cell_lowered_by_twice_the_allowance_fails(table1_out, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(table1_out, broken)
    a = checks.allowance(0.1, **{k: SMALL[k] for k in ("trials", "n_cal", "n_test")})
    lowered = {}

    def lower(row, key):
        if row.get("method", row.get("series")) == "qn":
            lowered.setdefault("value", checks.fmt(float(row[key]) - 2 * a))
            row[key] = lowered["value"]

    _rewrite(broken / "results.csv", lambda row: lower(row, "ejc"))
    # Keep the figure consistent, so only the coverage rule can trip.
    _rewrite(broken / "plot_ejc.csv", lambda row: lower(row, "value"))
    failed = {op.name: op.problems for op in _check(broken) if not op.ok}
    assert list(failed) == ["cell:qn@0.1"]
    assert any("joint coverage" in p and "below" in p for p in failed["cell:qn@0.1"])


def test_plot_value_that_differs_from_results_fails(table1_out, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(table1_out, broken)

    def bump(row):
        if row["series"] == "ia/t2":
            row["value"] = checks.fmt(float(row["value"]) * 1.001)

    _rewrite(broken / "plot_mil.csv", bump)
    assert [op.name for op in _check(broken) if not op.ok] == ["cell:ia@0.1"]


@pytest.fixture(scope="module")
def split():
    """Own-numpy scores of a fixed tuning set and calibration set, both kinds."""
    alpha, seed = 0.1, 11
    train = gen_synthetic(2000, NoiseKind.CORRELATED, derive_seed(seed, 0), role=Role.TRAIN)
    models = fit_quantile_models(train, alpha)
    pool = predict_quantiles(models, gen_synthetic(2500, NoiseKind.CORRELATED, derive_seed(seed, 1)))
    tune, cal, _ = partition(pool, SplitSpec(seed=seed, n_tune=1000, n_cal=1000, n_test=500))
    return {
        normalized: (
            checks.own_scores(tune.lo, tune.hi, tune.targets, normalized),
            checks.own_scores(cal.lo, cal.hi, cal.targets, normalized),
        )
        for normalized in (False, True)
    }


ALPHAS = (0.3, 0.2, 0.1, 0.05)
CDF_CASES = [
    ("cqr_minimax", Method.MINIMAX, False),
    ("qn_minimax", Method.MINIMAX, True),
    ("cpts", Method.COPULA, False),
]


def next_order_statistic(calib, tune_scores: np.ndarray) -> np.ndarray:
    """Raw thresholds realizing the certified sets {F(s) <= level} of a CDF method.

    For a level j/m the set is every score below the (j+1)-th tuning order
    statistic; a threshold at that order statistic covers the same
    calibration rows (ties with tuning scores aside).  Level 1 is +inf.
    """
    zeta = []
    for k, level in enumerate(calib.per_target_level):
        ordered = np.sort(tune_scores[:, k])
        j = round(float(level) * ordered.size)
        zeta.append(math.inf if j >= ordered.size else float(ordered[j]))
    return np.array(zeta)


def _fit(split, method, normalized, alpha):
    tune_s, cal_s = split[normalized]
    kind = ScoreKind.QN if normalized else ScoreKind.CQR
    return fit_method(method, cal_s, alpha, kind, tune_s), tune_s, cal_s


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("token,method,normalized", [
    ("ia", Method.IA, False), ("qn", Method.QN_MAX, True), ("max_cqr", Method.QN_MAX, False),
])
def test_exact_check_passes_on_ia_and_qn_max(split, token, method, normalized, alpha):
    calib, _, cal_s = _fit(split, method, normalized, alpha)
    op = checks.exact_op("x", token, calib.margins(cal_s.shape[1]), cal_s, alpha)
    assert op.ok, op.problems


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("token,method,normalized", CDF_CASES)
def test_exact_check_passes_on_next_order_statistic(split, token, method, normalized, alpha):
    calib, tune_s, cal_s = _fit(split, method, normalized, alpha)
    moved = next_order_statistic(calib, tune_s)
    assert np.all(moved > calib.per_target_zeta)
    op = checks.exact_op("x", token, moved, cal_s, alpha)
    assert op.ok, op.problems


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("token,method,normalized", CDF_CASES)
def test_exact_check_fails_on_todays_cdf_thresholds(split, token, method, normalized, alpha):
    calib, _, cal_s = _fit(split, method, normalized, alpha)
    op = checks.exact_op("x", token, calib.per_target_zeta, cal_s, alpha)
    assert not op.ok and op.known_fault


def test_required_rows_is_exact():
    assert checks.required_rows(0.1, 5000) == 4501  # 0.9 * 5001 = 4500.9
    assert checks.required_rows(0.2, 4999) == 4000  # 0.8 * 5000, no float round-up
    assert checks.required_rows(0.05, 10) == 10  # capped at n


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli", 0.0, 10.0, -1, None],
        ["evaluate.loop", 1.0, 9.0, 0, None],
        ["calibrate.fit.minimax", 2.0, 6.0, 1, None],
        ["calibrate.cdf", 2.5, 3.0, 2, "a"],
        ["calibrate.cdf", 3.0, 3.5, 2, "a"],
        ["scores.score", 6.0, 7.0, 1, 40],
    ]
    got = layers.layer_metrics(spans)
    assert got["cli.self_s"] == 2.0
    assert got["evaluate.loop_s"] == 3.0
    assert got["calibrate.fit_s"] == got["calibrate.fit_s.minimax"] == 3.0
    assert got["calibrate.cdf_s"] == 1.0
    assert got["calibrate.cdf_builds"] == 2 and got["calibrate.cdf_useful"] == 0.5
    assert got["scores.rows_scored"] == 40


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
