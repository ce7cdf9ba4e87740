"""The ctool runner: config handling, outputs, and determinism."""

import contextlib
import csv
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mtconf
from mtconf import cli, core, multiround
from mtconf.cli import (
    CSV_COLUMNS,
    Cell,
    ConfigError,
    ExperimentConfig,
    NoiseKind,
    _fmt,
    build_config,
    emit_plotdata,
    main,
    read_config_file,
    run,
)
from mtconf.evaluate import TrialMetrics
from mtconf.scores import ScoreKind


def run_cli(*args):
    return main(["run", *[str(a) for a in args]])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


BENCH = (
    "--experiment", "table1", "--methods", "qn", "--alphas", "0.2",
    "--trials", "2", "--ntrain", "60", "--ntune", "40", "--ncal", "50",
    "--ntest", "30", "--seed", "99",
)

MULTIROUND = (
    "--experiment", "multiround", "--alphas", "0.1", "--trials", "2",
    "--ntune", "150", "--ncal", "120", "--ntest", "80", "--seed", "99",
)


def test_every_method_and_score_kind_has_a_method_token():
    # A variant that no token names is code that no ctool run can reach.
    methods, kinds = zip(*cli.METHOD_TOKENS.values())
    assert set(mtconf.Method) <= set(methods)
    assert set(ScoreKind) <= set(kinds)


def test_read_config_file_parses_all_sections(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        """
[experiment]
experiment = multiround
methods = cqr_minimax, qn_minimax
alphas = 0.15, 0.05
seed = 7
threads = 2
tau = auto

[data]
n_cal = 300
trials = 10

[rounds]
tasks = 2
sigma = 0.4, 0.2, 0.1, 0.05, 0.02
quantile_alpha = 0.2
"""
    )
    values = read_config_file(path)
    assert values["experiment"] == "multiround"
    assert values["methods"] == ("cqr_minimax", "qn_minimax")
    assert values["alphas"] == (0.15, 0.05)
    assert values["seed"] == 7 and values["threads"] == 2
    assert values["tau"] is None
    assert values["n_cal"] == 300 and values["trials"] == 10
    assert values["tasks"] == 2 and values["quantile_alpha"] == 0.2
    assert values["sigma"] == (0.4, 0.2, 0.1, 0.05, 0.02)


def test_read_config_file_diagnostics(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[misc]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
        read_config_file(bad_section)

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[experiment]\nalpa = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key 'alpa'"):
        read_config_file(bad_key)

    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[experiment]\nalphas = 0.2, frog\n")
    with pytest.raises(ConfigError, match="could not parse"):
        read_config_file(bad_value)

    bad_int = tmp_path / "d.ini"
    bad_int.write_text("[experiment]\nseed = soon\n")
    with pytest.raises(ConfigError, match="seed"):
        read_config_file(bad_int)

    with pytest.raises(ConfigError, match="cannot read config"):
        read_config_file(tmp_path / "missing.ini")


def test_build_config_precedence_and_defaults():
    cfg = build_config({"seed": 1, "alphas": (0.5,)}, {"seed": 9})
    assert cfg.seed == 9  # flag wins
    assert cfg.alphas == (0.5,)  # file survives where no flag is given
    assert cfg.trials == 500  # table1 default

    sweep = build_config({"experiment": "ntune_sweep"}, {})
    assert sweep.trials == 200 and sweep.n_cal == 2000
    assert sweep.alphas == (0.10,)

    mr = build_config({"experiment": "multiround"}, {})
    assert mr.methods == ("cqr_minimax",)
    assert mr.n_train == 0 and mr.alphas == (0.15, 0.10, 0.05)


def test_build_config_tau_auto_flag_overrides_file():
    cfg = build_config({"tau": 0.5, "experiment": "multiround"}, {"tau": None})
    assert cfg.tau is None


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="experiment must be one of"):
        ExperimentConfig(experiment="bogus")
    with pytest.raises(ConfigError, match="known:"):
        ExperimentConfig(methods=("nope",))
    with pytest.raises(ConfigError, match="miscoverage"):
        ExperimentConfig(alphas=(1.5,))
    with pytest.raises(ConfigError, match="calibrates exactly one target"):
        ExperimentConfig(methods=("single",))
    with pytest.raises(ConfigError, match="tau"):
        ExperimentConfig(experiment="multiround", methods=("cqr_minimax",), tau=-1.0)
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        ExperimentConfig(seed=-1)


def test_main_rejects_bad_configs(tmp_path, capsys):
    assert run_cli("--experiment", "table1", "--alphas", "2.0") == 2
    assert "ctool: config error:" in capsys.readouterr().err
    assert run_cli(tmp_path / "missing.ini") == 2
    assert "cannot read config" in capsys.readouterr().err
    assert run_cli("--experiment", "table1", "--methods", "single") == 2
    assert "exactly one target" in capsys.readouterr().err
    two_taus = tmp_path / "two_taus.ini"
    two_taus.write_text("[experiment]\ntau = 0.5\n\n[rounds]\ntau = 2.0\n")
    assert run_cli(two_taus, *MULTIROUND) == 2
    err = capsys.readouterr().err
    assert err == f"ctool: config error: {two_taus}: tau is set in more than one section\n"
    out = tmp_path / "res"
    assert run_cli(*BENCH, "--output-dir", out) == 0
    assert run_cli(*MULTIROUND, "--seed", "-1", "--output-dir", out) == 2
    assert capsys.readouterr().err == "ctool: config error: seed must be non-negative, got -1\n"
    assert (out / "manifest.json").exists()  # the earlier run's outputs stay


def test_config_rejects_an_empty_training_set(tmp_path, capsys):
    with pytest.raises(ConfigError, match="n_train must be at least 1"):
        ExperimentConfig(n_train=0)
    with pytest.raises(ConfigError, match="ntrain_values must all be at least 1"):
        ExperimentConfig(experiment="ntrain_sweep", ntrain_values=(0, 50))
    # the multiround experiments fit no quantile model and default to none
    assert ExperimentConfig(experiment="multiround", methods=("cqr_minimax",), n_train=0)
    assert run_cli(*BENCH, "--ntrain", "0", "--output-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctool: config error: n_train") and err.count("\n") == 1
    config = tmp_path / "sweep.ini"
    config.write_text("[experiment]\nntrain_values = 0, 50\n")
    assert run_cli(config, "--experiment", "ntrain_sweep", "--output-dir", tmp_path) == 2
    assert "ntrain_values" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize(
    "experiment, key", [("ntrain_sweep", "ntrain_values"), ("ntune_sweep", "ntune_values"),
                        ("multiround_labels", "label_values")],
)
def test_config_rejects_an_empty_sweep_list(tmp_path, capsys, experiment, key):
    with pytest.raises(ConfigError, match=f"{key} must not be empty"):
        ExperimentConfig(experiment=experiment, **{key: ()})
    config = tmp_path / "sweep.ini"
    config.write_text(f"[experiment]\n{key} =\n")
    out = tmp_path / "res"
    assert run_cli(config, "--experiment", experiment, "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert err == f"ctool: config error: {key} must not be empty\n"
    assert not (out / "results.csv").exists()


def test_config_rejects_repeated_methods_and_alphas(tmp_path, capsys):
    with pytest.raises(ConfigError, match="methods lists ia more than once"):
        ExperimentConfig(methods=("ia", "qn", "ia"))
    with pytest.raises(ConfigError, match="alphas lists 0.1 more than once"):
        ExperimentConfig(alphas=(0.1, 0.2, 0.1))
    assert run_cli(*BENCH, "--methods", "ia,ia", "--alphas", "0.1,0.1", "--output-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctool: config error: methods lists ia") and err.count("\n") == 1
    assert not (tmp_path / "results.csv").exists()


def test_main_reports_unwritable_output_dir(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("still a file")
    assert run_cli(*BENCH, "--output-dir", blocked) == 1
    assert "cannot write to output dir" in capsys.readouterr().err


def test_benchmark_outputs(tmp_path):
    out = tmp_path / "res"
    assert run_cli(*BENCH, "--output-dir", out) == 0
    content = (out / "results.csv").read_text()
    assert content.splitlines()[0] == ",".join(CSV_COLUMNS)
    rows = read_rows(out / "results.csv")
    assert len(rows) == 3  # one method, one level, three targets
    assert [r["target"] for r in rows] == ["1", "2", "3"]
    assert all(r["method"] == "qn" and r["score_kind"] == "qn" for r in rows)
    assert len({r["ejc"] for r in rows}) == 1  # joint value repeats per target
    assert all(r["eac"] == "" and r["r_avg"] == "" for r in rows)
    for name in ("plot_ejc.csv", "plot_esc_extremes.csv", "plot_mil.csv"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "table1"
    assert manifest["config"]["seed"] == 99
    assert "results.csv" in manifest["outputs"]
    assert manifest["wall_time_s"] >= 0


def test_results_are_byte_identical_across_reruns_and_threads(tmp_path):
    args = list(BENCH)
    args[args.index("--methods") + 1] = "qn,ia"
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert run_cli(*args, "--output-dir", outs[0], "--threads", "1") == 0
    assert run_cli(*args, "--output-dir", outs[1], "--threads", "1") == 0
    assert run_cli(*args, "--output-dir", outs[2], "--threads", "4") == 0
    blobs = [(p / "results.csv").read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    plots = [(p / "plot_ejc.csv").read_bytes() for p in outs]
    assert plots[0] == plots[1] == plots[2]


def test_starved_calibration_serializes_infinite_lengths(tmp_path):
    out = tmp_path / "res"
    assert (
        run_cli(
            "--experiment", "table1", "--methods", "qn", "--alphas", "0.02",
            "--trials", "2", "--ntrain", "60", "--ntune", "40", "--ncal", "10",
            "--ntest", "20", "--output-dir", out,
        )
        == 0
    )
    rows = read_rows(out / "results.csv")
    assert all(row["mil"] == "inf" for row in rows)
    assert all(row["ejc"] == "1" for row in rows)


def test_coverage_sweep_plot_values_match_results(tmp_path):
    out = tmp_path / "res"
    assert (
        run_cli(
            "--experiment", "coverage_sweep", "--methods", "qn", "--alphas", "0.3,0.1",
            "--trials", "2", "--ntrain", "60", "--ntune", "40", "--ncal", "50",
            "--ntest", "30", "--output-dir", out,
        )
        == 0
    )
    results = read_rows(out / "results.csv")
    want = {(str(1 - float(r["alpha"]))): r["ejc"] for r in results if r["target"] == "1"}
    plot = read_rows(out / "plot_ejc.csv")
    assert {p["x"] for p in plot} == {"0.7", "0.9"}
    for p in plot:
        assert p["series"] == "qn"
        assert p["value"] == want[p["x"]]


def test_ntune_sweep_warns_when_under_tuned(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(
        """
[experiment]
experiment = ntune_sweep
methods = cqr_minimax
ntune_values = 50, 600
runs = 1

[data]
n_train = 60
n_cal = 40
n_test = 30
trials = 2
"""
    )
    out = tmp_path / "res"
    assert run_cli(path, "--output-dir", out) == 0
    err = capsys.readouterr().err
    assert "under-tuned" in err and "n_tune=50" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["warnings"]) == 1
    rows = read_rows(out / "results.csv")
    assert len(rows) == 6  # two sweep sizes, three targets
    assert all(r["n_tune"] == r["sweep_value"] for r in rows)
    assert (out / "plot_esc_extremes.csv").exists()


def test_multiround_rows_and_manifest_tau(tmp_path):
    out = tmp_path / "res"
    assert run_cli(*MULTIROUND, "--output-dir", out) == 0
    rows = read_rows(out / "results.csv")
    assert [r["method"] for r in rows] == ["cqr_minimax", "sc"]
    for row in rows:
        assert row["eac"] != "" and row["r_avg"] != "" and row["ejc"] != ""
        assert row["target"] == "" and row["esc"] == "" and row["mil"] == ""
        assert row["score_kind"] == "cqr"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["tau_used"]) == {"0.1"}
    assert manifest["tau_used"]["0.1"] > 0
    assert (out / "plot_eac.csv").exists() and (out / "plot_ravg.csv").exists()

    fixed = tmp_path / "fixed"
    assert run_cli(*MULTIROUND, "--tau", "0.08", "--output-dir", fixed) == 0
    manifest = json.loads((fixed / "manifest.json").read_text())
    assert manifest["tau_used"]["0.1"] == 0.08


def test_label_sweep_rows(tmp_path):
    path = tmp_path / "labels.ini"
    path.write_text(
        "[experiment]\nexperiment = multiround_labels\nlabel_values = 1, 2\n"
    )
    out = tmp_path / "res"
    assert (
        run_cli(
            path, "--trials", "2", "--ntune", "100", "--ncal", "100",
            "--ntest", "60", "--output-dir", out,
        )
        == 0
    )
    rows = read_rows(out / "results.csv")
    assert [r["sweep_value"] for r in rows] == ["1", "2"]
    assert all(r["method"] == "cqr_minimax" for r in rows)
    plot = read_rows(out / "plot_ravg.csv")
    assert [p["x"] for p in plot] == ["1", "2"]


def test_label_sweep_draws_with_the_configured_n_pred(tmp_path):
    blobs = []
    for n_pred in (8, 32):
        config = tmp_path / f"n_pred_{n_pred}.ini"
        config.write_text(
            "[experiment]\nexperiment = multiround_labels\nlabel_values = 1, 2\n"
            f"[rounds]\nn_pred = {n_pred}\n"
        )
        out = tmp_path / str(n_pred)
        assert (
            run_cli(
                config, "--tau", "0.3", "--trials", "2", "--ntune", "100", "--ncal", "100",
                "--ntest", "60", "--output-dir", out,
            )
            == 0
        )
        blobs.append((out / "results.csv").read_bytes())
    assert blobs[0] != blobs[1]


def test_manifest_echo_reproduces_the_run(tmp_path):
    first = tmp_path / "first"
    assert run_cli(*MULTIROUND, "--output-dir", first) == 0
    echo = json.loads((first / "manifest.json").read_text())["config"]
    echo["noise"] = NoiseKind(echo["noise"])
    echo["output_dir"] = str(tmp_path / "second")
    rebuilt = ExperimentConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in echo.items()}
    )
    assert run(rebuilt) == 0
    assert (first / "results.csv").read_bytes() == (
        tmp_path / "second" / "results.csv"
    ).read_bytes()


def test_emit_plotdata_single_target_extremes_coincide(tmp_path):
    metrics = TrialMetrics(0.8, [0.8], [1.0], trials=2, n_test=10)
    emit_plotdata([Cell("cqr_minimax", ScoreKind.CQR, 0.1, metrics, sweep_value=50)], tmp_path)
    plot = read_rows(tmp_path / "plot_esc_extremes.csv")
    by_series = {p["series"]: (p["x"], p["value"]) for p in plot}
    assert by_series == {"cqr_minimax/min": ("50", "0.8"), "cqr_minimax/max": ("50", "0.8")}


@pytest.mark.parametrize(
    "ini, flags",
    [
        (
            None,
            ("--experiment", "table1", "--methods", "ia,cpts,qn_minimax", "--alphas", "0.2,0.1"),
        ),
        (
            "[experiment]\nntune_values = 40, 60\nruns = 2\n",
            ("--experiment", "ntune_sweep", "--methods", "ia,cqr_minimax,qn"),
        ),
    ],
)
def test_plot_files_agree_with_the_results_rows(tmp_path, ini, flags):
    """The coverage extremes and the lengths a plot file holds are the per-target
    esc and mil of the matching results.csv rows, as printed there."""
    args = []
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args.append(tmp_path / "run.ini")
    sizes = ("--trials", "3", "--ntrain", "60", "--ntune", "40", "--ncal", "50", "--ntest", "30")
    out = tmp_path / "res"
    assert run_cli(*args, *flags, *sizes, "--output-dir", out) == 0
    esc, mil = {}, {}  # (x, method) -> that cell's per-target values, as printed
    for row in read_rows(out / "results.csv"):
        x = row["sweep_value"] or _fmt(1.0 - float(row["alpha"]))
        esc.setdefault((x, row["method"]), []).append(row["esc"])
        mil[x, f"{row['method']}/t{row['target']}"] = row["mil"]
    extremes = {(p["x"], p["series"]): p["value"] for p in read_rows(out / "plot_esc_extremes.csv")}
    assert extremes == {
        (x, f"{method}/{name}"): pick(values, key=float)
        for (x, method), values in esc.items()
        for name, pick in (("min", min), ("max", max))
    }
    if flags[1] == "table1":
        assert {(p["x"], p["series"]): p["value"] for p in read_rows(out / "plot_mil.csv")} == mil
    else:  # a sweep plots no lengths
        assert not (out / "plot_mil.csv").exists()


def test_under_tuned_cells_warn_once_per_message(tmp_path, capsys):
    """Every trial cell of a CDF method tuned on fewer than 500 rows warns, once
    per distinct message: ntrain_sweep's three training sizes and table1's two
    levels at the same tuning size each warn once."""
    warning = "cpts at n_tune=100: under-tuned (below 500); per-target coverage may be imbalanced"
    sizes = ("--trials", "2", "--ntrain", "60", "--ntune", "100", "--ncal", "50", "--ntest", "30")
    config = tmp_path / "sweep.ini"
    config.write_text("[experiment]\nntrain_values = 60, 80, 100\nruns = 1\n")
    for name, args, want in (
        ("ntrain_sweep", (config, "--experiment", "ntrain_sweep"), [warning]),
        ("table1", ("--experiment", "table1", "--alphas", "0.2,0.1"), [warning]),
    ):
        out = tmp_path / name
        assert run_cli(*args, "--methods", "cpts,ia", *sizes, "--output-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["warnings"] == want
        assert capsys.readouterr().err == "".join(f"ctool: warning: {w}\n" for w in want)


def test_fmt_cells():
    assert _fmt(None) == "" and _fmt("") == ""
    assert _fmt("sc") == "sc"
    assert _fmt(5) == "5" and _fmt(np.int64(7)) == "7"
    assert _fmt(float("inf")) == "inf" and _fmt(float("-inf")) == "-inf"
    assert _fmt(0.123456789) == "0.123457"
    assert _fmt(np.float64(0.25)) == "0.25"


def test_console_script_is_wired():
    exe = shutil.which("ctool")
    command = [exe] if exe else [sys.executable, "-m", "mtconf.cli"]
    env = dict(os.environ)
    src = str(Path(mtconf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [*command, "run", "--experiment", "table1", "--alphas", "2.0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr


# Every config field: its INI section, its flag (None if it has none), and a
# text whose value differs from the default; together they form one valid
# multiround config.
FIELDS = {
    "experiment": ("experiment", "--experiment", "multiround"),
    "noise": ("experiment", "--noise", "correlated"),
    "methods": ("experiment", "--methods", "cqr_minimax,ia"),
    "alphas": ("experiment", "--alphas", "0.2,0.1"),
    "seed": ("experiment", "--seed", "7"),
    "output_dir": ("experiment", "--output-dir", "elsewhere"),
    "threads": ("experiment", "--threads", "2"),
    "runs": ("experiment", "--runs", "2"),
    "tau": ("experiment", "--tau", "0.5"),
    "ntrain_values": ("experiment", None, "5,9"),
    "ntune_values": ("experiment", None, "60,70"),
    "label_values": ("experiment", None, "2,3"),
    "n_train": ("data", "--ntrain", "10"),
    "n_tune": ("data", "--ntune", "40"),
    "n_cal": ("data", "--ncal", "30"),
    "n_test": ("data", "--ntest", "20"),
    "trials": ("data", "--trials", "3"),
    "rounds": ("rounds", None, "3"),
    "tasks": ("rounds", None, "2"),
    "sigma": ("rounds", None, "0.3,0.2,0.1"),
    "rates": ("rounds", None, "4,2,1"),
    "quantile_alpha": ("rounds", None, "0.2"),
    "n_pred": ("rounds", None, "8"),
}


def write_ini(path, names):
    sections: dict[str, list[str]] = {}
    for name in names:
        section, _, text = FIELDS[name]
        sections.setdefault(section, []).append(f"{name} = {text}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
    return path


def test_every_field_reads_the_same_from_its_ini_key_and_its_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert set(FIELDS) == set(asdict(ExperimentConfig()))
    flagged = [name for name, (_, flag, _) in FIELDS.items() if flag]
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    shown = {word.strip(",[]") for word in capsys.readouterr().out.split() if word.startswith("--")}
    assert shown == {FIELDS[name][1] for name in flagged} | {"--help"}

    assert run_cli(write_ini(tmp_path / "all.ini", FIELDS)) == 0
    by_file = json.loads((tmp_path / "elsewhere" / "manifest.json").read_text())["config"]
    results = (tmp_path / "elsewhere" / "results.csv").read_bytes()
    flags = [arg for name in flagged for arg in FIELDS[name][1:]]
    unflagged = [name for name in FIELDS if name not in flagged]
    assert run_cli(write_ini(tmp_path / "rest.ini", unflagged), *flags) == 0
    by_flag = json.loads((tmp_path / "elsewhere" / "manifest.json").read_text())["config"]
    assert by_flag == by_file
    assert (tmp_path / "elsewhere" / "results.csv").read_bytes() == results

    defaults = asdict(build_config({"experiment": "multiround"}, {}))
    defaults["experiment"] = ExperimentConfig().experiment
    for name, value in by_file.items():
        assert value != defaults[name], name
    assert read_config_file(write_ini(tmp_path / "tau.ini", ["tau"]))["tau"] == 0.5
    (tmp_path / "rounds_tau.ini").write_text("[rounds]\ntau = 0.5\n")
    assert read_config_file(tmp_path / "rounds_tau.ini")["tau"] == 0.5


def test_tau_auto_flag_overrides_the_file_through_main(tmp_path):
    config = tmp_path / "fixed.ini"
    config.write_text("[experiment]\ntau = 0.5\n")
    out = tmp_path / "res"
    assert run_cli(config, *MULTIROUND, "--tau", "auto", "--output-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tau"] is None
    assert manifest["tau_used"]["0.1"] != 0.5


@pytest.mark.parametrize("tasks", [1, 3])
def test_a_tau_pilot_without_finite_lengths_is_a_one_line_error(tmp_path, capsys, tasks):
    # At alpha = 0.05 nine calibration rows give every margin +inf.
    config = tmp_path / "tasks.ini"
    config.write_text(f"[rounds]\ntasks = {tasks}\n")
    out = tmp_path / "res"
    argv = ("--experiment", "multiround", "--alphas", "0.2,0.05", "--ncal", "9", "--trials", "2")
    assert run_cli(config, *argv, "--output-dir", out) == 3
    assert capsys.readouterr().err == (
        "ctool: run error: the tau pilot's interval lengths are not finite"
        " at alpha=0.05 with n_cal=9; set a fixed --tau\n"
    )
    assert not (out / "results.csv").exists()


def test_a_tau_pilot_with_a_zero_median_length_is_a_one_line_error(tmp_path, capsys):
    # At the multiround defaults and alpha = 0.999999 the margins clip at least
    # half of the pilot's interval lengths to 0; the run stops before its trials.
    out = tmp_path / "res"
    assert run_cli("--experiment", "multiround", "--alphas", "0.999999", "--output-dir", out) == 3
    assert capsys.readouterr().err == (
        "ctool: run error: the tau pilot's median interval length is 0"
        " at alpha=0.999999 with n_cal=2000; set a fixed --tau\n"
    )
    assert not (out / "results.csv").exists()


def test_a_zero_width_band_under_a_width_normalized_method_is_a_one_line_error(tmp_path, capsys):
    # Two prediction samples often clip to one bound, so some bands have width 0.
    config = tmp_path / "n_pred.ini"
    config.write_text("[rounds]\nn_pred = 2\n")
    argv = ("--experiment", "multiround", "--tau", "0.2", "--trials", "2")
    out = tmp_path / "qn"
    assert run_cli(config, *argv, "--methods", "qn", "--output-dir", out) == 3
    assert capsys.readouterr().err == (
        "ctool: run error: round 0 has 472 of 5000 rows with a zero-width quantile band at"
        " n_pred=2, quantile_alpha=0.1; 'qn' divides scores by the band width: raise n_pred"
        " or use a CQR method\n"
    )
    assert not (out / "results.csv").exists()
    out = tmp_path / "cqr"
    assert run_cli(config, *argv, "--methods", "cqr_minimax", "--output-dir", out) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize(
    "ini, flags, message",
    [
        (
            None,
            ("--experiment", "table1", "--alphas", "1e-300"),
            "alpha 1e-300 is too small: the quantile level 1 - alpha/2 is 1",
        ),
        (
            None,
            ("--experiment", "multiround", "--methods", "ia", "--alphas", "1e-17", "--tau", "1"),
            "alpha 1e-17 is too small: ia's level 1 - (1 - alpha)^(1/5) is 0",
        ),
        # The label sweep's largest task count (5 rounds of 5) sets ia's level.
        (
            "[experiment]\nexperiment = multiround_labels\nlabel_values = 1, 5\n",
            ("--methods", "ia", "--alphas", "1e-15", "--tau", "1"),
            "alpha 1e-15 is too small: ia's level 1 - (1 - alpha)^(1/25) is 0",
        ),
    ],
)
def test_levels_derived_from_alpha_are_checked_at_config_time(
    tmp_path, capsys, ini, flags, message
):
    args = []
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args.append(tmp_path / "run.ini")
    out = tmp_path / "res"
    assert run_cli(*args, *flags, "--output-dir", out) == 2
    assert capsys.readouterr().err == f"ctool: config error: {message}\n"
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "ini, message",
    [
        ("[rounds]\nrounds = 3\n", "sigma and rates need one entry per round"),
        ("[rounds]\ntasks = 0\n", "rounds and tasks must be positive"),
        (
            "[experiment]\nmethods = qn_minimax\n[rounds]\nsigma = 0.4, 0.2, 0.1, 0.05, 0\n",
            "method 'qn_minimax' divides scores by the quantile band width",
        ),
        ("[rounds]\nquantile_alpha = 2\n", "quantile_alpha must lie in (0, 1), got 2.0"),
        ("[rounds]\nquantile_alpha = -0.5\n", "quantile_alpha must lie in (0, 1), got -0.5"),
        ("[rounds]\nquantile_alpha = 0\n", "quantile_alpha must lie in (0, 1), got 0.0"),
        ("[rounds]\nn_pred = 1\n", "n_pred must be at least 2 prediction samples, got 1"),
        ("[rounds]\nn_pred = 0\n", "n_pred must be at least 2 prediction samples, got 0"),
    ],
)
def test_bad_round_layouts_are_config_errors(tmp_path, capsys, ini, message):
    config = tmp_path / "rounds.ini"
    config.write_text(ini)
    out = tmp_path / "res"
    assert run_cli(config, *MULTIROUND, "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctool: config error: ") and message in err and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_single_on_a_label_sweep_is_checked_at_every_task_count(tmp_path, capsys):
    one_round = dict(methods=("single",), rounds=1, tasks=1, sigma=(0.1,), rates=(1.0,))
    assert ExperimentConfig(experiment="multiround", **one_round)
    assert ExperimentConfig(experiment="multiround_labels", label_values=(1,), **one_round)
    config = tmp_path / "labels.ini"
    config.write_text(
        "[experiment]\nexperiment = multiround_labels\nmethods = single\nlabel_values = 1, 2\n"
        "[rounds]\nrounds = 1\ntasks = 1\nsigma = 0.1\nrates = 1\n"
    )
    out = tmp_path / "res"
    assert run_cli(config, "--trials", "2", "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctool: config error: ") and "exactly one target" in err
    assert "this experiment has 2" in err and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_zero_sigma_is_fine_for_cqr_methods():
    cfg = ExperimentConfig(
        experiment="multiround", methods=("cqr_minimax",), sigma=(0.4, 0.2, 0.1, 0.05, 0.0)
    )
    assert cfg.sigma[-1] == 0.0


def test_runner_value_errors_are_run_errors(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("no trials today")

    monkeypatch.setattr(cli, "run_trials", broken)
    out = tmp_path / "res"
    assert run_cli(*BENCH, "--output-dir", out) == 3
    assert capsys.readouterr().err == "ctool: run error: no trials today\n"
    assert not (out / "results.csv").exists()


def test_a_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch):
    out = tmp_path / "res"
    assert run_cli(*BENCH, "--output-dir", out) == 0
    assert (out / "manifest.json").exists()

    def broken(rows, outdir):
        raise ValueError("disk on fire")

    monkeypatch.setattr(cli, "emit_plotdata", broken)
    assert run_cli(*BENCH, "--seed", "5", "--output-dir", out) == 3
    assert not (out / "manifest.json").exists()
    assert sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp")) == []


def test_a_full_disk_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "res"
    assert run_cli(*BENCH, "--output-dir", out) == 0

    def full(path, write):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, "_write_atomic", full)
    assert run_cli(*BENCH, "--seed", "5", "--output-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctool: cannot write outputs: ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        {"experiment": "multiround", "n_test": 100_000_000},
        {"experiment": "table1", "n_train": 10**12},
        {"experiment": "multiround", "n_pred": 10**10},
        {"experiment": "ntune_sweep", "ntune_values": (50, 10**12)},
    ],
)
def test_oversized_runs_are_config_errors_before_allocating(flags):
    # Only the config is built: a run without the check would try to allocate.
    with pytest.raises(ConfigError, match="GiB of physical memory"):
        build_config({}, flags)


def test_the_memory_check_reads_physical_memory(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1054}  # 4317184 bytes
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    # One trial keeps the split table (7000 indices, 14000 bytes) out of the way.
    # table1's defaults draw 12000 rows of 3 targets (288000 bytes) and fit
    # 3 targets on 5000 training rows with 282 bytes per row each (4230000 bytes).
    one = {"experiment": "table1", "trials": 1}
    assert build_config({}, one)
    assert build_config({}, dict(one, n_test=169000))  # 179000 rows drawn: 4296000
    with pytest.raises(ConfigError, match="GiB array"):  # 180000 rows drawn: 4320000
        build_config({}, dict(one, n_test=170000))
    # 5100 training rows: 4314600 bytes in the fit; 5200: 4399200, though the
    # drawn rows still fit.
    assert build_config({}, dict(one, n_train=5100))
    with pytest.raises(ConfigError, match="GiB array"):
        build_config({}, dict(one, n_train=5200))
    # Without sysconf there is nothing to compare against, and no check.
    monkeypatch.setattr(cli.os, "sysconf", pages.__getattribute__)
    assert build_config({}, {"experiment": "table1", "n_test": 10**12})


def test_the_memory_check_counts_per_trial_results(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 200}  # 819200 bytes
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    # A table1 cell keeps 1 + 2 * 3 floats per trial: 14000 trials take 784000
    # bytes.  Five pool rows keep the split table smaller (70000 bytes), and
    # 500 training rows the fit (423000 bytes).
    tiny_pool = {"experiment": "table1", "n_train": 500, "n_cal": 3, "n_test": 2}
    assert build_config({}, dict(tiny_pool, trials=14000))
    with pytest.raises(ConfigError, match="GiB array"):  # 840000
        build_config({}, dict(tiny_pool, trials=15000))
    # A protocol keeps 3 floats per trial, on 52 rows of 32 prediction samples,
    # and a split table of 2 indices per trial.
    small = {"experiment": "multiround", "n_tune": 50, "n_cal": 1, "n_test": 1}
    assert build_config({}, dict(small, trials=34000))  # 816000
    for trials in (35000, 10**12):
        with pytest.raises(ConfigError, match="GiB array"):
            build_config({}, dict(small, trials=trials))


def test_the_memory_check_counts_the_split_table(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 200}  # 819200 bytes
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    # table1's 7000-row pool keeps 7000 two-byte indices per trial, one table
    # at a time: 58 trials take 812000 bytes, 59 take 826000, which nothing
    # else in the run comes near (the fit on 500 training rows takes 423000
    # bytes, the 12000 rows drawn 288000).
    small_fit = {"experiment": "table1", "n_train": 500}
    assert build_config({}, dict(small_fit, trials=58))
    with pytest.raises(ConfigError, match="GiB array"):
        build_config({}, dict(small_fit, trials=59))
    # The same holds for a protocol run's one table.
    small = {"experiment": "multiround", "n_tune": 50, "n_cal": 900, "n_test": 100}
    assert build_config({}, dict(small, trials=409))  # 818000
    with pytest.raises(ConfigError, match="GiB array"):
        build_config({}, dict(small, trials=410))  # 820000


def test_each_trial_split_is_drawn_once_per_run(tmp_path, monkeypatch):
    draws = []
    split_indices = core.split_indices
    monkeypatch.setattr(core, "split_indices", lambda *a: draws.append(a) or split_indices(*a))
    sizes = ("--trials", "3", "--ntrain", "60", "--ntune", "40", "--ncal", "50", "--ntest", "30")

    def count(*args):
        draws.clear()
        assert run_cli(*args, *sizes, "--output-dir", tmp_path / "out") == 0
        return len(draws)

    # table1: 2 levels x 2 methods share one table.
    assert count("--experiment", "table1", "--methods", "qn,ia", "--alphas", "0.2,0.1") == 3
    # ntune_sweep: one table per (size, run), shared by its methods.
    config = tmp_path / "sweep.ini"
    config.write_text("[experiment]\nntune_values = 40, 60\nruns = 2\n")
    assert count(config, "--experiment", "ntune_sweep", "--methods", "qn,ia") == 4 * 3
    # multiround: the pilot's trial-0 split and both protocols at 2 levels.
    rounds = ("--methods", "cqr_minimax,ia", "--tau", "auto")
    assert count("--experiment", "multiround", "--alphas", "0.2,0.1", *rounds) == 3
    # multiround_labels: the pilot and every task count.
    labels = tmp_path / "labels.ini"
    labels.write_text("[experiment]\nexperiment = multiround_labels\nlabel_values = 1, 2, 3\n")
    assert count(labels, *rounds) == 3


@pytest.mark.parametrize(
    "counts, extra, want",
    [
        # The configured count (1) comes first, its data serving the pilot too.
        ((1, 2, 3), "", [1, 2, 3]),
        ((3, 1, 2), "", [1, 3, 2]),
        # A configured count that is not swept is drawn for the pilot only.
        ((1, 3), "[rounds]\ntasks = 2\n", [2, 1, 3]),
        ((1, 3), "tau = 0.2\n[rounds]\ntasks = 2\n", [1, 3]),
    ],
)
def test_label_sweep_generates_each_task_count_once(tmp_path, monkeypatch, counts, extra, want):
    calls = []

    def recording(module):
        real = module.gen_multiround
        return lambda n, cfg, *a, **k: calls.append(cfg.tasks) or real(n, cfg, *a, **k)

    for module in (cli, multiround):
        monkeypatch.setattr(module, "gen_multiround", recording(module))
    labels = tmp_path / "labels.ini"
    label_values = ", ".join(map(str, counts))
    labels.write_text(
        f"[experiment]\nexperiment = multiround_labels\nlabel_values = {label_values}\n{extra}"
    )
    flags = ("--methods", "cqr_minimax,ia", "--trials", "2", "--ntune", "40", "--ncal", "50")
    assert run_cli(labels, *flags, "--ntest", "30", "--output-dir", tmp_path / "out") == 0
    assert calls == want
    # Rows stay method-major, each method's counts in label_values order.
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        cells = [(row["method"], int(row["sweep_value"])) for row in csv.DictReader(fh)]
    assert cells == [(m, c) for m in ("cqr_minimax", "ia") for c in counts]


def test_models_are_fitted_in_the_order_the_benchmark_times(tmp_path, monkeypatch):
    """table1 fits every level before its first trial loop; a size sweep fits
    each run just before that run's trials."""
    calls = []

    def recorder(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_quantile_models", recorder("fit", cli.fit_quantile_models))
    monkeypatch.setattr(cli, "run_trials", recorder("trials", cli.run_trials))
    sizes = ("--trials", "2", "--ntrain", "60", "--ntune", "40", "--ncal", "50", "--ntest", "30")
    table1 = ("--experiment", "table1", "--methods", "qn,ia", "--alphas", "0.2,0.1")
    assert run_cli(*table1, *sizes, "--output-dir", tmp_path / "t1") == 0
    assert calls == ["fit", "fit"] + ["trials"] * 4

    calls.clear()
    config = tmp_path / "sweep.ini"
    config.write_text("[experiment]\nntune_values = 40, 60\nruns = 2\n")
    sweep = ("--experiment", "ntune_sweep", "--methods", "qn,ia,cpts")
    assert run_cli(config, *sweep, *sizes, "--output-dir", tmp_path / "sweep") == 0
    assert calls == (["fit"] + ["trials"] * 3) * 4  # two sizes, two runs each


def texts(*values):
    return st.sampled_from([str(v) for v in values])


def text_lists(values, min_size=1):
    return st.lists(values, min_size=min_size, max_size=3, unique=True).map(", ".join)


# Every drawn value of a small run (sizes <= 60, T <= 3): the strategies of its
# valid and of its invalid texts.
SMALL_RUN = {
    "--methods": (
        text_lists(texts(*(t for t in cli.METHOD_TOKENS if t != "single"))),
        # single calibrates one target, and every drawn layout has more
        text_lists(texts("ia", "nope", "single")),
    ),
    "--alphas": (text_lists(texts(0.3, 0.1, 0.05, 0.999999)), texts(0, 1, 1e-300, "x", "0.1,0.1")),
    "--trials": (texts(1, 2, 3), texts(-1, 0)),
    "--runs": (texts(1, 2), texts(0)),
    "--seed": (texts(0, 7), texts(-1)),
    "--tau": (texts("auto", 0.2, "inf"), texts(0, -1)),
    **{flag: (st.integers(1, 60).map(str), texts(-1, 0)) for flag in (
        "--ntrain", "--ntune", "--ncal", "--ntest")},
    "ntrain_values": (text_lists(st.integers(1, 60).map(str)), text_lists(texts(0, 9), 0)),
    "ntune_values": (text_lists(st.integers(1, 60).map(str)), text_lists(texts(0, 9), 0)),
    "label_values": (text_lists(texts(1, 2, 3)), text_lists(texts(0, 1), 0)),
    "tasks": (texts(1, 2, 3), texts(0)),
    "n_pred": (texts(2, 8), texts(1)),
    "quantile_alpha": (texts(0.1, 0.5), texts(1.0)),
}


@st.composite
def small_runs(draw):
    """The INI text and flags of one small run: valid, or with one value broken."""
    broken = draw(st.none() | st.sampled_from(list(SMALL_RUN)))
    value = {name: draw(pair[name == broken]) for name, pair in SMALL_RUN.items()}
    flags = ["--experiment", draw(st.sampled_from(list(cli.EXPERIMENTS)))]
    flags += [item for name in SMALL_RUN if name.startswith("--") for item in (name, value[name])]
    ini = "[experiment]\n" + "".join(
        f"{name} = {value[name]}\n" for name in ("ntrain_values", "ntune_values", "label_values")
    ) + "[rounds]\n" + "".join(
        f"{name} = {value[name]}\n" for name in ("tasks", "n_pred", "quantile_alpha")
    )
    return ini, flags


@settings(max_examples=60, deadline=None)  # about 4 s
@given(small_runs())
def test_every_small_run_writes_its_outputs_or_fails_in_one_line(config):
    # Outputs of an earlier run sit in the output dir: a failed run may drop
    # them, but must never leave a new results.csv beside the old manifest.
    ini, flags = config
    with tempfile.TemporaryDirectory() as tmp:
        out, path = Path(tmp) / "out", Path(tmp) / "run.ini"
        out.mkdir()
        (out / "results.csv").write_text("old\n")
        (out / "manifest.json").write_text("{}\n")
        path.write_text(ini)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", str(path), *flags, "--output-dir", str(out)])
        lines = stderr.getvalue().splitlines()
        event(f"exit {code}")
        if code == 0:
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            assert "results.csv" in outputs and all((out / name).is_file() for name in outputs)
            assert (out / "results.csv").read_text() != "old\n"
            assert all(line.startswith("ctool: warning: ") for line in lines)
        else:
            assert code in (2, 3) and len(lines) == 1 and lines[0].startswith("ctool: "), lines
            manifest = (out / "manifest.json").exists()
            assert not manifest or (out / "results.csv").read_text() == "old\n"
