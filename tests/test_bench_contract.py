"""The names the benchmark under ``perfbench/`` looks up in ``mtconf``.

perfbench times the program by rebinding public names in the modules that
call them (``layers.TRACED``), imports library names directly and runs
``ctool`` with fixed command lines (``workloads.WORKLOADS``).  A name, flag or
config key that moves or goes away breaks the benchmark without failing any
other test, so this file checks that every one still resolves.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mtconf import Calibration, Method, ScoreKind, cli, fit_method

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "mtconf"


def _load_perfbench(name):
    # perfbench's modules import their siblings by plain name, and its
    # dataclasses look their module up in sys.modules.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


LAYERS = _load_perfbench("layers")
WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize(
    "module, name", sorted({site for sites in LAYERS.TRACED.values() for site in sites})
)
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", LAYERS.TRIAL_CALLS)
def test_trial_calls_take_a_trials_argument(name):
    cli = importlib.import_module("mtconf.cli")
    assert "trials" in inspect.signature(getattr(cli, name)).parameters


def _unused_imports(path):
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# The package's __init__ imports the public API for its callers.
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_every_unused_import_is_one_the_benchmark_rebinds(module):
    """perfbench rebinds some names in the modules that import them, so those
    may go unused; any other unused import is a leftover."""
    sites = {site for sites in LAYERS.TRACED.values() for site in sites}
    rebound = {name for mod, name in sites if mod == f"mtconf.{module}"}
    assert _unused_imports(SRC / f"{module}.py") <= rebound


def _mtconf_imports():
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mtconf":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_perfbench_imports_some_mtconf_names():
    assert len(_mtconf_imports()) >= 10


@pytest.mark.parametrize("module, name", _mtconf_imports())
def test_every_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_command_line_builds_a_config(tmp_path, name):
    # Parsed and validated only; nothing runs.
    args = cli._build_argparser().parse_args(WORKLOADS[name].ctool_argv(1, tmp_path / "out"))
    file_values = cli.read_config_file(Path(args.config)) if args.config else {}
    cfg = cli.build_config(file_values, cli._flag_values(args))
    assert cfg.seed == 1 and cfg.threads == 1 and cfg.output_dir == str(tmp_path / "out")
    assert bool(args.config) == bool(WORKLOADS[name].ini)


def test_calibration_keeps_the_fields_the_benchmark_reads():
    names = {f.name for f in fields(Calibration)}
    assert {"per_target_level", "per_target_zeta"} <= names
    assert callable(Calibration.margins)


def test_cdfs_are_built_through_the_module_global(monkeypatch):
    calibrate = importlib.import_module("mtconf.calibrate")
    built = []
    fit_cdf = calibrate.fit_cdf
    monkeypatch.setattr(calibrate, "fit_cdf", lambda col: built.append(col) or fit_cdf(col))
    rng = np.random.default_rng(0)
    fit_method(Method.MINIMAX, rng.normal(size=(30, 2)), 0.1, ScoreKind.CQR, rng.normal(size=(20, 2)))
    assert len(built) == 2


@pytest.mark.parametrize(
    "ini, flags, timed_calls, pilots",
    [
        (None, ("--experiment", "table1", "--methods", "ia,qn,cpts", "--alphas", "0.2,0.1"), 6, 0),
        (
            "[experiment]\nntune_values = 40, 60\nruns = 2\n",
            ("--experiment", "ntune_sweep", "--methods", "cqr_minimax,qn"),
            8,
            0,
        ),
        (
            "[rounds]\ntasks = 2\n",
            ("--experiment", "multiround", "--methods", "cqr_minimax,ia", "--alphas", "0.2,0.1"),
            8,
            2,
        ),
    ],
)
def test_per_cell_work_runs_inside_the_timed_trial_calls(
    tmp_path, monkeypatch, ini, flags, timed_calls, pilots
):
    """`trials_per_s` divides trials by the time spent in the calls the benchmark
    times, so each such call must score its own pool; only the tau pilot's
    `fit_method` may score rows outside them."""
    calibrate = importlib.import_module("mtconf.calibrate")
    evaluate = importlib.import_module("mtconf.evaluate")
    inside = []  # per timed call, the pools it scored
    outside = []  # per scoring outside them, whether the pilot's fit_method made it
    state = {"timed": False, "pilot": False}

    def scoring(real):
        def wrapped(*args, **kwargs):
            if state["timed"]:
                inside[-1] += 1
            else:
                outside.append(state["pilot"])
            return real(*args, **kwargs)

        return wrapped

    def flagged(real, flag):
        def wrapped(*args, **kwargs):
            assert not state[flag], f"nested {flag} call"
            state[flag] = True
            if flag == "timed":
                inside.append(0)
            try:
                return real(*args, **kwargs)
            finally:
                state[flag] = False

        return wrapped

    for module in (calibrate, evaluate):
        monkeypatch.setattr(module, "_score_rows", scoring(module._score_rows))
    for name in LAYERS.TRIAL_CALLS:
        monkeypatch.setattr(cli, name, flagged(getattr(cli, name), "timed"))
    monkeypatch.setattr(cli, "fit_method", flagged(cli.fit_method, "pilot"))
    args = ["run"]
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args.append(str(tmp_path / "run.ini"))
    sizes = ("--trials", "2", "--ntrain", "60", "--ntune", "40", "--ncal", "50", "--ntest", "30")
    assert cli.main([*args, *flags, *sizes, "--output-dir", str(tmp_path / "out")]) == 0
    assert inside == [1] * timed_calls
    assert outside == [True] * pilots
