"""Run a fixed list of small `ctool` configs in two checkouts and compare their outputs.

    python3 bench/same_bytes.py --parent DIR [--change DIR]

DIR is a checkout (a directory holding ``src/mtconf``); ``--change`` defaults
to the checkout this script sits in.  Each config of ``CONFIGS`` runs as
``python -m mtconf.cli run ...`` with that checkout's ``src`` as
``PYTHONPATH``, in a fresh directory of its own with relative paths, both
sides at once.  Per config it compares the exit code, stdout, stderr,
``results.csv``, every ``plot_*.csv`` and ``manifest.json`` without
``wall_time_s`` and ``config.output_dir``; it also compares ``ctool --help``
and ``ctool run --help``.  It prints one line per config and exits 1 on any
difference.  The list's 24 configs cover all six experiments, every method
token (``single`` on a one-round layout), three tasks per round, fixed and
piloted tau, both noises, a size sweep with two runs, config errors and run
errors, at T = 3 and a few hundred rows, and table1 on pools of 257 and
65,537 rows at T = 2, so the split tables keep indices of every width
(uint8, uint16, uint32).  A whole comparison takes about 11 s on 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES = ("--trials", "3", "--ntrain", "200", "--ntune", "150", "--ncal", "120", "--ntest", "80")
ONE_ROUND = "[rounds]\nrounds = 1\ntasks = 1\nsigma = 0.1\nrates = 1\n"

# name -> (INI text or None, ctool run arguments after the config path)
CONFIGS: dict[str, tuple[str | None, tuple[str, ...]]] = {
    "table1_correlated": (None, (
        "--experiment", "table1", "--noise", "correlated", "--alphas", "0.2,0.1", *SIZES)),
    "table1_independent": (None, (
        "--experiment", "table1", "--noise", "independent", "--methods", "max_cqr,copula,ia",
        "--alphas", "0.3", *SIZES, "--seed", "3")),
    "table1_starved_ncal": (None, (
        "--experiment", "table1", "--methods", "ia,qn,cpts,qn_minimax", "--alphas", "0.3,0.05",
        *SIZES, "--ncal", "8")),
    "table1_coarse_tuning": (None, (
        "--experiment", "table1", "--methods", "cpts,cqr_minimax", *SIZES, "--ntune", "20")),
    "table1_well_tuned": (None, (
        "--experiment", "table1", "--methods", "cpts,qn", "--alphas", "0.1", *SIZES,
        "--ntune", "600")),
    # Pools of 257 and 65,537 rows, whose split tables keep uint16 and uint32
    # indices (the other configs' 200-row pools keep uint8).
    "table1_pool_257": (None, (
        "--experiment", "table1", "--methods", "ia,cpts", "--alphas", "0.2", *SIZES,
        "--trials", "2", "--ncal", "157", "--ntest", "100")),
    "table1_pool_65537": (None, (
        "--experiment", "table1", "--methods", "qn,cqr_minimax", "--alphas", "0.1", *SIZES,
        "--trials", "2", "--ncal", "40000", "--ntest", "25537")),
    "coverage_sweep": (None, (
        "--experiment", "coverage_sweep", "--noise", "independent",
        "--methods", "cpts,qn_minimax,ia", *SIZES)),
    "ntrain_sweep": ("[experiment]\nntrain_values = 60, 150\n", (
        "--experiment", "ntrain_sweep", "--methods", "ia,cpts,qn_minimax", "--runs", "2", *SIZES)),
    "ntune_sweep": ("[experiment]\nntune_values = 40, 600\n", (
        "--experiment", "ntune_sweep", "--noise", "correlated", "--methods", "cqr_minimax,qn",
        "--runs", "2", *SIZES)),
    "multiround_auto": (None, (
        "--experiment", "multiround", "--methods", "cqr_minimax,qn,cpts", *SIZES)),
    "multiround_fixed": (None, (
        "--experiment", "multiround", "--methods", "ia,qn_minimax,max_cqr,copula",
        "--tau", "0.2", *SIZES)),
    "multiround_tasks3_auto": ("[rounds]\ntasks = 3\n", (
        "--experiment", "multiround", "--methods", "qn_minimax,ia", "--alphas", "0.2", *SIZES)),
    "multiround_tasks3_fixed": ("[rounds]\ntasks = 3\ntau = 0.3\n", (
        "--experiment", "multiround", "--methods", "cpts,qn", *SIZES)),
    "multiround_single": (ONE_ROUND, (
        "--experiment", "multiround", "--methods", "single,ia", "--alphas", "0.2,0.1", *SIZES)),
    "multiround_layout": (
        "[rounds]\nrounds = 3\nsigma = 0.3, 0.1, 0.05\nrates = 4, 2, 1\nn_pred = 12\n"
        "quantile_alpha = 0.2\n",
        ("--experiment", "multiround", "--methods", "cqr_minimax,max_cqr", *SIZES)),
    "multiround_auto_flag": ("[experiment]\ntau = 0.5\n", (
        "--experiment", "multiround", "--tau", "auto", "--alphas", "0.1", *SIZES)),
    "labels_auto": ("[experiment]\nlabel_values = 1, 2, 3\n", (
        "--experiment", "multiround_labels", "--methods", "cqr_minimax,ia", *SIZES)),
    "labels_fixed": ("[experiment]\nlabel_values = 1, 3\ntau = 0.2\n[rounds]\ntasks = 2\n", (
        "--experiment", "multiround_labels", "--methods", "qn,cpts", *SIZES)),
    "labels_single": ("[experiment]\nlabel_values = 1\n" + ONE_ROUND, (
        "--experiment", "multiround_labels", "--methods", "single", *SIZES)),
    "config_error_alpha": (None, ("--experiment", "table1", "--alphas", "2.0", *SIZES)),
    "config_error_quantile_alpha": ("[rounds]\nquantile_alpha = 2\n", (
        "--experiment", "multiround", *SIZES)),
    "run_error_pilot": (None, (
        "--experiment", "multiround", "--alphas", "0.2,0.05", *SIZES, "--ncal", "9")),
    "run_error_zero_width": ("[rounds]\nn_pred = 2\n", (
        "--experiment", "multiround", "--methods", "qn", "--tau", "0.2", *SIZES)),
}

# The outputs of `ctool --help` and `ctool run --help`, compared like a config.
HELP = {"help": ("--help",), "run_help": ("run", "--help")}


def _start(checkout: Path, cwd: Path, argv: tuple[str, ...]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "mtconf.cli", *argv], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _manifest(path: Path) -> str:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("wall_time_s", None)
    manifest.get("config", {}).pop("output_dir", None)
    return json.dumps(manifest, indent=2, sort_keys=True)


def _outputs(proc: subprocess.Popen, cwd: Path) -> dict[str, object]:
    """What one run leaves: exit code, stdout, stderr and the output files."""
    stdout, stderr = proc.communicate()
    got: dict[str, object] = {"exit code": proc.returncode, "stdout": stdout, "stderr": stderr}
    out = cwd / "out"
    for path in sorted(out.glob("*.csv")) if out.is_dir() else ():
        got[path.name] = path.read_bytes()
    if (out / "manifest.json").is_file():
        got["manifest.json"] = _manifest(out / "manifest.json")
    return got


def compare(parent: Path, change: Path) -> list[tuple[str, list[str]]]:
    """Per config and help text, the outputs that differ between the checkouts."""
    runs = {name: (("run", "run.ini") if ini else ("run",), ini, args)
            for name, (ini, args) in CONFIGS.items()}
    runs.update({name: ((), None, argv) for name, argv in HELP.items()})
    report = []
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for name, (head, ini, args) in runs.items():
            sides = []
            for side, checkout in (("parent", parent), ("change", change)):
                cwd = Path(tmp) / name / side
                cwd.mkdir(parents=True)
                if ini is not None:
                    (cwd / "run.ini").write_text(ini, encoding="utf-8")
                tail = ("--output-dir", "out") if head else ()
                sides.append((_start(checkout, cwd, (*head, *args, *tail)), cwd))
            old, new = (_outputs(proc, cwd) for proc, cwd in sides)
            differ = [key for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]
            report.append((name, differ))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout to check (this one)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "mtconf" / "__init__.py").is_file():
            parser.error(f"no src/mtconf in {checkout}")
    report = compare(args.parent.resolve(), args.change.resolve())
    for name, differ in report:
        print(f"{name:<28} " + ("differs: " + ", ".join(differ) if differ else "same"))
    failed = sum(bool(differ) for _, differ in report)
    print(f"{len(report) - failed} of {len(report)} the same")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
