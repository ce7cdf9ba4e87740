"""Record perfbench's end-to-end metrics in BENCH files, or compare two.

    python3 bench/record.py --record DIR OUT [--record DIR2 OUT2 ...]
    python3 bench/record.py --compare bench/BENCH_15.json bench/BENCH_16.json

Recording runs, in each checkout DIR and for every workload that
``BENCHMARK.json`` names, ten times:

    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0

with S ``BENCHMARK.json``'s ``run_seconds``.  With several checkouts the runs
alternate (A B, B A, A B, ...), so run i of each file forms a pair measured
side by side.  Each run keeps the metric values of perfbench's last stdout
line (medians over the run's rounds), the rounds' ``results.csv`` sha256
digests from ``perfbench/_out/W/rounds.json`` and the operations attempted
and failed.  Per workload the file also keeps the median and quartiles over
the runs of each end-to-end metric, ``env`` names the machine, and
``known_faults`` lists the faults of perfbench itself that its numbers carry.

Recording also runs, ten times in each checkout and alternating the same
way, the four published ``ctool run``s at their defaults (``PUBLISHED``):
table1 with correlated and with independent noise, coverage_sweep and
multiround.  Each runs in a fresh process, ``python -c CTOOL run ARGS
--output-dir DIR`` with the checkout's ``src`` as ``PYTHONPATH``; ``CTOOL``
calls ``mtconf.cli.main`` and then prints the process's ``VmHWM`` from
``/proc/self/status``.  Per run the file keeps the wall time around the
process, that peak memory and the ``results.csv`` sha256, and per run name
the median and quartiles, under ``published``.

Last, once in each checkout per workload, again alternating, it runs
perfbench with ``--trace 1`` and keeps, under ``layers``, the run's
per-layer metrics (each the median over its traced rounds), its digests and
its operations.

Comparing prints, per workload and metric, the relative change of the median
from A to B beside the bound ``BENCHMARK.json`` allows, in how many pairs
(run i of A, run i of B) B is better, and whether that shows a gain: B better
in nine of ten pairs, and its median better by more than A's quartile spread.
The exit code is 1 when B is worse beyond a bound, fails a larger share of
operations, is not correct (a failed gate, or runs whose digests disagree),
or was run for another length than A.  A changed digest is reported, not
counted: an output-changing commit changes it on purpose.  Then it prints,
per workload, each per-layer metric of A and of B and its change, marking
the metrics that either file's ``known_faults`` names (the layers that read
0, among others), and per published run, each metric's median change, in
how many pairs B is better, and whether the digests are equal; these lines
report and do not count, because ``BENCHMARK.json`` sets no bound on them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 10  # the pairs a claimed gain is judged on

# The published `ctool run`s: name -> the arguments after `run`.
PUBLISHED = {
    "table1_correlated": ("--experiment", "table1", "--noise", "correlated"),
    "table1_independent": ("--experiment", "table1", "--noise", "independent"),
    "coverage_sweep": ("--experiment", "coverage_sweep"),
    "multiround": ("--experiment", "multiround"),
}
PUBLISHED_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
]
# ctool's main, then the process's own peak resident memory on stderr's last line.
CTOOL = """import sys
from mtconf.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")), end="", file=sys.stderr)
sys.exit(code)
"""

# Faults of perfbench that are known and left as they are, because mending
# them edits the benchmark.  Every record carries them, so that a reader of
# its numbers knows which ones not to take at face value.
KNOWN_FAULTS = [
    {"metrics": ["peak_rss_mb"],
     "fault": "read from the child's ru_maxrss, which a process started by subprocess inherits "
              "from its parent, so it tracks perfbench's own high-water mark, not ctool's"},
    {"metrics": ["calibrate.fit_s", "calibrate.fit_s.ia", "calibrate.fit_s.qn_max",
                 "calibrate.fit_s.minimax", "calibrate.fit_s.copula", "calibrate.eval_s",
                 "core.split_s"],
     "fault": "read 0: the trial loops and the tau pilot call none of the names "
              "perfbench/layers.py traces for them; their time lands in evaluate.loop_s, "
              "multiround.loop_s and multiround.pilot_s"},
    {"metrics": ["trace.overhead_s"],
     "fault": "the traced rounds' median wall time minus the untraced rounds' median, a "
              "difference of two medians that run-to-run noise can make negative"},
    {"metrics": [],
     "fault": "perfbench/checks.py's FAULT text and perfbench/README.md place the raw-threshold "
              "fault in calibrate._materialize_zeta/raw_threshold; it is now in the threshold "
              "table that calibrate._score_rows builds"},
]


def perfbench_run(root: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in ``root``: metric values, digest and operations."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {root}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds_path = root / "perfbench" / "_out" / workload / "rounds.json"
    rounds = json.loads(rounds_path.read_text(encoding="utf-8"))["rounds"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "results_sha256": sorted({r["sha256"] for r in rounds}),
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def ctool_run(root: Path, args: tuple[str, ...]) -> dict:
    """One published ``ctool run`` of ``root`` in a fresh process: wall time,
    peak memory and digest, in the shape of a perfbench run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        out = Path(tmp) / "out"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CTOOL, "run", *args, "--output-dir", str(out)],
                              cwd=tmp, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"ctool run {' '.join(args)} in {root}: exited {proc.returncode}:\n"
                               f"{proc.stderr}")
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    peak_kb = int(proc.stderr.splitlines()[-1].split()[1])
    return {"correct": True, "attempted": 1, "failed": 0, "results_sha256": [digest],
            "metrics": {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's entry: its runs, and the median and quartiles over them."""
    digests = sorted({d for r in runs for d in r["results_sha256"]})
    entry = {
        "correct": len(digests) == 1 and all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "results_sha256": digests[0] if len(digests) == 1 else digests,
        "metrics": {},
        "runs": runs,
    }
    for metric in metrics:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry["metrics"][metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
        }
    return entry


def alternate(i: int, count: int) -> range:
    """The order of the checkouts in the i-th turn: forward, then backward."""
    return range(count) if i % 2 == 0 else range(count - 1, -1, -1)


def record(roots: list[Path], bench: dict) -> list[dict]:
    """RUNS alternating runs of every workload and published run in each root,
    then one traced run of every workload, one record per root."""
    seconds = bench["run_seconds"]
    e2e: list[dict] = [{} for _ in roots]
    published: list[dict] = [{} for _ in roots]
    jobs = [(e2e, w["name"], bench["end_to_end"],
             partial(perfbench_run, workload=w["name"], seconds=seconds))
            for w in bench["workloads"]]
    jobs += [(published, name, PUBLISHED_METRICS, partial(ctool_run, args=args))
             for name, args in PUBLISHED.items()]
    for part, name, metrics, one_run in jobs:
        runs: list[list[dict]] = [[] for _ in roots]
        for i in range(RUNS):
            for j in alternate(i, len(roots)):
                runs[j].append(one_run(roots[j]))
        for j, root_runs in enumerate(runs):
            part[j][name] = summarize(root_runs, metrics)
            print(f"{roots[j]} {name}: " + ", ".join(
                f"{metric} {m['median']:.6g}" for metric, m in part[j][name]["metrics"].items()))
    layers: list[dict] = [{} for _ in roots]
    for i, workload in enumerate(w["name"] for w in bench["workloads"]):
        for j in alternate(i, len(roots)):
            layers[j][workload] = perfbench_run(roots[j], workload, seconds, trace=1)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "host": platform.node(),
    }
    command = f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} --trace 0"
    published_command = "python3 -c CTOOL run ARGS --output-dir DIR"
    return [{"command": command, "seconds": seconds, "runs": RUNS, "env": env,
             "known_faults": KNOWN_FAULTS, "e2e": one,
             "published_command": published_command, "ctool": CTOOL, "published": pub,
             "layers_command": command.replace("--trace 0", "--trace 1"), "layers": lay}
            for one, pub, lay in zip(e2e, published, layers)]


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines for B against A, and whether B is worse or not comparable."""
    if a["seconds"] != b["seconds"]:
        return [f"runs of {a['seconds']:g} s and {b['seconds']:g} s cannot be compared"], True
    lines, worse = [], False
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a["e2e"] or workload not in b["e2e"]:
            lines.append(f"{workload}: not in both files")
            continue
        old, new = a["e2e"][workload], b["e2e"][workload]
        same = "same" if old["results_sha256"] == new["results_sha256"] else "DIFFERENT"
        share = [e["failed"] / e["attempted"] for e in (old, new)]
        lines.append(f"{workload}: results.csv {same}; failed share {share[0]:.3g} -> {share[1]:.3g}"
                     + ("" if new["correct"] else "; B NOT CORRECT"))
        worse |= share[1] > share[0] or not new["correct"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            x, y = old["metrics"][name]["median"], new["metrics"][name]["median"]
            loss = sign * (y - x) / x
            worse |= loss > bound
            verdict = "WORSE beyond bound" if loss > bound else "within bound"
            wins, pairs = better_pairs(old, new, metric)
            spread = old["metrics"][name]["q3"] - old["metrics"][name]["q1"]
            gain = "gain shown" if wins >= 0.9 * pairs and -sign * (y - x) > spread else "no gain shown"
            lines.append(f"  {name:<13} {x:10.6g} -> {y:10.6g} {metric['unit']:<4} {(y - x) / x:+8.2%}"
                         f"  ({metric['better']} is better, bound {bound:.0%}): {verdict}; "
                         f"B better in {wins}/{pairs} pairs, A's quartile spread {spread:.3g}: {gain}")
    return lines + compare_layers(a, b, bench) + compare_published(a, b), worse


def better_pairs(old: dict, new: dict, metric: dict) -> tuple[int, int]:
    """In how many pairs (run i of A, run i of B) B is better, and how many pairs."""
    sign = 1 if metric["better"] == "lower" else -1
    pairs = list(zip(old["runs"], new["runs"]))
    name = metric["name"]
    return sum(sign * (q["metrics"][name] - p["metrics"][name]) < 0 for p, q in pairs), len(pairs)


def compare_published(a: dict, b: dict) -> list[str]:
    """Report lines for B's published runs against A's, which set no verdict."""
    if "published" not in a or "published" not in b:
        return ["published runs: not in both files"]
    lines = []
    for run_name in PUBLISHED:
        old, new = a["published"][run_name], b["published"][run_name]
        same = "same" if old["results_sha256"] == new["results_sha256"] else "DIFFERENT"
        lines.append(f"published {run_name}: results.csv {same}")
        for metric in PUBLISHED_METRICS:
            x, y = (e["metrics"][metric["name"]]["median"] for e in (old, new))
            wins, pairs = better_pairs(old, new, metric)
            lines.append(f"  {metric['name']:<13} {x:10.6g} -> {y:10.6g} {metric['unit']:<4} "
                         f"{(y - x) / x:+8.2%}  B better in {wins}/{pairs} pairs")
    return lines


def compare_layers(a: dict, b: dict, bench: dict) -> list[str]:
    """Report lines for B's per-layer metrics against A's, which set no verdict."""
    if "layers" not in a or "layers" not in b:
        return ["layers: not in both files"]
    faulty = {m for r in (a, b) for fault in r.get("known_faults", []) for m in fault["metrics"]}
    lines = []
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a["layers"] or workload not in b["layers"]:
            lines.append(f"layers {workload}: not in both files")
            continue
        lines.append(f"layers {workload}:")
        old, new = a["layers"][workload]["metrics"], b["layers"][workload]["metrics"]
        for metric in bench["per_layer"]:
            name = metric["name"]
            x, y = old[name], new[name]
            change = f"{(y - x) / x:+8.2%}" if x else "     n/a"
            lines.append(f"  {name:<24} {x:10.6g} -> {y:10.6g} {metric['unit']:<5} {change}"
                         + ("  known fault" if name in faulty else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", nargs=2, action="append", type=Path, metavar=("DIR", "OUT"),
                        help="checkout to run and BENCH file to write; repeat to alternate runs")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        lines, worse = compare(a, b, bench)
        print("\n".join(lines))
        return 1 if worse else 0
    if not args.record:
        parser.error("give --record DIR OUT to record, or --compare A B")
    results = record([root.resolve() for root, _ in args.record], bench)
    for (_, out), result in zip(args.record, results):
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
