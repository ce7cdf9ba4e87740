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
the runs of each end-to-end metric, and ``env`` names the machine.

Comparing prints, per workload and metric, the relative change of the median
from A to B beside the bound ``BENCHMARK.json`` allows, in how many pairs
(run i of A, run i of B) B is better, and whether that shows a gain: B better
in nine of ten pairs, and its median better by more than A's quartile spread.
The exit code is 1 when B is worse beyond a bound, fails a larger share of
operations, is not correct (a failed gate, or runs whose digests disagree),
or was run for another length than A.  A changed digest is reported, not
counted: an output-changing commit changes it on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 10  # the pairs a claimed gain is judged on


def perfbench_run(root: Path, workload: str, seconds: float) -> dict:
    """One perfbench run in ``root``: metric values, digest and operations."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", "0"]
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


def record(roots: list[Path], bench: dict) -> list[dict]:
    """RUNS alternating runs of every workload in each root, one record per root."""
    seconds = bench["run_seconds"]
    e2e: list[dict] = [{} for _ in roots]
    for workload in (w["name"] for w in bench["workloads"]):
        runs: list[list[dict]] = [[] for _ in roots]
        for i in range(RUNS):
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for j in order:
                runs[j].append(perfbench_run(roots[j], workload, seconds))
        for j, root_runs in enumerate(runs):
            e2e[j][workload] = summarize(root_runs, bench["end_to_end"])
            print(f"{roots[j]} {workload}: " + ", ".join(
                f"{name} {m['median']:.6g}" for name, m in e2e[j][workload]["metrics"].items()))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "host": platform.node(),
    }
    command = f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} --trace 0"
    return [{"command": command, "seconds": seconds, "runs": RUNS, "env": env, "e2e": one}
            for one in e2e]


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
            pairs = list(zip(old["runs"], new["runs"]))
            wins = sum(sign * (q["metrics"][name] - p["metrics"][name]) < 0 for p, q in pairs)
            spread = old["metrics"][name]["q3"] - old["metrics"][name]["q1"]
            gain = "gain shown" if wins >= 0.9 * len(pairs) and -sign * (y - x) > spread else "no gain shown"
            lines.append(f"  {name:<13} {x:10.6g} -> {y:10.6g} {metric['unit']:<4} {(y - x) / x:+8.2%}"
                         f"  ({metric['better']} is better, bound {bound:.0%}): {verdict}; "
                         f"B better in {wins}/{len(pairs)} pairs, A's quartile spread {spread:.3g}: {gain}")
    return lines, worse


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
