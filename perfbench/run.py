"""Benchmark `ctool` end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For S seconds it repeats rounds; a round
is one fresh `ctool run` process (ctool threads = 1, BLAS/OpenMP pools pinned
to one thread) followed by the checks of its outputs and the workload's exact
calibrations.  With --trace 0 it prints the medians over rounds of the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics of the traced ones plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "CTOOL_THREADS",
    )
}
# Pin this process's own pools before the modules below import numpy.
os.environ.update(PINNED)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("trials_per_s", "1/s"), ("peak_rss_mb", "MB"))


def run_round(workload, seed: int, trace: bool, outdir: Path) -> dict:
    """One `ctool` process; returns its timings (or spans) and output digest."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.parent.mkdir(parents=True, exist_ok=True)
    report_path = outdir.parent / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), str(report_path), "1" if trace else "0",
        str(SRC), "--", *workload.ctool_argv(seed, outdir),
    ]
    env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    spawned = layers.clock()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"ctool round failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    digest = hashlib.sha256((outdir / "results.csv").read_bytes()).hexdigest()
    out = {"wall_s": report["done"] - spawned, "sha256": digest}
    if trace:
        out["layers"] = layers.layer_metrics(report["spans"])
        return out
    calls = report["calls"]
    if not calls:
        raise RuntimeError("ctool made no call into a trial loop")
    out["setup_s"] = calls[0][0] - spawned
    out["trials_per_s"] = sum(c[2] for c in calls) / sum(c[1] - c[0] for c in calls)
    out["peak_rss_mb"] = report["maxrss_kb"] / 1024.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mtconf" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'mtconf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    outdir = OUT / workload.name / "run"

    # Set-up of the checks, outside every timed span.
    cases, fits = workloads.exact_cases(workload.name)
    gates = []
    for train, models in fits:
        excess = checks.pinball_excess(train.features, train.targets, models)
        print(f"pinball loss over the LP optimum: +{excess:.3%} (limit {checks.PINBALL_EXCESS:.0%})")
        if excess > checks.PINBALL_EXCESS:
            gates.append(f"pinball fit {excess:.3%} above the LP optimum")

    started = layers.clock()
    rounds: list[tuple[bool, dict]] = []
    attempted = failed = 0
    unexpected: dict[str, tuple[str, ...]] = {}
    fault_ops: dict[str, tuple[str, ...]] = {}
    while True:
        round_start = layers.clock()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result = run_round(workload, args.seed, traced, outdir)
        ops = workloads.check_outputs(workload.name, outdir)
        ops += [workloads.run_exact(case) for case in cases]
        rounds.append((traced, result))
        attempted += len(ops)
        for op in ops:
            if op.ok:
                continue
            failed += 1
            (fault_ops if op.known_fault else unexpected)[op.name] = op.problems
        # Start another round only if one as long as the last still fits.
        now = layers.clock()
        if now + (now - round_start) - started > args.seconds and (
            not args.trace or len(rounds) >= 2
        ):
            break

    digests = {r["sha256"] for _, r in rounds}
    if len(digests) != 1:
        gates.append(f"results.csv differs between rounds of one seed: {sorted(digests)}")

    plain = [r for t, r in rounds if not t]
    metrics: dict[str, dict] = {}
    print(f"workload {workload.name}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(rounds) - len(plain)} traced rounds in {layers.clock() - started:.1f} s")
    if args.trace:
        traced_rounds = [r for t, r in rounds if t]
        names = [name for name, _ in layers.PER_LAYER]
        for name, unit in layers.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced_rounds) - statistics.median(
                    r["wall_s"] for r in plain
                )
            else:
                value = statistics.median(r["layers"][name] for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
        width = max(len(n) for n in names)
        for name in names:
            print(f"  {name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    else:
        for name, unit in END_TO_END:
            q1, med, q3 = quartiles([r[name] for r in plain])
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<13} {med:.6g} {unit}  (quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for name, problems in sorted(fault_ops.items()):
        print(f"    known fault  {name}: {'; '.join(problems)}")
    if fault_ops:
        print(f"    ({checks.FAULT})")
    for name, problems in sorted(unexpected.items()):
        print(f"    FAILED       {name}: {'; '.join(problems)}")
    for gate in gates:
        print(f"    FAILED       {gate}")
    print(f"  results.csv sha256 {' '.join(sorted(digests))}")
    with open(OUT / workload.name / "rounds.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "trace": args.trace, "rounds": [r for _, r in rounds]}, fh)
    correct = not unexpected and not gates
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
