"""Run `ctool` once in this fresh process and write a timing report.

Usage: child.py REPORT_JSON TRACE(0|1) SRC_DIR -- CTOOL_ARGS...

The parent (run.py) pins the thread pools through this process's
environment and records the spawn time; this process reports monotonic
timestamps of the trial-loop boundaries (or the layer spans when TRACE is 1),
the time ``ctool`` returned, and its peak resident set.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import layers


def main() -> int:
    report_path, trace, src_dir, sep, *ctool_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT_JSON TRACE SRC_DIR -- CTOOL_ARGS...")
    import mtconf.cli as cli

    src = Path(src_dir).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported {cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 3
    recorder = layers.Tracer() if trace == "1" else layers.BoundaryTimer()
    recorder.install()
    if trace == "1":
        status = recorder.call("cli", cli.main, ctool_argv)
    else:
        status = cli.main(ctool_argv)
    done = layers.clock()
    report = {
        "status": status,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **recorder.report(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if status == 0 else 4


if __name__ == "__main__":
    sys.exit(main())
