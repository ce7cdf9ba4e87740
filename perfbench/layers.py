"""Timing hooks that the benchmark installs around `ctool`'s public calls.

Nothing under ``src/`` is edited.  Each hook rebinds a public name in the
module that looks it up at call time (for example ``mtconf.evaluate.fit_method``),
so the program runs its own code and only the boundary calls are timed.

``BoundaryTimer`` is the untraced mode: one timestamp pair per Monte Carlo
cell, at the calls into ``run_trials`` / ``run_protocol`` / ``run_sc_baseline``.
``Tracer`` is the traced mode: a span per call into every layer, kept in
memory and written once when the run ends; ``layer_metrics`` turns the spans
into per-layer self times and counts.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import time

import numpy as np


def clock() -> float:
    """System-wide monotonic clock, comparable across the benchmark's processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# The calls whose trial counts make up `trials_per_s`; the CLI looks them up
# in its own namespace.
TRIAL_CALLS = ("run_trials", "run_protocol", "run_sc_baseline")

# Span name -> the (calling module, public name) pairs it rebinds.
TRACED = {
    "synthetic.fit": [("mtconf.cli", "fit_quantile_models")],
    "synthetic.gen": [
        ("mtconf.cli", "gen_synthetic"),
        ("mtconf.cli", "gen_multiround"),
        ("mtconf.cli", "predict_quantiles"),
        ("mtconf.multiround", "gen_multiround"),
    ],
    "core.split": [
        ("mtconf.cli", "split_cal_test"),
        ("mtconf.evaluate", "split_cal_test"),
        ("mtconf.multiround", "split_cal_test"),
    ],
    "scores.score": [
        ("mtconf.cli", "score_matrix"),
        ("mtconf.evaluate", "score_matrix"),
        ("mtconf.multiround", "score_matrix"),
    ],
    "calibrate.fit": [
        ("mtconf.cli", "fit_method"),
        ("mtconf.evaluate", "fit_method"),
        ("mtconf.multiround", "fit_method"),
    ],
    "calibrate.cdf": [("mtconf.calibrate", "fit_cdf")],
    "calibrate.eval": [
        ("mtconf.evaluate", "coverage_mask"),
        ("mtconf.evaluate", "interval_array"),
        ("mtconf.multiround", "coverage_mask"),
        ("mtconf.multiround", "interval_array"),
    ],
    "evaluate.loop": [("mtconf.cli", "run_trials")],
    "multiround.loop": [("mtconf.cli", "run_protocol"), ("mtconf.cli", "run_sc_baseline")],
    "multiround.pilot": [("mtconf.cli", "pilot_tau")],
}

# Per-method self time of `fit_method`, by `Method` value.
FIT_METHODS = ("ia", "qn_max", "minimax", "copula")

PER_LAYER = (
    ("synthetic.fit_s", "s"),
    ("synthetic.gen_s", "s"),
    ("core.split_s", "s"),
    ("scores.score_s", "s"),
    ("scores.rows_scored", "rows"),
    ("calibrate.fit_s", "s"),
    *((f"calibrate.fit_s.{m}", "s") for m in FIT_METHODS),
    ("calibrate.cdf_s", "s"),
    ("calibrate.cdf_builds", "count"),
    ("calibrate.cdf_useful", "ratio"),
    ("calibrate.eval_s", "s"),
    ("evaluate.loop_s", "s"),
    ("multiround.loop_s", "s"),
    ("multiround.pilot_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BoundaryTimer:
    """One (start, end, trials) record per call into a trial loop."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float, int]] = []

    def install(self) -> None:
        cli = importlib.import_module("mtconf.cli")
        for name in TRIAL_CALLS:
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        sig = inspect.signature(fn)
        calls = self.calls

        def timed(*args, **kwargs):
            trials = sig.bind(*args, **kwargs).arguments["trials"]
            start = clock()
            result = fn(*args, **kwargs)
            calls.append((start, clock(), trials))
            return result

        return timed

    def report(self) -> dict:
        return {"calls": self.calls}


def _column_digest(column) -> str:
    return hashlib.blake2b(np.ascontiguousarray(column).tobytes(), digest_size=16).hexdigest()


class Tracer:
    """In-memory spans: [name, start, end, parent index, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, sites in TRACED.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                setattr(module, attr, self._wrap(layer, getattr(module, attr)))

    def call(self, name: str, fn, *args, info=None, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, info])
        stack.append(idx)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx][1:3] = start, clock()
            stack.pop()

    def _wrap(self, layer: str, fn):
        if layer == "calibrate.fit":
            return lambda method, *a, **k: self.call(f"{layer}.{method.value}", fn, method, *a, **k)
        if layer == "scores.score":
            return lambda lo, *a, **k: self.call(layer, fn, lo, *a, info=len(lo), **k)
        if layer == "calibrate.cdf":
            return lambda col, *a, **k: self.call(layer, fn, col, *a, info=_column_digest(col), **k)
        return lambda *a, **k: self.call(layer, fn, *a, **k)

    def report(self) -> dict:
        return {"spans": self.spans}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times (span minus child spans) and counts of one run."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: 0.0 for name, _ in PER_LAYER}
    builds: list[str] = []
    for (name, start, end, _, info), child in zip(spans, covered):
        self_s = end - start - child
        if name.startswith("calibrate.fit."):
            out["calibrate.fit_s"] += self_s
            method = name.rsplit(".", 1)[1]
            if method in FIT_METHODS:
                out[f"calibrate.fit_s.{method}"] += self_s
        elif name == "cli":
            out["cli.self_s"] += self_s
        else:
            out[f"{name}_s"] += self_s
        if name == "scores.score":
            out["scores.rows_scored"] += info
        elif name == "calibrate.cdf":
            builds.append(info)
    out["calibrate.cdf_builds"] = float(len(builds))
    out["calibrate.cdf_useful"] = len(set(builds)) / len(builds) if builds else 1.0
    return out
