"""bench/record.py: the BENCH file's summaries, the recording order and the compare verdicts.

These run on hand-made perfbench outputs and a stub perfbench; no benchmark is started.
"""

import importlib.util
import json
import statistics
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def run(wall=1.0, tps=4000.0, failed=3, digests=("ab",), correct=True):
    metrics = {"wall_s": wall, "setup_s": wall / 2, "trials_per_s": tps, "peak_rss_mb": 45.0}
    return {"correct": correct, "attempted": 10, "failed": failed,
            "results_sha256": list(digests), "metrics": metrics}


def entry(runs):
    return record.summarize(runs, BENCH["end_to_end"])


def test_summaries_are_the_median_and_quartiles_over_runs():
    wall = [1.0, 1.4, 1.1, 1.3, 1.2]
    got = entry([run(wall=w) for w in wall])
    q1, _, q3 = statistics.quantiles(wall, n=4)
    assert got["metrics"]["wall_s"] == {"unit": "s", "median": 1.2, "q1": q1, "q3": q3}
    assert (got["attempted"], got["failed"], got["correct"]) == (50, 15, True)
    assert got["results_sha256"] == "ab"
    assert [r["metrics"]["wall_s"] for r in got["runs"]] == wall


def test_digests_that_disagree_are_all_kept_and_not_correct():
    within = entry([run(digests=("a", "b"), correct=False), run()])
    assert within["results_sha256"] == ["a", "ab", "b"] and not within["correct"]
    between = entry([run(digests=("b",)), run(digests=("a",))])
    assert between["results_sha256"] == ["a", "b"] and not between["correct"]


def bench_file(seconds=40, **workloads):
    return {"seconds": seconds, "e2e": workloads}


def pair_of_files(b_runs):
    a = bench_file(**{n: entry([run(), run()]) for n in NAMES})
    b = bench_file(**{n: entry([run(), run()]) for n in NAMES})
    b["e2e"][NAMES[0]] = entry(b_runs)
    return a, b


@pytest.mark.parametrize(
    "b_runs, worse",
    [
        ([run(tps=5000.0)] * 2, False),  # faster
        ([run(tps=3100.0)] * 2, False),  # 22.5% fewer trials per second, bound 25%
        ([run(tps=2900.0)] * 2, True),  # 27.5% fewer: beyond the bound
        ([run(wall=1.3)] * 2, True),  # 30% more wall time
        ([run(failed=4)] * 2, True),  # a larger failed share
        ([run(correct=False)] * 2, True),  # a failed gate, no failed operation
        ([run(digests=("ab", "cd"), correct=False)] * 2, True),  # rounds disagree
    ],
)
def test_compare_flags_a_worse_or_incorrect_b(b_runs, worse):
    lines, got = record.compare(*pair_of_files(b_runs), BENCH)
    assert got is worse
    assert f"{NAMES[0]}: results.csv" in lines[0]


def test_compare_reports_a_changed_digest_and_a_missing_workload():
    a = bench_file(**{NAMES[0]: entry([run(), run()])})
    b = bench_file(**{NAMES[0]: entry([run(digests=("cd",))] * 2)})
    lines, worse = record.compare(a, b, BENCH)
    assert "DIFFERENT" in lines[0] and not worse
    assert f"{NAMES[1]}: not in both files" in lines


def test_compare_refuses_records_of_different_lengths():
    a = bench_file(**{n: entry([run(), run()]) for n in NAMES})
    lines, worse = record.compare(a, dict(a, seconds=5), BENCH)
    assert worse and lines == ["runs of 40 s and 5 s cannot be compared"]


@pytest.mark.parametrize(
    "b_tps, shown",
    [
        ([5000.0] * 10, True),
        ([5000.0] * 9 + [3900.0], True),  # nine of ten pairs
        ([5000.0] * 8 + [3900.0] * 2, False),  # eight of ten
        ([4010.0] * 10, False),  # ten wins, but inside A's quartile spread
    ],
)
def test_compare_shows_a_gain_only_on_nine_pairs_beyond_the_spread(b_tps, shown):
    a_tps = [3950.0, 4050.0] * 5
    a = bench_file(**{NAMES[0]: entry([run(tps=t) for t in a_tps])})
    b = bench_file(**{NAMES[0]: entry([run(tps=t) for t in b_tps])})
    lines, worse = record.compare(a, b, BENCH)
    (line,) = [line for line in lines if "trials_per_s" in line]
    assert line.endswith(": gain shown") is shown and not worse


STUB = """
import json, sys
from pathlib import Path
w = sys.argv[sys.argv.index("--workload") + 1]
here = Path(__file__).resolve().parent
with open(here.parent.parent / "order.log", "a") as fh:
    fh.write(f"{here.parent.name} {w} {sys.argv[sys.argv.index('--seconds') + 1]}\\n")
out = here / "_out" / w
out.mkdir(parents=True, exist_ok=True)
(out / "rounds.json").write_text(json.dumps({"rounds": [{"sha256": "d" + here.parent.name}] * 2}))
metrics = {m: {"value": 1.0 if here.parent.name == "a" else 2.0, "unit": "s"}
           for m in ("wall_s", "setup_s", "trials_per_s", "peak_rss_mb")}
print("report text")
print(json.dumps({"correct": True, "attempted": 5, "failed": 1, "metrics": metrics}))
"""


def test_record_alternates_checkouts_and_keeps_every_run(tmp_path, monkeypatch):
    monkeypatch.setattr(record, "RUNS", 4)
    for name in "ab":
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(textwrap.dedent(STUB))
    outs = [tmp_path / "A.json", tmp_path / "B.json"]
    argv = ["--record", str(tmp_path / "a"), str(outs[0]), "--record", str(tmp_path / "b"), str(outs[1])]
    assert record.main(argv) == 0
    seconds = BENCH["run_seconds"]
    log = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert log == [f"{s} {w} {seconds:g}" for w in NAMES for s in "abbaabba"]
    a, b = (json.loads(p.read_text()) for p in outs)
    assert a["seconds"] == b["seconds"] == seconds and a["runs"] == 4
    one = b["e2e"][NAMES[0]]
    assert (one["results_sha256"], one["attempted"], one["failed"], one["correct"]) == ("db", 20, 4, True)
    assert len(one["runs"]) == 4 and one["metrics"]["wall_s"]["median"] == 2.0
    lines, worse = record.compare(a, b, BENCH)
    assert worse and "DIFFERENT" in lines[0]


def test_every_record_carries_the_known_perfbench_faults(monkeypatch):
    monkeypatch.setattr(record, "RUNS", 2)
    monkeypatch.setattr(record, "perfbench_run", lambda root, workload, seconds: run())
    records = record.record([Path("a"), Path("b")], BENCH)
    assert [r["known_faults"] for r in records] == [record.KNOWN_FAULTS] * 2
    declared = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    named = [m for fault in record.KNOWN_FAULTS for m in fault["metrics"]]
    assert set(named) <= declared and "peak_rss_mb" in named and "trace.overhead_s" in named
    assert any("_score_rows" in fault["fault"] for fault in record.KNOWN_FAULTS)
