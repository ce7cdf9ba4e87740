"""bench/record.py: the BENCH file's summaries, the recording order and the compare verdicts.

These run on hand-made perfbench outputs, a stub perfbench and a stub ``mtconf.cli``; no
benchmark is started.
"""

import hashlib
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


# A stub perfbench: it logs its checkout and arguments.  Untraced, every
# metric reads 1 in checkout a and 2 in b; traced, the layers that
# KNOWN_FAULTS says read 0 do, synthetic.fit_s reads 0.3 in a and 0.2 in b,
# and the other layers read 1.
STUB = """
import json, sys
from pathlib import Path
w = sys.argv[sys.argv.index("--workload") + 1]
trace = sys.argv[sys.argv.index("--trace") + 1]
here = Path(__file__).resolve().parent
with open(here.parent.parent / "order.log", "a") as fh:
    fh.write(f"{here.parent.name} {w} {sys.argv[sys.argv.index('--seconds') + 1]} {trace}\\n")
out = here / "_out" / w
out.mkdir(parents=True, exist_ok=True)
(out / "rounds.json").write_text(json.dumps({"rounds": [{"sha256": "d" + here.parent.name}] * 2}))
if trace == "1":
    values = {m: 0.0 if m in READ_0 else 1.0 for m in LAYERS}
    values["synthetic.fit_s"] = 0.3 if here.parent.name == "a" else 0.2
else:
    values = {m: 1.0 if here.parent.name == "a" else 2.0
              for m in ("wall_s", "setup_s", "trials_per_s", "peak_rss_mb")}
metrics = {m: {"value": v, "unit": "s"} for m, v in values.items()}
print("report text")
print(json.dumps({"correct": True, "attempted": 5, "failed": 1, "metrics": metrics}))
"""
LAYERS = [m["name"] for m in BENCH["per_layer"]]
READ_0 = [m for fault in record.KNOWN_FAULTS if fault["fault"].startswith("read 0")
          for m in fault["metrics"]]


# A stub mtconf.cli: it logs its checkout and arguments and writes the
# checkout's name as results.csv.
CLI_STUB = """
from pathlib import Path
def main(argv):
    here = Path(__file__).resolve().parents[2]
    cut = argv.index("--output-dir")
    with open(here.parent / "order.log", "a") as fh:
        fh.write(f"{here.name} {' '.join(argv[:cut])}\\n")
    out = Path(argv[cut + 1])
    out.mkdir(parents=True)
    (out / "results.csv").write_text(here.name)
    return int(here.name == "broken")
"""


def stub_checkout(root):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"LAYERS = {LAYERS!r}\nREAD_0 = {READ_0!r}\n" + textwrap.dedent(STUB))
    (root / "src" / "mtconf").mkdir(parents=True)
    (root / "src" / "mtconf" / "__init__.py").write_text("")
    (root / "src" / "mtconf" / "cli.py").write_text(textwrap.dedent(CLI_STUB))


def test_record_alternates_checkouts_and_keeps_every_run(tmp_path, monkeypatch):
    monkeypatch.setattr(record, "RUNS", 4)
    for name in "ab":
        stub_checkout(tmp_path / name)
    outs = [tmp_path / "A.json", tmp_path / "B.json"]
    argv = ["--record", str(tmp_path / "a"), str(outs[0]), "--record", str(tmp_path / "b"), str(outs[1])]
    assert record.main(argv) == 0
    seconds = BENCH["run_seconds"]
    log = (tmp_path / "order.log").read_text().split("\n")[:-1]
    published = [" ".join(("run", *args)) for args in record.PUBLISHED.values()]
    assert log == ([f"{s} {w} {seconds:g} 0" for w in NAMES for s in "abbaabba"]
                   + [f"{s} {args}" for args in published for s in "abbaabba"]
                   + [f"{s} {w} {seconds:g} 1" for w, order in zip(NAMES, ("ab", "ba", "ab")) for s in order])
    a, b = (json.loads(p.read_text()) for p in outs)
    assert a["seconds"] == b["seconds"] == seconds and a["runs"] == 4
    one = b["e2e"][NAMES[0]]
    assert (one["results_sha256"], one["attempted"], one["failed"], one["correct"]) == ("db", 20, 4, True)
    assert len(one["runs"]) == 4 and one["metrics"]["wall_s"]["median"] == 2.0
    assert a["ctool"] == record.CTOOL and set(a["published"]) == set(record.PUBLISHED)
    for pub in b["published"].values():
        assert pub["results_sha256"] == hashlib.sha256(b"b").hexdigest() and pub["correct"]
        assert len(pub["runs"]) == 4
        for one_run in pub["runs"]:
            # VmHWM of a Python process that imported the stub: some MB, not 0.
            assert one_run["metrics"]["wall_s"] > 0 and 1 < one_run["metrics"]["peak_rss_mb"] < 1024
    assert a["layers_command"].endswith("--trace 1") and set(a["layers"]) == set(NAMES)
    assert b["layers"][NAMES[0]]["metrics"]["synthetic.fit_s"] == 0.2
    lines, worse = record.compare(a, b, BENCH)
    assert worse and "DIFFERENT" in lines[0]
    assert f"published {next(iter(record.PUBLISHED))}: results.csv DIFFERENT" in lines
    at = lines.index(f"layers {NAMES[0]}:")
    layer_lines = {line.split()[0]: line.split()[1:] for line in lines[at + 1:at + 1 + len(LAYERS)]}
    assert list(layer_lines) == LAYERS
    # The saving in the fit shows; the read-0 layers are marked, and so is no other.
    assert layer_lines["synthetic.fit_s"] == ["0.3", "->", "0.2", "s", "-33.33%"]
    assert layer_lines["core.split_s"] == ["0", "->", "0", "s", "n/a", "known", "fault"]
    assert {name for name, words in layer_lines.items() if words[-2:] == ["known", "fault"]} == {
        m for fault in record.KNOWN_FAULTS for m in fault["metrics"] if m in LAYERS}


def test_a_failing_published_run_stops_the_record(tmp_path):
    stub_checkout(tmp_path / "broken")
    with pytest.raises(RuntimeError, match="exited 1"):
        record.ctool_run(tmp_path / "broken", record.PUBLISHED["multiround"])


def published_entry(walls, digest="ab"):
    runs = [{"correct": True, "attempted": 1, "failed": 0, "results_sha256": [digest],
             "metrics": {"wall_s": w, "peak_rss_mb": 70.0}} for w in walls]
    return record.summarize(runs, record.PUBLISHED_METRICS)


def test_compare_reports_published_medians_and_digests_without_a_verdict():
    a = bench_file(**{n: entry([run(), run()]) for n in NAMES})
    b = json.loads(json.dumps(a))
    a["published"] = {name: published_entry([2.0, 2.2, 2.1, 2.4]) for name in record.PUBLISHED}
    b["published"] = {name: published_entry([1.7, 1.8, 2.2, 1.9]) for name in record.PUBLISHED}
    b["published"]["multiround"] = published_entry([3.0] * 4, digest="cd")
    lines, worse = record.compare(a, b, BENCH)
    assert not worse  # a slower published run with another digest sets no verdict
    at = lines.index("published table1_correlated: results.csv same")
    # Medians 2.15 and 1.85: 14% less wall time, B better in 3 of 4 pairs.
    assert lines[at + 1].split() == ["wall_s", "2.15", "->", "1.85", "s", "-13.95%", "B",
                                     "better", "in", "3/4", "pairs"]
    assert lines[at + 2].split()[:6] == ["peak_rss_mb", "70", "->", "70", "MB", "+0.00%"]
    assert "published multiround: results.csv DIFFERENT" in lines
    del a["published"]
    assert record.compare(a, b, BENCH)[0][-1] == "published runs: not in both files"


def test_every_record_carries_the_known_perfbench_faults(monkeypatch):
    monkeypatch.setattr(record, "RUNS", 2)
    monkeypatch.setattr(record, "perfbench_run", lambda root, workload, seconds, trace=0: run())
    monkeypatch.setattr(record, "ctool_run", lambda root, args: run())
    records = record.record([Path("a"), Path("b")], BENCH)
    assert [r["known_faults"] for r in records] == [record.KNOWN_FAULTS] * 2
    declared = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    named = [m for fault in record.KNOWN_FAULTS for m in fault["metrics"]]
    assert set(named) <= declared and "peak_rss_mb" in named and "trace.overhead_s" in named
    assert any("_score_rows" in fault["fault"] for fault in record.KNOWN_FAULTS)
