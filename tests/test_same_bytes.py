"""bench/same_bytes.py: a checkout compares the same as itself, and a changed print is named.

One config of the tool's list runs here, to keep the test to a few seconds;
the whole list runs when the tool is called by hand.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_same_bytes", ROOT / "bench" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_the_tool_lists_every_experiment_and_method_token():
    from mtconf.cli import EXPERIMENTS, METHOD_TOKENS

    def values(flag):
        return {v for _, args in same_bytes.CONFIGS.values() if flag in args
                for v in args[args.index(flag) + 1].split(",")}

    assert len(same_bytes.CONFIGS) >= 20
    assert values("--experiment") == set(EXPERIMENTS)
    assert values("--methods") == set(METHOD_TOKENS)


def test_a_checkout_matches_itself_and_a_changed_print_is_named(tmp_path, monkeypatch, capsys):
    name = "table1_well_tuned"
    monkeypatch.setattr(same_bytes, "CONFIGS", {name: same_bytes.CONFIGS[name]})
    assert same_bytes.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [name, "same"]

    # A parent whose CSV cells print 5 significant digits instead of 6.
    parent = tmp_path / "parent"
    shutil.copytree(ROOT / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = parent / "src" / "mtconf" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('f"{value:.6g}"') == 1
    cli.write_text(text.replace('f"{value:.6g}"', 'f"{value:.5g}"'), encoding="utf-8")
    assert same_bytes.main(["--parent", str(parent)]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    assert first.split()[:2] == [name, "differs:"]
    assert "results.csv" in first.split("differs: ")[1].split(", ")
