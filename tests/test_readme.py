"""README's Python examples run as written against the installed API, and its
key table lists every config key and flag."""

import re
from dataclasses import fields
from pathlib import Path

from mtconf.cli import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippets_run_in_order():
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(snippets) == 2
    namespace = {}
    for snippet in snippets:  # the second reuses the first's data and names
        exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["lo"].shape == namespace["hi"].shape == (namespace["spec"].n_test, 3)


def key_table_rows():
    """(section, key, flag) of each row of README's "Every INI key and flag"
    table; an empty section cell repeats the row above's, and a dash is no flag."""
    text = README.read_text().split("Every INI key and flag", 1)[1]
    lines = re.search(r"\n\n((?:\|.*\n)+)", text).group(1).splitlines()
    rows, section = [], None
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        section = cells[0].strip("[]") or section
        rows.append((section, cells[1], None if cells[2] == "-" else cells[2]))
    return rows


def test_readme_key_table_matches_the_config_fields():
    want = [
        (section, f.name, f.metadata["flag"])
        for f in fields(ExperimentConfig)
        for section in f.metadata["sections"]
    ]
    rows = key_table_rows()
    assert len(rows) == len(set(rows))
    assert sorted(rows, key=str) == sorted(want, key=str)
