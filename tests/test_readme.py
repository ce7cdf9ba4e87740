"""README's Python examples run as written against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippets_run_in_order():
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(snippets) == 2
    namespace = {}
    for snippet in snippets:  # the second reuses the first's data and names
        exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["lo"].shape == namespace["hi"].shape == (namespace["spec"].n_test, 3)
