from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("{") and "readings" in lines[1]
