from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from helpers import run_cli

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


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    # (language, body) of every fenced block, in order
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    # the DAG text example is the first block with no language
    (tmp_path / "graph.dag").write_text(next(body for lang, body in blocks if not lang))
    monkeypatch.chdir(tmp_path)
    commands = []
    for lang, body in blocks:
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["rpmdag"]:
                    commands.append(argv[1:])
    assert ["dag", "import", "--file", "graph.dag"] in commands
    for argv in commands:
        code, out, err = run_cli(*argv)
        # 2 would mean a renamed flag or command
        assert code in (0, 1), (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        if argv[:2] == ["dag", "import"]:
            assert out == "blocks=4 tips=1 genesis=A\n"
