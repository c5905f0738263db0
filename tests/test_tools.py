from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTER = ROOT / "tools" / "count_code_lines.py"
SCALING = ROOT / "tools" / "sim_scaling.py"
K_SWEEP = ROOT / "tools" / "k_sweep.py"


def count(package: Path) -> tuple[int, list[tuple[int, str]]]:
    """Run the counter on package; returns (exit code, (count, name) rows)."""
    proc = subprocess.run([sys.executable, str(COUNTER), str(package)],
                          capture_output=True, text=True, timeout=60)
    rows = [(int(n), name) for n, name in (line.split() for line in proc.stdout.splitlines())]
    return proc.returncode, rows


def test_counter_lists_every_module_and_their_sum():
    package = ROOT / "src" / "rpmdag"
    code, rows = count(package)
    assert code == 0
    *modules, (total, label) = rows
    assert [name for _, name in modules] == sorted(p.name for p in package.glob("*.py"))
    assert all(n > 0 for n, _ in modules)
    assert label == "total"
    assert total == sum(n for n, _ in modules)


def test_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module docstring,\n'
        'two lines long."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment counts as its line\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    '''Function docstring.'''\n"
        "    'a lone string statement'\n"
        "    return (x +\n"
        "            1)\n"
    )
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n# and a comment\n\n')
    (tmp_path / "c.py").write_text('TEXT = """one\ntwo\nthree"""\n')
    code, rows = count(tmp_path)
    assert code == 0
    # a: import, def, and the two lines of the return; c: the three lines
    # of the assigned string
    assert rows == [(4, "a.py"), (0, "b.py"), (3, "c.py"), (7, "total")]


def test_sim_scaling_reports_each_run_and_doubling():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, str(SCALING), "--durations", "20,40", "--repeats", "2"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    modes = ["blockdag", "longest_chain"]
    runs = report["runs"]
    assert [(r["mode"], r["duration"]) for r in runs] == [
        (mode, duration) for mode in modes for duration in (20.0, 40.0)
    ]
    for r in runs:
        assert sorted(r) == ["blocks", "duration", "mode", "peak_mb", "seconds", "seconds_max",
                             "seconds_min"]
        assert r["blocks"] > 1 and r["peak_mb"] > 0
        assert 0 < r["seconds_min"] <= r["seconds"] <= r["seconds_max"]
    assert sorted(report["doublings"]) == modes
    for mode in modes:
        short, long = (r for r in runs if r["mode"] == mode)
        (doubling,) = report["doublings"][mode]
        assert doubling["blocks"] == [short["blocks"], long["blocks"]]
        assert sorted(doubling) == ["blocks", "peak_ratio", "seconds_ratio"]


def test_k_sweep_reports_each_k_on_one_dag():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, str(K_SWEEP), "--duration", "10", "--repeats", "2"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    runs = report["runs"]
    assert [r["k"] for r in runs] == [3, 6, 18, report["derived_k"]]
    assert len({r["blocks"] for r in runs}) == 1 and runs[0]["blocks"] > 1
    for r in runs:
        assert sorted(r) == ["blocks", "blue_share", "check_convergence_s", "converged", "ghostdag_s",
                             "k", "run_s"]
        assert r["converged"] and 0 < r["blue_share"] <= 1
        assert min(r["run_s"], r["ghostdag_s"], r["check_convergence_s"]) > 0
