"""The package runs on the standard library alone, spells each value
rule in hashing.py only, and decodes stored records with one decoder."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpmdag"


def package_nodes():
    """(module path, node) for every AST node of every package module."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path, node


def test_every_absolute_import_is_standard_library():
    outside = []
    for path, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert outside == []


def test_only_hashing_calls_math_isfinite():
    # every other module checks a number with hashing's float_time, so the
    # rule is said once
    spelled = [
        f"{path.name}:{node.lineno}"
        for path, node in package_nodes()
        if path.name != "hashing.py"
        and (
            isinstance(node, ast.Attribute) and node.attr == "isfinite"
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            and any(alias.name == "isfinite" for alias in node.names)
        )
    ]
    assert spelled == []


def test_stored_records_are_decoded_by_parse_json_only():
    # ledger payload chunks and ehr.log headers go through hashing.parse_json,
    # which refuses whitespace no writer puts there; files a person writes
    # (rules, rosters, configs) keep json.loads
    spelled = [
        f"{path.name}:{node.lineno}"
        for path, node in package_nodes()
        if path.name in ("ledger.py", "ehr.py")
        and (
            isinstance(node, ast.Attribute) and node.attr in ("loads", "load")
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            or isinstance(node, ast.ImportFrom) and node.module in ("json", "json.decoder")
        )
    ]
    assert spelled == []
