"""Layering rule: no gentrop module imports another module's private
(``_``-prefixed) names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gentrop"


def private_imports(path: Path) -> list:
    """(line, module, name) of every private name ``path`` imports from
    another gentrop module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "gentrop":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_private_import_check_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from .generic import gin, _agreed\n"
        "from gentrop.cli import _budget\n"
        "from fractions import _gcd\n",
        encoding="utf-8",
    )
    assert private_imports(probe) == [(2, ".generic", "_agreed"), (3, "gentrop.cli", "_budget")]


def test_no_module_imports_private_names_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = {p.name: private_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}
