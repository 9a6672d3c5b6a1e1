"""Layering rules: no gentrop module imports another module's private
(``_``-prefixed) names or imports another gentrop module inside a function,
at run time gentrop imports only the standard library and itself, neither
start-up nor a CLI job loads a costly stdlib convenience, only the
``Ideal`` and the division engine take a degree cap, and every function the
benchmark tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gentrop"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


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


def function_level_imports(path: Path) -> list:
    """(line, module) of every import of a gentrop module that ``path``
    makes inside a function body; a module-level import graph has no
    hidden cycles."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            found += [(node.lineno, name) for name in names
                      if name.startswith(".") or name.split(".")[0] == "gentrop"]
    return sorted(set(found))


def test_function_level_import_check_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .generic import gin\n"
        "def f():\n"
        "    from .generic import gin\n"
        "    import json\n"
        "    def g():\n"
        "        import gentrop.fans\n"
        "class A:\n"
        "    def h(self):\n"
        "        from . import poly\n",
        encoding="utf-8",
    )
    assert function_level_imports(probe) == [(3, ".generic"), (6, "gentrop.fans"), (9, ".")]


def test_no_module_imports_another_inside_a_function():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = {p.name: function_level_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def non_stdlib_imports(path: Path) -> list:
    """(line, module) of every absolute import in ``path`` whose top-level
    module is neither in the standard library nor gentrop."""
    allowed = set(sys.stdlib_module_names) | {"gentrop"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in allowed]
    return sorted(found)


def test_stdlib_check_sees_plain_and_from_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import json, sympy\n"
        "from .generic import gin\n"
        "from gentrop.poly import Polynomial\n"
        "from numpy.linalg import det\n"
        "def f():\n"
        "    import xml.dom\n"
        "    import networkx as nx\n",
        encoding="utf-8",
    )
    assert non_stdlib_imports(probe) == [(2, "sympy"), (5, "numpy.linalg"), (8, "networkx")]


def test_runtime_imports_are_stdlib_only():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = {p.name: non_stdlib_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


# stdlib modules that cost a batch run milliseconds of start-up and that the
# engine needs none of: dataclasses pulls in inspect, ast, dis and tokenize,
# and argparse pulls in gettext, which imports locale when a parser is built
SLOW_AT_STARTUP = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale")


def test_cli_start_up_loads_no_slow_stdlib_module(tmp_path):
    # -S: no site hook, which may import typing itself on some installs; one
    # small job runs too, so a module that only running a command loads is
    # caught as well as one that importing the CLI loads
    path = tmp_path / "q.ideal"
    path.write_text("ring 4\nx1*x2 + x3*x4\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (
        "import io, sys, gentrop.cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = gentrop.cli.main(['analyze', {str(path)!r}])\n"
        "sys.stdout = out\n"
        f"print(code, sorted(set({SLOW_AT_STARTUP!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 []\n"


# the Ideal owns the cap of every computation on it; only division by a
# plain divisor list, which has no Ideal, takes one as a parameter
CAP_TAKERS = {
    "groebner.Ideal.__init__",
    "groebner.normal_form",
    "groebner._nf_dict",
    "groebner._buchberger_dicts",
}


def cap_parameters(path: Path) -> list:
    """Qualified names (module.Class.function) of the functions in ``path``,
    nested ones and lambdas included, with a parameter named ``degree_cap``
    or ``cap``."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if any(p.arg in ("degree_cap", "cap") for p in params):
                    found.append(name)
                visit(child, name + ".")
                continue
            visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


def test_cap_check_sees_methods_nested_functions_and_keywords(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class A:\n"
        "    def run(self, order, cap):\n"
        "        def step(*, degree_cap=4):\n"
        "            return lambda cap: cap\n"
        "def f(I, capacity, **kw):\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert cap_parameters(probe) == ["probe.A.run", "probe.A.run.step", "probe.A.run.step.<lambda>"]


def test_only_the_ideal_carries_the_degree_cap():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    takers = {name for p in modules for name in cap_parameters(p)}
    assert sorted(takers - CAP_TAKERS) == []


def test_every_traced_function_exists():
    # the tracer wraps (module, function) pairs by name, and a renamed or
    # deleted one fails only a traced benchmark run: read its table without
    # importing the tracer
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    assert len(traced) > 20
    missing = [(module, func) for module, func, _ in traced
               if not hasattr(importlib.import_module(f"gentrop.{module}"), func)]
    assert missing == []
