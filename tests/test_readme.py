"""The README's library example runs and gives the values it documents."""

import re
from pathlib import Path

from gentrop import Ideal, parse_polynomial

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_example_gives_its_documented_values():
    section = _section("Library example")
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    statements: list = []
    documented = []
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        if not (comment and expr.strip()):
            statements.append(line)
            continue
        # a documented call: its value is the comment's first word
        exec("\n".join(statements), scope)
        statements = []
        documented.append((repr(eval(expr, scope)), comment.split()[0]))
    assert documented == [("3", "3"), ("'neither'", "'neither'"), ("1", "1")]
    # the generator readback the prose below the example documents
    text, n, monic = re.search(
        r'`parse_polynomial\("([^"]+)", (\d+)\)` reads back as `([^`]+)`', section
    ).groups()
    I = Ideal(int(n), [parse_polynomial(text, int(n))])
    assert [str(g) for g in I.generators] == [monic] == ["x1 + 2*x2"]
