"""One home per decision: no two functions in ``src/`` share a body.

A body of three or more statements written twice is a decision two
modules re-implement, and the two copies drift.  Bodies are compared
by ``ast.unparse`` with their docstrings stripped, so comments,
formatting and docstrings do not hide a copy.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
MIN_STATEMENTS = 3


def body_text(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The function's body without its docstring, or None when shorter
    than :data:`MIN_STATEMENTS`."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) < MIN_STATEMENTS:
        return None
    return "\n".join(ast.unparse(statement) for statement in body)


def duplicate_bodies(root: Path) -> list[list[str]]:
    """Groups of ``path:line:name`` whose bodies are the same text."""
    seen: dict[str, list[str]] = defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                text = body_text(node)
                if text is not None:
                    seen[text].append(f"{path.relative_to(root)}:{node.lineno}:{node.name}")
    return [sites for sites in seen.values() if len(sites) > 1]


def test_no_two_functions_share_a_body():
    assert duplicate_bodies(SRC) == []


def test_the_scan_finds_a_copy(tmp_path):
    """Non-vacuity: a copied body is found whatever its docstring."""
    (tmp_path / "a.py").write_text(
        "def f(x):\n    '''One.'''\n    y = x + 1\n    y *= 2\n    return y\n"
    )
    (tmp_path / "b.py").write_text(
        "class C:\n    def g(self, x):\n        y = x + 1  # same\n"
        "        y *= 2\n        return y\n"
        "def short(x):\n    return x\n"
    )
    (tmp_path / "c.py").write_text("def short(x):\n    return x\n")
    assert duplicate_bodies(tmp_path) == [["a.py:1:f", "b.py:2:g"]]
