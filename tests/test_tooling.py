"""Source-tree rules that no single module test covers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "implicax"


def test_invariants_raise_instead_of_assert():
    # `python -O` strips assert statements, so a checked invariant must raise
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in implicax: %s" % ", ".join(found)
