"""Source rules checked on the package's syntax trees: certificates are
raised as exceptions, never asserted, so `python -O` cannot strip them."""

import ast
from pathlib import Path

import rounding_forge

PACKAGE = Path(rounding_forge.__file__).resolve().parent


def _asserting_nodes(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_package_has_no_assert_certificates():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = {}
    for path in modules:
        lines = _asserting_nodes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_rule_catches_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError('z')\n")
    assert _asserting_nodes(tree) == [1, 2, 3]
