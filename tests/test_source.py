"""Checks on the package source itself."""

import ast
import pathlib

import tptg

SOURCES = sorted(pathlib.Path(tptg.__file__).parent.glob("*.py"))


def test_the_package_has_no_assert_statements():
    # `python -O` strips assert statements; a correctness check in the
    # package must raise ModelError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []
