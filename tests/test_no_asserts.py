"""No package check may be an `assert`: `python -O` would strip it."""

import ast
import pathlib

import glpgalois


def test_package_has_no_assert_statements():
    root = pathlib.Path(glpgalois.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
