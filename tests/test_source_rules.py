"""Rules on the package source itself."""

import ast
from pathlib import Path

import poset_collapse

SRC = Path(poset_collapse.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rely on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
    assert len(list(SRC.rglob("*.py"))) >= 10
