"""The library keeps every check under `python -O`: no `assert` statement."""

import ast
from pathlib import Path

import lotbench


def test_no_assert_statement_in_the_library():
    root = Path(lotbench.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths, f"no module found under {root}"
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
