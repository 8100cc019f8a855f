"""Exact entries are checked where a value is built, not where it is read:
`require_exact` is called only from `__post_init__` methods, from
`instance._with_mass` (the agent mass of a trial instance) and from
`mechanism._sweep` (a matrix's cells, on first read)."""

import ast
from pathlib import Path

import lotbench

READERS_ALLOWED = {("instance", "_with_mass"), ("mechanism", "_sweep")}


def _callers(tree: ast.Module):
    """(enclosing function name or None, line) of each call of require_exact."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "require_exact":
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_require_exact_is_called_only_where_values_are_built():
    root = Path(lotbench.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths, f"no module found under {root}"
    calls = [
        (path.stem, function, line)
        for path in paths
        for function, line in _callers(ast.parse(path.read_text(), str(path)))
    ]
    stray = [
        f"{module}.py:{line} in {function}"
        for module, function, line in calls
        if function != "__post_init__" and (module, function) not in READERS_ALLOWED
    ]
    assert stray == [], f"exact entries re-checked by a reader: {stray}"
    # the two allowed readers still check, so the rule is not vacuous
    assert READERS_ALLOWED <= {(module, function) for module, function, _ in calls}
