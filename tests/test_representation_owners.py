"""Each representation has one owner: `cli._emit` is the one place where an
exact value becomes JSON text, passing `rationals.format_rational` to
`json.dump` as `default`, and only `instance._with_mass` reaches into an
object's `__dict__` (a grid keeps its derived values as its own cached
properties)."""

import ast
from pathlib import Path

import lotbench

ROOT = Path(lotbench.__file__).parent
DICT_ALLOWED = {("instance", "_with_mass")}


def _walk(tree: ast.Module):
    """(enclosing function name or None, node) for every node of tree."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_cli_renders_exact_values_only_through_the_json_encoder():
    nodes = [node for _, node in _walk(_parse(ROOT / "cli.py"))]
    calls = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id.startswith("format_rational")
    ]
    assert calls == [], f"cli.py formats rationals itself at lines {calls}"
    # format_rational is named once outside its import: as json.dump's default
    uses = [node for node in nodes if isinstance(node, ast.Name) and node.id == "format_rational"]
    encoders = [
        keyword.value
        for node in nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dump"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        for keyword in node.keywords
        if keyword.arg == "default"
    ]
    assert len(encoders) == 1 and encoders == uses, "json.dump must use default=format_rational"


def test_only_with_mass_reaches_into_an_object_dict():
    paths = sorted(ROOT.rglob("*.py"))
    assert paths, f"no module found under {ROOT}"
    touched = {
        (path.stem, function, node.lineno)
        for path in paths
        for function, node in _walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    }
    stray = [
        f"{module}.py:{line} in {function}"
        for module, function, line in sorted(touched, key=str)
        if (module, function) not in DICT_ALLOWED
    ]
    assert stray == [], f"an object's __dict__ is reached into from outside: {stray}"
    # the allowed function still reaches in, so the rule is not vacuous
    assert DICT_ALLOWED <= {(module, function) for module, function, _ in touched}
