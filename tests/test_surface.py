"""The public-surface rule, read from the source with ``ast`` (nothing is
imported): each module's ``__all__`` is the one list of its public names,
and every name in it has a caller in ``src/``, ``demos/`` or ``bench/``, or
an open ROADMAP item that needs it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modwalk"
MODULES = sorted(PACKAGE.glob("*.py"))

# Public names no caller reaches yet, each with the ROADMAP item that needs it.
AWAITING = {"component_mass": 8, "rn_derivative": 1, "paths_for_power": 9}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``def`` and ``class`` statements by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _references(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as a name or an attribute anywhere in ``node``, except inside ``skip``."""
    found, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _uncalled() -> set[str]:
    """Names in some ``__all__`` that nothing in ``src/``, ``demos/`` or
    ``bench/`` reads outside the name's own definition."""
    trees = {
        path: _tree(path)
        for folder in ("src", "demos", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    uncalled = set()
    for module in MODULES:
        definitions = _definitions(trees[module])
        for name in _all(trees[module]):
            own = definitions.get(name)
            if not any(name in _references(tree, own if path == module else None) for path, tree in trees.items()):
                uncalled.add(name)
    return uncalled


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_public_definitions_are_in_all(module):
    tree = _tree(module)
    public = {name for name in _definitions(tree) if not name.startswith("_")}
    assert public <= set(_all(tree)), sorted(public - set(_all(tree)))


def test_every_public_name_has_a_caller():
    # a name that gains a caller leaves AWAITING; one that loses its caller
    # goes private or goes
    assert _uncalled() == set(AWAITING)
