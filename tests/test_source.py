"""Source hygiene of the package: every import is used, every private name is
referenced, and the package exports exactly what its modules export.

Parsed with ``ast`` only, so nothing under ``src/gaussmax`` is imported here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaussmax"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _imported(tree) -> set[str]:
    """Names the module binds by import, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _references(tree) -> set[str]:
    """Names the module reads, attributes it reads, and names it imports from elsewhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _definitions(tree) -> set[str]:
    """Module-level functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _private_definitions(tree) -> set[str]:
    """Module-level ``_private`` functions, classes and constants."""
    return {n for n in _definitions(tree) if n.startswith("_") and not n.startswith("__")}


def _exports(tree) -> list[str] | None:
    """The module's literal ``__all__``, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(_imported(tree) - loaded) == []


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_name_is_referenced(module):
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    assert sorted(_private_definitions(TREES[module]) - referenced) == []


def test_package_exports_are_the_submodules_exports():
    # The exception classes are exported without an __all__ of their own.
    errors = {n.name for n in TREES["errors.py"].body if isinstance(n, ast.ClassDef)}
    submodules = [e for m, t in TREES.items() if m != "__init__.py" and (e := _exports(t))]
    package = _exports(TREES["__init__.py"])
    assert len(package) == len(set(package))
    assert sorted(package) == sorted({"__version__", *errors}.union(*submodules))


@pytest.mark.parametrize("module", [m for m, t in TREES.items() if _exports(t) is not None])
def test_every_export_is_defined(module):
    tree = TREES[module]
    assert sorted(set(_exports(tree)) - _definitions(tree) - _imported(tree)) == []
