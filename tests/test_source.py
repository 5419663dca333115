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
            for a in node.names:
                # ``from .m import *`` binds the names in ``m.__all__``.
                if a.name == "*":
                    names.update(_exports(TREES[f"{node.module}.py"]))
                else:
                    names.add(a.asname or a.name)
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
    """The module's ``__all__``, each ``*m.__all__`` in it read from module ``m``.

    None if the module has no ``__all__``.
    """
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = []
            for entry in node.value.elts:
                if isinstance(entry, ast.Starred):
                    names += _exports(TREES[f"{entry.value.value.id}.py"])
                else:
                    names.append(ast.literal_eval(entry))
            return names
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
    # ``__init__`` star-imports exactly the modules that declare an ``__all__``,
    # and no name comes from two of them: a later wildcard would shadow it silently.
    init = TREES["__init__.py"]
    starred = [
        n.module for n in init.body if isinstance(n, ast.ImportFrom) and n.names[0].name == "*"
    ]
    declaring = [m[:-3] for m, t in TREES.items() if m != "__init__.py" and _exports(t)]
    assert sorted(starred) == sorted(declaring)
    names = [name for module in starred for name in _exports(TREES[f"{module}.py"])]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert sorted(_exports(init)) == sorted(["__version__", *names])


@pytest.mark.parametrize("module", [m for m, t in TREES.items() if _exports(t) is not None])
def test_every_export_is_defined(module):
    tree = TREES[module]
    assert sorted(set(_exports(tree)) - _definitions(tree) - _imported(tree)) == []
