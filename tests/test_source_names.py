"""Dead names in the library's sources, found by parsing them with ``ast``:
an import a module never uses, and a private module-level name that no
module of the package uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ramkit"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used(tree: ast.Module) -> set[str]:
    """Every name a module reads, and every attribute it reads by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, ``from __future__`` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    return bound


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _imported_from_package(trees: dict[str, ast.Module]) -> set[str]:
    """The names that some module imports from another module of the package."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_every_import_is_used():
    """``__init__.py`` imports to re-export; every other module uses what
    it imports."""
    unused = [
        f"{name}: {bound}"
        for name, tree in _modules().items() if name != "__init__.py"
        for bound in _imported(tree) if bound not in _used(tree)
    ]
    assert unused == []


def test_every_private_module_name_is_used():
    trees = _modules()
    used = set().union(*map(_used, trees.values())) | _imported_from_package(trees)
    unused = [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for defined in _private_definitions(tree) if defined not in used
    ]
    assert unused == []
