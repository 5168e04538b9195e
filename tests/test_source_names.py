"""Dead names in the library's sources, found by parsing them with ``ast``:
an import a module never uses, a private module-level name that no module
of the package uses, and a private method or attribute of a class that no
module of the package reads."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ramkit"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used(tree: ast.AST) -> set[str]:
    """Every name a module (or any other node) reads, and every attribute it reads by name; an
    attribute only stored to is not read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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
    return [name for name in names if _private(name)]


def _private_members(tree: ast.Module) -> list[str]:
    """The private methods a module's class bodies define, and the private
    attributes it stores on ``self``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return sorted(filter(_private, names))


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


def test_every_private_class_member_is_read():
    """A private method, or a private attribute stored on ``self``, that no
    module of the package reads is dead; so is a helper a refactor
    orphaned."""
    trees = _modules()
    used = set().union(*map(_used, trees.values()))
    unread = [
        f"{name}: {member}"
        for name, tree in trees.items()
        for member in _private_members(tree) if member not in used
    ]
    assert unread == []


def _public_definitions(tree: ast.Module) -> list[ast.stmt]:
    """The public functions and classes a module defines at its top level."""
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_name_is_reached():
    """A public function or class is dead when nothing reaches it: no
    module of the package outside its own definition (``__init__.py``'s
    re-export aside), no benchmark script, and no mention in the README.
    A name only tests call belongs in ``tests/``."""
    trees = _modules()
    del trees["__init__.py"]
    root = SRC.parents[1]
    benchmarks = set().union(*(
        _used(ast.parse(path.read_text(), str(path)))
        for path in sorted((root / "benchmarks").glob("*.py"))
    ))
    readme = set(re.findall(r"\w+", (root / "README.md").read_text()))
    unreached = []
    for name, tree in trees.items():
        elsewhere = set().union(*(_used(t) for other, t in trees.items() if other != name))
        for node in _public_definitions(tree):
            own = set().union(*(_used(stmt) for stmt in tree.body if stmt is not node))
            if not {node.name} & (elsewhere | own | benchmarks | readme):
                unreached.append(f"{name}: {node.name}")
    assert unreached == []
