"""Every function, class, method and instance attribute in ``hyporb`` is used by
the package itself, and every module of the package and of the tests uses what
it imports.

A definition counts as used when its name appears as a ``Name``, an
``Attribute`` or an import alias anywhere in ``src/hyporb`` (the ``def`` or
``class`` statement itself is none of these), so the re-exports in
``hyporb/__init__.py`` count as the public API.  Code that only tests call is
dead code under this rule.  An attribute set as ``self.<name> = ...`` counts
as used when some attribute read (an ``Attribute`` in load context) in
``src/hyporb`` names it.  An import counts as used when the name it binds
appears as a ``Name`` in the importing module; ``hyporb/__init__.py``, whose
imports are the re-exports, and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import hyporb

# argparse calls ``_Parser.error`` itself
EXEMPT = {("cli.py", "error")}


def _trees(package_dir: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}


def unreferenced_definitions(package_dir: Path) -> list[str]:
    trees = _trees(package_dir)
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    dead = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (filename, name) in EXEMPT:
                continue
            if name not in referenced:
                dead.append(f"{filename}:{node.lineno} {name}")
    return dead


def unread_attributes(package_dir: Path) -> list[str]:
    trees = _trees(package_dir)
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in read):
                unread.append(f"{filename}:{node.lineno} {node.attr}")
    return unread


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced_definitions(Path(hyporb.__file__).parent) == []


def test_every_instance_attribute_is_read_in_the_package():
    assert unread_attributes(Path(hyporb.__file__).parent) == []


def test_every_import_is_used():
    package = Path(hyporb.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(Path(__file__).parent.glob("*.py"))
    assert [name for path in modules for name in unused_imports(path)] == []
