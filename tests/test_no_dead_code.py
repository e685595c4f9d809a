"""Every function, class and method in ``hyporb`` is used by the package itself.

A definition counts as used when its name appears as a ``Name``, an
``Attribute`` or an import alias anywhere in ``src/hyporb`` (the ``def`` or
``class`` statement itself is none of these), so the re-exports in
``hyporb/__init__.py`` count as the public API.  Code that only tests call is
dead code under this rule.
"""

import ast
from pathlib import Path

import hyporb

# argparse calls ``_Parser.error`` itself
EXEMPT = {("cli.py", "error")}


def unreferenced_definitions(package_dir: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
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


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced_definitions(Path(hyporb.__file__).parent) == []
