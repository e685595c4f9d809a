"""Every function, class, method, instance attribute and dataclass field in
``hyporb`` is used by the package itself, and every module of the package and
of the tests uses what it imports.

A definition counts as used when its name appears as a ``Name``, an
``Attribute`` or an import alias anywhere in ``src/hyporb`` (the ``def`` or
``class`` statement itself is none of these), so the re-exports in
``hyporb/__init__.py`` count as the public API.  Code that only tests call is
dead code under this rule.  An attribute set as ``self.<name> = ...`` counts
as used when some attribute read (an ``Attribute`` in load context) in
``src/hyporb`` names it.  A module-level assignment (a constant or a type
alias) counts as used when its name is read somewhere in ``src/hyporb``: a
``Name`` in load context, an ``Attribute`` or an import alias; dunders such
as ``__version__`` are exempt.  A dataclass field counts as used when some
attribute read in ``src/hyporb`` names it; the fields of the dataclasses
that ``asdict`` writes out (``SERIALISED``) all count as read.  An import
counts as used when the name it binds appears as a ``Name`` in the importing
module; ``hyporb/__init__.py``, whose imports are the re-exports, and
``from __future__`` imports are exempt.

The point order (|p - c|, re p, im p) has one home, ``maps.nearest_first``:
no other code in ``src/hyporb`` calls ``lexsort`` or sorts by a
``key=lambda`` that builds ``(abs(...), ....real, ....imag)``.

No code in ``src/hyporb`` uses ``numpy.random``, ``numpy.linalg`` or
``polyfit``: loading ``numpy.random`` or paging in LAPACK costs a run
several MB of peak memory, and the stdlib does what the package needs of
them (``random.Random``, and ``math.fsum`` for a least-squares slope).
"""

import ast
from pathlib import Path

import pytest

import hyporb

# argparse calls ``_Parser.error`` itself
EXEMPT = {("cli.py", "error")}
# dataclasses serialised field by field with ``asdict``: the scan rows of
# ``cli.cmd_expansion`` and ``SeparationReport.to_json``
SERIALISED = {"ScanRow", "SeparationReport"}


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


def _attribute_reads(trees: dict[str, ast.Module]) -> set[str]:
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_attributes(package_dir: Path) -> list[str]:
    trees = _trees(package_dir)
    read = _attribute_reads(trees)
    unread = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in read):
                unread.append(f"{filename}:{node.lineno} {node.attr}")
    return unread


def _dataclasses(trees: dict[str, ast.Module]) -> list[tuple[str, ast.ClassDef]]:
    def is_dataclass(decorator: ast.expr) -> bool:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(func, ast.Name) and func.id == "dataclass"

    return [
        (filename, node)
        for filename, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
    ]


def unread_fields(package_dir: Path) -> list[str]:
    trees = _trees(package_dir)
    read = _attribute_reads(trees)
    return [
        f"{filename}:{field.lineno} {cls.name}.{field.target.id}"
        for filename, cls in _dataclasses(trees)
        if cls.name not in SERIALISED
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]


def unread_module_names(package_dir: Path) -> list[str]:
    trees = _trees(package_dir)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
    unread = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id not in read
                            and not (name.id.startswith("__") and name.id.endswith("__"))):
                        unread.append(f"{filename}:{node.lineno} {name.id}")
    return unread


def _is_point_key(node: ast.expr) -> bool:
    """Whether ``node`` is a lambda returning ``(abs(...), <x>.real, <y>.imag)``."""
    if not (isinstance(node, ast.Lambda) and isinstance(node.body, ast.Tuple)):
        return False
    parts = node.body.elts
    return (
        len(parts) == 3
        and isinstance(parts[0], ast.Call)
        and isinstance(parts[0].func, ast.Name)
        and parts[0].func.id == "abs"
        and [getattr(part, "attr", None) for part in parts[1:]] == ["real", "imag"]
    )


def point_order_copies(package_dir: Path) -> list[str]:
    """``lexsort`` calls outside ``maps.nearest_first``, and point-order sort keys."""
    copies = []
    for filename, tree in _trees(package_dir).items():
        home = {
            id(inner)
            for node in ast.walk(tree)
            if filename == "maps.py" and getattr(node, "name", None) == "nearest_first"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in home:
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name == "lexsort":
                    copies.append(f"{filename}:{node.lineno} lexsort")
            if isinstance(node, ast.keyword) and node.arg == "key" and _is_point_key(node.value):
                copies.append(f"{filename}:{node.value.lineno} key=lambda")
    return copies


def heavy_numpy_uses(package_dir: Path) -> list[str]:
    """Uses of ``np.random``, ``np.linalg`` and ``polyfit``, as attributes or imports."""
    heavy = ("random", "linalg", "polyfit")
    uses = []
    for filename, tree in _trees(package_dir).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "polyfit"
                    or node.attr in heavy and getattr(node.value, "id", None) in ("np", "numpy")):
                uses.append(f"{filename}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = ".".join(filter(None, [getattr(node, "module", None), alias.name]))
                    if name.split(".")[:2] in [["numpy", h] for h in heavy]:
                        uses.append(f"{filename}:{node.lineno} import {name}")
    return uses


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


def test_every_dataclass_field_is_read_in_the_package():
    package = Path(hyporb.__file__).parent
    assert SERIALISED <= {cls.name for _, cls in _dataclasses(_trees(package))}
    assert unread_fields(package) == []


def test_an_unread_dataclass_field_is_reported(tmp_path):
    package = Path(hyporb.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    certify = tmp_path / "certify.py"
    lines = certify.read_text().splitlines()
    certify.write_text("\n".join(lines + ["@dataclass", "class _Planted:", "    planted: int", ""]))
    assert unread_fields(tmp_path) == [f"certify.py:{len(lines) + 3} _Planted.planted"]


def test_every_module_level_name_is_read_in_the_package():
    assert unread_module_names(Path(hyporb.__file__).parent) == []


def test_an_unread_module_level_name_is_reported(tmp_path):
    package = Path(hyporb.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    certify = tmp_path / "certify.py"
    lines = certify.read_text().splitlines()
    certify.write_text("\n".join(lines + ["_UNUSED = 1", ""]))
    assert unread_module_names(tmp_path) == [f"certify.py:{len(lines) + 1} _UNUSED"]


def test_the_point_order_has_one_home():
    assert point_order_copies(Path(hyporb.__file__).parent) == []


def test_no_numpy_random_or_lapack_in_the_package():
    assert heavy_numpy_uses(Path(hyporb.__file__).parent) == []


@pytest.mark.parametrize(
    "planted, found",
    [
        ("rng = np.random.default_rng(1)", "np.random"),
        ("slope = np.polyfit([0, 1], [0, 1], 1)[0]", "np.polyfit"),
        ("q = np.linalg.qr", "np.linalg"),
        ("from numpy.random import default_rng", "import numpy.random.default_rng"),
    ],
    ids=["random", "polyfit", "linalg", "import"],
)
def test_a_numpy_random_or_lapack_use_is_reported(tmp_path, planted, found):
    package = Path(hyporb.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    certify = tmp_path / "certify.py"
    lines = certify.read_text().splitlines()
    certify.write_text("\n".join(lines + [planted, ""]))
    assert heavy_numpy_uses(tmp_path) == [f"certify.py:{len(lines) + 1} {found}"]


def test_every_import_is_used():
    package = Path(hyporb.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(Path(__file__).parent.glob("*.py"))
    assert [name for path in modules for name in unused_imports(path)] == []
