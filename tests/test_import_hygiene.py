"""Every name a routesim module imports is used in that module.

A package ``__init__.py`` re-exports what it imports: the names in its
``__all__``, or every imported name when it has none.  Anything else that is
imported and never read is a leftover, usually of a deletion.  Every name in
a package's ``__all__`` is bound in it, or ``from package import *`` fails.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "routesim"
MODULES = sorted(SRC.rglob("*.py"))
PACKAGES = sorted(SRC.rglob("__init__.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement of the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str] | None:
    """The names in ``__all__``, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = _imported(tree)
    if path.name == "__init__.py":
        exported = _exported(tree)
        read |= set(imported) if exported is None else exported
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def _unbound(path: Path) -> list[str]:
    """Names in the package's ``__all__`` that it never binds at top level."""
    tree = ast.parse(path.read_text())
    bound = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return sorted((_exported(tree) or set()) - bound)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert _unused(path) == []


@pytest.mark.parametrize("path", PACKAGES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_export_is_bound(path):
    assert _unbound(path) == []


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import math\nfrom os import path, sep\nprint(path)\n")
    assert _unused(module) == ["math (line 1)", "sep (line 2)"]
    package = tmp_path / "__init__.py"
    package.write_text("from os import path, sep\n__all__ = ['path']\n")
    assert _unused(package) == ["sep (line 1)"]


def test_stale_export_is_caught(tmp_path):
    package = tmp_path / "__init__.py"
    package.write_text("from os import path\nSEP = '/'\ndef join(): pass\n"
                       "__all__ = ['path', 'SEP', 'join', 'gone']\n")
    assert _unbound(package) == ["gone"]
