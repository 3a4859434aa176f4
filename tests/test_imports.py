"""Unused-name guards over the package sources, standard library only.

Every name a module of ``ptflab`` imports must be referenced in that
module; the package's ``__init__`` imports exactly its ``__all__``; and
every private function, method, class or module constant the package
defines must be referenced somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import ptflab

SOURCE = Path(ptflab.__file__).parent


def imported_names(tree):
    """Each name an import statement binds, except ``from __future__`` features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"],
    ids=lambda path: path.name,
)
def test_every_imported_name_is_referenced(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - referenced_names(tree)) == []


def test_the_package_imports_exactly_its_public_names():
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    assert sorted(imported_names(tree)) == sorted(ptflab.__all__)


def private_definitions(tree):
    """Functions, methods and classes anywhere, and module-level assigned
    names, whose names start with one underscore."""
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def loaded_names(tree):
    """Names read as variables or as attributes; a definition reads neither."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


PACKAGE_TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


@pytest.mark.parametrize("name", sorted(PACKAGE_TREES))
def test_every_private_definition_is_referenced_in_the_package(name):
    loaded = set().union(*map(loaded_names, PACKAGE_TREES.values()))
    assert sorted(private_definitions(PACKAGE_TREES[name]) - loaded) == []
