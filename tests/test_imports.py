"""Unused-import guard over the package sources, standard library only.

Every name a module of ``ptflab`` imports must be referenced in that
module; the package's ``__init__`` imports exactly its ``__all__``.
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
