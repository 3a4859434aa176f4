"""Source guards over the package, standard library only.

Every name a module of ``ptflab`` imports must be referenced in that
module; the package's ``__init__`` imports exactly its ``__all__``; every
private function, method, class or module constant the package defines
must be referenced somewhere in the package; and only ``polynomial.py``,
which owns the numeric parameter rule, spells out its checks.
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


def inline_number_checks(tree):
    """Lines that compare against an ``inf`` attribute (``math.inf``) or call
    ``isinstance(..., bool)``: the checks of the numeric parameter rule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "inf" for o in operands):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", sorted(set(PACKAGE_TREES) - {"polynomial.py"}))
def test_only_the_polynomial_module_spells_out_numeric_checks(name):
    # every other module checks a number through polynomial._real or polynomial._integer
    assert inline_number_checks(PACKAGE_TREES[name]) == []
