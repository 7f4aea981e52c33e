"""Every name imported into a `qpmap` module is used there.

A stdlib stand-in for a linter's unused-import rule: a name counts as used
if it appears anywhere in the module's syntax tree, annotations included,
or, in the package `__init__`, if it is exported through `__all__`.
"""

import ast
from pathlib import Path

import pytest

import qpmap

SOURCES = sorted(Path(qpmap.__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"
