"""Every public name the package lists or re-exports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dafir

MODULES = sorted(f"dafir.{m.name}" for m in pkgutil.iter_modules(dafir.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_are_listed_exports():
    tree = ast.parse(Path(dafir.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(dafir, name), name
        assert name in importlib.import_module(f"dafir.{module}").__all__, name
