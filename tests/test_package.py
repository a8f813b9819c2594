"""Consistency of the package's public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import msamp

MODULES = sorted(m.name for m in pkgutil.iter_modules(msamp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    # a stale __all__ entry breaks `from msamp.<module> import *`
    module = importlib.import_module(f"msamp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(msamp.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"msamp.{node.module}")
        for alias in node.names:
            assert getattr(msamp, alias.name) is getattr(module, alias.name)
