"""Every public name resolves.

Each module's ``__all__`` lists only names the module itself defines, and
the package re-exports each of its names from the module that lists it.
A stale entry would otherwise go unnoticed: ``from module import *`` is
never used, and the benchmark's tracer skips a name it cannot find.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

import precom

PACKAGE = pathlib.Path(precom.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    mod = importlib.import_module("precom." + name)
    for entry in getattr(mod, "__all__", ()):
        assert hasattr(mod, entry), "%s.__all__ lists missing %r" % (name, entry)
        obj = getattr(mod, entry)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, (name, entry)


def test_package_reexports_from_the_defining_module():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        mod = importlib.import_module("precom." + node.module)
        for alias in node.names:
            assert alias.asname is None
            assert alias.name in mod.__all__, (node.module, alias.name)
            assert getattr(precom, alias.name) is getattr(mod, alias.name)
