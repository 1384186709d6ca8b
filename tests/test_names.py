"""Every public name resolves.

Each module's ``__all__`` lists only names the module itself defines, and
the package re-exports each of its names from the module that lists it.
A stale entry would otherwise go unnoticed: ``from module import *`` is
never used, and the benchmark's tracer skips a name it cannot find.
The library's surface is also pinned where it shrank: what only the tests
run lives in ``tests/oracles.py``, and the series checks share one public
series operation, the product.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

import precom
from precom import ExplicitRelation, RelationSchema, TailFamily, ZinbielFamily

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


@pytest.mark.parametrize("module", ["precom", "precom.magma", "precom.rewrite"])
@pytest.mark.parametrize("name", ["words_of_length", "inclusion_compositions"])
def test_oracles_are_not_library_names(module, name):
    # The all-words enumerator and the one-by-one inclusion compositions
    # are reference implementations in tests/oracles.py; no verb runs them.
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", [
    *((m, n) for m in ("precom", "precom.embed")
      for n in ("TruncSeries", "rb_apply", "generator_series", "series_star",
                "splitting_product", "random_series", "_as_series")),
    ("precom", "subtree"), ("precom.rewrite", "subtree"),
    ("precom", "truncated_poly_relations"), ("precom.envelope", "truncated_poly_relations"),
])
def test_fraction_series_and_closed_forms_are_oracles(module, name):
    # The Fraction series, the subword at a path and the closed-form
    # truncated system are reference implementations in tests/oracles.py.
    assert not hasattr(importlib.import_module(module), name)


def test_only_the_schemas_that_sites_list_have_instances():
    # Composition search lists the instances of explicit relations and of
    # the tail family; the Zinbiel family's sites start from the other
    # relations, and a generic schema lists nothing.
    assert not hasattr(RelationSchema, "instances")
    assert not hasattr(ZinbielFamily, "instances")
    assert hasattr(ExplicitRelation, "instances")
    assert hasattr(TailFamily, "instances")


def test_rota_baxter_check_has_one_public_name():
    # `verify rb` runs verify_rota_baxter; the Cauchy kernel, the scaled
    # series operations and the integer draw stay private to embed.  The
    # one public series operation is the scaled product, which both
    # checks call.
    embed = importlib.import_module("precom.embed")
    assert precom.verify_rota_baxter is embed.verify_rota_baxter
    assert precom.series_product is embed.series_product
    for name in ("_cauchy", "_rb_scales", "_scaled_rb", "_scaled_sum",
                 "_scaled_equal", "_draw", "_rb_sides"):
        assert hasattr(embed, name) and name not in embed.__all__
    assert not hasattr(embed, "_by_exponent")
