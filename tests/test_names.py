"""Every public name resolves.

Each module's ``__all__`` lists only names the module itself defines.
A stale entry would otherwise go unnoticed: ``from module import *`` is
never used, and the benchmark's tracer skips a name it cannot find.  Each
name has one import path, the module that defines it: the package binds
only its modules, and no test imports a name from the package.
The library's surface is also pinned where it shrank: what only the tests
run lives in ``tests/oracles.py``, and the series checks share one public
series operation, the product.  A public name must have a caller in the
library, or an entry with its reason in ``UNCALLED``, and so must each
public method of a public class, or an entry in ``UNCALLED_METHODS``, so
the surface cannot grow back unnoticed; each public ``__slots__`` field
of a public class must be read outside its class, or have an entry in
``UNREAD_FIELDS``, so a report holds no field that nothing reads.
Each arithmetic, ordering or indexing operator that a library class,
public or not, defines is listed in ``OPERATORS`` with a library
expression that applies it.  Likewise a parameter with a
default must be one that two library callers set differently, listed
with its reason in ``OPTIONAL``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
from collections import Counter

import pytest

import precom
from precom.envelope import TailFamily
from precom.rewrite import ExplicitRelation, RelationSchema, ZinbielFamily

import oracles

PACKAGE = pathlib.Path(precom.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Public names that no library code calls, each with why it stays.
UNCALLED = (
    ("envelope", "idempotent_algebra"),       # an input algebra of the paper's examples
    ("envelope", "truncated_power_algebra"),  # an input algebra of the paper's examples
    ("rewrite", "replay_trace"),              # checks that proof
)

# Public non-dunder methods of public classes that no library code calls,
# as (module, "Class.method"), each with why it stays.
UNCALLED_METHODS = ()

# Public __slots__ fields of public classes that no library code reads
# outside the class body, as (module, "Class.field"), each with why it
# stays.
UNREAD_FIELDS = (
    ("compoly", "GenSymbol.base"),  # the symbol's name: str and repr print it
)

# Names that only the tests called, moved to tests/oracles.py or removed.
# The product operator left the vector types: a scalar multiple is
# .scale(c), and the products are functions.  ComMonomial.div gave what
# cofactor gives on a divisible pair.  ComBasis.of wrapped a relation list
# for com_reduce, which takes only a basis.  occurrences searched an outer
# leading word for a subword that completion now files with its paths.
MOVED = {
    "lincomb": ("LinComb.__mul__", "LinComb.__rmul__", "LinComb._product"),
    "magma": ("magma_product", "MagmaPoly._product", "NaWord.leaves"),
    "compoly": ("s_polynomial", "com_reduce_with_trace", "ComPoly.mul_monomial",
                "ComMonomial.multiplicities", "ComMonomial.div", "ComPoly._product",
                "ComBasis.of"),
    "embed": ("coefficient_relations", "random_nilpotent_algebra"),
    "shuffle": ("shuffle_product", "to_left_comb", "from_left_comb", "ZinbElement.max_degree",
                "ZinbElement._product"),
    "rewrite": ("reducible", "occurrences"),
    "sexpr": ("parse_word",),
}

# Names deleted outright, as module names or "Class.attr" (gone from the
# class's own namespace).  A reduction step is the plain tuple that the
# reducer appends to its trace, and a composition failure the plain tuple
# (f, g, ambiguity, normal_form) that verify_gsb lists.  The tensor check
# runs on the one Perm algebra e_i e_j = e_j, so it needs no Perm class.
# A combination is built by from_terms, monomial or zero, and negated by
# scale(-1); letters are only sorted and min-ed, which read <; the pair
# criteria read the lcm weight from cofactor; a basis is iterated, never
# indexed; and a dotted word prints inside ZinbElement's repr.  A word, a
# tree polynomial and a half-shuffle element print through their repr; a
# FilteredAlgebra checks its filtration when it is built, and reads its
# alphabet from its algebra; require_associative finds the failing triple
# itself, and buchberger_bounded reads the weights of each relation; its
# report holds no second copy of the basis that it returns.
REMOVED = {
    "rewrite": ("ReductionStep", "CompositionFailure"),
    "shuffle": ("PermAlgebra", "PermTensorReport.products"),
    "lincomb": ("LinComb.__init__", "LinComb.__neg__"),
    "magma": ("Letter.__le__", "Letter.__gt__", "Letter.__ge__", "_DeepKey.__le__",
              "_DeepKey.__ge__"),
    "compoly": ("ComMonomial._common", "ComBasis.__getitem__", "ComPoly.weights",
                "ComPoly.is_homogeneous", "BuchbergerReport.basis"),
    "sexpr": ("format_aword", "format_word", "format_poly", "format_zinb"),
    "embed": ("validate_filtration", "FilteredAlgebra.alphabet"),
    "envelope": ("CommAlgebra.associativity_failure",),
}

# The arithmetic, ordering and indexing dunders defined in the body of a
# library class, as (module, "Class.method"), each with a library
# expression that applies it.
OPERATORS = (
    ("compoly", "ComMonomial.__mul__"),  # compoly._s_pair: m * u
    ("lincomb", "LinComb.__add__"),      # shuffle.star: zinbiel_product(f, g) + ...
    ("lincomb", "LinComb.__sub__"),      # rewrite.verify_gsb: f - substitute(w, path, g)
    ("magma", "Alphabet.__getitem__"),   # sexpr._word_from_form: alphabet[f.text]
    ("magma", "Letter.__lt__"),          # embed.standard_filtration: sorted(rows)
    ("magma", "_DeepKey.__lt__"),        # lincomb.descend: sorted(coeffs, key=key)
    ("magma", "_DeepKey.__gt__"),        # lincomb.LinComb.leading: max(self.terms, key=...)
)
_OPERATOR_NAMES = {
    "__%s__" % op for op in (
        "add", "radd", "sub", "rsub", "mul", "rmul", "matmul", "rmatmul", "truediv",
        "rtruediv", "floordiv", "rfloordiv", "mod", "rmod", "pow", "rpow", "neg", "pos",
        "abs", "invert", "and", "rand", "or", "ror", "xor", "rxor", "lshift", "rshift",
        "lt", "le", "gt", "ge", "getitem")}

# The parameters with a default, as (module, function, parameter), each
# with the two library callers that set it differently.
OPTIONAL = (
    ("cli", "main", "argv"),            # the console script passes none, perfbench's job.py a list
    ("lincomb", "LinComb._raw", "lead"),   # family matches and integer copies know their
                                           # leading monomial, sums do not
    ("lincomb", "descend", "trace"),    # normal_form_with_trace keeps the steps, com_reduce none
    ("rewrite", "complete", "stats"),   # the complete verb reports them, the drivers do not
)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    mod = importlib.import_module("precom." + name)
    for entry in getattr(mod, "__all__", ()):
        assert hasattr(mod, entry), "%s.__all__ lists missing %r" % (name, entry)
        obj = getattr(mod, entry)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, (name, entry)


def test_package_binds_only_its_modules():
    # A second binding of a library name on the package is a second
    # import path that must be kept in step with the module's.  Private
    # names count too, so no removed or moved name, nor any oracle, can
    # come back on the package.
    names = [n for n in vars(precom) if not (n.startswith("__") and n.endswith("__"))]
    assert set(names) <= set(MODULES), sorted(set(names) - set(MODULES))
    for name in names:
        assert getattr(precom, name) is importlib.import_module("precom." + name)


def test_tests_import_each_name_from_its_module():
    # `from precom import m` and `precom.m` name a module; any other name
    # is imported from the module that defines it.
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "precom" and not node.level:
                names = {a.name for a in node.names}
                assert names <= set(MODULES), (path.name, node.lineno, sorted(names))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "precom" and not node.attr.startswith("__")):
                assert node.attr in MODULES, (path.name, node.lineno, node.attr)


def _used_names(tree: ast.AST, skip: ast.AST = None) -> Counter:
    """How often each ``ast.Name`` id and ``ast.Attribute`` attr occurs in
    ``tree``, outside the subtree ``skip``."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return out


def _library_trees() -> dict:
    return {m: ast.parse((PACKAGE / (m + ".py")).read_text()) for m in MODULES}


def _uncalled() -> list:
    """The (module, name) pairs of ``__all__`` names that appear in no
    other module and nowhere in their own module outside their
    definition."""
    trees = _library_trees()
    used = {m: _used_names(t) for m, t in trees.items()}
    out = []
    for m, tree in trees.items():
        elsewhere = set().union(*(u for other, u in used.items() if other != m))
        defs = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs[n.id] = node
        for name in getattr(importlib.import_module("precom." + m), "__all__", ()):
            if name not in elsewhere and name not in _used_names(tree, defs.get(name)):
                out.append((m, name))
    return sorted(out)


def test_every_public_name_has_a_library_caller():
    # What only the tests call belongs in tests/oracles.py; an exemption
    # that gains a caller leaves UNCALLED.
    assert _uncalled() == sorted(UNCALLED)


def _uncalled_methods() -> list:
    """The (module, "Class.method") pairs of the public non-dunder methods
    defined in the body of an ``__all__`` class whose name occurs nowhere
    in the library outside the method's own definition."""
    trees = _library_trees()
    used = sum((_used_names(t) for t in trees.values()), Counter())
    out = []
    for m, tree in trees.items():
        public = set(getattr(importlib.import_module("precom." + m), "__all__", ()))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in public:
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and used[fn.name] == _used_names(fn)[fn.name]):
                    out.append((m, "%s.%s" % (cls.name, fn.name)))
    return sorted(out)


def test_every_public_method_has_a_library_caller():
    # A method that only the tests call becomes an oracle function; an
    # exemption that gains a caller leaves UNCALLED_METHODS.
    assert _uncalled_methods() == sorted(UNCALLED_METHODS)


def _attribute_reads(tree: ast.AST, skip: ast.AST) -> set:
    """The attribute names that ``tree`` loads, outside the subtree
    ``skip``; a local variable of the same name is not a read."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unread_fields() -> list:
    """The (module, "Class.field") pairs of the ``__slots__`` fields of
    each ``__all__`` class that no library code reads as an attribute
    outside the class body.  A field named with a leading ``_`` is the
    class's own state and is left out."""
    trees = _library_trees()
    out = []
    for m, tree in trees.items():
        public = set(getattr(importlib.import_module("precom." + m), "__all__", ()))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in public:
                continue
            read = set().union(*(_attribute_reads(t, cls) for t in trees.values()))
            for stmt in cls.body:
                if (isinstance(stmt, ast.Assign)
                        and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]):
                    out.extend((m, "%s.%s" % (cls.name, f)) for f in ast.literal_eval(stmt.value)
                               if not f.startswith("_") and f not in read)
    return sorted(out)


def test_every_public_field_is_read():
    # A field that only the tests read, or none, leaves its class; an
    # exemption that gains a reader leaves UNREAD_FIELDS.
    assert _unread_fields() == sorted(UNREAD_FIELDS)


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in REMOVED.items() for n in ns])
def test_removed_names_are_gone(module, name):
    owner, _, attr = name.rpartition(".")
    mod = importlib.import_module("precom." + module)
    if owner:
        assert attr not in vars(getattr(mod, owner))
    else:
        assert not hasattr(mod, name)


def _operators() -> list:
    """The (module, "Class.method") pairs of the arithmetic, ordering and
    indexing dunders defined in the body of a module-level class, public
    or not."""
    out = []
    for m, tree in _library_trees().items():
        out.extend((m, "%s.%s" % (cls.name, fn.name)) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name in _OPERATOR_NAMES)
    return sorted(out)


def test_every_operator_is_listed():
    # An operator that no library expression applies leaves its class; a
    # new one joins OPERATORS with the expression that applies it.
    assert _operators() == sorted(OPERATORS)


def _optional_parameters() -> list:
    """(module, qualified function name, parameter) for every parameter
    with a default in the library, nested functions and methods
    included."""
    out = []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(module, child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults):]
                with_default += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.extend((module, name, p.arg) for p in with_default)
                walk(module, child, name + ".")
            else:
                walk(module, child, prefix)

    for m, tree in _library_trees().items():
        walk(m, tree, "")
    return sorted(out)


def test_optional_parameters_are_listed():
    # A default that no library caller leaves, or that none sets, is a
    # required parameter or no parameter; an exemption that loses its
    # second caller leaves OPTIONAL.
    found = _optional_parameters()
    extra = [p for p in found if p not in OPTIONAL]
    assert not extra, "defaults that no two library callers set differently: %s" % extra
    assert found == sorted(OPTIONAL)


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in MOVED.items() for n in ns])
def test_test_only_names_left_the_library(module, name):
    owner, _, attr = name.rpartition(".")
    mod = importlib.import_module("precom." + module)
    assert not hasattr(getattr(mod, owner) if owner else mod, attr)
    if not owner:
        assert callable(getattr(oracles, attr))


# Each library module's `from .m import` set, the package's __init__
# left out.  shuffle runs no tree word and no rewrite: the bridge between
# the two models is the oracle to_left_comb.  sexpr writes no word,
# polynomial or half-shuffle element, which print through their repr, so
# cli is shuffle's only library importer.  embed runs no tree rewriting.
IMPORTS = {
    "cli": {"embed", "envelope", "rewrite", "sexpr", "shuffle"},
    "compoly": {"lincomb"},
    "embed": {"compoly", "envelope", "lincomb", "magma"},
    "envelope": {"lincomb", "magma", "rewrite"},
    "lincomb": set(),
    "magma": {"lincomb"},
    "rewrite": {"lincomb", "magma"},
    "sexpr": {"envelope", "magma", "rewrite"},
    "shuffle": {"lincomb", "magma"},
}


def test_import_graph():
    # A module reaches another only by a relative `from .m import`; an
    # edge that is not in IMPORTS fails, and so does one that left.
    found = {}
    for m, tree in _library_trees().items():
        found[m] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found[m].add(node.module)
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("precom"), (m, node.module)
            elif isinstance(node, ast.Import):
                assert all(a.name.partition(".")[0] != "precom" for a in node.names), m
    assert found == IMPORTS
    assert [m for m, edges in IMPORTS.items() if "shuffle" in edges] == ["cli"]


@pytest.mark.parametrize("module", ["precom.magma", "precom.rewrite"])
@pytest.mark.parametrize("name", ["words_of_length", "inclusion_compositions"])
def test_oracles_are_not_library_names(module, name):
    # The all-words enumerator and the one-by-one inclusion compositions
    # are reference implementations in tests/oracles.py; no verb runs them.
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", [
    *(("precom.embed", n)
      for n in ("TruncSeries", "rb_apply", "generator_series", "series_star",
                "splitting_product", "random_series", "_as_series")),
    ("precom.rewrite", "subtree"), ("precom.envelope", "truncated_poly_relations"),
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
    assert {"verify_rota_baxter", "series_product"} <= set(embed.__all__)
    for name in ("_cauchy", "_rb_scales", "_scaled_rb", "_scaled_sum",
                 "_scaled_equal", "_draw", "_rb_sides"):
        assert hasattr(embed, name) and name not in embed.__all__
    assert not hasattr(embed, "_by_exponent")
