"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of every ``precom`` layer from the
outside: ``src/`` is never edited.  A wrapper is installed under every
name that refers to the original function, in every ``precom`` module
namespace and in dicts held by those namespaces (``sexpr._FAMILIES``
holds ``trivial_gsb``), because patching only the defining module would
miss calls made through ``from .x import f`` bindings.

Each call records one span (name, start, end, parent) in compact arrays
kept in memory; a job writes them out when it ends and the parent
process aggregates them into self times (a span's duration minus the
durations of its child spans) and counts.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("magma", "rewrite", "shuffle", "envelope", "compoly", "embed", "sexpr", "cli")

# The arithmetic operators count as public MagmaPoly methods; __bool__,
# __eq__ and __repr__ do not.
_POLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    """Spans and counters of one job."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _name_id(self, key: str) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, key: str, fn, after=None):
        """A wrapper recording one span per call; ``after(args, result)``
        runs once the call has returned, outside the span."""
        nid = self._name_id(key)
        name_add, parent_add = self.name.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        end, stack, clock = self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name_add(nid)
            parent_add(stack[-1])
            end_add(0.0)
            stack.append(i)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "n": len(self.end), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _after_hooks(tracer: Tracer) -> dict:
    def gsb(args, rep):
        tracer.count("rewrite.ambiguities", rep.ambiguities_checked)

    def complete(args, out):
        if hasattr(args[0], "__len__"):
            tracer.count("rewrite.complete.added", len(out) - len(args[0]))

    def zinbiel_product(args, out):
        tracer.count("shuffle.terms_out", len(out.terms))

    def buchberger(args, out):
        rep = out[1]
        tracer.count("compoly.pairs_considered", rep.pairs_considered)
        tracer.count("compoly.pairs_processed", rep.pairs_processed)
        tracer.count("compoly.pairs_skipped",
                     rep.pairs_skipped_bound + rep.pairs_skipped_coprime)
        tracer.count("compoly.added", len(rep.added))

    return {"rewrite.verify_gsb": gsb, "rewrite.complete": complete,
            "shuffle.zinbiel_product": zinbiel_product,
            "compoly.buchberger_bounded": buchberger}


def install(tracer: Tracer, only=None) -> int:
    """Wrap every public function of every layer, or only the functions
    named in ``only`` (as ``layer.function``); returns the number of
    bindings replaced.  Call after ``import precom`` and before any work."""
    hooks = _after_hooks(tracer)
    wrappers: dict = {}
    for layer in LAYERS:
        mod = sys.modules["precom." + layer]
        for name in getattr(mod, "__all__", ("main",)):
            fn = mod.__dict__.get(name)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                raise TypeError("cannot time generator function %s.%s" % (layer, name))
            key = "%s.%s" % (layer, name)
            if only is not None and key not in only:
                continue
            wrappers[fn] = tracer.wrap(key, fn, hooks.get(key))

    poly = sys.modules["precom.magma"].MagmaPoly
    for name, attr in list(vars(poly).items()) if only is None else ():
        if name.startswith("_") and name not in _POLY_OPERATORS:
            continue
        key = "magma.MagmaPoly." + name
        if isinstance(attr, classmethod):
            setattr(poly, name, classmethod(tracer.wrap(key, attr.__func__)))
        elif isinstance(attr, types.FunctionType):
            setattr(poly, name, tracer.wrap(key, attr))

    replaced = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "precom" and not modname.startswith("precom."):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                replaced += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, types.FunctionType) and v in wrappers:
                        value[k] = wrappers[v]
                        replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# Aggregation (parent side)

def load_spans(path: str) -> dict:
    """Per span name: [calls, self seconds, inclusive seconds], plus the
    job's counters under the key ``None``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        cols = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    name, parent, start, end = cols
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    table: dict = {}
    names = header["names"]
    for i in range(n):
        row = table.get(names[name[i]])
        if row is None:
            row = table[names[name[i]]] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur[i] - child[i]
        row[2] += dur[i]
    table[None] = header["counters"]
    return table


def merge(tables: list[dict]) -> tuple[dict, dict]:
    spans: dict = {}
    counters: dict = {}
    for t in tables:
        for key, row in t.items():
            if key is None:
                for k, v in row.items():
                    counters[k] = counters.get(k, 0) + v
                continue
            acc = spans.setdefault(key, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += row[j]
    return spans, counters


def layer_metrics(spans: dict, counters: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    def calls(*names):
        return sum(spans[k][0] for k in names if k in spans)

    def self_s(*names):
        return sum(spans[k][1] for k in names if k in spans)

    def layer(prefix, column):
        return sum(row[column] for key, row in spans.items() if key.startswith(prefix))

    gsb = spans.get("rewrite.verify_gsb")
    ambiguities = counters.get("rewrite.ambiguities", 0)
    processed = counters.get("compoly.pairs_processed", 0)
    added = counters.get("compoly.added", 0)
    nf = ("rewrite.normal_form", "rewrite.normal_form_with_trace")
    return {
        "magma.node.calls": (calls("magma.node"), "count"),
        "magma.node.new_words": (counters.get("magma.node.new_words", 0), "count"),
        "magma.poly.s": (layer("magma.MagmaPoly.", 1), "s"),
        "magma.s": (layer("magma.", 1), "s"),
        "rewrite.calls": (layer("rewrite.", 0), "count"),
        "rewrite.s": (layer("rewrite.", 1), "s"),
        "rewrite.verify_gsb.s": (self_s("rewrite.verify_gsb"), "s"),
        "rewrite.ambiguities": (ambiguities, "count"),
        "rewrite.ambiguities_per_s": (ambiguities / gsb[2] if gsb else 0.0, "1/s"),
        "rewrite.normal_form.calls": (calls(*nf), "count"),
        "rewrite.normal_form.s": (self_s(*nf), "s"),
        "rewrite.irreducible.s": (self_s("rewrite.irreducible_words",
                                         "rewrite.irreducible_counts"), "s"),
        "rewrite.complete.s": (self_s("rewrite.complete"), "s"),
        "rewrite.complete.added": (counters.get("rewrite.complete.added", 0), "count"),
        "rewrite.interreduce.s": (self_s("rewrite.interreduce"), "s"),
        "shuffle.s": (layer("shuffle.", 1), "s"),
        "shuffle.zinbiel_product.calls": (calls("shuffle.zinbiel_product"), "count"),
        "shuffle.zinbiel_product.s": (self_s("shuffle.zinbiel_product"), "s"),
        "shuffle.terms_out": (counters.get("shuffle.terms_out", 0), "count"),
        "shuffle.perm_tensor_check.s": (self_s("shuffle.perm_tensor_check"), "s"),
        "envelope.s": (layer("envelope.", 1), "s"),
        "compoly.s": (layer("compoly.", 1), "s"),
        "compoly.com_reduce.calls": (calls("compoly.com_reduce"), "count"),
        "compoly.com_reduce.s": (self_s("compoly.com_reduce"), "s"),
        "compoly.buchberger.s": (self_s("compoly.buchberger_bounded"), "s"),
        "compoly.pairs_considered": (counters.get("compoly.pairs_considered", 0), "count"),
        "compoly.pairs_processed": (processed, "count"),
        "compoly.pairs_skipped": (counters.get("compoly.pairs_skipped", 0), "count"),
        "compoly.added": (added, "count"),
        "compoly.useful_ratio": (added / processed if processed else 0.0, "ratio"),
        "embed.s": (layer("embed.", 1), "s"),
        "embed.verify_embedding.s": (self_s("embed.verify_embedding"), "s"),
        "embed.series_product.calls": (calls("embed.series_product"), "count"),
        "embed.series_product.s": (self_s("embed.series_product"), "s"),
        "embed.standard_filtration.s": (self_s("embed.standard_filtration"), "s"),
        "sexpr.s": (layer("sexpr.", 1), "s"),
        "cli.s": (layer("cli.", 1), "s"),
    }
