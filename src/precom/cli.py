"""Command-line front door.

Verbs: ``reduce`` (normal forms), ``complete`` (bounded completion),
``irr`` (irreducible-word counts), ``verify`` (the verification drivers),
``zmul`` (products in the free pre-commutative algebra on words), and
``embed`` (the power-series embedding check).

Every verb takes ``--json`` for a machine-readable report with the fields
{command, parameters, status, counts, failures, timings}; ``verify
zinbiel`` and ``verify trivial-envelope`` add ``stats`` (the ambiguities
discharged by the composition criteria, and those of them skipped by the
chain criterion), ``complete`` adds ``stats`` with the instances it
built, the composition sites it reduced and those it skipped, and
``embed`` adds ``stats`` with its Buchberger pairs, by what became of
them, and its divisor lookups with those answered from the memo,
``verify perm`` adds ``stats`` with the half-shuffle table entries it
filled, and ``verify rb`` adds ``stats`` with the terms of the Cauchy
products it formed.
Timings are null unless ``--timings`` is given, so identical inputs produce
byte-identical reports; with it, ``embed`` gives the seconds of its two
phases, ``homomorphism_s`` and ``completion_s``, next to ``total_s``.
Exit codes: 0 success/verified, 1 verification failure, 2 input or usage
error.

Flags are read from one table, ``_TABLE``, by a reader of its own: the
standard library's parser, built and run once in a fresh process, was
half of a small verdict.  A flag is given as ``--flag value`` or
``--flag=value``, in any order, with the ``verify`` target anywhere
after the verb; only whole flag names are accepted, not prefixes.
``-h``/``--help`` prints the verb list, or one verb's flags, and exits
0.  A usage error (an unknown or missing verb, target or flag, a flag
without its value, a value that is not an integer where one is
expected, a flag that the ``verify`` target requires but argv leaves
out, or one it does not read set away from its default) is found as
argv is read; it prints a usage line and an ``error:`` line to stderr
and exits 2.  Bad input (a value below its flag's minimum, a file that
cannot be read or parsed) prints only the ``error:`` line and exits 2.
The table names each verb's and target's handler too, so it is the one
list of what the CLI runs.

:func:`main` reads argv, runs the verb's handler and prints its report
with the cyclic garbage collector off, then restores its state.  Words,
monomials and symbols are hash-consed and live as long as the process,
and the kernel makes no reference cycles, so a collection pass during a
verb frees nothing: it only rescans the live words, and it cost a fifth
of the time of a long ``reduce``.  Reference counting still frees
everything else.  For the same reason ``main`` ends with ``gc.freeze()``,
which moves every object the collector tracks into a generation that no
collection scans.  Without it, the first allocation after ``main``
returns rescans every word the verb built, and interpreter exit scans
them again (its final collections run even with the collector off);
that was most of the time from ``main``'s return to the exit of a
``reduce`` process.  Reference counting still frees frozen objects, and
the kernel leaves no cycles among them for a collection to find.  A
caller that runs ``main`` in process gets its heap back frozen;
``gc.unfreeze()`` returns it to the collector.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import random
from types import SimpleNamespace

from .envelope import (
    collapse_check,
    default_alphabet,
    odd_even_zero_sweep,
    verify_trivial_envelope,
    verify_zinbiel_basis,
)
from .embed import (
    FilteredAlgebra,
    standard_filtration,
    verify_embedding,
    verify_rota_baxter,
)
from .rewrite import (
    complete,
    interreduce,
    irreducible_counts,
    irreducible_words,
    normal_form_with_trace,
)
from .sexpr import (
    ParseError,
    _alphabet,
    format_relations,
    parse_algebra,
    parse_aword,
    parse_poly,
    parse_relations,
)
from .shuffle import ZinbElement, perm_tensor_check, random_element, star, zinbiel_product

def _flag(name: str, kind) -> str:
    return "--" + name if kind is bool else "--%s %s" % (name, name.upper().replace("-", "_"))


def _usage(verb) -> str:
    """The usage line: the verb's target and required flags."""
    if verb is None:
        return "usage: precom {%s} [flags]" % ",".join(_TABLE)
    _, _, flags, targets = _TABLE[verb]
    words = ["precom", verb] + (["{%s}" % ",".join(targets)] if targets else [])
    words += [_flag(name, kind) for name, (kind, default, _, _) in flags.items()
              if default is _REQUIRED]
    return "usage: %s [flags]" % " ".join(words)


def _help(verb) -> None:
    """Print the verb list, or ``verb``'s flags, and exit 0."""
    lines = [_usage(verb), ""]
    if verb is None:
        lines += ["Exact rewriting in free pre-commutative algebras and power-series",
                  "embeddings of filtered commutative algebras.", "", "verbs:"]
        lines += ["  %-10s%s" % (v, row[0]) for v, row in _TABLE.items()]
        lines += ["", "'precom VERB --help' lists a verb's flags.  Exit codes: 0 success,",
                  "1 verification failure, 2 bad input or usage."]
    else:
        summary, _, flags, targets = _TABLE[verb]
        lines += [summary, ""]
        if targets:
            lines.append("targets, with the flags each requires [and reads]:")
            lines += ["  %-18s%s" % (t, " ".join(["--" + f for f in required]
                                                + ["[--%s]" % f for f in read]))
                      for t, (_, required, read) in targets.items()]
            lines.append("")
        lines.append("flags:")
        for name, (kind, default, text, _) in {**flags, **_COMMON}.items():
            if default is _REQUIRED:
                text += " (required)"
            elif default is not None and kind is not bool:
                text += " (default %s)" % default
            lines.append("  %-25s%s" % (_flag(name, kind), text))
    print("\n".join(lines))
    raise SystemExit(0)


def _usage_error(verb, message: str) -> None:
    print("%s\nerror: %s" % (_usage(verb), message), file=sys.stderr)
    raise SystemExit(2)


def _is_flag(arg: str) -> bool:
    """True unless ``arg`` is a positional argument: one that does not
    start with "-", is "-" alone, or is a negative number."""
    whole, dot, frac = arg[1:].partition(".")
    number = (whole.isdigit() or (dot and not whole)) and (not dot or frac.isdigit())
    return arg.startswith("-") and len(arg) > 1 and not number


def _parse(argv: list) -> SimpleNamespace:
    """The verb, its target and every flag of the verb (its default when
    argv leaves it out) read from argv.  Help exits 0 and a usage error
    exits 2, both through ``SystemExit``; a flag that the target requires
    but argv leaves out, or one of the verb's that the target does not
    read set away from its default, is a usage error too."""
    if not argv or argv[0] not in _TABLE:
        if argv and argv[0] in ("-h", "--help"):
            _help(None)
        _usage_error(None, "unknown verb %r" % argv[0] if argv else "missing verb")
    verb = argv[0]
    _, _, own, targets = _TABLE[verb]
    flags = {**own, **_COMMON}
    values = {name: spec[1] for name, spec in flags.items()}
    target, extras = None, []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            _help(verb)
        if not _is_flag(arg):
            if targets and target is None:
                if arg not in targets:
                    _usage_error(verb, "unknown target %r (choose from %s)"
                                 % (arg, ", ".join(targets)))
                target = arg
            else:
                extras.append(arg)
            continue
        name, eq, value = arg[2:].partition("=")
        spec = flags.get(name) if arg.startswith("--") else None
        if spec is None:
            extras.append(arg)
            continue
        kind = spec[0]
        if kind is bool:
            if eq:
                _usage_error(verb, "--%s takes no value" % name)
            value = True
        elif not eq:
            value = next(rest, None)
            if value is None or _is_flag(value):
                _usage_error(verb, "--%s expects a value" % name)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(verb, "--%s expects an integer, not %r" % (name, value))
        values[name] = value
    missing = ["--" + name for name, v in values.items() if v is _REQUIRED]
    if targets and target is None:
        missing.insert(0, "a target")
    if missing:
        _usage_error(verb, "%s requires %s" % (verb, ", ".join(missing)))
    if extras:
        _usage_error(verb, "unrecognized arguments: %s" % " ".join(extras))
    if targets:
        _, required, read = targets[target]
        missing = ["--" + f for f in required if values[f] is None]
        if missing:
            _usage_error(verb, "%s %s requires %s" % (verb, target, ", ".join(missing)))
        unread = ["--" + f for f, spec in own.items()
                  if f not in required + read and values[f] != spec[1]]
        if unread:
            _usage_error(verb, "%s %s does not read %s" % (verb, target, ", ".join(unread)))
    args = SimpleNamespace(verb=verb, **{n.replace("-", "_"): v for n, v in values.items()})
    if targets:
        args.target = target
    return args


def _load(path: str, *parsers):
    """The file's text passed through each of ``parsers`` in turn.  A
    file that cannot be decoded, or whose text does not parse, is a
    ``ParseError`` that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = fh.read()
        for parse in parsers:
            value = parse(value)
    except (ParseError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ParseError("%s: %s" % (path, e)) from None
    return value


def _gsb_parts(rep):
    """The failures, the ambiguity line and the stats of a GsbReport."""
    failures = [{"f": repr(f), "g": repr(g),
                 "ambiguity": repr(w), "remainder": repr(nf)}
                for f, g, w, nf in rep.failures]
    line = ("ambiguities checked: %d (%d discharged by composition criteria)"
            % (rep.ambiguities_checked, rep.discharged))
    return failures, line, {"discharged": rep.discharged, "skipped": rep.skipped}


def _handle_reduce(args):
    alphabet, relations = _load(args.relations, parse_relations)
    nf, steps = normal_form_with_trace(parse_poly(args.input, alphabet), relations)
    result = repr(nf)
    report = {"status": "ok", "counts": [], "failures": [],
              "result": result, "steps": len(steps)}
    return 0, report, [result, "steps: %d" % len(steps)]


def _handle_complete(args):
    alphabet, relations = _load(args.relations, parse_relations)
    stats: dict = {}
    done = complete(relations, args.bound, stats)
    if args.interreduce:
        done = interreduce(done)
    counts = irreducible_counts(done, alphabet, args.bound)
    text = format_relations(alphabet, done)
    report = {"status": "ok", "counts": counts, "failures": [],
              "relations_file": text,
              "relation_count": len(done), "stats": stats}
    lines = [text.rstrip("\n"), "irreducible counts: %s" % counts, "status: ok"]
    return 0, report, lines


def _handle_irr(args):
    alphabet, relations = _load(args.relations, parse_relations)
    table = irreducible_words(relations, alphabet, args.bound)
    counts = [len(table[n]) for n in range(1, args.bound + 1)]
    report = {"status": "ok", "counts": counts, "failures": []}
    lines = ["irreducible counts: %s" % counts]
    if args.words:
        report["words"] = {str(n): [repr(w) for w in ws]
                           for n, ws in table.items()}
        for n in sorted(table):
            lines.append("length %d: %s" % (n, " ".join(map(repr, table[n]))))
    lines.append("status: ok")
    return 0, report, lines


def _handle_zmul(args):
    # An empty name is left to parse_aword, which says where it is.
    names = sorted((set(args.left.split(".")) | set(args.right.split("."))) - {""})
    alphabet = _alphabet(names)
    u = parse_aword(args.left, alphabet)
    v = parse_aword(args.right, alphabet)
    f, g = ZinbElement.monomial(u), ZinbElement.monomial(v)
    res = star(f, g) if args.star else zinbiel_product(f, g)
    result = repr(res)
    report = {"status": "ok", "counts": [], "failures": [], "result": result}
    return 0, report, [result]


def _basis_parts(rep):
    """The failures, the ambiguity line and the stats of a BasisReport."""
    failures, line, stats = _gsb_parts(rep.gsb)
    if rep.counts != rep.expected_counts:
        failures.append({"counts": rep.counts, "expected": rep.expected_counts})
    return failures, line, stats


def _verify_zinbiel(args):
    rep = verify_zinbiel_basis(args.letters, args.bound)
    failures, line, stats = _basis_parts(rep)
    lines = [line, "irreducible counts: %s" % rep.counts]
    return rep.verified, rep.counts, failures, lines, stats


def _verify_trivial_envelope(args):
    rep = verify_trivial_envelope(args.letters, args.bound, not args.no_completion)
    failures, line, stats = _basis_parts(rep)
    lines = [line,
             "irreducible counts: %s (expected %s)"
             % (rep.counts, rep.expected_counts)]
    if rep.completion_counts is not None:
        lines.append("completion counts:  %s" % rep.completion_counts)
        if rep.completion_counts != rep.expected_counts:
            failures.append({"completion_counts": rep.completion_counts,
                             "expected": rep.expected_counts})
    return rep.verified, rep.counts, failures, lines, stats


def _verify_odd_even(args):
    if args.m_max < 1 or args.m_max % 2 == 0:
        raise ValueError("--m-max must be odd and at least 1 (got %d)" % args.m_max)
    if args.k_max < 2 or args.k_max % 2:
        raise ValueError("--k-max must be even and at least 2 (got %d)" % args.k_max)
    rep = odd_even_zero_sweep(args.letters, args.m_max, args.k_max)
    failures = [{"a": repr(a), "b": repr(b),
                 "normal_form": repr(nf)} for a, b, nf in rep.failures]
    return rep.verified, [rep.checked], failures, ["products checked: %d" % rep.checked], None


def _verify_collapse(args):
    A, _levels = _load(args.algebra, json.loads, parse_algebra)
    rep = collapse_check(A, args.bound)
    failures = [{"x": x.name, "y": y.name, "star": repr(got),
                 "expected": repr(want)}
                for x, y, got, want in rep.failures]
    lines = ["irreducible counts: %s" % rep.counts]
    for (x, y), got in rep.star_table.items():
        lines.append("%s * %s = %s" % (x.name, y.name, repr(got)))
    return rep.verified, rep.counts, failures, lines, None


def _verify_rb(args):
    stats: dict = {}
    bad = verify_rota_baxter(random.Random(args.seed), args.count, args.max_n, stats)
    failures = [{"trial": i, "identity": identity} for i, identity in bad]
    lines = ["trials: %d (seed %d)" % (args.count, args.seed)]
    return not failures, [args.count], failures, lines, stats


def _verify_perm(args):
    rng = random.Random(args.seed)
    alphabet = default_alphabet(2)
    samples = [tuple(random_element(rng, alphabet, args.max_degree)
                     for _ in range(3))
               for _ in range(args.triples)]
    rep = perm_tensor_check(args.dim, samples)
    failures = [{"identity": "associativity", "i": i, "j": j, "k": k,
                 "f": repr(f), "g": repr(g), "h": repr(h)}
                for i, j, k, f, g, h in rep.failures]
    lines = ["basis-paired triples checked: %d (seed %d)"
             % (rep.checked, args.seed)]
    return rep.verified, [rep.checked], failures, lines, {"half_shuffles": rep.half_shuffles}


def _handle_verify(args):
    ok, counts, failures, lines, stats = _TABLE["verify"][3][args.target][0](args)
    status = "verified" if ok else "failed"
    report = {"status": status, "counts": counts, "failures": failures}
    if stats is not None:
        report["stats"] = stats
    lines = lines + ["status: %s" % status]
    return (0 if ok else 1), report, lines


def _handle_embed(args):
    A, levels = _load(args.algebra, json.loads, parse_algebra)
    F = FilteredAlgebra(A, levels) if levels is not None else standard_filtration(A)
    rep = verify_embedding(F, args.N)
    certified = rep.injectivity_certified_to
    b = rep.buchberger
    failures = [{"kind": "homomorphism", "x": x, "y": y, "degree": l, "residue": repr(poly)}
                for x, y, l, poly in rep.failures]
    failures += [{"kind": "linear-leading", "relation": repr(p)} for p in b.linear_leadings]
    status = "verified" if rep.verified else "failed"
    report = {
        "status": status,
        "counts": [rep.relation_count, len(b.added)],
        "failures": failures,
        "levels": {x.name: F.level(x) for x in F.basis},
        "injectivity_certified_to": certified,
        "stats": {
            "pairs": {"considered": b.pairs_considered, "processed": b.pairs_processed,
                      "skipped_bound": b.pairs_skipped_bound,
                      "skipped_coprime": b.pairs_skipped_coprime,
                      "skipped_lcm": b.pairs_skipped_lcm, "added": len(b.added)},
            "lookups": {"calls": b.lookups, "memo_hits": b.memo_hits},
        },
        "timings": {k: round(v, 3) for k, v in rep.phases.items()},
    }
    lines = [
        "adapted basis levels: %s"
        % ", ".join("%s:%d" % (x.name, F.level(x)) for x in F.basis),
        "coefficient relations: %d (completion added %d)"
        % (rep.relation_count, len(b.added)),
        ("certified injective to weight %d" % certified if certified
         else "linear leading monomial found: injectivity not certified"),
        "status: %s" % status,
    ]
    return (0 if rep.verified else 1), report, lines


# The table, one row per verb: (summary, handler, flags, targets).  A
# flag is (type, default, help, minimum): a type of bool is a switch that
# takes no value, a default of _REQUIRED makes the flag required, and an
# int value below its minimum (None for none) is bad input.  A verb with
# targets takes one of them as its positional argument; a target is
# (handler, required, read), its handler and the flags it requires and
# the other flags it reads.  A flag the target requires but argv leaves
# out, or any other flag of the verb set away from its default, is a
# usage error.  Every verb also takes the _COMMON switches.
_REQUIRED = object()
_COMMON = {
    "json": (bool, False, "emit a structured JSON report", None),
    "timings": (bool, False, "include wall-clock timings in the report", None),
}
_TABLE = {
    "reduce": ("normal form of a tree polynomial modulo relations", _handle_reduce, {
        "relations": (str, _REQUIRED, "relation file", None),
        "input": (str, _REQUIRED, "word or polynomial S-expression", None),
    }, {}),
    "complete": ("bounded completion of a relation set", _handle_complete, {
        "relations": (str, _REQUIRED, "relation file", None),
        "bound": (int, _REQUIRED, "word length bound", 2),
        "interreduce": (bool, False, "minimalize and tail-reduce the completed set", None),
    }, {}),
    "irr": ("irreducible words modulo a relation set", _handle_irr, {
        "relations": (str, _REQUIRED, "relation file", None),
        "bound": (int, _REQUIRED, "word length bound", 1),
        "words": (bool, False, "list the words, not just counts", None),
    }, {}),
    "zmul": ("product of dotted words in the free pre-commutative algebra", _handle_zmul, {
        "left": (str, _REQUIRED, "dotted word, e.g. x.y", None),
        "right": (str, _REQUIRED, "dotted word", None),
        "star": (bool, False, "symmetrized product instead of the one-sided one", None),
    }, {}),
    "verify": ("run a verification driver", _handle_verify, {
        "letters": (int, None, "alphabet size", 1),
        "bound": (int, None, "ambiguity/length bound", 2),
        "no-completion": (bool, False, "trivial-envelope: skip the completion cross-check", None),
        "m-max": (int, None, "odd-even: odd length cap", None),
        "k-max": (int, None, "odd-even: even length cap", None),
        "algebra": (str, None, "collapse: algebra JSON file", None),
        "count": (int, None, "rb: number of random trials", 1),
        "max-n": (int, None, "rb: max truncation degree", 2),
        "dim": (int, None, "perm: Perm-algebra dimension", 1),
        "triples": (int, None, "perm: number of triples", 1),
        "max-degree": (int, None, "perm: element degree cap", 1),
        "seed": (int, 0, "random seed (rb, perm)", None),
    }, {
        "zinbiel": (_verify_zinbiel, ("letters", "bound"), ()),
        "trivial-envelope": (_verify_trivial_envelope, ("letters", "bound"), ("no-completion",)),
        "odd-even": (_verify_odd_even, ("letters", "m-max", "k-max"), ()),
        "collapse": (_verify_collapse, ("algebra", "bound"), ()),
        "rb": (_verify_rb, ("count", "max-n"), ("seed",)),
        "perm": (_verify_perm, ("dim", "triples", "max-degree"), ("seed",)),
    }),
    "embed": ("verify the power-series embedding of a filtered algebra", _handle_embed, {
        "algebra": (str, _REQUIRED, "algebra JSON file", None),
        "N": (int, _REQUIRED, "truncation degree", None),
    }, {}),
}


def _parameters(args) -> dict:
    skip = {"verb", "json", "timings"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k.replace("_", "-")] = v
    return out


def main(argv=None) -> int:
    """Run the verb that ``argv`` (default ``sys.argv[1:]``) names, print
    its report and return its exit code; help and usage errors exit
    through ``SystemExit``.  The cyclic collector is off from the reading
    of argv until the report is printed, and its state is then restored.
    On the way out, however ``main`` ends, it freezes the heap
    (``gc.freeze()``), so no later collection rescans what the verb
    built: an in-process caller gets its heap back frozen, and
    ``gc.unfreeze()`` returns it to the collector."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        t0 = time.perf_counter()
        try:
            # A value below its flag's minimum is bad input: such a run
            # would check nothing, or nothing well-defined, and still pass.
            for name, (_, _, _, low) in _TABLE[args.verb][2].items():
                value = getattr(args, name.replace("-", "_"))
                if low is not None and value is not None and value < low:
                    raise ValueError("--%s must be at least %d (got %d)" % (name, low, value))
            code, report, lines = _TABLE[args.verb][1](args)
        except (ValueError, OSError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 2
        command = args.verb if args.verb != "verify" else "verify %s" % args.target
        # A handler's report may carry phase times under "timings"; they
        # are shown next to the total, and only under --timings.
        phases = report.pop("timings", {})
        full = {"command": command, "parameters": _parameters(args),
                "timings": (dict(phases, total_s=round(time.perf_counter() - t0, 3))
                            if args.timings else None)}
        full.update(report)
        if args.json:
            print(json.dumps(full, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    finally:
        gc.freeze()
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
