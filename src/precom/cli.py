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
``verify perm`` adds ``stats`` with the distinct element products and
the half-shuffle table entries it computed, and ``verify rb`` adds
``stats`` with the Cauchy products it formed and the terms they produced.
Timings are null unless ``--timings`` is given, so identical inputs produce
byte-identical reports.  Exit codes: 0 success/verified, 1 verification
failure, 2 input or usage error.

:func:`main` runs the verb's handler with the cyclic garbage collector
off and restores its previous state afterwards.  Words, monomials and
symbols are hash-consed and live as long as the process, and the kernel
makes no reference cycles, so a collection pass during a verb frees
nothing: it only rescans the live words, and it cost a fifth of the time
of a long ``reduce``.  Reference counting still frees everything else.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import random

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
from .magma import Alphabet
from .rewrite import (
    ZinbielFamily,
    complete,
    interreduce,
    irreducible_counts,
    irreducible_words,
    normal_form_with_trace,
)
from .sexpr import (
    ParseError,
    format_poly,
    format_relations,
    format_word,
    format_zinb,
    parse_algebra,
    parse_aword,
    parse_poly,
    parse_relations,
)
from .shuffle import PermAlgebra, ZinbElement, perm_tensor_check, random_element, star, zinbiel_product

_VERIFY_TARGETS = ("zinbiel", "trivial-envelope", "odd-even", "collapse", "rb", "perm")
_VERBS = ("reduce", "complete", "irr", "zmul", "verify", "embed")


def _build_parser(verbs=_VERBS):
    """The parser with the subparsers of ``verbs``, and those subparsers
    by verb.  :func:`main` builds only the verb that argv names, when it
    names one; the usage line lists every verb either way."""
    parser = argparse.ArgumentParser(
        prog="precom",
        description="Exact rewriting in free pre-commutative algebras and "
                    "power-series embeddings of filtered commutative algebras.")
    sub = parser.add_subparsers(
        dest="verb", required=True, prog="precom",
        metavar=None if verbs == _VERBS else "{%s}" % ",".join(_VERBS))

    def verb_parser(verb: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=summary)
        p.add_argument("--json", action="store_true", help="emit a structured JSON report")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        return p

    if "reduce" in verbs:
        p = verb_parser("reduce", "normal form of a tree polynomial modulo relations")
        p.add_argument("--relations", required=True, help="relation file")
        p.add_argument("--input", required=True, help="word or polynomial S-expression")

    if "complete" in verbs:
        p = verb_parser("complete", "bounded completion of a relation set")
        p.add_argument("--relations", required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--interreduce", action="store_true",
                       help="minimalize and tail-reduce the completed set")

    if "irr" in verbs:
        p = verb_parser("irr", "irreducible words modulo a relation set")
        p.add_argument("--relations", required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--words", action="store_true", help="list the words, not just counts")

    if "zmul" in verbs:
        p = verb_parser("zmul", "product of dotted words in the free pre-commutative algebra")
        p.add_argument("--left", required=True, help="dotted word, e.g. x.y")
        p.add_argument("--right", required=True)
        p.add_argument("--star", action="store_true",
                       help="symmetrized product instead of the one-sided one")
        p.add_argument("--letters", default=None,
                       help="comma-separated alphabet order (default: sorted names)")

    if "verify" in verbs:
        p = verb_parser("verify", "run a verification driver")
        p.add_argument("target", choices=_VERIFY_TARGETS)
        p.add_argument("--letters", type=int, default=None, help="alphabet size")
        p.add_argument("--bound", type=int, default=None, help="ambiguity/length bound")
        p.add_argument("--no-completion", action="store_true",
                       help="trivial-envelope: skip the completion cross-check")
        p.add_argument("--m-max", type=int, default=None, help="odd-even: odd length cap")
        p.add_argument("--k-max", type=int, default=None, help="odd-even: even length cap")
        p.add_argument("--algebra", default=None, help="collapse: algebra JSON file")
        p.add_argument("--count", type=int, default=None, help="rb: number of random trials")
        p.add_argument("--max-n", type=int, default=None, help="rb: max truncation degree")
        p.add_argument("--dim", type=int, default=None, help="perm: Perm-algebra dimension")
        p.add_argument("--triples", type=int, default=None, help="perm: number of triples")
        p.add_argument("--max-degree", type=int, default=None, help="perm: element degree cap")
        p.add_argument("--seed", type=int, default=0, help="random seed (rb, perm)")

    if "embed" in verbs:
        p = verb_parser("embed", "verify the power-series embedding of a filtered algebra")
        p.add_argument("--algebra", required=True, help="algebra JSON file")
        p.add_argument("--N", type=int, required=True, help="truncation degree")
    return parser, sub.choices


# For each verify target: the flags it requires, then the other flags it
# reads.  Any other verify flag set away from its default is an error.
_VERIFY_FLAGS = {
    "zinbiel": (("letters", "bound"), ()),
    "trivial-envelope": (("letters", "bound"), ("no-completion",)),
    "odd-even": (("letters", "m-max", "k-max"), ()),
    "collapse": (("algebra", "bound"), ()),
    "rb": (("count", "max-n"), ("seed",)),
    "perm": (("dim", "triples", "max-degree"), ("seed",)),
}


def _check_verify_flags(args, verify: argparse.ArgumentParser) -> None:
    required, optional = _VERIFY_FLAGS[args.target]
    values = vars(args)
    missing = [f for f in required if values[f.replace("-", "_")] is None]
    if missing:
        raise ValueError("verify %s requires %s"
                         % (args.target, ", ".join("--" + f for f in missing)))
    read = ({f.replace("-", "_") for f in required + optional}
            | {"verb", "target", "json", "timings"})
    unread = [k for k, v in values.items() if k not in read and v != verify.get_default(k)]
    if unread:
        raise ValueError("verify %s does not read %s"
                         % (args.target, ", ".join("--" + k.replace("_", "-")
                                                   for k in unread)))


def _at_least(minimums: dict) -> None:
    """Reject a flag below its minimum ({flag: (value, minimum)}): such a
    run would check nothing, or nothing well-defined, and still pass."""
    for flag, (value, low) in minimums.items():
        if value < low:
            raise ValueError("--%s must be at least %d (got %d)" % (flag, low, value))


def _load_relations(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_relations(fh.read())


def _load_algebra(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_algebra(data)


def _gsb_parts(rep):
    """The failures, the ambiguity line and the stats of a GsbReport."""
    failures = [{"f": format_poly(f.f), "g": format_poly(f.g),
                 "ambiguity": format_word(f.ambiguity),
                 "remainder": format_poly(f.normal_form)}
                for f in rep.failures]
    line = ("ambiguities checked: %d (%d discharged by composition criteria)"
            % (rep.ambiguities_checked, rep.discharged))
    return failures, line, {"discharged": rep.discharged, "skipped": rep.skipped}


def _handle_reduce(args):
    alphabet, relations = _load_relations(args.relations)
    nf, trace = normal_form_with_trace(parse_poly(args.input, alphabet), relations)
    result = format_poly(nf)
    report = {"status": "ok", "counts": [], "failures": [],
              "result": result, "steps": len(trace)}
    return 0, report, [result, "steps: %d" % len(trace)]


def _handle_complete(args):
    _at_least({"bound": (args.bound, 2)})
    alphabet, relations = _load_relations(args.relations)
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
    _at_least({"bound": (args.bound, 1)})
    alphabet, relations = _load_relations(args.relations)
    counts = irreducible_counts(relations, alphabet, args.bound)
    report = {"status": "ok", "counts": counts, "failures": []}
    lines = ["irreducible counts: %s" % counts]
    if args.words:
        table = irreducible_words(relations, alphabet, args.bound)
        report["words"] = {str(n): [format_word(w) for w in ws]
                           for n, ws in table.items()}
        for n in sorted(table):
            lines.append("length %d: %s" % (n, " ".join(map(format_word, table[n]))))
    lines.append("status: ok")
    return 0, report, lines


def _handle_zmul(args):
    if args.letters:
        names = [s for s in args.letters.split(",") if s]
    else:
        names = sorted(set(args.left.split(".")) | set(args.right.split(".")))
    alphabet = Alphabet(names)
    u = parse_aword(args.left, alphabet)
    v = parse_aword(args.right, alphabet)
    f, g = ZinbElement.monomial(u), ZinbElement.monomial(v)
    res = star(f, g) if args.star else zinbiel_product(f, g)
    result = format_zinb(res)
    report = {"status": "ok", "counts": [], "failures": [], "result": result}
    return 0, report, [result]


def _verify_zinbiel(args):
    _at_least({"letters": (args.letters, 1), "bound": (args.bound, 2)})
    rep = verify_zinbiel_basis(args.letters, args.bound)
    ab = default_alphabet(args.letters)
    counts = irreducible_counts([ZinbielFamily(ab)], ab, args.bound)
    failures, line, stats = _gsb_parts(rep)
    lines = [line, "irreducible counts: %s" % counts]
    return rep.verified, counts, failures, lines, stats


def _verify_trivial_envelope(args):
    _at_least({"letters": (args.letters, 1), "bound": (args.bound, 2)})
    rep = verify_trivial_envelope(args.letters, args.bound,
                                  run_completion=not args.no_completion)
    failures, line, stats = _gsb_parts(rep.gsb)
    if rep.counts != rep.expected_counts:
        failures.append({"counts": rep.counts, "expected": rep.expected_counts})
    lines = [line,
             "irreducible counts: %s (expected %s)"
             % (rep.counts, rep.expected_counts)]
    if rep.completion_counts is not None:
        lines.append("completion counts:  %s" % rep.completion_counts)
        if rep.completion_counts != rep.expected_counts[:len(rep.completion_counts)]:
            failures.append({"completion_counts": rep.completion_counts,
                             "expected": rep.expected_counts[:len(rep.completion_counts)]})
    return rep.verified, rep.counts, failures, lines, stats


def _verify_odd_even(args):
    _at_least({"letters": (args.letters, 1)})
    rep = odd_even_zero_sweep(args.letters, args.m_max, args.k_max)
    failures = [{"a": format_word(a), "b": format_word(b),
                 "normal_form": format_poly(nf)} for a, b, nf in rep.violations]
    return rep.verified, [rep.checked], failures, ["products checked: %d" % rep.checked], None


def _verify_collapse(args):
    _at_least({"bound": (args.bound, 2)})
    A, _levels = _load_algebra(args.algebra)
    rep = collapse_check(A, args.bound)
    failures = [{"x": x.name, "y": y.name, "star": format_poly(got),
                 "expected": format_poly(want)}
                for x, y, got, want in rep.mismatches]
    lines = ["irreducible counts: %s" % rep.counts]
    for (x, y), got in sorted(rep.star_table.items(),
                              key=lambda t: (t[0][0].rank, t[0][1].rank)):
        lines.append("%s * %s = %s" % (x.name, y.name, format_poly(got)))
    return rep.matches_structure, rep.counts, failures, lines, None


def _verify_rb(args):
    _at_least({"count": (args.count, 1), "max-n": (args.max_n, 2)})
    stats: dict = {}
    bad = verify_rota_baxter(random.Random(args.seed), args.count, args.max_n, stats)
    failures = [{"trial": i, "identity": identity} for i, identity in bad]
    lines = ["trials: %d (seed %d)" % (args.count, args.seed)]
    return not failures, [args.count], failures, lines, stats


def _verify_perm(args):
    _at_least({"triples": (args.triples, 1), "max-degree": (args.max_degree, 1)})
    rng = random.Random(args.seed)
    alphabet = default_alphabet(2)
    samples = [tuple(random_element(rng, alphabet, args.max_degree)
                     for _ in range(3))
               for _ in range(args.triples)]
    rep = perm_tensor_check(PermAlgebra(args.dim), samples)
    failures = []
    for i, j, k, f, g, h in rep.associativity_violations:
        failures.append({"identity": "associativity", "i": i, "j": j, "k": k,
                         "f": format_zinb(f), "g": format_zinb(g),
                         "h": format_zinb(h)})
    lines = ["basis-paired triples checked: %d (seed %d)"
             % (rep.triples_checked, args.seed)]
    stats = {"products": rep.products, "half_shuffles": rep.half_shuffles}
    return rep.verified, [rep.triples_checked], failures, lines, stats


_VERIFY = {
    "zinbiel": _verify_zinbiel,
    "trivial-envelope": _verify_trivial_envelope,
    "odd-even": _verify_odd_even,
    "collapse": _verify_collapse,
    "rb": _verify_rb,
    "perm": _verify_perm,
}


def _handle_verify(args):
    ok, counts, failures, lines, stats = _VERIFY[args.target](args)
    status = "verified" if ok else "failed"
    report = {"status": status, "counts": counts, "failures": failures}
    if stats is not None:
        report["stats"] = stats
    lines = lines + ["status: %s" % status]
    return (0 if ok else 1), report, lines


def _handle_embed(args):
    A, levels = _load_algebra(args.algebra)
    F = FilteredAlgebra(A, levels) if levels is not None else standard_filtration(A)
    rep = verify_embedding(F, args.N)
    failures = []
    for x, y, l, poly in rep.homomorphism_failures:
        failures.append({"kind": "homomorphism", "x": x, "y": y,
                         "degree": l, "residue": repr(poly)})
    b = rep.buchberger
    for p in b.linear_leadings:
        failures.append({"kind": "linear-leading", "relation": repr(p)})
    status = "verified" if rep.verified else "failed"
    report = {
        "status": status,
        "counts": [rep.relation_count, len(b.added)],
        "failures": failures,
        "levels": {x.name: F.level(x) for x in F.basis},
        "injectivity_certified_to": rep.injectivity_certified_to,
        "stats": {
            "pairs": {"considered": b.pairs_considered, "processed": b.pairs_processed,
                      "skipped_bound": b.pairs_skipped_bound,
                      "skipped_coprime": b.pairs_skipped_coprime, "added": len(b.added)},
            "lookups": {"calls": b.lookups, "memo_hits": b.memo_hits},
        },
    }
    lines = [
        "adapted basis levels: %s"
        % ", ".join("%s:%d" % (x.name, F.level(x)) for x in F.basis),
        "coefficient relations: %d (completion added %d)"
        % (rep.relation_count, len(b.added)),
        rep.notes,
        "status: %s" % status,
    ]
    return (0 if rep.verified else 1), report, lines


_HANDLERS = {
    "reduce": _handle_reduce,
    "complete": _handle_complete,
    "irr": _handle_irr,
    "zmul": _handle_zmul,
    "verify": _handle_verify,
    "embed": _handle_embed,
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, a missing verb and an unknown one list every verb.
    verbs = (argv[0],) if argv and argv[0] in _VERBS else _VERBS
    parser, subparsers = _build_parser(verbs)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.verb == "verify":
            _check_verify_flags(args, subparsers["verify"])
        code, report, lines = _HANDLERS[args.verb](args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    command = args.verb if args.verb != "verify" else "verify %s" % args.target
    full = {"command": command, "parameters": _parameters(args),
            "timings": ({"total_s": round(time.perf_counter() - t0, 3)}
                        if args.timings else None)}
    full.update(report)
    if args.json:
        print(json.dumps(full, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
