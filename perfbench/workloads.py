"""Seeded job lists for the four workloads, and the checks on their answers.

A workload is a list of ``precom`` CLI jobs.  Its skeleton (which verbs,
at which sizes) is fixed.  More than half of each list is the same in
every run: the slowest jobs and a band of mid-size ones that holds both
the median and the tail rank, so that ``verdict_s_p50`` and
``verdict_s_tail`` do not depend on the seed.  The seed chooses the
contents of the rest: the tree polynomials given to
``reduce``, the structure constants of the algebras given to
``complete``, ``collapse`` and ``embed``, the words given to ``zmul`` and
the ``--seed`` of ``verify perm`` and ``verify rb``.

No expected answer comes from ``precom``.  Each job is checked against a
closed form, an invariant, an independent computation written here, or a
count pinned at the commit that defined the benchmark (``PINNED_*`` below,
and ``pinned.json`` for every job whose inputs equal one of seed 1).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

NAMES = ("confluence", "completion", "perm-tensor", "embedding")

# Ambiguities checked by verify_gsb, keyed by (target, letters, bound).
PINNED_AMBIGUITIES = {
    ("trivial-envelope", 2, 6): 5567,
    ("trivial-envelope", 3, 5): 4482,
    ("zinbiel", 2, 5): 240,
    ("zinbiel", 2, 6): 2480,
}
# Relations returned by ``complete --interreduce`` for the trivial algebra,
# keyed by (letters, bound).  The trivial algebra has no seeded content.
PINNED_TRIVIAL_RELATIONS = {(2, 4): 7, (2, 5): 7, (2, 6): 10, (3, 4): 25}

# Typical time from spawning a job's interpreter to ``import precom`` done,
# plus its exit.
START_S = 0.12

_COEFFS = tuple(Fraction(c) for c in ("-2", "-1", "1", "2", "1/2", "-1/2", "3/2"))


@dataclass
class Job:
    id: str
    kind: str                 # selects the check in ``check``
    argv: list
    nominal_s: float          # typical verdict time on a 2-core x86-64 box
    files: dict = field(default_factory=dict)   # name -> text, in the job's cwd
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed forms

def trivial_dims(d: int, bound: int) -> list:
    """Irreducible counts of the trivial algebra's envelope on d letters."""
    return [math.comb(d, 2) ** (n // 2) * d ** (n % 2) for n in range(1, bound + 1)]


def odd_even_products(d: int, m_max: int, k_max: int) -> int:
    """Products a*b swept by ``verify odd-even``: combs of odd length times
    combs of even length."""
    return (sum(d ** m for m in range(1, m_max + 1, 2))
            * sum(d ** k for k in range(2, k_max + 1, 2)))


def relation_count(levels: list, N: int) -> int:
    """Coefficient relations of ``embed``: one per basis pair x <= y and
    weight l with level(x) + level(y) <= l <= N."""
    return sum(max(0, N - a - b + 1)
               for i, a in enumerate(levels) for b in levels[i:])


def trivial_basis_word(word) -> bool:
    """Whether a parsed tree word is in the closed-form basis of the trivial
    envelope on x < y < z: a left comb whose letters strictly descend in
    each adjacent pair (1,2), (3,4), ..."""
    letters = []
    while isinstance(word, tuple):
        left, right = word
        if isinstance(right, tuple):
            return False
        letters.append(right)
        word = left
    letters.append(word)
    letters.reverse()
    return all(letters[i] > letters[i + 1] for i in range(0, len(letters) - 1, 2))


@lru_cache(maxsize=None)
def _shuffles(a: tuple, b: tuple) -> Counter:
    if not a or not b:
        return Counter({a + b: 1})
    out = Counter()
    for w, c in _shuffles(a[1:], b).items():
        out[a[:1] + w] += c
    for w, c in _shuffles(a, b[1:]).items():
        out[b[:1] + w] += c
    return out


def half_shuffle(u: tuple, v: tuple) -> Counter:
    """The pre-commutative product of two words: shuffle u into v without
    its last letter, then append that letter."""
    return Counter({w + v[-1:]: c for w, c in _shuffles(u, v[:-1]).items()})


# ---------------------------------------------------------------------------
# Reading CLI output

def _read_sexp(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def form():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        items = []
        while tokens[pos] != ")":
            items.append(form())
        pos += 1
        return items

    out = form()
    if pos != len(tokens):
        raise ValueError("trailing text in %r" % text)
    return out


def _word(form):
    if isinstance(form, str):
        return form
    left, right = form
    return (_word(left), _word(right))


def read_terms(text: str, word=_word) -> dict:
    """A CLI polynomial ``0 | term | (+ term ...)`` as {word: Fraction}."""
    form = _read_sexp(text)
    if form == "0":
        return {}
    terms = form[1:] if isinstance(form, list) and form[:1] == ["+"] else [form]
    out = {}
    for t in terms:
        if isinstance(t, list) and t[:1] == ["*"]:
            out[word(t[2])] = Fraction(t[1])
        else:
            out[word(t)] = Fraction(1)
    return out


def _length(word) -> int:
    return 1 if isinstance(word, str) else _length(word[0]) + _length(word[1])


def _dotted(form):
    return tuple(form.split("."))


# ---------------------------------------------------------------------------
# Seeded inputs

def _coeff(rng) -> Fraction:
    return rng.choice(_COEFFS)


def nilpotent_algebra(rng, shape: str) -> dict:
    """A 3-dimensional nilpotent commutative associative algebra on
    b1 < b2 < b3, as {(x, y): {z: c}} with x <= y.  Shape "flat": every
    product lands on b3, which annihilates.  Shape "chain": b1 b1 = a b2,
    b1 b2 = c b3, all other products zero."""
    if shape == "flat":
        prods = {("b1", "b1"): {"b3": _coeff(rng)}, ("b1", "b2"): {"b3": _coeff(rng)}}
        if rng.random() < 0.5:
            prods[("b2", "b2")] = {"b3": _coeff(rng)}
    else:
        prods = {("b1", "b1"): {"b2": _coeff(rng)}, ("b1", "b2"): {"b3": _coeff(rng)}}
    return {"basis": ["b1", "b2", "b3"], "products": prods,
            "levels": {"flat": [1, 1, 2], "chain": [1, 2, 3]}[shape]}


def _nilpotent2(rng) -> dict:
    """The 2-dimensional nilpotent algebra b1 b1 = c b2."""
    return {"basis": ["b1", "b2"], "products": {("b1", "b1"): {"b2": _coeff(rng)}},
            "levels": [1, 2]}


def truncated_power(n: int) -> dict:
    names = ["x%d" % i for i in range(1, n + 1)]
    prods = {(names[i - 1], names[j - 1]): {names[i + j - 1]: Fraction(1)}
             for i in range(1, n + 1) for j in range(i, n + 1) if i + j <= n}
    return {"basis": names, "products": prods, "levels": list(range(1, n + 1))}


def small_algebra(kind: str, d: int) -> dict:
    """Trivial (all products zero) or idempotent (e_i e_i = e_i, e_i e_j = 0)
    on d letters x < y < z."""
    names = list("xyz"[:d])
    prods = {} if kind == "trivial" else {(x, x): {x: Fraction(1)} for x in names}
    return {"basis": names, "products": prods}


def _product(alg: dict, x: str, y: str) -> dict:
    key = (x, y) if alg["basis"].index(x) <= alg["basis"].index(y) else (y, x)
    return alg["products"].get(key, {})


def _times(alg: dict, vec: dict, y: str) -> dict:
    out: dict = {}
    for x, a in vec.items():
        for z, c in _product(alg, x, y).items():
            out[z] = out.get(z, 0) + a * c
    return {z: c for z, c in out.items() if c}


def check_associative(alg: dict) -> None:
    """Raise unless (xy)z = x(yz) on every basis triple."""
    basis = alg["basis"]
    for x in basis:
        for y in basis:
            for z in basis:
                left = _times(alg, _product(alg, x, y), z)
                right = _times(alg, _product(alg, y, z), x)   # commutative
                if left != right:
                    raise ValueError("generated algebra is not associative at "
                                     "(%s %s) %s" % (x, y, z))


def algebra_json(alg: dict) -> str:
    check_associative(alg)
    entries = ["%s %s -> %s" % (x, y, " + ".join("%s %s" % (c, z)
                                                for z, c in combo.items()))
               for (x, y), combo in alg["products"].items()]
    return json.dumps({"basis": alg["basis"], "products": entries})


def enveloping_relations(alg: dict) -> str:
    """The relation file of the algebra's envelope: the tree family, and
    xy + yx - x*y for x < y, 2xx - x*x on the diagonal."""
    check_associative(alg)
    basis = alg["basis"]
    lines = ["(alphabet %s)" % " ".join(basis), "(family zinbiel)"]
    for i, x in enumerate(basis):
        for y in basis[i:]:
            if x == y:
                lead = ["(* 2 (%s %s))" % (x, x)]
            else:
                lead = ["(%s %s)" % (x, y), "(%s %s)" % (y, x)]
            tail = ["(* %s %s)" % (-c, z) for z, c in _product(alg, x, y).items()]
            lines.append("(rel (+ %s))" % " ".join(lead + tail))
    return "\n".join(lines) + "\n"


def _family_file(letters: str) -> dict:
    return {"te%d.sexp" % len(letters):
            "(alphabet %s)\n(family trivial-envelope)\n" % " ".join(letters)}


def _verify(tag, target, nominal, expect, name=None, **flags):
    """A ``verify`` job; the argv and the default id follow the flags' order."""
    argv = ["verify", target]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-")] + ([] if value is True else [str(value)])
    if name is None:
        name = "-".join([target] + [str(v) for v in flags.values() if v is not True])
        if target == "trivial-envelope" and "no_completion" not in flags:
            name += "-completion"
    key = (target, flags.get("letters"), flags.get("bound"))
    if key in PINNED_AMBIGUITIES:
        expect = dict(expect, ambiguities=PINNED_AMBIGUITIES[key])
    return Job(tag + name, "verify", argv, nominal, expect=expect)


def _irr(tag, letters, bound, nominal, words=False):
    files = _family_file(letters)
    return Job("%sirr-%d-%d%s" % (tag, len(letters), bound, "-words" if words else ""),
               "irr", ["irr", "--relations", next(iter(files)), "--bound", str(bound)]
               + (["--words"] if words else []),
               nominal, files, {"counts": trivial_dims(len(letters), bound)})


# Tree shapes are drawn uniformly, keeping those whose Zinbiel expansion
# size (the number of left-comb terms, with multiplicity, that rewriting
# the bare tree produces) lies between the 40th and 60th percentile for
# their length: the seed changes the rewriting, not its amount.
_EXPANSION_BAND = {8: (168, 280), 9: (672, 1120), 10: (3024, 5040)}


def _banded_tree(rng, n: int) -> str:
    lo, hi = _EXPANSION_BAND[n]
    while True:
        text, size = _tree(rng, n)
        if lo <= size <= hi:
            return text


def _tree(rng, n: int):
    """A uniform random split tree on x, y, z and its expansion size."""
    if n == 1:
        return rng.choice("xyz"), 1
    k = rng.randint(1, n - 1)
    (left, a), (right, b) = _tree(rng, k), _tree(rng, n - k)
    return "(%s %s)" % (left, right), a * b * math.comb(n - 1, k)


def tree_poly(rng, length: int, terms: int) -> str:
    return "(+ %s)" % " ".join("(* %s %s)" % (_coeff(rng), _banded_tree(rng, length))
                               for _ in range(terms))


def _reduce_job(tag, name, rng, length, terms, nominal):
    files = _family_file("xyz")
    return Job(tag + name, "reduce",
               ["reduce", "--relations", next(iter(files)),
                "--input", tree_poly(rng, length, terms)],
               nominal, files, {"length": length})


def confluence(rng, fixed, tag: str) -> list:
    """Read-side rewriting: fixed relation sets, never completed."""
    te, zinb, odd = "trivial-envelope", "zinbiel", "odd-even"
    jobs = [
        _verify(tag, te, 2.4, {"counts": trivial_dims(2, 6)}, letters=2, bound=6,
                no_completion=True),
        _verify(tag, te, 1.3, {"counts": trivial_dims(3, 5)}, letters=3, bound=5,
                no_completion=True),
        _verify(tag, zinb, 1.0, {"counts": [2 ** n for n in range(1, 7)]},
                letters=2, bound=6),
        _irr(tag, "xyz", 7, 3.3),
        # the band that holds the tail rank and the median
        _verify(tag, odd, 0.7, {"counts": [odd_even_products(2, 5, 4)]},
                letters=2, m_max=5, k_max=4),
        _irr(tag, "xyz", 6, 0.65, words=True),
        _verify(tag, zinb, 0.5, {"counts": [3 ** n for n in range(1, 6)]},
                letters=3, bound=5),
        _irr(tag, "xyz", 6, 0.3),
        _verify(tag, odd, 0.32, {"counts": [odd_even_products(3, 5, 2)]},
                letters=3, m_max=5, k_max=2),
    ]
    jobs += [_reduce_job(tag, "reduce-fixed-%02d" % i, fixed, 10, 4, 0.3) for i in range(14)]
    jobs += [
        _verify(tag, te, 0.17, {"counts": trivial_dims(2, 5)}, letters=2, bound=5,
                no_completion=True),
        _verify(tag, zinb, 0.05, {"counts": [2 ** n for n in range(1, 6)]},
                letters=2, bound=5),
        _irr(tag, "xy", 7, 0.2),
    ]
    for i, (length, terms) in enumerate(((8, 6), (9, 4), (10, 1)) * 4):
        jobs.append(_reduce_job(tag, "reduce-%02d" % i, rng, length, terms, 0.06))
    return jobs


def _complete_job(tag, name, alg, bound, nominal, expect):
    fname = tag + name + ".sexp"
    return Job(tag + name, "complete",
               ["complete", "--relations", fname, "--bound", str(bound), "--interreduce"],
               nominal, {fname: enveloping_relations(alg)}, expect)


def _collapse_job(tag, name, alg, bound, nominal):
    fname = tag + name + ".json"
    return Job(tag + name, "verify",
               ["verify", "collapse", "--algebra", fname, "--bound", str(bound)],
               nominal, {fname: algebra_json(alg)}, {"dim": len(alg["basis"])})


def completion(rng, fixed, tag: str) -> list:
    """Write-side rewriting: ``complete`` adds relations as it goes."""
    def trivial(d, bound, nominal):
        return _complete_job(tag, "trivial-%d-%d" % (d, bound), small_algebra("trivial", d),
                             bound, nominal, {"counts": trivial_dims(d, bound),
                                              "relations": PINNED_TRIVIAL_RELATIONS[(d, bound)]})

    def idempotent(d, bound, nominal):
        return _complete_job(tag, "idempotent-%d-%d" % (d, bound),
                             small_algebra("idempotent", d), bound, nominal,
                             {"counts": [0] * bound, "relations": 1 + d})

    jobs = [
        trivial(2, 6, 5.0),
        _complete_job(tag, "nilpotent-5", nilpotent_algebra(rng, "flat"), 5, 2.4, {"dim": 3}),
        _collapse_job(tag, "collapse-5", nilpotent_algebra(rng, "chain"), 5, 2.6),
        # the band that holds the tail rank and the median
        idempotent(2, 5, 0.7),
        trivial(2, 5, 0.33),
    ]
    for i in range(8):
        jobs.append(_complete_job(tag, "nilpotent2-fixed-%d" % i, _nilpotent2(fixed), 5,
                                  0.45, {"dim": 2}))
        jobs.append(_collapse_job(tag, "collapse2-fixed-%d" % i, _nilpotent2(fixed), 5, 0.45))
    jobs += [trivial(3, 4, 0.15), trivial(2, 4, 0.05), idempotent(1, 6, 0.1),
             idempotent(2, 4, 0.03), idempotent(1, 5, 0.01)]
    for i in range(3):
        jobs.append(_complete_job(tag, "nilpotent-%d-4" % i, nilpotent_algebra(rng, "flat"),
                                  4, 0.18, {"dim": 3}))
        jobs.append(_collapse_job(tag, "collapse-%d-4" % i, nilpotent_algebra(rng, "chain"),
                                  4, 0.15))
    return jobs


def perm_tensor(rng, fixed, tag: str) -> list:
    """The half-shuffle layer alone: Perm-tensor law checks and products of
    seeded words, checked against an independent half-shuffle."""
    jobs = [_verify(tag, "perm", 0.36, {"counts": [8 * 8]}, name="perm-fixed-%02d" % i,
                    dim=2, triples=8, max_degree=3, seed=fixed.randrange(10 ** 6))
            for i in range(40)]
    for i, (dim, triples, degree) in enumerate(((2, 4, 2), (3, 1, 2)) * 4):
        jobs.append(_verify(tag, "perm", 0.03, {"counts": [triples * dim ** 3]},
                            name="perm-%02d" % i, dim=dim, triples=triples,
                            max_degree=degree, seed=rng.randrange(10 ** 6)))
    for i in range(16):
        u = tuple(rng.choice("xy") for _ in range(rng.randint(4, 7)))
        v = tuple(rng.choice("xy") for _ in range(rng.randint(4, 7)))
        star = i % 2 == 1
        want = half_shuffle(u, v) + (half_shuffle(v, u) if star else Counter())
        jobs.append(Job("%szmul-%02d" % (tag, i), "zmul",
                        ["zmul", "--left", ".".join(u), "--right", ".".join(v)]
                        + (["--star"] if star else []), 0.01,
                        expect={"result": {w: Fraction(c) for w, c in want.items()}}))
    return jobs


def _embed_job(tag, name, alg, N, nominal):
    fname = tag + name + ".json"
    return Job(tag + name, "embed", ["embed", "--algebra", fname, "--N", str(N)], nominal,
               {fname: algebra_json(alg)},
               {"N": N, "levels": dict(zip(alg["basis"], alg["levels"])),
                "relations": relation_count(alg["levels"], N)})


def embedding(rng, fixed, tag: str) -> list:
    """Commutative Buchberger completion and series products."""
    jobs = []
    for n, N, nominal in ((3, 8, 0.2), (3, 9, 0.4), (3, 10, 0.8), (3, 12, 2.1),
                          (4, 8, 0.3), (4, 9, 0.7), (4, 10, 1.5)):
        jobs.append(_embed_job(tag, "embed-power%d-%d" % (n, N), truncated_power(n), N,
                               nominal))
    for shape, N, nominal in (("flat", 8, 0.3), ("flat", 9, 0.6), ("flat", 10, 1.1),
                              ("chain", 8, 0.3), ("chain", 10, 0.9)):
        jobs.append(_embed_job(tag, "embed-%s-fixed-%d" % (shape, N),
                               nilpotent_algebra(fixed, shape), N, nominal))
    jobs += [_verify(tag, "rb", 0.3, {"counts": [300]}, name="rb-fixed-%02d" % i,
                     count=300, max_n=8, seed=fixed.randrange(10 ** 6)) for i in range(16)]
    for shape, N, nominal in (("flat", 10, 1.1), ("chain", 11, 1.4)):
        jobs.append(_embed_job(tag, "embed-%s-%d" % (shape, N),
                               nilpotent_algebra(rng, shape), N, nominal))
    for i in range(10):
        jobs.append(_verify(tag, "rb", 0.05, {"counts": [60]}, name="rb-%02d" % i,
                            count=60, max_n=8, seed=rng.randrange(10 ** 6)))
    return jobs


_SKELETONS = {"confluence": confluence, "completion": completion,
             "perm-tensor": perm_tensor, "embedding": embedding}


def plan(workload: str, seed: int, seconds: float) -> list:
    """The job list: as many rounds of the workload's skeleton as fill the
    given seconds at nominal cost (at least one).  Round r draws its seeded
    contents from a generator seeded by (workload, seed, r) and its fixed
    contents, the same in every run, from one seeded by (workload, r); so
    the list depends only on the seed and the seconds."""
    build = _SKELETONS[workload]

    def round_jobs(r):
        return build(random.Random("%s/%d/%d" % (workload, seed, r)),
                     random.Random("%s/fixed/%d" % (workload, r)), "r%d." % r)

    first = round_jobs(0)
    rounds = max(1, round(seconds / sum(j.nominal_s + START_S for j in first)))
    return first + [j for r in range(1, rounds) for j in round_jobs(r)]


# ---------------------------------------------------------------------------
# Checks

def digest(job: Job) -> str:
    """A key for the job's inputs: jobs with equal inputs, from any seed,
    share a pinned answer."""
    text = json.dumps([job.argv, sorted(job.files.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def answer(report: dict) -> str:
    """A digest of the part of a JSON report that a pinned answer compares."""
    keys = ("status", "counts", "result", "relation_count", "relations_file",
            "injectivity_certified_to", "levels", "words", "steps")
    text = json.dumps({k: report[k] for k in keys if k in report}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def check(job: Job, code, report, ambiguities) -> list:
    """Problems with one job's result; empty when the answer is right."""
    if report is None:
        return ["no JSON report (exit code %s)" % (code,)]
    want_status = "ok" if job.kind in ("reduce", "complete", "irr", "zmul") else "verified"
    bad = []
    if code != 0:
        bad.append("exit code %s" % (code,))
    if report.get("status") != want_status or report.get("failures"):
        bad.append("status %r, failures %.300r" % (report.get("status"),
                                                   report.get("failures")))
    e = job.expect
    if "counts" in e and report.get("counts") != e["counts"]:
        bad.append("counts %r, expected %r" % (report.get("counts"), e["counts"]))
    if "ambiguities" in e and ambiguities != e["ambiguities"]:
        bad.append("ambiguities %r, expected %r" % (ambiguities, e["ambiguities"]))
    if "dim" in e and report.get("counts", [None])[0] != e["dim"]:
        bad.append("length-1 count %r, expected %d" % (report.get("counts"), e["dim"]))
    if job.kind == "reduce":
        try:
            terms = read_terms(report["result"])
        except (KeyError, IndexError, ValueError) as err:
            return bad + ["unreadable result: %s" % err]
        for w in terms:
            if _length(w) != e["length"]:
                bad.append("normal form word %r has the wrong length" % (w,))
            elif not trivial_basis_word(w):
                bad.append("normal form word %r is not in the basis" % (w,))
    elif job.kind == "complete":
        text = report.get("relations_file", "")
        if report.get("relation_count") != len(text.splitlines()) - 1:
            bad.append("relation_count %r disagrees with the relations file"
                       % report.get("relation_count"))
        if "relations" in e and report.get("relation_count") != e["relations"]:
            bad.append("relation_count %r, expected %r"
                       % (report.get("relation_count"), e["relations"]))
    elif job.kind == "irr" and "--words" in job.argv:
        table = report.get("words", {})
        if [len(table.get(str(n), ())) for n in range(1, len(e["counts"]) + 1)] != e["counts"]:
            bad.append("word lists do not match the counts")
        for n, words in table.items():
            for w in map(_word, map(_read_sexp, words)):
                if _length(w) != int(n) or not trivial_basis_word(w):
                    bad.append("irreducible word %r is not in the basis" % (w,))
    elif job.kind == "zmul":
        try:
            got = read_terms(report["result"], _dotted)
        except (KeyError, IndexError, ValueError) as err:
            return bad + ["unreadable result: %s" % err]
        if got != e["result"]:
            bad.append("product differs from the half-shuffle computed independently")
    elif job.kind == "embed":
        if report.get("injectivity_certified_to") != e["N"]:
            bad.append("injectivity certified to %r, expected %d"
                       % (report.get("injectivity_certified_to"), e["N"]))
        if report.get("levels") != e["levels"]:
            bad.append("levels %r, expected %r" % (report.get("levels"), e["levels"]))
        if report.get("counts", [None])[0] != e["relations"]:
            bad.append("relation count %r, expected %d" % (report.get("counts"), e["relations"]))
    return bad
