"""Reference implementations that only the tests call.

Each enumerates by brute force what the library builds directly: every
word of a length, the instances of a family by matching every word, and
the inclusion compositions of two relations formed one by one.  One
gives a word's sort key as a nested tuple, the form keys had before
they became byte strings.  One computes in ``Fraction`` series what the
library computes in scaled integers: a trial of the Rota-Baxter check.
The tests hold the library's answers against them.
"""

from __future__ import annotations

import random

from precom.embed import TruncSeries, random_series, rb_apply, series_product, splitting_product
from precom.lincomb import _require_monic
from precom.magma import Alphabet, MagmaPoly, NaWord, leaf, node
from precom.rewrite import RelationSchema, occurrences, substitute

_WORDS: dict[tuple[Alphabet, int], tuple[NaWord, ...]] = {}


def words_of_length(alphabet: Alphabet, n: int) -> tuple[NaWord, ...]:
    """All words with exactly n letters, in a fixed enumeration order:
    by the length of the left factor, then by left factor, then by right
    factor."""
    if n < 1:
        raise ValueError("word length must be positive")
    cached = _WORDS.get((alphabet, n))
    if cached is None:
        if n == 1:
            cached = tuple(leaf(x) for x in alphabet)
        else:
            out = []
            for i in range(1, n):
                rights = words_of_length(alphabet, n - i)
                for lw in words_of_length(alphabet, i):
                    for rw in rights:
                        out.append(node(lw, rw))
            cached = tuple(out)
        _WORDS[(alphabet, n)] = cached
    return cached


_NESTED_KEYS: dict[NaWord, tuple] = {}


def nested_key(w: NaWord) -> tuple:
    """The weight-order key as a nested tuple at every length: (1, rank)
    at a leaf, (length, right key, left key) for a compound word.  It
    recurses once per level, so it suits words of at most a few hundred
    letters."""
    key = _NESTED_KEYS.get(w)
    if key is None:
        key = ((1, w.letter.rank) if w.letter is not None
               else (w.length, nested_key(w.right), nested_key(w.left)))
        _NESTED_KEYS[w] = key
    return key


def scan_instances(schema: RelationSchema, bound: int) -> tuple[MagmaPoly, ...]:
    """All instances of a family whose leading monomial has length <=
    bound: the matches of every word up to the bound, by length, in
    :func:`words_of_length` order."""
    if schema.alphabet is None:
        raise ValueError("family cannot enumerate instances without an alphabet")
    out = []
    for n in range(1, bound + 1):
        for w in words_of_length(schema.alphabet, n):
            m = schema.match(w)
            if m is not None:
                out.append(m)
    return tuple(out)


def inclusion_compositions(f: MagmaPoly, g: MagmaPoly) -> list[tuple[NaWord, MagmaPoly]]:
    """All (ambiguity, composition) pairs of the inclusion f - graft of g.

    One entry per occurrence of g's leading monomial inside f's leading
    monomial.  The root occurrence is kept for distinct relations with
    equal leading monomials and skipped when f equals g.
    """
    _require_monic((f, g))
    fl = f.leading()
    gl = g.leading()
    out = []
    for path in occurrences(fl, gl):
        if not path and f == g:
            continue
        out.append((fl, f - substitute(fl, path, g)))
    return out


def rota_baxter_sides(rng: random.Random, max_n: int) -> tuple[TruncSeries, ...]:
    """One trial of ``verify rb`` in ``TruncSeries`` arithmetic: the
    sides R(a)R(b), R(R(a)b + aR(b)) of the Rota-Baxter identity and
    R(a)(R(b)c), R(R(a)b)c + R(R(b)a)c of the pre-commutative one, for a
    truncation N in 2..max_n and three random series, drawn in that
    order."""
    N = rng.randint(2, max_n)
    a, b, c = (random_series(rng, N) for _ in range(3))
    ra, rb = rb_apply(a), rb_apply(b)
    ra_b = series_product(ra, b, N)
    lhs = series_product(ra, rb, N)
    rhs = rb_apply(ra_b + series_product(a, rb, N))
    zl = series_product(ra, series_product(rb, c, N), N)
    zr = (splitting_product(ra_b, c, N)
          + splitting_product(series_product(rb, a, N), c, N))
    return lhs, rhs, zl, zr


def rota_baxter_failures(seed: int, count: int, max_n: int) -> list[tuple[int, str]]:
    """The failures of ``count`` trials from ``random.Random(seed)``, as
    (trial, identity) in trial order."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        lhs, rhs, zl, zr = rota_baxter_sides(rng, max_n)
        if lhs != rhs:
            failures.append((i, "rota-baxter"))
        if zl != zr:
            failures.append((i, "pre-commutative"))
    return failures
