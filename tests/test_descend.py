"""Trace oracle for the shared reducer.

``heap_descend`` is the reducer as it was before its worklist became a
sorted list: a binary heap of wrappers whose ``__lt__`` reverses the key
order, with a monomial pushed again when it returns after cancelling.
:func:`precom.lincomb.descend` must give the same normal form and the same
trace, step for step: the coefficient, the monomial, the step and the very
relation object.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from fractions import Fraction

import pytest

from precom.compoly import ComBasis, ComMonomial, ComPoly, GenSymbol, _times, buchberger_bounded
from precom.embed import FilteredAlgebra
from precom.envelope import trivial_gsb, truncated_power_algebra
from precom.lincomb import descend, exact, integral, memo_descend
from precom.magma import Alphabet, MagmaPoly, _DeepKey, _FLAT_KEY_LENGTH, comb, leaf, node
from precom.rewrite import (
    ExplicitRelation,
    RelationSchema,
    ZinbielFamily,
    _RedexIndex,
    graft,
    normal_form_with_trace,
    substitute,
)
from precom.sexpr import parse_poly, parse_relations

from oracles import coefficient_relations, monic_find, truncated_poly_relations, words_of_length


class _MaxItem:
    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __lt__(self, other):
        return self.m.key > other.m.key


def heap_descend(terms, find, image, trace=None):
    coeffs = dict(terms)
    heap = [_MaxItem(m) for m in coeffs]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = heapq.heappop(heap).m
        c = coeffs.pop(m, None)
        if not c:
            continue
        if type(c) is not int:
            c = exact(c)
        hit = find(m)
        if hit is None:
            out[m] = c
            continue
        step, rel = hit
        if trace is not None:
            trace.append((c, m, step, rel))
        lead = rel.leading()
        for t, q in rel.terms.items():
            if t is lead:
                continue
            nm = image(m, step, t)
            old = coeffs.get(nm)
            if old is None:
                coeffs[nm] = -c * q
                heapq.heappush(heap, _MaxItem(nm))
            else:
                nc = old - c * q
                if nc:
                    coeffs[nm] = nc
                else:
                    del coeffs[nm]
    return out


class Interned(RelationSchema):
    """A family whose match at each word is built once, so that two
    reductions over it are handed the same relation objects."""

    def __init__(self, family):
        super().__init__(family.alphabet)
        self.family = family
        self.seen = {}

    def match(self, word):
        if word not in self.seen:
            self.seen[word] = self.family.match(word)
        return self.seen[word]


def interned(schemas):
    return [s if isinstance(s, ExplicitRelation) else Interned(s) for s in schemas]


def assert_same_run(terms, new_find, old_find, image, met=None):
    """Both reducers on ``terms``; returns the trace once they agree.
    Each step of :func:`descend` meets the very relation object that the
    oracle met, or with ``met``, the object ``met(step, rel)`` for the
    oracle's step and relation."""
    got_trace, want_trace = [], []
    got = descend(terms, new_find, image, got_trace)
    want = heap_descend(terms, old_find, image, want_trace)
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert len(got_trace) == len(want_trace)
    for (c, m, step, rel), (c0, m0, step0, rel0) in zip(got_trace, want_trace):
        assert c == c0 and type(c) is type(c0)
        assert m is m0
        assert step == step0
        assert rel is (rel0 if met is None else met(step0, rel0))
    return got_trace


def assert_same_tree_run(p, schemas):
    """Reduce ``p`` modulo ``schemas`` with both reducers, each through a
    fresh redex index over the same interned schemas."""
    rels = interned(schemas)
    return assert_same_run(p.terms, _RedexIndex(rels).redex, _RedexIndex(rels).redex, graft)


def random_tree_poly(rng, ab, max_len, max_terms):
    pool = [w for n in range(1, max_len + 1) for w in words_of_length(ab, n)]
    return MagmaPoly.from_terms(
        (rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, max_terms)))


def returns_after_cancelling(p, trace):
    """Whether, replaying the trace on p, some monomial's coefficient
    reaches zero after a step and is nonzero again later."""
    current = p
    cancelled = set()
    for c, m, path, rel in trace:
        before = current
        current = current - substitute(m, path, rel).scale(c)
        if cancelled & current.terms.keys():
            return True
        cancelled |= before.terms.keys() - current.terms.keys() - {m}
    return False


class TestTreeTraces:
    def test_trivial_gsb_two_letters(self):
        ab = Alphabet("xy")
        rng = random.Random(18)
        for _ in range(60):
            assert_same_tree_run(random_tree_poly(rng, ab, 6, 4), trivial_gsb(ab))

    def test_trivial_gsb_three_letters(self):
        ab = Alphabet("xyz")
        rng = random.Random(19)
        steps = 0
        for _ in range(40):
            steps += len(assert_same_tree_run(random_tree_poly(rng, ab, 6, 4), trivial_gsb(ab)))
        assert steps > 1000

    def test_truncated_poly_relations(self):
        rng = random.Random(20)
        for n in (2, 3, 4):
            rels = truncated_poly_relations(n)
            for _ in range(30):
                assert_same_tree_run(random_tree_poly(rng, rels[0].alphabet, 5, 3), rels)

    def test_zinbiel_family_alone(self):
        ab = Alphabet("xyz")
        rng = random.Random(21)
        for _ in range(30):
            assert_same_tree_run(random_tree_poly(rng, ab, 6, 3), [ZinbielFamily(ab)])

    def test_deep_keys_compare(self):
        # Terms above _FLAT_KEY_LENGTH letters carry a _DeepKey, so the
        # worklist orders them by its Python comparisons.
        ab = Alphabet("xy")
        x, y = leaf(ab["x"]), leaf(ab["y"])
        rng = random.Random(22)
        n = _FLAT_KEY_LENGTH + 2
        for rels in (trivial_gsb(ab), [ZinbielFamily(ab)]):
            for _ in range(3):
                terms = [(comb(rng.choice(ab.letters) for _ in range(n)), rng.randint(1, 3))
                         for _ in range(3)]
                terms.append((node(rng.choice((x, y)),
                                   comb(rng.choice(ab.letters) for _ in range(n - 1))), 1))
                trace = assert_same_tree_run(MagmaPoly.from_terms(terms), rels)
                assert sum(type(m.key) is _DeepKey for _, m, _, _ in trace) > 1

    def test_cancelled_monomial_returns(self):
        # u1 -> -v - u2 cancels v; then u2 -> v brings it back.
        ab = Alphabet("xyz")
        x, y = leaf(ab["x"]), leaf(ab["y"])
        u1, u2, v = node(y, y), node(x, y), x
        rels = [ExplicitRelation(MagmaPoly.from_terms([(u1, 1), (v, 1), (u2, 1)])),
                ExplicitRelation(MagmaPoly.from_terms([(u2, 1), (v, -1)]))]
        p = MagmaPoly.from_terms([(u1, 1), (v, 1)])
        trace = assert_same_tree_run(p, rels)
        assert returns_after_cancelling(p, trace)
        assert descend(p.terms, _RedexIndex(rels).redex, graft) == {v: -1}

    def test_seeded_runs_cancel_and_return(self):
        # The same event in seeded reductions, not only a built one.
        ab = Alphabet("xyz")
        rng = random.Random(23)
        seen = 0
        for _ in range(40):
            p = random_tree_poly(rng, ab, 6, 4)
            seen += returns_after_cancelling(p, assert_same_tree_run(p, trivial_gsb(ab)))
        assert seen


class TestComTraces:
    def test_seeded_com_reductions(self):
        A = truncated_power_algebra(3)
        ab = A.alphabet
        F = FilteredAlgebra(A, {ab["x%d" % i]: i for i in (1, 2, 3)})
        rng = random.Random(24)
        pool = [F.symbol(ab["x%d" % i], w) for i in (1, 2, 3) for w in range(i, 7)]
        G = coefficient_relations(F, 6)
        basis, _ = buchberger_bounded(G, 6)
        steps = scaled = 0
        for rels in (G, basis):
            index = ComBasis(rels)
            for _ in range(60):
                p = ComPoly.from_terms(
                    (ComMonomial(rng.choice(pool) for _ in range(rng.randint(1, 5))),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4)))
                trace = assert_same_run(p.terms, index.find, monic_find(index), _times,
                                        copy_met(index))
                steps += len(trace)
                scaled += sum(rel.leading_coeff() != 1 for _, _, _, rel in trace)
        assert steps > 100 and scaled > 10


def copy_met(basis):
    """For :func:`assert_same_run`: where the oracle met the monic
    relation at a position, :func:`descend` meets its integer copy, the
    monic relation times its least common denominator."""
    def met(step, rel):
        pos = step[1]
        assert rel is basis._relations[pos]
        d, terms = integral(rel.terms)
        copy = basis._copies[pos]
        assert copy is rel if d == 1 else copy.terms == terms
        return copy
    return met


X1, X2, X3, X4 = (GenSymbol("x", 1, w, 0) for w in (1, 2, 3, 4))


def com(*terms):
    """A ``ComPoly`` from (coefficient, symbols...) tuples."""
    return ComPoly.from_terms((ComMonomial(t[1:]), t[0]) for t in terms)


def assert_same_com_run(p, relations):
    """Reduce p by the integer copies of the monic ``relations`` and, in
    the oracle, by the relations themselves: the same terms, types and
    trace.  Returns the result and the trace."""
    basis = ComBasis(relations)
    trace = assert_same_run(p.terms, basis.find, monic_find(basis), _times, copy_met(basis))
    got = descend(p.terms, basis.find, _times)
    for c in [*got.values(), *(step[0] for step in trace)]:
        assert type(c) in (int, Fraction)
    return got, trace


class TestPseudoDivision:
    # Leading coefficients of the integer copies: 2 for r1 (2 x1x1 - x2)
    # and 3 for r2 (3 x2 - x1).
    r1 = com((1, X1, X1), (Fraction(-1, 2), X2))
    r2 = com((1, X2), (Fraction(-1, 3), X1))

    def test_copies_are_not_monic(self):
        basis = ComBasis([self.r1, self.r2])
        assert [basis.find(g.leading())[1].leading_coeff() for g in basis] == [2, 3]

    def test_accumulated_scale(self):
        # x1x1 -> x2/2 -> x1/6: scale 2, then 6; the irreducible x4^3,
        # output before either, is scaled with the pending terms and
        # divided back to the int 1.
        p = com((1, X1, X1), (1, X4, X4, X4))
        got, trace = assert_same_com_run(p, [self.r1, self.r2])
        assert got == {ComMonomial((X4, X4, X4)): 1, ComMonomial((X1,)): Fraction(1, 6)}
        assert type(got[ComMonomial((X4, X4, X4))]) is int
        assert [c for c, _, _, _ in trace] == [1, Fraction(1, 2)]

    def test_gcd_shortcut(self):
        # 6 x1x1: gcd(2, 6) = 2 takes no scale, 3 x2 then gcd(3, 3) = 3.
        got, trace = assert_same_com_run(com((6, X1, X1)), [self.r1, self.r2])
        assert got == {ComMonomial((X1,)): 1} and type(got[ComMonomial((X1,))]) is int
        assert [c for c, _, _, _ in trace] == [6, 3]

    def test_negative_and_fraction_inputs(self):
        for p in (com((-3, X1, X1), (5, X2)),
                  com((Fraction(-5, 7), X1, X1), (2, X3, X1)),
                  com((Fraction(4, 9), X1, X1, X2), (-1, X1, X1), (Fraction(1, 2), X2))):
            got, _ = assert_same_com_run(p, [self.r1, self.r2])
            assert got

    def test_seeded_relations(self):
        # Tails with denominators 1..6, so the copies' leading
        # coefficients and their gcds with the pending ones vary.
        rng = random.Random(25)
        pool = [X1, X2, X3, X4]
        every = sorted({ComMonomial(rng.choice(pool) for _ in range(rng.randint(1, 3)))
                        for _ in range(200)}, key=lambda m: m.key)
        scaled = steps = 0
        for _ in range(40):
            relations = []
            for lead in rng.sample(every[4:], 4):
                below = [m for m in every if m.key < lead.key]
                relations.append(ComPoly.from_terms(
                    [(lead, 1)] + [(rng.choice(below), Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                                   for _ in range(rng.randint(1, 3))]))
            for _ in range(5):
                p = ComPoly.from_terms(
                    (rng.choice(every), rng.choice((rng.randint(-6, 6),
                                                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)))))
                    for _ in range(rng.randint(1, 4)))
                _, trace = assert_same_com_run(p, relations)
                steps += len(trace)
                scaled += sum(rel.leading_coeff() != 1 for _, _, _, rel in trace)
        assert scaled > 100 and steps > scaled


# Length-10 tree polynomials over x < y < z with four terms, in the shape
# of perfbench's ``reduce`` jobs, reduced modulo the trivial envelope:
# (input, steps, SHA-256 of the printed normal form, SHA-256 of the
# printed trace).  Computed when word keys were nested tuples, so a
# change of key representation must leave every rewrite in place.
_PINNED_REDUCE = [
    ("(+ (* 1/2 ((y (((z y) x) (y z))) (x ((z y) y)))) (* -2 (((z (y z)) (y z)) "
     "(((z z) z) (y y)))) (* -1/2 ((((z y) (y z)) (z x)) (y ((z x) z)))) "
     "(* -1/2 ((y (((x z) (x z)) z)) ((y z) (z y)))))", 5459,
     "041ab7359b8510b369a134079ecd9c978a2d2f2906ed5d1b6064a29365c6afda",
     "c3a890a09b5f3febcd993fa1ff25ed7566ab48464cc034657f6e9e3ce2973a44"),
    ("(+ (* -1 ((((x y) (x x)) ((y x) y)) (y (x y)))) (* -2 (x ((((x z) (z y)) "
     "(z x)) ((x z) y)))) (* 1/2 ((x (z (((x y) x) y))) ((z z) (z x)))) "
     "(* 2 ((((z x) y) x) ((y y) ((z z) (y y))))))", 5517,
     "5e72aaf1f25b183f9361a88b758e82546e746d53c5b329c32f15007eda4dcfa4",
     "e7ee1b45eae4c7878e5d1d6806b51199f67edff2035db59d0730e92747eecc47"),
    ("(+ (* -1/2 (((x y) y) (((y x) (x y)) ((z x) x)))) (* -1 (((y ((y y) (y y))) "
     "(y (y y))) (z x))) (* 1 ((((x y) (z (z (y y)))) y) (x (z z)))) "
     "(* 3/2 ((y y) ((((x z) (z z)) (x z)) (x y)))))", 7483,
     "42325d2980891b3f98d6324eaca42c34c11c3c843dc87d76af5f140fb955aadf",
     "6c9f4e240f71c4e8ad3cc2db3e56bbb0bc63c6c47b9eee3a2a7c58ad2785e3f0"),
    ("(+ (* 1/2 ((z ((y ((y z) z)) x)) ((z y) (x y)))) (* 2 ((((y (y x)) y) "
     "(z (y (z z)))) (x x))) (* -2 ((((y z) z) (x (x x))) ((y (x z)) x))) "
     "(* 3/2 ((x ((y y) (y y))) (((x z) (z x)) y))))", 6819,
     "42c376337a6b4489ffbf205a532bbdf063957ea1961e0a4d01fc9f080d609bb1",
     "c2ea30fd517cd93b71d88712095be2e5309e19a96049e6887290db8e26598564"),
]


class TestPinnedReduce:
    @pytest.mark.parametrize("text, steps, result_sha, trace_sha", _PINNED_REDUCE,
                             ids=["05", "15", "27", "29"])
    def test_trivial_envelope(self, text, steps, result_sha, trace_sha):
        ab, rels = parse_relations("(alphabet x y z)\n(family trivial-envelope)\n")
        nf, trace = normal_form_with_trace(parse_poly(text, ab), rels)
        assert len(trace) == steps
        assert hashlib.sha256(repr(nf).encode()).hexdigest() == result_sha
        h = hashlib.sha256()
        for coeff, word, path, relation in trace:
            h.update(("%s %r %s %r\n" % (coeff, word, path, relation)).encode())
        assert h.hexdigest() == trace_sha


class TestDescentCheck:
    # A hand-built find answers (x y) with a relation whose tail holds the
    # larger irreducible word (x (x y)): grafted at the root, the rewrite
    # climbs the order.  Unchecked, both reducers would return that word
    # as a "normal form".
    def test_a_rewrite_that_climbs_raises(self, ab2):
        x, y = (leaf(a) for a in ab2)
        m, big = node(x, y), node(x, node(x, y))
        rel = MagmaPoly.from_terms([(node(m, m), 1), (big, 1)])
        assert rel.leading() is node(m, m) and big.key > m.key

        def find(w):
            return ((), rel) if w is m else None

        for reduce in (lambda: descend({m: 1}, find, graft),
                       lambda: memo_descend({m: 1}, find, graft, {})):
            with pytest.raises(RuntimeError, match="does not descend") as err:
                reduce()
            assert not isinstance(err.value, ValueError)
            assert "%r becomes %r" % (m, big) in str(err.value)
