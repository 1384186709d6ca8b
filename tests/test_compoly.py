from __future__ import annotations

import hashlib
import inspect
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from precom import compoly
from precom.compoly import (
    ComBasis,
    ComMonomial,
    ComPoly,
    GenSymbol,
    buchberger_bounded,
    com_reduce,
)
from precom.embed import FilteredAlgebra, pair_relation, standard_filtration
from precom.envelope import trivial_algebra, truncated_power_algebra
from precom.lincomb import descend, integral

from oracles import (buchberger_reference, coefficient_relations, com_product,
                     com_reduce_with_trace, mul_monomial, random_nilpotent_algebra, s_polynomial,
                     unresolved_pairs)

X1 = GenSymbol("x", 1, 1, 0)
X2 = GenSymbol("x", 1, 2, 0)
X3 = GenSymbol("x", 1, 3, 0)
X4 = GenSymbol("x", 1, 4, 0)
Y2 = GenSymbol("y", 2, 2, 1)
Y3 = GenSymbol("y", 2, 3, 1)


def mono(*syms):
    return ComMonomial(syms)


def poly(*pairs):
    return ComPoly.from_terms(pairs)


def monomials_up_to(pool, max_weight):
    out = [()]

    def rec(start, left, cur):
        for idx in range(start, len(pool)):
            s = pool[idx]
            if s.weight <= left:
                out.append(cur + (s,))
                rec(idx, left - s.weight, cur + (s,))

    rec(0, max_weight, ())
    return [ComMonomial(t) for t in out]


class TestGenSymbol:
    def test_validation(self):
        with pytest.raises(ValueError, match="level must be positive"):
            GenSymbol("x", 0, 1, 0)
        with pytest.raises(ValueError, match="weight must be at least its level"):
            GenSymbol("y", 2, 1, 0)

    def test_ordering(self):
        # X2 and Y2 weigh the same: the lower level comes first.
        assert X1.key < X2.key < Y2.key < X3.key
        assert Y2.key < Y3.key

    def test_str(self):
        assert str(X3) == "x[3]"
        assert str(Y2) == "y[2]"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            X1.weight = 5

    def test_cached_key_and_hash(self):
        a, b = GenSymbol("y", 2, 3, 1), GenSymbol("y", 2, 3, 1)
        assert a is b
        assert a == b and hash(a) == hash(b)
        assert a.key == (3, 2, 1, "y")
        assert a != GenSymbol("y", 2, 3, 0) and a != GenSymbol("z", 2, 3, 1)
        assert len({a, b, Y3}) == 1
        with pytest.raises(AttributeError):
            a.key = (0, 0, 0, "")
        assert repr(a) == "GenSymbol(base='y', level=2, weight=3, rank=1)"


class TestComMonomial:
    def test_factors_sorted(self):
        assert mono(X3, X1, X2).factors == (X1, X2, X3)
        assert mono(Y2, X2).factors == (X2, Y2)

    def test_count_and_weight(self):
        m = mono(X1, X2, Y3)
        assert m.count == 3
        assert m.weight == 6
        assert mono().count == 0 and mono().weight == 0

    def test_mul(self):
        assert mono(X1) * mono(X2, X1) == mono(X1, X1, X2)
        assert mono() * mono(Y2) == mono(Y2)

    def test_divides(self):
        assert mono(X1).divides(mono(X1, X2))
        assert mono(X1, X1).divides(mono(X1, X1, Y2))
        assert not mono(X1, X1).divides(mono(X1, X2))
        assert mono().divides(mono(X1))

    def test_div(self):
        # The one quotient: m / lead is lead.cofactor(m) once lead divides m.
        assert mono(X1, X2).cofactor(mono(X1, X1, X2)) == mono(X1)
        assert mono(X1).cofactor(mono(X1)) == mono()
        assert not hasattr(ComMonomial, "div")

    def test_hashable(self):
        assert len({mono(X1, X2), mono(X2, X1), mono(X1)}) == 2

    def test_repr(self):
        assert repr(mono()) == "1"
        assert repr(mono(X2, X1)) == "x[1]*x[2]"


def counter_divides(a, b):
    return not (Counter(a.factors) - Counter(b.factors))


def counter_div(b, a):
    return ComMonomial((Counter(b.factors) - Counter(a.factors)).elements())


def counter_lcm(a, b):
    return ComMonomial((Counter(a.factors) | Counter(b.factors)).elements())


def same_monomial(a, b):
    return (a == b and a.factors == b.factors and a.key == b.key
            and hash(a) == hash(b))


POOL = [X1, X2, X3, Y2, Y3]


def monomials_of_count(pool, max_count):
    out = [mono()]
    frontier = [()]
    for _ in range(max_count):
        frontier = [t + (s,) for t in frontier for i, s in enumerate(pool)
                    if not t or pool.index(t[-1]) <= i]
        out += [ComMonomial(t) for t in frontier]
    return out


class TestMonomialInvariants:
    def test_product_matches_constructor(self):
        rng = random.Random(5)
        ms = monomials_of_count(POOL, 4)
        for _ in range(2000):
            a, b = rng.choice(ms), rng.choice(ms)
            assert same_monomial(a * b, ComMonomial(a.factors + b.factors))
        for a in ms:
            assert same_monomial(mono() * a, a)
            assert same_monomial(a * mono(), a)

    def test_divides_div_lcm_match_counters(self):
        # The quotient b / a on divisible pairs is a.cofactor(b).
        ms = monomials_of_count(POOL, 3)
        divisible = 0
        for a in ms:
            for b in ms:
                assert a.divides(b) == counter_divides(a, b)
                if counter_divides(a, b):
                    divisible += 1
                    assert same_monomial(a.cofactor(b), counter_div(b, a))
        assert divisible > len(ms)

    def test_cofactor_and_gcd_size_match_counters(self):
        ms = monomials_of_count(POOL, 3)
        for a in ms:
            for b in ms:
                big = counter_lcm(a, b)
                assert same_monomial(a.cofactor(b), counter_div(big, a))
                gcd = ComMonomial((Counter(a.factors) & Counter(b.factors)).elements())
                # The pair criteria read the lcm weight as a's plus this.
                assert a.cofactor(b).weight == b.weight - gcd.weight
                assert big.count == a.count + b.count - gcd.count
                assert big.weight == a.weight + b.weight - gcd.weight

    def test_multiplicity_map_is_never_mutated(self):
        ms = monomials_of_count(POOL, 3)
        before = [[a.divides(b) for b in ms] for a in ms]
        maps = {m: dict(m._mults()) for m in ms}
        for a in ms:
            for b in ms:
                if a.divides(b):
                    a.cofactor(b)
        assert [[a.divides(b) for b in ms] for a in ms] == before
        assert all(m._mults() == maps[m] for m in ms)
        assert mono(X1, X1, Y2)._mults() == {X1: 2, Y2: 1}


class TestInterning:
    def test_symbol_is_one_instance(self):
        assert GenSymbol("x", 1, 3, 0) is X3
        assert GenSymbol(base="y", level=2, weight=2, rank=1) is Y2
        assert GenSymbol("y", 2, 2, 0) is not Y2
        with pytest.raises(AttributeError):
            del X1.base

    def test_constructor_in_any_factor_order(self):
        want = mono(X1, X2, Y2)
        for order in itertools.permutations((X1, X2, Y2)):
            assert ComMonomial(order) is want
            assert ComMonomial(iter(order)) is want
        assert ComMonomial._sorted((X1, X2, Y2)) is want
        assert mono() is ComMonomial(())

    def test_operations_return_the_interned_instance(self):
        rng = random.Random(11)
        ms = monomials_of_count(POOL, 3)
        for _ in range(500):
            a, b = rng.choice(ms), rng.choice(ms)
            ab = a * b
            assert ab is ComMonomial(a.factors + b.factors) and ab is b * a
            assert same_monomial(ab, ComMonomial(b.factors + a.factors))
            assert a.cofactor(ab) is b and b.cofactor(ab) is a
            assert a.cofactor(b) is counter_div(counter_lcm(a, b), a)
            assert ComMonomial._sorted(ab.factors) is ab

    def test_sets_and_dicts_dedupe(self):
        ms = [mono(X1, X2), mono(X2, X1), mono(X1) * mono(X2),
              mono(X3).cofactor(mono(X1, X2, X3)), mono(X3).cofactor(mono(X1, X2))]
        assert len(set(ms)) == 1
        d = {}
        for n, m in enumerate(ms):
            d[m] = n
        assert d == {mono(X1, X2): len(ms) - 1}
        p = ComPoly.from_terms((m, 1) for m in ms)
        assert p == ComPoly.monomial(mono(X1, X2)).scale(len(ms))


class TestOrder:
    def test_count_dominates(self):
        # Two light factors still beat one heavy symbol.
        assert mono(X1, X1).key > mono(Y2).key
        assert mono(X4).key < mono(X1, X1).key

    def test_equal(self):
        assert mono(X1, Y2).key == mono(Y2, X1).key

    def test_lex_on_equal_count_and_weight(self):
        assert mono(X1, X3).key < mono(X2, X2).key

    def test_weight_breaks_count_ties(self):
        assert mono(X1, X2).key < mono(X1, X3).key

    def test_multiplicative_exhaustive(self):
        pool = [X1, X2, X3, X4, Y2, Y3]
        ms = monomials_up_to(pool, 5)
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                assert a.key != b.key
                for w in ms:
                    assert ((a * w).key < (b * w).key) == (a.key < b.key)


class TestComPoly:
    def test_zero_handling(self):
        assert not ComPoly.zero()
        assert ComPoly.monomial(mono(X1)).scale(0) == ComPoly.zero()
        assert poly((mono(X1), 1), (mono(X1), -1)) == ComPoly.zero()

    def test_arithmetic(self):
        p = poly((mono(X1, X1), 1), (mono(X2), Fraction(-1, 2)))
        q = poly((mono(X2), Fraction(1, 2)))
        assert p + q == ComPoly.monomial(mono(X1, X1))
        assert (p - p) == ComPoly.zero()
        assert p.scale(-1) + p == ComPoly.zero()
        assert p.scale(2) == poly((mono(X1, X1), 2), (mono(X2), -1))

    def test_poly_product(self):
        p = poly((mono(X1), 1), (mono(X2), 1))
        q = poly((mono(X1), 1), (mono(X2), -1))
        assert com_product(p, q) == poly((mono(X1, X1), 1), (mono(X2, X2), -1))

    def test_mul_monomial(self):
        p = poly((mono(X1), 2), (mono(), 3))
        assert mul_monomial(p, mono(X2), Fraction(1, 2)) \
            == poly((mono(X1, X2), 1), (mono(X2), Fraction(3, 2)))

    def test_leading(self):
        p = poly((mono(X1, X1), Fraction(1, 3)), (mono(Y2), 5), (mono(), 1))
        assert p.leading() == mono(X1, X1)
        assert p.leading_coeff() == Fraction(1, 3)
        assert p.monic().leading_coeff() == 1
        with pytest.raises(ValueError, match="no leading monomial"):
            ComPoly.zero().leading()

    def test_homogeneity(self):
        # buchberger_bounded's input check: one weight per relation.
        buchberger_bounded([poly((mono(X1, X1), 1), (mono(X2), -1))], 4)
        with pytest.raises(ValueError, match=r"weight-homogeneous; got weights \[1, 2\] in "):
            buchberger_bounded([poly((mono(X1), 1), (mono(X2), 1))], 4)

    def test_repr(self):
        p = poly((mono(X1, X1), 1), (mono(X2), -1))
        assert repr(p) == "x[1]*x[1] - x[2]"


def trivial_relations(weight_bound):
    A = trivial_algebra(1)
    F = FilteredAlgebra(A, {A.alphabet["x"]: 1})
    return F, coefficient_relations(F, weight_bound)


def truncated_relations(n, weight_bound):
    A = truncated_power_algebra(n)
    F = FilteredAlgebra(A, {A.alphabet["x%d" % i]: i for i in range(1, n + 1)})
    return F, coefficient_relations(F, weight_bound)


class TestReduce:
    def test_square_dies_for_trivial_algebra(self):
        F, G = trivial_relations(4)
        assert com_reduce(ComPoly.monomial(mono(X1, X1)), ComBasis([G[0]])) == ComPoly.zero()

    def test_linear_polys_untouched(self):
        _, G = trivial_relations(5)
        p = poly((mono(X1), 1), (mono(X2), 2), (mono(X4), Fraction(-1, 3)))
        assert com_reduce(p, ComBasis(G)) == p

    def test_empty_relation_list(self):
        p = poly((mono(X1, X2), 7))
        assert com_reduce(p, ComBasis([])) == p

    def test_rejects_nonmonic(self):
        g = poly((mono(X1, X1), 2))
        with pytest.raises(ValueError, match="monic"):
            com_reduce(ComPoly.monomial(mono(X1)), ComBasis([g]))

    def test_rejects_zero_relation(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            com_reduce(ComPoly.monomial(mono(X1)), ComBasis([ComPoly.zero()]))

    def test_cascading(self):
        # x1 x1 -> x2 -> 0 through two relations.
        g1 = poly((mono(X1, X1), 1), (mono(X2), -1))
        g2 = ComPoly.monomial(mono(X2))
        nf = com_reduce(ComPoly.monomial(mono(X1, X1)).scale(6), ComBasis([g1, g2]))
        assert nf == ComPoly.zero()

    def test_trace_replays(self):
        F, G = truncated_relations(2, 6)
        ab = F.algebra.alphabet
        a1, a2 = F.symbol(ab["x1"], 1), F.symbol(ab["x2"], 2)
        p = poly((mono(a1, a1, a2), 1), (mono(a1, a1), Fraction(2, 3)))
        nf, steps = com_reduce_with_trace(p, G)
        assert steps
        assert_certified(p, G, nf)

    def test_trace_certifies_reduction_on_completed_basis(self):
        F, G = truncated_relations(2, 6)
        basis, _ = buchberger_bounded(G, 6)
        ab = F.algebra.alphabet
        pool = [F.symbol(ab["x1"], i) for i in range(1, 6)] \
            + [F.symbol(ab["x2"], j) for j in range(2, 6)]
        rng = random.Random(41)
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(1, 3)):
                m = ComMonomial(rng.choice(pool)
                                for _ in range(rng.randint(0, 3)))
                terms.append((m, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
            p = ComPoly.from_terms(terms)
            assert_certified(p, basis, com_reduce(p, ComBasis(basis)))


def assert_certified(p, G, nf):
    """``nf`` is p's normal form modulo G: the traced reduction ends at
    nf, p - nf is the replayed sum of its steps, and no leading monomial
    of G divides a monomial of nf (by Counter multisets)."""
    got, steps = com_reduce_with_trace(p, G)
    assert got == nf
    replayed = ComPoly.zero()
    for c, q, i in steps:
        replayed = replayed + mul_monomial(G[i], q, c)
    assert p - nf == replayed
    leads = [g.leading() for g in G]
    assert not any(counter_divides(lead, m) for lead in leads for m in nf.terms)


def linear_scan(G):
    """``find`` for the shared reducer by a scan of G in order: the first
    relation whose leading monomial divides m, by Counter multisets."""
    def find(m):
        for pos, g in enumerate(G):
            lead = g.leading()
            if counter_divides(lead, m):
                return (counter_div(m, lead), pos), g
        return None
    return find


def assert_integer_copy(rel, g):
    """``rel`` is the relation ``ComBasis.find`` answers for the monic
    relation g: g itself when its coefficients are all integers, else g
    times the least common denominator of its coefficients, with ``int``
    coefficients and that denominator as its leading coefficient."""
    d, terms = integral(g.terms)
    if d == 1:
        assert rel is g
    else:
        assert rel.terms == terms and rel.leading() is g.leading()
        assert rel.leading_coeff() == d > 1
        assert all(type(c) is int for c in rel.terms.values())


def times(m, step, t):
    return t * step[0]


def random_relations(rng, with_one):
    """A monic relation list over POOL with repeated leading monomials,
    leading monomials sharing their smallest factor, an equal relation
    twice and, if asked, the constant relation 1."""
    every = monomials_of_count(POOL, 3)
    ms = [m for m in every if m.count]

    def relation(lead):
        below = [m for m in every if m.key < lead.key]
        tail = [(rng.choice(below), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for _ in range(rng.randint(0, 2))] if below else []
        return ComPoly.from_terms([(lead, 1)] + tail)

    G = [relation(rng.choice(ms)) for _ in range(rng.randint(3, 6))]
    G.append(relation(G[0].leading()))
    first = G[1].leading().factors[0]
    G.append(relation(ComMonomial((first, rng.choice([s for s in POOL if s.key >= first.key])))))
    twin = rng.choice(G)
    G.append(ComPoly.from_terms(twin.sorted_terms()))
    if with_one:
        G.append(ComPoly.monomial(mono()))
    rng.shuffle(G)
    return G


class TestDivisorIndex:
    def relation_lists(self):
        rng = random.Random(2024)
        return [random_relations(rng, k % 2 == 1) for k in range(24)]

    def test_first_divisor_in_G(self):
        ms = monomials_of_count(POOL, 4)
        for G in self.relation_lists():
            find, scan = ComBasis(G).find, linear_scan(G)
            for m in ms:
                got, want = find(m), scan(m)
                if want is None:
                    assert got is None
                else:
                    (q, pos), rel = got
                    assert same_monomial(q, want[0][0])
                    assert pos == want[0][1]
                    assert_integer_copy(rel, want[1])

    def test_appended_basis_matches_every_prefix(self):
        ms = monomials_of_count(POOL, 3)
        for G in self.relation_lists():
            basis = ComBasis(())
            for n, g in enumerate(G, 1):
                basis.append(g)
                assert len(basis) == n and list(basis) == G[:n]
                scan = linear_scan(G[:n])
                for m in ms:
                    got, want = basis.find(m), scan(m)
                    if want is None:
                        assert got is None
                    else:
                        (q, pos), rel = got
                        assert_integer_copy(rel, want[1])
                        assert list(basis)[pos] is want[1]
                        assert pos == want[0][1] and same_monomial(q * rel.leading(), m)

    def test_append_checks_each_relation(self):
        basis = ComBasis([poly((mono(X1, X1), 1))])
        with pytest.raises(ValueError, match="zero polynomial in relation list"):
            basis.append(ComPoly.zero())
        with pytest.raises(ValueError, match="relations must be monic"):
            basis.append(poly((mono(X1, X2), 2), (mono(X3), 1)))
        with pytest.raises(ValueError, match="relations must be monic"):
            ComBasis([poly((mono(X2), Fraction(1, 2)))])
        assert len(basis) == 1

    def test_reducers_accept_a_basis(self):
        rng = random.Random(5)
        ms = monomials_of_count(POOL, 4)
        for G in self.relation_lists()[:6]:
            basis = ComBasis(G)
            for _ in range(5):
                p = ComPoly.from_terms(
                    [(rng.choice(ms), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 4))])
                nf = com_reduce(p, basis)
                assert nf == com_reduce(p, ComBasis(G))
                assert com_reduce_with_trace(p, basis) == com_reduce_with_trace(p, G)
                assert_certified(p, list(basis), nf)

    def test_reducers_match_linear_scan(self):
        rng = random.Random(77)
        ms = monomials_of_count(POOL, 4)
        for G in self.relation_lists():
            for _ in range(10):
                p = ComPoly.from_terms(
                    [(rng.choice(ms), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 4))])
                trace: list = []
                want = ComPoly._raw(descend(p.terms, linear_scan(G), times, trace))
                assert com_reduce(p, ComBasis(G)) == want
                nf, steps = com_reduce_with_trace(p, G)
                assert nf == want
                assert steps == [(c, q, pos) for c, _, (q, pos), _ in trace]
                assert_certified(p, G, nf)


class CheckedBasis(ComBasis):
    """A basis that, after each append, checks ``find`` on every memoized
    monomial against an unmemoized scan of a fresh basis of the same
    relations, then restores its memo and counters, so the run it is in
    takes the path it would take unchecked."""

    checked = 0

    def append(self, g):
        super().append(g)
        memo, calls, hits = dict(self._memo), self.calls, self.memo_hits
        fresh = ComBasis(self)
        for m in memo:
            assert self.find(m) == fresh._scan(m, 0), m
        self.checked += len(memo)
        self._memo, self.calls, self.memo_hits = memo, calls, hits


def nilpotent_relations(seed, N):
    F = standard_filtration(random_nilpotent_algebra(random.Random(seed)))
    return coefficient_relations(F, N)


class TestLookupMemo:
    @pytest.mark.parametrize("kind,k", [("power", 3), ("power", 4), ("seed", 0),
                                        ("seed", 1), ("seed", 3)])
    def test_memo_matches_fresh_scan_after_every_append(self, monkeypatch, kind, k):
        G = truncated_relations(k, 10)[1] if kind == "power" else nilpotent_relations(k, 10)
        bases = []

        class Recorded(CheckedBasis):
            def __init__(self, relations=()):
                super().__init__(relations)
                bases.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(compoly, "ComBasis", Recorded)
            got, rep = buchberger_bounded(G, 10)
        want, want_rep = buchberger_bounded(G, 10)
        assert got == want and rep.added == want_rep.added
        assert (rep.lookups, rep.memo_hits) == (want_rep.lookups, want_rep.memo_hits)
        assert 0 < rep.memo_hits < rep.lookups
        assert bases[0].checked > 0

    def test_irreducible_becomes_reducible_after_append(self):
        g = poly((mono(X1, X1), 1), (mono(X2), -1))
        basis = ComBasis([g])
        m = mono(X2, X3)
        assert basis.find(m) is None
        assert basis.find(m) is None
        assert (basis.calls, basis.memo_hits) == (2, 1)
        h = poly((mono(X2), 1), (mono(X1), 3))
        basis.append(h)
        # The memoized None is checked again against h alone.
        assert basis.find(m) == ((mono(X3), 1), h)
        assert (basis.calls, basis.memo_hits) == (3, 1)
        basis.append(poly((mono(X3), 1)))
        assert basis.find(m) == ((mono(X3), 1), h)
        assert (basis.calls, basis.memo_hits) == (4, 2)
        assert basis.find(mono(X1, X1, X3)) == ((mono(X3), 0), g)


class TestSPolynomial:
    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="no S-polynomial"):
            s_polynomial(ComPoly.zero(), ComPoly.monomial(mono(X1)))

    def test_self_pair_cancels(self):
        f = poly((mono(X1, X2), 1), (mono(X3), -1))
        assert s_polynomial(f, f) == ComPoly.zero()

    def test_product_criterion(self):
        # Coprime leading monomials: the S-polynomial reduces to zero.
        z4 = GenSymbol("z", 1, 4, 2)
        f = poly((mono(X1, X1), 1), (mono(Y2), -1))
        g = poly((mono(Y2, Y2), 1), (ComMonomial((z4,)), -1))
        s = s_polynomial(f, g)
        assert s
        assert com_reduce(s, ComBasis([f, g])) == ComPoly.zero()

    def test_pair_relations_compose_trivially(self):
        _, G = trivial_relations(5)
        s2, s3 = G[0], G[1]
        assert com_reduce(s_polynomial(s2, s3), ComBasis(G)) == ComPoly.zero()


class TestPairRelationGrading:
    def test_weight_homogeneous(self):
        F, G = truncated_relations(3, 6)
        for g in G:
            assert len({m.weight for m in g.terms}) == 1

    def test_weight_value(self):
        F, _ = truncated_relations(3, 6)
        ab = F.algebra.alphabet
        for l in range(2, 7):
            s = pair_relation(F, ab["x1"], ab["x1"], l)
            assert {m.weight for m in s.terms} == {l}


class TestBuchberger:
    def test_trivial_algebra_injective(self):
        _, G = trivial_relations(6)
        basis, rep = buchberger_bounded(G, 6)
        assert rep.linear_leadings == []
        assert rep.pairs_considered == rep.pairs_processed + rep.pairs_skipped_bound \
            + rep.pairs_skipped_coprime + rep.pairs_skipped_lcm

    def test_truncated_square_zero_injective(self):
        # The algebra t k[t] / (t^3) on the basis {t, t^2}.
        _, G = truncated_relations(2, 6)
        basis, rep = buchberger_bounded(G, 6)
        assert rep.linear_leadings == []

    def test_completed_basis_is_stable(self):
        _, G = truncated_relations(2, 6)
        basis, _ = buchberger_bounded(G, 6)
        again, rep = buchberger_bounded(basis, 6)
        assert rep.added == []
        assert again == basis

    def test_degenerate_linear_input_flagged(self):
        G = [ComPoly.monomial(mono(X1))]
        basis, rep = buchberger_bounded(G, 6)
        assert rep.linear_leadings == [G[0]]

    def test_rejects_inhomogeneous(self):
        G = [poly((mono(X1, X1), 1), (mono(X3), -1))]
        with pytest.raises(ValueError, match="weight-homogeneous"):
            buchberger_bounded(G, 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            buchberger_bounded([ComPoly.zero()], 6)

    def test_input_rescaled_monic(self):
        G = [poly((mono(X1, X1), 3))]
        basis, _ = buchberger_bounded(G, 4)
        assert basis[0].leading_coeff() == 1


# (considered, processed, skipped for the bound, skipped as coprime,
# skipped for a repeated lcm, len(added), SHA-256 prefix of the added
# relations' reprs in order).  The digests are those pinned before the
# divisor index moved into ComBasis; processed + skipped for the lcm is
# the processed count from before criterion F.
PINNED_BUCHBERGER = {
    ("power", 3, 8): (1176, 82, 1040, 34, 20, 19, "f7262167aef4a47d"),
    ("power", 3, 10): (3081, 202, 2671, 159, 49, 37, "3f4f333f3de1f8a7"),
    ("power", 3, 12): (5995, 386, 5041, 459, 109, 56, "23870e2475a731f9"),
    ("power", 4, 8): (2145, 101, 1981, 36, 27, 26, "bdf4473e2e349561"),
    ("power", 4, 10): (7140, 296, 6560, 202, 82, 60, "10c9bab0a21a8b7a"),
    ("seed", 0, 10): (3081, 202, 2671, 159, 49, 37, "3090386716c84e70"),
    ("seed", 1, 10): (2850, 250, 2148, 391, 61, 26, "44c3a50e1a5fc8fc"),
    ("seed", 2, 10): (3081, 202, 2671, 159, 49, 37, "310bcb172ae6b2c7"),
    ("seed", 3, 10): (2850, 250, 2148, 391, 61, 26, "93bfb07cf4dc43f7"),
    ("seed", 4, 10): (2850, 250, 2148, 391, 61, 26, "98608a39ba63c0ae"),
    ("seed", 5, 10): (3081, 202, 2671, 159, 49, 37, "8dd2b550f86587a3"),
}


def pinned_relations(kind, k, N):
    return truncated_relations(k, N)[1] if kind == "power" else nilpotent_relations(k, N)


def added_digest(rep):
    return hashlib.sha256("\n".join(repr(p) for p in rep.added).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind,k,N", sorted(PINNED_BUCHBERGER))
def test_buchberger_counts_and_added_order_pinned(kind, k, N):
    G = pinned_relations(kind, k, N)
    basis, rep = buchberger_bounded(G, N)
    assert (rep.pairs_considered, rep.pairs_processed, rep.pairs_skipped_bound,
            rep.pairs_skipped_coprime, rep.pairs_skipped_lcm, len(rep.added), added_digest(rep)) \
        == PINNED_BUCHBERGER[kind, k, N]
    assert basis == G + rep.added


def assert_matches_reference(G, N):
    """The library's completion of G at weight N against the reference
    loop, which processes every pair within the bound that shares a
    symbol: the same basis and added relations, coefficient types
    included, and the same pairs considered and skipped for the bound or
    as coprime.  The reference also processes the pairs that criterion
    F skips, so its processed count is the library's plus
    ``pairs_skipped_lcm``; each reduction the library makes meets the
    basis it meets there, so the library looks up no more."""
    basis, rep = buchberger_bounded(G, N)
    want, want_rep = buchberger_reference(G, N)
    assert basis == want and rep.added == want_rep.added
    assert [[type(c) for c in g.terms.values()] for g in basis] \
        == [[type(c) for c in g.terms.values()] for g in want]
    assert (rep.pairs_considered, rep.pairs_skipped_bound, rep.pairs_skipped_coprime) \
        == (want_rep.pairs_considered, want_rep.pairs_skipped_bound,
            want_rep.pairs_skipped_coprime)
    assert rep.pairs_processed + rep.pairs_skipped_lcm == want_rep.pairs_processed
    assert rep.lookups <= want_rep.lookups
    return rep


class TestReferenceBuchberger:
    def test_truncated_powers(self):
        added = 0
        for n, Ns in ((2, range(4, 13)), (3, range(6, 13)), (4, range(8, 11))):
            for N in Ns:
                added += len(assert_matches_reference(truncated_relations(n, N)[1], N).added)
        assert added > 200

    def test_seeded_nilpotent(self):
        added = coprime = 0
        for seed in range(40):
            rep = assert_matches_reference(nilpotent_relations(seed, 8 + seed % 3), 8 + seed % 3)
            added += len(rep.added)
            coprime += rep.pairs_skipped_coprime
        assert added > 500 and coprime > 0


def weight_deduped_buchberger():
    """A wrong criterion F: ``buchberger_bounded`` with ``pair_up``
    queueing one pair per weight of the earlier leading monomial, where
    it should queue one per lcm."""
    src = inspect.getsource(compoly.buchberger_bounded)
    for old, new in (("extra in queued", "other.weight in queued"),
                     ("queued.add(extra)", "queued.add(other.weight)")):
        assert src.count(old) == 1
        src = src.replace(old, new)
    namespace = dict(vars(compoly))
    exec(src, namespace)
    return namespace["buchberger_bounded"]


def criterion_f_recount(basis, N):
    """Criterion F's choice, recounted over a final basis: for each
    relation k, the earlier relations i that share a symbol with it and
    whose lcm has weight <= N, grouped by lcm / lead_k =
    ``lead_k.cofactor(lead_i)``.  Returns (the number of groups, the sum
    of each group's size - 1): one pair processed per group, the rest
    skipped for a repeated lcm."""
    leads = [g.leading() for g in basis]
    groups = repeats = 0
    for k, lead in enumerate(leads):
        mine = set(lead.factors)
        by_lcm = Counter(lead.cofactor(other) for other in leads[:k]
                         if mine.intersection(other.factors))
        within = [n for extra, n in by_lcm.items() if lead.weight + extra.weight <= N]
        groups += len(within)
        repeats += sum(within) - len(within)
    return groups, repeats


class TestCriterionF:
    # Each pair of the final basis within the bound -- formed, coprime or
    # skipped for a repeated lcm -- reduces to zero by the final basis, so
    # the completion is a Groebner basis truncated at weight N.
    CASES = sorted(PINNED_BUCHBERGER) + [("seed", seed, 8 + seed % 3) for seed in range(6, 26)]

    def test_one_pair_processed_per_lcm(self):
        assert len(self.CASES) == 31
        for kind, k, N in self.CASES:
            basis, rep = buchberger_bounded(pinned_relations(kind, k, N), N)
            assert (rep.pairs_processed, rep.pairs_skipped_lcm) \
                == criterion_f_recount(basis, N), (kind, k, N)

    def test_deduping_on_the_weight_fails_the_recount(self):
        wrong = weight_deduped_buchberger()
        for kind, k, N in self.CASES:
            basis, rep = wrong(pinned_relations(kind, k, N), N)
            assert (rep.pairs_processed, rep.pairs_skipped_lcm) \
                != criterion_f_recount(basis, N), (kind, k, N)

    def test_final_basis_resolves_every_pair_within_the_bound(self):
        skipped = 0
        for kind, k, N in self.CASES:
            basis, rep = buchberger_bounded(pinned_relations(kind, k, N), N)
            assert unresolved_pairs(basis, N) == [], (kind, k, N)
            skipped += rep.pairs_skipped_lcm
        assert skipped > 1000

    def test_deduping_on_the_weight_fails(self):
        # The control drops pairs whose lcm no queued pair shares.  Later
        # pairs make up for them on these inputs -- its final bases resolve
        # every pair within the bound -- but it adds the relations in
        # another order, or one more.
        wrong = weight_deduped_buchberger()
        for kind, k, N in sorted(PINNED_BUCHBERGER):
            _, rep = wrong(pinned_relations(kind, k, N), N)
            assert added_digest(rep) != PINNED_BUCHBERGER[kind, k, N][-1]

    def test_a_basis_completed_below_the_bound_fails(self):
        # The oracle's own control: a completion to weight N - 1 leaves
        # pairs of lcm weight N unresolved.
        for kind, k, N in self.CASES:
            basis, _ = buchberger_bounded(pinned_relations(kind, k, N), N - 1)
            assert unresolved_pairs(basis, N), (kind, k, N)
