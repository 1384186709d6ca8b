"""Exactness invariant of the tree, word and commutative sides: every
coefficient the public API returns is an ``int`` when integral and a
``Fraction`` otherwise -- never a float, never a bool."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precom import embed
from precom.compoly import ComBasis, ComMonomial, ComPoly, buchberger_bounded, com_reduce
from precom.embed import FilteredAlgebra, pair_relation, verify_embedding, verify_rota_baxter
from precom.envelope import (
    CommAlgebra,
    collapse_check,
    enveloping_relations,
    idempotent_algebra,
    trivial_gsb,
    truncated_power_algebra,
)
from precom.magma import MagmaPoly, leaf, node
from precom.rewrite import (
    ExplicitRelation,
    complete,
    interreduce,
    normal_form,
    normal_form_with_trace,
    verify_gsb,
)
from precom.shuffle import ZinbElement, random_element, star, zinbiel_product

from oracles import (
    TruncSeries,
    coefficient_relations,
    com_reduce_with_trace,
    generator_series,
    magma_product,
    random_series,
    rb_apply,
    s_polynomial,
    series_product,
    shuffle_product,
    to_left_comb,
    truncated_poly_relations,
    words_of_length,
)


def assert_exact_coeff(c):
    assert type(c) in (int, Fraction), (c, type(c))
    assert type(c) is int or c.denominator != 1, c


def assert_exact(p: MagmaPoly):
    for c in p.terms.values():
        assert_exact_coeff(c)


def assert_exact_relations(schemas):
    for s in schemas:
        if isinstance(s, ExplicitRelation):
            assert_exact(s.poly)


def fractional_nilpotent():
    """Basis a < b < c with a*a = 1/2 b and a*b = -3/2 c."""
    A = truncated_power_algebra(3)
    a, b, c = A.alphabet.letters
    return CommAlgebra(A.alphabet, {(a, a): {b: Fraction(1, 2)},
                                    (a, b): {c: Fraction(-3, 2)}})


def random_poly(rng, ab, max_len, max_terms=4):
    pool = [w for n in range(1, max_len + 1) for w in words_of_length(ab, n)]
    return MagmaPoly.from_terms(
        (rng.choice(pool), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, max_terms)))


RELATION_SETS = [
    ("trivial", lambda: trivial_gsb(truncated_power_algebra(2).alphabet)),
    ("truncated", lambda: truncated_poly_relations(3)),
    ("fractional", lambda: enveloping_relations(fractional_nilpotent())),
]


@pytest.mark.parametrize("name,make", RELATION_SETS, ids=[r[0] for r in RELATION_SETS])
def test_normal_forms_and_traces(name, make):
    rels = make()
    ab = rels[0].alphabet
    rng = random.Random(name)
    for _ in range(40):
        p = random_poly(rng, ab, 4)
        assert_exact(normal_form(p, rels))
        nf, trace = normal_form_with_trace(p, rels)
        assert_exact(nf)
        for coeff, _, _, relation in trace:
            assert_exact_coeff(coeff)
            assert_exact(relation)


@pytest.mark.parametrize("algebra", [truncated_power_algebra(3), fractional_nilpotent(),
                                     idempotent_algebra()],
                         ids=["truncated", "fractional", "idempotent"])
def test_completion_interreduction_and_failures(algebra):
    rels = enveloping_relations(algebra)
    assert_exact_relations(rels)
    rep = verify_gsb(rels, 4)
    for *_, nf in rep.failures:
        assert_exact(nf)
    done = complete(rels, 4)
    assert_exact_relations(done)
    assert_exact_relations(interreduce(done))


def test_star_table():
    for A in (fractional_nilpotent(), idempotent_algebra()):
        rep = collapse_check(A, 4)
        for got in rep.star_table.values():
            assert_exact(got)
        assert_exact_relations(complete(enveloping_relations(A), 4))


class TestMagmaPolyArithmetic:
    @pytest.fixture
    def words(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        return x, y, node(x, y), node(y, x)

    def test_sum_difference_product_scale(self, words):
        x, y, xy, yx = words
        p = MagmaPoly.from_terms([(x, Fraction(1, 2)), (xy, 3), (yx, Fraction(2, 3))])
        q = MagmaPoly.from_terms([(x, Fraction(1, 2)), (y, -1), (yx, Fraction(-5, 3))])
        for r in (p + q, p - q, magma_product(p, q), magma_product(q, p), p.scale(2),
                  p.scale(Fraction(3, 2)), p.scale(-1), p.scale(Fraction(1, 3))):
            assert_exact(r)
        assert type((p + q).terms[x]) is int
        assert type((p + q).terms[yx]) is int
        assert type(p.scale(2).terms[x]) is int

    def test_monic_of_integer_polynomial_halves_exactly(self, words):
        x, y, xy, yx = words
        p = MagmaPoly.from_terms([(xy, 2), (yx, 1), (x, -3)])
        m = p.monic()
        assert m.terms == {xy: 1, yx: Fraction(1, 2), x: Fraction(-3, 2)}
        assert_exact(m)
        assert type(m.terms[xy]) is int

    def test_constructors_normalize(self, words):
        x, y, xy, yx = words
        for p in (MagmaPoly.from_terms({x: 0.5, y: Fraction(4, 2), xy: True}.items()),
                  MagmaPoly.monomial(yx).scale(0.25),
                  MagmaPoly.from_terms([(x, 0.5), (x, 0.5), (y, "3/2")])):
            assert_exact(p)
        assert MagmaPoly.from_terms([(x, 0.5)]).terms == {x: Fraction(1, 2)}
        assert type(MagmaPoly.from_terms([(xy, True)]).terms[xy]) is int
        assert type(MagmaPoly.from_terms([(x, 0.5), (x, 0.5)]).terms[x]) is int


# ---------------------------------------------------------------------------
# Word side

def test_word_products_and_conversions(ab2):
    x, y = ab2.letters
    half_x = ZinbElement.monomial([x]).scale(Fraction(1, 2))
    two_y = ZinbElement.monomial([y]).scale(2)
    for r in (zinbiel_product(half_x, two_y), star(half_x, two_y)):
        assert_exact(r)
        assert all(type(c) is int for c in r.terms.values()), r
    rng = random.Random("words")
    for _ in range(30):
        f, g = (random_element(rng, ab2, 3) for _ in range(2))
        for r in (f, g, zinbiel_product(f, g), star(f, g), f + g, f - g,
                  f.scale(Fraction(3, 2))):
            assert_exact(r)
    for u in ((x,), (x, y), (y, x, x)):
        for v in ((y,), (x, y)):
            assert_exact(shuffle_product(u, v))
    for _ in range(30):
        assert_exact(to_left_comb(random_poly(rng, ab2, 4), ab2))


def test_random_element_integral_coefficients_are_ints(ab2):
    rng = random.Random(5)
    seen = 0
    for _ in range(100):
        for c in random_element(rng, ab2, 3).terms.values():
            assert_exact_coeff(c)
            seen += type(c) is int
    assert seen  # Fraction(4, 2) and friends come out as ints


# ---------------------------------------------------------------------------
# Commutative side

def fractional_filtered():
    A = fractional_nilpotent()
    a, b, c = A.alphabet.letters
    return FilteredAlgebra(A, {a: 1, b: 2, c: 3})


def random_com_poly(rng, F, max_weight, max_terms=4):
    symbols = [F.symbol(x, w) for x in F.basis
               for w in range(F.level(x), max_weight + 1)]
    return ComPoly.from_terms(
        (ComMonomial(rng.choice(symbols) for _ in range(rng.randint(1, 3))),
         Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, max_terms)))


def test_reduction_and_traces():
    F = fractional_filtered()
    G = coefficient_relations(F, 6)
    rng = random.Random("com")
    for _ in range(40):
        p = random_com_poly(rng, F, 4)
        assert_exact(com_reduce(p, ComBasis(G)))
        nf, trace = com_reduce_with_trace(p, G)
        assert_exact(nf)
        for c, _, _ in trace:
            assert_exact_coeff(c)


def test_relations_and_completion():
    F = fractional_filtered()
    a, b, c = F.basis
    for x, y, l in ((a, a, 2), (a, a, 4), (a, b, 3), (a, b, 5), (b, b, 5)):
        p = pair_relation(F, x, y, l)
        assert_exact(p)
        assert_exact(p.monic())
    assert type(pair_relation(F, a, a, 2).leading_coeff()) is int
    G = coefficient_relations(F, 6)
    for f in G:
        for g in G:
            if f is not g:
                assert_exact(s_polynomial(f, g))
    basis, rep = buchberger_bounded([p.scale(3) for p in G], 6)
    for p in basis + rep.added:
        assert_exact(p)
        assert type(p.leading_coeff()) is int


def test_series_products_and_rb():
    F = fractional_filtered()
    images = [generator_series(x, F, 6) for x in F.basis]
    rng = random.Random("series")
    randoms = [random_series(rng, 6) for _ in range(6)]
    for s in images + randoms:
        assert_exact(rb_apply(s))
        for u in images:
            assert_exact(series_product(s, u, 6))
    # t^2 coefficient 2 * (1/2) and t^4 coefficient 4 * (1/4) are integral.
    x = F.basis[0]
    one = ComMonomial((F.symbol(x, 2),))
    s = TruncSeries.from_terms([((2, one), 2), ((4, one), 4)])
    assert all(type(c) is int for c in rb_apply(s).terms.values())


def assert_scaled(s):
    d, terms = s
    assert type(d) is int and d > 0, d
    for n, group in terms.items():
        assert type(n) is int and group, (n, group)
        for c in group.values():
            assert type(c) is int and c, (n, c)


def test_scaled_series_are_integers(monkeypatch):
    # Every scaled series that the embedding and Rota-Baxter checks draw,
    # multiply, average, add or compare has an int denominator and int
    # coefficients, on an algebra with fractional structure constants.
    seen = set()

    def watch(f):
        def checked(*args):
            out = f(*args)
            for s in args + (out,):
                if type(s) is tuple:
                    assert_scaled(s)
            seen.add(f.__name__)
            return out
        return checked

    names = ("_draw", "series_product", "_scaled_rb", "_scaled_sum", "_scaled_equal")
    for name in names:
        monkeypatch.setattr(embed, name, watch(getattr(embed, name)))
    assert verify_embedding(fractional_filtered(), 6).verified
    assert verify_rota_baxter(random.Random(5), 20, 8, {}) == []
    assert seen == set(names)


def test_compoly_monic_divides_exactly():
    F = fractional_filtered()
    a, b, _ = F.basis
    aa = ComMonomial((F.symbol(a, 1), F.symbol(a, 1)))
    b2 = ComMonomial((F.symbol(b, 2),))
    m = ComPoly.from_terms([(aa, 2), (b2, 1)]).monic()
    assert m.terms == {aa: 1, b2: Fraction(1, 2)}
    assert type(m.terms[aa]) is int
    m = ComPoly.from_terms([(aa, Fraction(1, 3)), (b2, 1)]).monic()
    assert m.terms == {aa: 1, b2: 3}
    assert all(type(c) is int for c in m.terms.values())


# ---------------------------------------------------------------------------
# The three library vector types and the oracle's series stay apart

def test_vector_types_never_mix():
    zeros = (MagmaPoly.zero(), ZinbElement.zero(), ComPoly.zero(), TruncSeries.zero())
    for i, p in enumerate(zeros):
        assert p == type(p).zero()
        for j, q in enumerate(zeros):
            if i != j:
                assert p != q
                with pytest.raises(TypeError):
                    p + q
                with pytest.raises(TypeError):
                    p - q
    # A series with one constant coefficient is not that coefficient.
    one = ComMonomial(())
    s, p = TruncSeries.monomial((1, one)), ComPoly.monomial(one)
    assert s != p and p != s
    for a, b in ((s, p), (p, s)):
        with pytest.raises(TypeError):
            a + b


def test_no_product_operator(ab2):
    # A scalar multiple is .scale(c) and each product is a function, so
    # `*` raises for two combinations and for a scalar on either side.
    x = ab2["x"]
    one = ComMonomial(())
    for p in (MagmaPoly.monomial(leaf(x)), ZinbElement.monomial([x]),
              ComPoly.monomial(one), TruncSeries.monomial((1, one))):
        for a, b in ((p, p), (2, p), (p, 2), (Fraction(1, 2), p)):
            with pytest.raises(TypeError):
                a * b
        assert p.scale(2) == p + p
