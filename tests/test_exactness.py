"""Exactness invariant of the tree side: every coefficient the public API
returns is an ``int`` when integral and a ``Fraction`` otherwise -- never a
float, never a bool."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precom import (
    CommAlgebra,
    ExplicitRelation,
    MagmaPoly,
    collapse_check,
    complete,
    enveloping_relations,
    idempotent_algebra,
    interreduce,
    leaf,
    node,
    normal_form,
    normal_form_with_trace,
    trivial_gsb,
    truncated_poly_relations,
    truncated_power_algebra,
    verify_gsb,
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
        for strategy in ("largest", "smallest"):
            assert_exact(normal_form(p, rels, strategy=strategy))
        nf, trace = normal_form_with_trace(p, rels)
        assert_exact(nf)
        for step in trace:
            assert_exact_coeff(step.coeff)
            assert_exact(step.relation)


@pytest.mark.parametrize("algebra", [truncated_power_algebra(3), fractional_nilpotent(),
                                     idempotent_algebra()],
                         ids=["truncated", "fractional", "idempotent"])
def test_completion_interreduction_and_failures(algebra):
    rels = enveloping_relations(algebra)
    assert_exact_relations(rels)
    rep = verify_gsb(rels, 4)
    for failure in rep.failures:
        assert_exact(failure.normal_form)
    done = complete(rels, 4)
    assert_exact_relations(done)
    assert_exact_relations(interreduce(done))


def test_star_table():
    for A in (fractional_nilpotent(), idempotent_algebra()):
        rep = collapse_check(A, 4)
        for got in rep.star_table.values():
            assert_exact(got)
        assert_exact_relations(rep.completed)


class TestMagmaPolyArithmetic:
    @pytest.fixture
    def words(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        return x, y, node(x, y), node(y, x)

    def test_sum_difference_product_scale(self, words):
        x, y, xy, yx = words
        p = MagmaPoly.from_terms([(x, Fraction(1, 2)), (xy, 3), (yx, Fraction(2, 3))])
        q = MagmaPoly.from_terms([(x, Fraction(1, 2)), (y, -1), (yx, Fraction(-5, 3))])
        for r in (p + q, p - q, p * q, q * p, p.scale(2), p.scale(Fraction(3, 2)),
                  2 * p, -p, p * Fraction(1, 3)):
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
        for p in (MagmaPoly({x: 0.5, y: Fraction(4, 2), xy: True}),
                  MagmaPoly.monomial(yx, 0.25),
                  MagmaPoly.from_terms([(x, 0.5), (x, 0.5), (y, "3/2")])):
            assert_exact(p)
        assert MagmaPoly({x: 0.5}).terms == {x: Fraction(1, 2)}
        assert type(MagmaPoly({xy: True}).terms[xy]) is int
        assert type(MagmaPoly.from_terms([(x, 0.5), (x, 0.5)]).terms[x]) is int
