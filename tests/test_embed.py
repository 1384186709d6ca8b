from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from precom import embed as embed_module
from precom.compoly import ComMonomial, ComPoly, buchberger_bounded
from precom.embed import (
    FilteredAlgebra,
    pair_relation,
    standard_filtration,
    verify_embedding,
    verify_rota_baxter,
)
from precom.envelope import (
    CommAlgebra,
    idempotent_algebra,
    trivial_algebra,
    truncated_power_algebra,
)
from precom.lincomb import echelon_insert, exact
from precom.magma import Alphabet

import oracles
from oracles import (
    TruncSeries,
    coefficient_relations,
    com_product,
    generator_series,
    mul_monomial,
    random_nilpotent_algebra,
    random_series,
    rb_apply,
    series_product,
    series_star,
    splitting_product,
)


def trivial_filtered(d=1):
    A = trivial_algebra(d)
    return FilteredAlgebra(A, {x: 1 for x in A.basis})


def truncated_filtered(n):
    A = truncated_power_algebra(n)
    return FilteredAlgebra(A, {A.alphabet["x%d" % i]: i for i in range(1, n + 1)})


def assert_filtration_holds(F):
    """Every term z of a basis product x*y sits at level >= level(x) +
    level(y), checked here apart from FilteredAlgebra's own check."""
    basis = F.basis
    for i, x in enumerate(basis):
        for y in basis[i:]:
            for z in F.product(x, y):
                assert F.level(z) >= F.level(x) + F.level(y), (x, y, z)


def c_mono(F, *pairs):
    """Monomial from (letter name, weight) pairs."""
    return ComMonomial(F.symbol(F.algebra.alphabet[name], w) for name, w in pairs)


class TestFilteredAlgebra:
    def test_levels(self):
        F = truncated_filtered(3)
        assert [F.level(x) for x in F.basis] == [1, 2, 3]
        assert F.max_level() == 3

    def test_missing_level(self):
        A = trivial_algebra(2)
        with pytest.raises(ValueError, match="no level assigned"):
            FilteredAlgebra(A, {A.alphabet["x"]: 1})

    def test_nonpositive_level(self):
        A = trivial_algebra(1)
        with pytest.raises(ValueError, match="levels must be positive"):
            FilteredAlgebra(A, {A.alphabet["x"]: 0})

    @pytest.mark.parametrize("level", [2.9, True, "2"])
    def test_level_that_is_not_an_int(self, level):
        # int() would truncate 2.9 to 2 and read True as 1 and "2" as 2.
        A = truncated_power_algebra(2)
        x1, x2 = A.basis
        with pytest.raises(ValueError, match="level of x2 must be an int, got %s"
                           % re.escape(repr(level))):
            FilteredAlgebra(A, {x1: 1, x2: level})

    def test_symbol_fields(self):
        F = truncated_filtered(2)
        s = F.symbol(F.algebra.alphabet["x2"], 5)
        assert (s.base, s.level, s.weight, s.rank) == ("x2", 2, 5, 1)


class TestValidateFiltration:
    # FilteredAlgebra checks its filtration when it is built.
    def test_trivial_any_levels(self):
        A = trivial_algebra(2)
        assert_filtration_holds(FilteredAlgebra(A, {A.alphabet["x"]: 3, A.alphabet["y"]: 1}))

    def test_truncated_valid(self):
        assert_filtration_holds(truncated_filtered(3))

    def test_corrupted_level_reported(self):
        A = truncated_power_algebra(3)
        ab = A.alphabet
        with pytest.raises(ValueError,
                           match=r"^filtration violation: x1\*x1 contains x2 at level 1 < 2$"):
            FilteredAlgebra(A, {ab["x1"]: 1, ab["x2"]: 1, ab["x3"]: 3})


class TestStandardFiltration:
    def test_truncated_chain(self):
        F = standard_filtration(truncated_power_algebra(3))
        names = [x.name for x in F.basis]
        assert names == ["x1", "x2", "x3"]
        assert [F.level(x) for x in F.basis] == [1, 2, 3]
        ab = F.algebra.alphabet
        assert F.product(ab["x1"], ab["x2"]) == {ab["x3"]: 1}

    def test_trivial_all_level_one(self):
        F = standard_filtration(trivial_algebra(3))
        assert sorted(F.levels.values()) == [1, 1, 1]

    def test_idempotent_rejected(self):
        with pytest.raises(ValueError, match="no positive filtration: algebra not nilpotent"):
            standard_filtration(idempotent_algebra())

    def test_adapted_basis_with_mixed_vector(self):
        # a*a = b + c: the square span is one mixed line, renamed v1.
        ab = Alphabet(["a", "b", "c"])
        a, b, c = ab.letters
        A = CommAlgebra(ab, {(a, a): {b: 1, c: 1}})
        F = standard_filtration(A)
        names = [x.name for x in F.basis]
        assert names == ["a", "c", "v1"]
        assert [F.level(x) for x in F.basis] == [1, 1, 2]
        nab = F.algebra.alphabet
        assert F.product(nab["a"], nab["a"]) == {nab["v1"]: 1}
        assert_filtration_holds(F)
        # a*a = x + y + v1: the level-1 mixed vector y + v1 takes the
        # fresh name v2, as v1 names an input letter, which keeps it.
        ab = Alphabet(["a", "x", "y", "v1"])
        a, x, y, v1 = ab.letters
        F = standard_filtration(CommAlgebra(ab, {(a, a): {x: 1, y: 1, v1: 1}}))
        assert ["%s:%d" % (z.name, F.level(z)) for z in F.basis] \
            == ["a:1", "v2:1", "v1:1", "v3:2"]
        nab = F.algebra.alphabet
        assert F.product(nab["a"], nab["a"]) == {nab["v3"]: 1}
        assert_filtration_holds(F)

    def test_digest_on_changed_bases(self):
        # Names, levels and product tables on 16 algebras of dimension 3-5
        # in skewed bases, pinned when the filtration was computed with
        # dense Fraction rows and a matrix inverse.
        text = []
        mixed = fractional = 0
        for A in changed_basis_algebras():
            F = standard_filtration(A)
            assert_filtration_holds(F)
            names = [x.name for x in F.basis]
            mixed += sum(name.startswith("v") for name in names)
            table = []
            for i, x in enumerate(F.basis):
                for y in F.basis[i:]:
                    combo = F.product(x, y)
                    fractional += sum(c.denominator != 1 for c in combo.values())
                    table.append((x.name, y.name,
                                  sorted((z.name, str(c)) for z, c in combo.items())))
            text.append(repr((names, [F.level(x) for x in F.basis], table)))
        assert mixed > 0 and fractional > 0
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        assert digest[:16] == "d62a2e4ac3342f40"


def skewed(A, rng):
    """A in the basis f_i = e_i + sum over j < i of t_ij e_j, for random
    small t_ij: an invertible, unitriangular change of basis."""
    e = A.basis
    d = len(e)
    ab = Alphabet(["f%d" % (i + 1) for i in range(d)])
    f = ab.letters
    vec = [{e[i]: Fraction(1)} for i in range(d)]
    for i in range(d):
        for j in range(i):
            t = rng.choice([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
            if t:
                vec[i][e[j]] = Fraction(t)

    def coords(w):
        # e_k occurs in f_k..f_d only, so the coordinates are read from the
        # last one down.
        w = dict(w)
        out = {}
        for k in range(d - 1, -1, -1):
            c = w.get(e[k], 0)
            if c:
                out[f[k]] = c
                for z, a in vec[k].items():
                    w[z] = w.get(z, 0) - c * a
        return out

    products = {}
    for i in range(d):
        for j in range(i, d):
            combo = coords(product_combo(A, vec[i], vec[j]))
            if combo:
                products[(f[i], f[j])] = combo
    return CommAlgebra(ab, products)


def random_upward_algebra(rng, d):
    """A d-dimensional commutative algebra with e_i*e_j in the span of the
    e_k with k >= i + j: nilpotent, not necessarily associative."""
    ab = Alphabet(["e%d" % (i + 1) for i in range(d)])
    e = ab.letters
    products = {}
    for i in range(d):
        for j in range(i, d):
            combo = {e[k]: rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
                     for k in range(i + j + 1, d) if rng.random() < 0.5}
            if combo:
                products[(e[i], e[j])] = combo
    return CommAlgebra(ab, products)


def changed_basis_algebras():
    rng = random.Random(2024)
    out = [skewed(random_upward_algebra(rng, 3 + k % 3), rng) for k in range(9)]
    out += [skewed(random_nilpotent_algebra(random.Random(k)), rng) for k in range(4)]
    out += [skewed(truncated_power_algebra(n), rng) for n in (3, 4, 5)]
    return out


class TestPairRelation:
    def test_trivial_square(self):
        F = trivial_filtered()
        s2 = pair_relation(F, F.algebra.alphabet["x"], F.algebra.alphabet["x"], 2)
        assert s2 == ComPoly.monomial(c_mono(F, ("x", 1), ("x", 1)))

    def test_trivial_weight_three_collision(self):
        F = trivial_filtered()
        x = F.algebra.alphabet["x"]
        raw = pair_relation(F, x, x, 3)
        assert raw == ComPoly.monomial(c_mono(F, ("x", 1), ("x", 2))).scale(2)
        assert raw.monic() == ComPoly.monomial(c_mono(F, ("x", 1), ("x", 2)))

    def test_trivial_weight_four(self):
        F = trivial_filtered()
        x = F.algebra.alphabet["x"]
        s4 = pair_relation(F, x, x, 4)
        assert s4 == ComPoly.from_terms([
            (c_mono(F, ("x", 2), ("x", 2)), 1),
            (c_mono(F, ("x", 1), ("x", 3)), 2),
        ])
        assert s4.leading() == c_mono(F, ("x", 2), ("x", 2))

    def test_truncated_lift(self):
        F = truncated_filtered(2)
        x1 = F.algebra.alphabet["x1"]
        s2 = pair_relation(F, x1, x1, 2)
        assert s2 == ComPoly.from_terms([
            (c_mono(F, ("x1", 1), ("x1", 1)), 1),
            (c_mono(F, ("x2", 2)), -1),
        ])

    def test_mixed_pair_lift(self):
        F = truncated_filtered(3)
        x1, x2 = F.algebra.alphabet["x1"], F.algebra.alphabet["x2"]
        s5 = pair_relation(F, x1, x2, 5)
        assert s5.terms[c_mono(F, ("x3", 5))] == -1
        assert s5.terms[c_mono(F, ("x1", 1), ("x2", 4))] == 1
        assert s5.terms[c_mono(F, ("x1", 3), ("x2", 2))] == 1

    def test_deep_component_dropped_below_its_level(self):
        # a*a lands at level 3; the weight-2 relation cannot see it.
        ab = Alphabet(["a", "c"])
        a, c = ab.letters
        A = CommAlgebra(ab, {(a, a): {c: 1}})
        F = FilteredAlgebra(A, {a: 1, c: 3})
        assert pair_relation(F, a, a, 2) \
            == ComPoly.monomial(c_mono(F, ("a", 1), ("a", 1)))
        s3 = pair_relation(F, a, a, 3)
        assert s3 == ComPoly.from_terms([
            (c_mono(F, ("a", 1), ("a", 2)), 2),
            (c_mono(F, ("c", 3)), -1),
        ])

    def test_weight_below_level_sum(self):
        F = truncated_filtered(2)
        with pytest.raises(ValueError, match="below level sum"):
            pair_relation(F, F.algebra.alphabet["x2"], F.algebra.alphabet["x2"], 3)

    def test_relation_counts(self):
        F = truncated_filtered(2)
        G = coefficient_relations(F, 6)
        assert len(G) == 5 + 4 + 3
        assert all(g.leading_coeff() == 1 for g in G)
        assert all(g.leading().count == 2 for g in G)

    def test_weight_bound_validated(self):
        with pytest.raises(ValueError, match="at least 2"):
            coefficient_relations(trivial_filtered(), 1)


def series(coeffs):
    """The series sum of p t^n over a {n: ComPoly p} dict."""
    return TruncSeries.from_terms(((n, m), c) for n, p in coeffs.items()
                                  for m, c in p.terms.items())


def exponents(s):
    return sorted({n for n, _ in s.terms})


class TestTruncSeries:
    def test_validation(self):
        one = ComMonomial(())
        with pytest.raises(ValueError, match="exponent"):
            TruncSeries.from_terms([((0, one), 1)])
        with pytest.raises(ValueError, match="ComMonomial"):
            TruncSeries.from_terms([((1, "x"), 1)])
        with pytest.raises(ValueError, match="pairs"):
            TruncSeries.monomial(one)

    @pytest.mark.parametrize("n", [0, -2, 1.0, 2.5, Fraction(2), "1", True, None])
    def test_exponent_must_be_int_at_least_one(self, n):
        with pytest.raises(ValueError, match="exponent must be an int >= 1"):
            TruncSeries.monomial((n, ComMonomial(())))
        with pytest.raises(ValueError, match="exponent must be an int >= 1"):
            TruncSeries.from_terms([((n, ComMonomial(())), 1)])

    def test_zero_coefficients_dropped(self):
        s = series({2: ComPoly.zero()})
        assert not s
        assert s == TruncSeries.zero()
        assert TruncSeries.from_terms([((2, ComMonomial(())), 0)]) == TruncSeries.zero()

    def test_coeff_accessor(self):
        p = ComPoly.monomial(ComMonomial(()))
        s = series({2: p})
        assert s.coeff(2) == p
        assert s.coeff(3) == ComPoly.zero()

    def test_addition_and_negation(self):
        p = ComPoly.monomial(ComMonomial(()))
        s = series({1: p})
        u = series({1: p.scale(-1)})
        assert s + u == TruncSeries.zero()
        assert s - s == TruncSeries.zero()
        assert s.scale(-1).scale(-1) == s

    def test_product_needs_truncation(self):
        s = series({1: ComPoly.monomial(ComMonomial(()))})
        with pytest.raises(TypeError):
            s * s
        assert s.scale(2) == s + s

    def test_repr(self):
        assert repr(TruncSeries.zero()) == "0"
        F = trivial_filtered()
        x1 = ComPoly.monomial(c_mono(F, ("x", 1)))
        assert repr(series({3: ONE, 1: x1.scale(2)})) == "(2 x[1]) t^1 + (1) t^3"


ONE = ComPoly.monomial(ComMonomial(()))


def const_term(c, n):
    return series({n: ONE.scale(c)})


class TestRbApply:
    def test_scales_by_inverse_exponent(self):
        F = trivial_filtered()
        g = ComPoly.monomial(c_mono(F, ("x", 2)))
        s = series({3: g})
        assert rb_apply(s) == series({3: g.scale(Fraction(1, 3))})

    def test_zero(self):
        assert rb_apply(TruncSeries.zero()) == TruncSeries.zero()

    def test_rb_identity_on_monomials(self):
        a = const_term(1, 2)
        b = const_term(1, 3)
        left = series_product(rb_apply(a), rb_apply(b), 8)
        assert left == const_term(Fraction(1, 6), 5)
        right = rb_apply(series_product(rb_apply(a), b, 8)
                         + series_product(a, rb_apply(b), 8))
        assert left == right

    def test_rb_identity_random(self):
        rng = random.Random(57)
        for _ in range(200):
            N = rng.randint(2, 8)
            s = random_series(rng, N)
            u = random_series(rng, N)
            left = series_product(rb_apply(s), rb_apply(u), N)
            right = rb_apply(series_product(rb_apply(s), u, N)
                             + series_product(s, rb_apply(u), N))
            assert left == right


class TestSeriesProduct:
    def test_single_diagonal(self):
        F = trivial_filtered()
        a = series({1: ComPoly.monomial(c_mono(F, ("x", 1)))})
        got = series_product(a, a, 4)
        assert got == series({2: ComPoly.monomial(c_mono(F, ("x", 1), ("x", 1)))})

    def test_truncation_discards_overflow(self):
        s = const_term(1, 3)
        assert series_product(s, s, 4) == TruncSeries.zero()
        assert series_product(s, s, 6) == const_term(1, 6)

    def test_drops_every_exponent_above_N(self):
        # Factors with exponents up to 2N: the product at N is the full
        # product with every exponent above N dropped.
        rng = random.Random(61)
        for _ in range(60):
            N = rng.randint(1, 6)
            s, u = random_series(rng, 2 * N), random_series(rng, 2 * N)
            got = series_product(s, u, N)
            assert all(n <= N for n in exponents(got))
            full = series_product(s, u, 4 * N)
            assert got == TruncSeries.from_terms(
                (t, c) for t, c in full.terms.items() if t[0] <= N)
            assert got == naive_product(s, u, N)

    def test_double_sum_shape(self):
        # phi(x) phi(y) carries j * x_i y_j at t^(i+j).
        F = truncated_filtered(2)
        x1, x2 = F.algebra.alphabet["x1"], F.algebra.alphabet["x2"]
        prod = series_product(generator_series(x1, F, 5),
                              generator_series(x2, F, 5), 5)
        c5 = prod.coeff(5)
        for i in (1, 2, 3):
            j = 5 - i
            assert c5.terms[c_mono(F, ("x1", i), ("x2", j))] == i * j


class TestScaledSeriesProduct:
    def test_matches_the_fraction_oracle(self):
        # The library's one product, on scaled series, has the value of
        # the term-by-term Fraction product.
        rng = random.Random(67)
        for _ in range(100):
            N = rng.randint(1, 8)
            s, u = embed_module._draw(rng, N), embed_module._draw(rng, N)
            got = embed_module.series_product(s, u, N)
            assert got[0] == 36
            assert oracles._as_series(got) \
                == series_product(oracles._as_series(s), oracles._as_series(u), N)

    def test_prime_codes_and_monomials_agree(self):
        # The draw keys monomials by prime codes; the same kernel on the
        # decoded ComMonomial keys forms the decoded product, and both
        # have the value of the Fraction oracle.
        rng = random.Random(71)
        for _ in range(100):
            N = rng.randint(1, 8)
            s, u = embed_module._draw(rng, N), embed_module._draw(rng, N)
            coded = embed_module.series_product(s, u, N)
            plain = embed_module.series_product(decoded(s), decoded(u), N)
            assert decoded(coded) == plain
            want = series_product(oracles._as_series(s), oracles._as_series(u), N)
            assert oracles._as_series(coded) == oracles._as_series(plain) == want

    def test_draw_codes_are_one_to_one(self):
        # The 36 monomials of at most two draw symbols have distinct codes,
        # and each decodes to its monomial.
        codes = {}
        for k in range(3):
            for pos in itertools.combinations_with_replacement(range(7), k):
                code = math.prod(embed_module._DRAW_PRIMES[i] for i in pos)
                codes[code] = ComMonomial(oracles.DRAW_SYMBOLS[i] for i in pos)
        assert len(codes) == 36
        for code, m in codes.items():
            assert oracles.decode_monomial(code) is m

    def test_product_codes_decode_to_products(self):
        # Every product of two monomials of at most three symbols, so every
        # monomial up to degree 6, codes as the product of the codes.
        primes, symbols = embed_module._DRAW_PRIMES, oracles.DRAW_SYMBOLS
        small = {}
        for k in range(4):
            for pos in itertools.combinations_with_replacement(range(7), k):
                small[math.prod(primes[i] for i in pos)] = ComMonomial(symbols[i] for i in pos)
        assert len(small) == 120
        products = {}
        for a, m in small.items():
            for b, k in small.items():
                assert oracles.decode_monomial(a * b) is m * k
                products[a * b] = m * k
        assert len(products) == len(set(products.values())) == math.comb(13, 6)

    def test_groups_drop_cancelled_terms(self):
        x = ComMonomial(())
        s = (1, {1: {x: 1}, 2: {x: 1}})
        u = (1, {1: {x: 1}, 2: {x: -1}})
        # (t + t^2)(t - t^2) = t^2 - t^4: the t^3 group cancels.
        assert embed_module.series_product(s, u, 4) == (1, {2: {x: 1}, 4: {x: -1}})
        assert embed_module.series_product(s, u, 1) == (1, {})


def decoded(s):
    """A scaled series with its prime codes decoded to ComMonomials."""
    d, terms = s
    return d, {n: {oracles.decode_monomial(m): c for m, c in g.items()}
               for n, g in terms.items()}


def naive_product(s, u, N):
    """The Cauchy product through t^N by plain ComPoly arithmetic, degree
    by degree."""
    return series({n: sum((com_product(s.coeff(i), u.coeff(n - i)) for i in range(1, n)),
                          ComPoly.zero())
                   for n in range(2, N + 1)})


def exact_coefficients(s):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in s.terms.values())


class TestSeriesProductAgainstNaive:
    def test_random_series(self):
        rng = random.Random(59)
        for _ in range(150):
            N = rng.randint(1, 7)
            # Sums of two draws, so a coefficient can have up to four terms.
            s = random_series(rng, N) + random_series(rng, N)
            u = random_series(rng, N) + random_series(rng, N)
            got = series_product(s, u, N)
            assert got == naive_product(s, u, N)
            assert exact_coefficients(got)

    def test_constant_terms_and_full_cancellation(self):
        # s1 u2 + s2 u1 = -(4/9) xy + (4/9) xy: the t^3 coefficient cancels.
        F = trivial_filtered(2)
        x, y = (c_mono(F, (name, 1)) for name in ("x", "y"))
        s = series({1: ComPoly.monomial(x).scale(Fraction(1, 2)),
                    2: ComPoly.monomial(y).scale(Fraction(2, 3))})
        u = series({1: ComPoly.monomial(x).scale(Fraction(2, 3)),
                    2: ComPoly.monomial(y).scale(Fraction(-8, 9))})
        got = series_product(s, u, 4)
        assert got == naive_product(s, u, 4)
        assert 3 not in exponents(got)
        assert got.coeff(2) == ComPoly.monomial(x * x).scale(Fraction(1, 3))
        assert got.coeff(4) == ComPoly.monomial(y * y).scale(Fraction(-16, 27))
        # Constants times constants stay integers where they are integral.
        c = series({1: ONE.scale(Fraction(3, 2)), 2: ONE.scale(Fraction(1, 3))})
        got = series_product(c, c, 4)
        assert got == naive_product(c, c, 4)
        assert got.coeff(2).terms == {ONE.leading(): Fraction(9, 4)}
        assert got.coeff(3).terms == {ONE.leading(): 1}
        assert type(got.coeff(3).terms[ONE.leading()]) is int
        assert series_product(s, s.scale(-1), 4) == series_product(s, s, 4).scale(-1)


class TestGeneratorSeries:
    def test_level_one(self):
        F = trivial_filtered()
        x = F.algebra.alphabet["x"]
        s = generator_series(x, F, 3)
        assert s.coeff(1) == ComPoly.monomial(c_mono(F, ("x", 1)))
        assert s.coeff(2) == ComPoly.monomial(c_mono(F, ("x", 2))).scale(2)
        assert s.coeff(3) == ComPoly.monomial(c_mono(F, ("x", 3))).scale(3)

    def test_level_two_starts_at_two(self):
        F = truncated_filtered(2)
        s = generator_series(F.algebra.alphabet["x2"], F, 3)
        assert exponents(s) == [2, 3]
        assert s.coeff(2) == ComPoly.monomial(c_mono(F, ("x2", 2))).scale(2)
        assert s.coeff(3) == ComPoly.monomial(c_mono(F, ("x2", 3))).scale(3)

    def test_boundary_single_term(self):
        F = truncated_filtered(2)
        s = generator_series(F.algebra.alphabet["x2"], F, 2)
        assert exponents(s) == [2]

    def test_below_level_rejected(self):
        F = truncated_filtered(3)
        with pytest.raises(ValueError, match="truncation below level"):
            generator_series(F.algebra.alphabet["x3"], F, 2)


def image_residues(F, N):
    """(x, y, residue) for each basis pair x <= y, the residue being
    R(fx)fy + fxR(fy) minus the image of x*y, with no reduction."""
    images = {x: generator_series(x, F, N) for x in F.basis}
    for i, x in enumerate(F.basis):
        for y in F.basis[i:]:
            target = TruncSeries.zero()
            for z, c in F.product(x, y).items():
                target = target + images[z].scale(c)
            yield x, y, series_star(images[x], images[y], N) - target


def weight_times_relation(F, x, y, l):
    """l * pair_relation(F, x, y, l), or zero below the level sum."""
    if l < F.level(x) + F.level(y):
        return ComPoly.zero()
    return pair_relation(F, x, y, l).scale(l)


class TestSeriesStar:
    def test_monomial_formula(self):
        for i, j in [(1, 2), (2, 3), (3, 4)]:
            a = const_term(1, i)
            b = const_term(1, j)
            want = const_term(Fraction(1, i) + Fraction(1, j), i + j)
            assert series_star(a, b, 8) == want

    def test_commutative(self):
        rng = random.Random(71)
        for _ in range(50):
            N = rng.randint(2, 7)
            s, u = random_series(rng, N), random_series(rng, N)
            assert series_star(s, u, N) == series_star(u, s, N)

    def test_associative(self):
        rng = random.Random(73)
        for _ in range(50):
            N = rng.randint(2, 6)
            s, u, v = (random_series(rng, N) for _ in range(3))
            assert series_star(series_star(s, u, N), v, N) \
                == series_star(s, series_star(u, v, N), N)

    def test_residue_is_weight_times_relation(self):
        # Unreduced, the t^l discrepancy is exactly l times one relation,
        # and zero below the level sum.
        for F, N in ((truncated_filtered(3), 6),
                     (standard_filtration(random_nilpotent_algebra(random.Random(3))), 8)):
            for x, y, residue in image_residues(F, N):
                for l in range(1, N + 1):
                    assert residue.coeff(l) == weight_times_relation(F, x, y, l), \
                        (x, y, l)

    def test_grading_of_products(self):
        F = truncated_filtered(3)
        prod = series_star(generator_series(F.algebra.alphabet["x1"], F, 6),
                           generator_series(F.algebra.alphabet["x2"], F, 6), 6)
        for n in exponents(prod):
            assert {m.weight for m in prod.coeff(n).terms} == {n}


class TestSplitting:
    def test_zinbiel_identity_on_random_series(self):
        rng = random.Random(83)
        for _ in range(60):
            N = rng.randint(2, 6)
            a, b, c = (random_series(rng, N) for _ in range(3))
            lhs = splitting_product(a, splitting_product(b, c, N), N)
            rhs = splitting_product(splitting_product(a, b, N), c, N) \
                + splitting_product(splitting_product(b, a, N), c, N)
            assert lhs == rhs

    def test_star_is_symmetrized_splitting(self):
        rng = random.Random(89)
        for _ in range(20):
            N = rng.randint(2, 6)
            s, u = random_series(rng, N), random_series(rng, N)
            assert series_star(s, u, N) \
                == splitting_product(s, u, N) + splitting_product(u, s, N)


def shifted_rb(s):
    """The wrong operator t^n -> t^n/(n+1), on series."""
    return TruncSeries._raw({t: exact(Fraction(c, t[0] + 1)) for t, c in s.terms.items()})


def shifted_scaled_rb(s, q):
    """The same wrong operator on scaled series."""
    d, terms = s
    D = math.lcm(*(n + 1 for n in terms))
    return d * D, {n: {m: c * (D // (n + 1)) for m, c in g.items()}
                   for n, g in terms.items()}


def dropping(kernel, drop):
    """A wrong Cauchy kernel: it leaves out the pairs of exponents (i, j)
    for which drop(i, j) holds."""
    def product(s, u, N):
        out = (1, {})
        for i, g in s.items():
            right = {j: h for j, h in u.items() if not drop(i, j)}
            out = embed_module._scaled_sum(out, (1, kernel({i: g}, right, N)))
        return out[1]
    return product


def diagonal_free(kernel):
    """A wrong Cauchy kernel: it leaves out the pairs of equal exponents."""
    return dropping(kernel, lambda i, j: i == j)


class TestVerifyRotaBaxter:
    # (seed, max_n) pairs: 10 seeds, truncations up to 12.
    RUNS = list(zip(range(10), (2, 3, 4, 5, 6, 8, 8, 10, 12, 12)))

    @pytest.mark.parametrize("seed, max_n", RUNS)
    def test_sides_match_the_fraction_oracle(self, seed, max_n):
        # The scaled sides of both identities have the values the
        # TruncSeries arithmetic gives, from the same draws.
        rng, ref = random.Random(seed), random.Random(seed)
        stats = {"terms": 0}
        for _ in range(40):
            sides = embed_module._rb_sides(rng, max_n, stats)
            want = oracles.rota_baxter_sides(ref, max_n)
            assert [oracles._as_series(x) for x in sides] == list(want)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed, max_n", RUNS[::3])
    def test_no_failures_on_the_averaging_operator(self, seed, max_n):
        assert verify_rota_baxter(random.Random(seed), 40, max_n, {}) == []

    def test_shifted_operator_fails_both_identities(self, monkeypatch):
        # t^n -> t^n/(n+1) is no Rota-Baxter operator; the Fraction oracle
        # with the same operator fails the same trials.
        monkeypatch.setattr(embed_module, "_scaled_rb", shifted_scaled_rb)
        monkeypatch.setattr(oracles, "rb_apply", shifted_rb)
        got = verify_rota_baxter(random.Random(4), 30, 8, {})
        assert got == oracles.rota_baxter_failures(4, 30, 8)
        assert {identity for _, identity in got} == {"rota-baxter", "pre-commutative"}

    def test_wrong_product_fails(self, monkeypatch):
        # A wrong Cauchy kernel fails the check; the oracle forms its
        # products term by term, without the kernel, and fails nothing.
        monkeypatch.setattr(embed_module, "_cauchy", diagonal_free(embed_module._cauchy))
        got = verify_rota_baxter(random.Random(4), 30, 8, {})
        assert (5, "pre-commutative") in got
        assert oracles.rota_baxter_failures(4, 30, 8) == []

    def test_asymmetric_product_fails(self, monkeypatch):
        # The pre-commutative right side R(R(a)b + aR(b))c stands for
        # R(R(a)b)c + R(R(b)a)c only where the product commutes.  A kernel
        # that leaves out the pairs i > j makes s u differ from u s, and
        # the check fails where the term-by-term oracle fails nothing.
        monkeypatch.setattr(embed_module, "_cauchy",
                            dropping(embed_module._cauchy, lambda i, j: i > j))
        got = verify_rota_baxter(random.Random(4), 30, 8, {})
        assert sum(identity == "pre-commutative" for _, identity in got) == 10
        assert oracles.rota_baxter_failures(4, 30, 8) == []

    def test_stats(self):
        stats = {}
        verify_rota_baxter(random.Random(0), 20, 8, stats)
        assert stats == {"terms": 710}

    def test_stats_at_benchmark_size(self):
        # The size of a perfbench rb-fixed job; the terms are those of the
        # draw that built ComMonomial keys.
        stats = {}
        assert verify_rota_baxter(random.Random(194963), 300, 8, stats) == []
        assert stats == {"terms": 12672}


class TestScaledSeries:
    def setup_method(self):
        F = trivial_filtered(2)
        self.x, self.y = (c_mono(F, (name, 1)) for name in ("x", "y"))

    def test_equal_values_at_different_denominators(self):
        a = (6, {1: {self.x: 3}, 2: {self.y: -4}})
        b = (12, {1: {self.x: 6}, 2: {self.y: -8}})
        assert embed_module._scaled_equal(a, b)
        assert embed_module._scaled_equal(b, a)
        assert oracles._as_series(a) == oracles._as_series(b)
        assert embed_module._scaled_equal((1, {}), (30, {}))

    def test_one_coefficient_off(self):
        a = (6, {1: {self.x: 3}, 2: {self.y: -4}})
        b = (12, {1: {self.x: 6}, 2: {self.y: -7}})
        assert not embed_module._scaled_equal(a, b)
        assert not embed_module._scaled_equal(b, a)

    def test_one_extra_key(self):
        a = (6, {1: {self.x: 3}})
        for b in ((6, {1: {self.x: 3}, 2: {self.y: 1}}),
                  (6, {1: {self.x: 3, self.y: 1}})):
            assert not embed_module._scaled_equal(a, b)
            assert not embed_module._scaled_equal(b, a)

    def test_one_denominator_compares_as_dicts(self):
        # Over one denominator the compare is a dict compare, which is
        # exact because no scaled series holds a zero or an empty group.
        a = (6, {1: {self.x: 3}, 2: {self.y: -4}})
        assert embed_module._scaled_equal(a, (6, {1: {self.x: 3}, 2: {self.y: -4}}))
        assert embed_module._scaled_equal((6, {}), (6, {}))
        off = (6, {1: {self.x: 3}, 2: {self.y: -5}})
        extra_monomial = (6, {1: {self.x: 3}, 2: {self.y: -4, self.x: 1}})
        extra_group = (6, {1: {self.x: 3}, 2: {self.y: -4}, 3: {self.x: 1}})
        for b in (off, extra_monomial, extra_group):
            assert oracles._as_series(a) != oracles._as_series(b)
            assert not embed_module._scaled_equal(a, b)
            assert not embed_module._scaled_equal(b, a)

    @staticmethod
    def assert_kernel(s, u, N):
        # The kernel's terms hold no zero coefficient and no empty group,
        # keep the order in which the exponents were first formed, and
        # have the value of the Fraction product.  Returns the terms and
        # the numbers of groups and of terms that cancelled.
        got = embed_module._cauchy(s[1], u[1], N)
        assert all(got.values())
        assert all(c for g in got.values() for c in g.values())
        formed = {}
        for i, g in s[1].items():
            for j, h in u[1].items():
                if i + j <= N:
                    formed.setdefault(i + j, set()).update(m * k for m in g for k in h)
        assert list(got) == [n for n in formed if n in got]
        want = series_product(oracles._as_series(s), oracles._as_series(u), N)
        assert oracles._as_series((s[0] * u[0], got)) == want
        return got, len(formed) - len(got), sum(len(formed[n]) - len(g) for n, g in got.items())

    def test_kernel_keeps_the_invariant_on_draws(self):
        # Random draws rarely cancel, so each draw s is also multiplied by
        # itself at -t, an even series whose odd groups cancel, and at
        # -x[1] (prime code 2), even in x[1], whose terms odd in x[1]
        # cancel within their groups.
        def at_minus(s, odd):
            return s[0], {n: {m: -c if odd(n, m) else c for m, c in g.items()}
                          for n, g in s[1].items()}

        rng = random.Random(8)
        groups = terms = 0
        for _ in range(300):
            N = rng.randint(1, 8)
            s, u = embed_module._draw(rng, N), embed_module._draw(rng, N)
            for v in (u, at_minus(s, lambda n, m: n % 2),
                      at_minus(s, lambda n, m: (m & -m).bit_length() % 2 == 0)):
                _, g, t = self.assert_kernel(s, v, N)
                groups, terms = groups + g, terms + t
        assert groups > 100 and terms > 100

    def test_kernel_drops_a_cancelled_coefficient_and_group(self):
        # Prime codes x = 2, y = 3: (x + y)t (x - y)t = (x^2 - y^2)t^2, the
        # xy coefficient cancelled; (t + t^2)(t - t^2) = t^2 - t^4, the t^3
        # group cancelled; and (x + y)(t + t^2) (x - y)(t - t^2), both.
        got = self.assert_kernel((1, {1: {2: 1, 3: 1}}), (1, {1: {2: 1, 3: -1}}), 2)
        assert got == ({2: {4: 1, 9: -1}}, 0, 1)
        got = self.assert_kernel((2, {1: {1: 1}, 2: {1: 1}}), (3, {1: {1: 1}, 2: {1: -1}}), 4)
        assert got == ({2: {1: 1}, 4: {1: -1}}, 1, 0)
        s = (1, {1: {2: 1, 3: 1}, 2: {2: 1, 3: 1}})
        u = (1, {1: {2: 1, 3: -1}, 2: {2: -1, 3: 1}})
        assert self.assert_kernel(s, u, 4) == ({2: {4: 1, 9: -1}, 4: {4: -1, 9: 1}}, 1, 2)

    def test_sum_cross_scales_and_drops_zeros(self):
        a = (2, {1: {self.x: 1}, 2: {self.y: 1}})
        b = (3, {1: {self.x: 1}, 2: {self.y: -2}})
        got = embed_module._scaled_sum(a, b)
        assert got == (6, {1: {self.x: 5}, 2: {self.y: -1}})
        assert embed_module._scaled_sum(a, (2, {1: {self.x: -1}})) == (2, {2: {self.y: 1}})
        got = embed_module._scaled_sum(a, (2, {1: {self.y: 1}}))
        assert got == (2, {1: {self.x: 1, self.y: 1}, 2: {self.y: 1}})
        assert a == (2, {1: {self.x: 1}, 2: {self.y: 1}})

    def test_rb_multiplies_by_lcm_over_n(self):
        s = TruncSeries._raw({(1, self.x): Fraction(1, 2), (3, self.y): 5})
        scaled = embed_module._scaled_rb((2, {1: {self.x: 1}, 3: {self.y: 10}}),
                                         [6, 6, 3, 2])
        assert scaled[0] == 12
        assert oracles._as_series(scaled) == rb_apply(s)


class TestVerifyEmbedding:
    def test_trivial_one_dim(self):
        rep = verify_embedding(trivial_filtered(), 4)
        assert rep.verified
        assert rep.relation_count == 3
        assert rep.failures == []
        assert rep.injectivity_certified_to == 4

    def test_truncated_two(self):
        rep = verify_embedding(truncated_filtered(2), 6)
        assert rep.verified
        assert rep.buchberger.added  # completion genuinely discovers relations

    def test_truncated_three_standard_filtration(self):
        F = standard_filtration(truncated_power_algebra(3))
        rep = verify_embedding(F, 6)
        assert rep.verified

    def test_truncation_too_small(self):
        with pytest.raises(ValueError, match="truncation too small"):
            verify_embedding(truncated_filtered(3), 5)

    def test_invalid_filtration_rejected(self):
        A = truncated_power_algebra(2)
        with pytest.raises(ValueError, match="filtration violation"):
            FilteredAlgebra(A, {x: 1 for x in A.basis})

    def test_non_associative_rejected(self):
        # (aa)b = bb = d but a(ab) = ac = 0.
        ab = Alphabet(["a", "b", "c", "d"])
        a, b, c, d = ab.letters
        A = CommAlgebra(ab, {(a, a): {b: 1}, (a, b): {c: 1}, (b, b): {d: 1}})
        F = FilteredAlgebra(A, {a: 1, b: 2, c: 3, d: 4})
        assert_filtration_holds(F)
        with pytest.raises(ValueError, match=r"not associative on basis triple \(a, a, b\)"):
            verify_embedding(F, 8)

    def test_homomorphism_failures_with_identity_operator(self, monkeypatch):
        # With R the identity, R(fx)fy + fxR(fy) = 2 fx fy, which is not l
        # times the pair relation; each failure holds the exact difference.
        monkeypatch.setattr(embed_module, "_scaled_rb", lambda s, q: s)
        monkeypatch.setattr(oracles, "rb_apply", lambda s: s)
        F = truncated_filtered(3)
        N = 6
        rep = verify_embedding(F, N)
        want = [(x.name, y.name, l, residue.coeff(l) - weight_times_relation(F, x, y, l))
                for x, y, residue in image_residues(F, N) for l in range(1, N + 1)]
        assert rep.failures == [w for w in want if w[3]]
        assert len(rep.failures) == 17
        rank = {x.name: x.rank for x in F.basis}
        keys = [(rank[x], rank[y], l) for x, y, l, _ in rep.failures]
        assert keys == sorted(keys)
        assert not rep.verified

    def test_wrong_product_reports_homomorphism_failures(self, monkeypatch):
        # A wrong Cauchy kernel leaves residues that are not l times the
        # pair relation; the oracle's term-by-term residues all are.
        monkeypatch.setattr(embed_module, "_cauchy", diagonal_free(embed_module._cauchy))
        F = truncated_filtered(3)
        rep = verify_embedding(F, 6)
        assert not rep.verified
        # Every pair has a term t^i t^i with 2i <= 6 that the kernel drops.
        assert {(x, y) for x, y, _, _ in rep.failures} \
            == {(x.name, y.name) for i, x in enumerate(F.basis) for y in F.basis[i:]}
        for x, y, residue in image_residues(F, 6):
            for l in range(1, 7):
                assert residue.coeff(l) == weight_times_relation(F, x, y, l)

    def test_builds_each_pair_relation_once(self, monkeypatch):
        # One pair_relation call per coefficient relation, and the
        # completion gets the relations of coefficient_relations in order,
        # as they stand: it makes them monic itself.
        F = truncated_filtered(3)
        want = coefficient_relations(F, 8)
        calls = []
        completed = []

        def counted(*args):
            calls.append(args)
            return pair_relation(*args)

        def completion(G, N):
            completed.extend(G)
            return buchberger_bounded(G, N)

        monkeypatch.setattr(embed_module, "pair_relation", counted)
        monkeypatch.setattr(embed_module, "buchberger_bounded", completion)
        rep = verify_embedding(F, 8)
        assert rep.verified
        assert len(calls) == rep.relation_count == len(want)
        assert [g.monic() for g in completed] == want

    def test_linear_relation_fails_the_certificate(self, monkeypatch):
        # A failing control: a completion that also gets x[1] - y[1]
        # proves a linear leading monomial, so the certificate is refused.
        F = trivial_filtered(2)
        assert verify_embedding(F, 4).verified
        x, y = (ComMonomial((F.symbol(z, 1),)) for z in F.basis)
        linear = ComPoly.from_terms([(x, 1), (y, -1)])
        monkeypatch.setattr(embed_module, "buchberger_bounded",
                            lambda G, N: buchberger_bounded([*G, linear], N))
        rep = verify_embedding(F, 4)
        assert rep.failures == []
        assert rep.injectivity_certified_to is None
        assert not rep.verified
        assert [repr(p) for p in rep.buchberger.linear_leadings] == ["y[1] - x[1]"]

    def test_random_nilpotent_instances(self):
        rng = random.Random(97)
        for _ in range(2):
            F = standard_filtration(random_nilpotent_algebra(rng))
            assert verify_embedding(F, 6).verified


def monomials_by_weight(symbols, N):
    """Every monomial in the symbols of weight 0..N, by weight."""
    out = [[] for _ in range(N + 1)]
    out[0].append(())
    for s in symbols:
        for w in range(s.weight, N + 1):
            out[w] += [m + (s,) for m in out[w - s.weight]]
    return [[ComMonomial(m) for m in ms] for ms in out]


class TestMacaulayOracle:
    """The weight-truncated completion against linear algebra: in each
    weight l <= N, the rows m*g of the Macaulay matrix span the weight-l
    part of the relation ideal, so their echelon pivots are its leading
    monomials.  Those must be exactly the monomials that a leading monomial
    of the completed basis divides, and none may be a single symbol."""

    @pytest.mark.parametrize("name", ["power3", "seed0", "seed1"])
    def test_hilbert_function_and_pivots(self, name):
        N = 8
        if name == "power3":
            F = truncated_filtered(3)
        else:
            F = standard_filtration(random_nilpotent_algebra(random.Random(int(name[4:]))))
        G = coefficient_relations(F, N)
        leads = [g.leading() for g in buchberger_bounded(G, N)[0]]
        symbols = [F.symbol(x, i) for x in F.basis for i in range(F.level(x), N + 1)]
        monos = monomials_by_weight(symbols, N)
        for l in range(1, N + 1):
            # Column 0 is the largest monomial, so a row's pivot, its
            # smallest column, is its leading monomial.
            columns = sorted(monos[l], key=lambda m: m.key, reverse=True)
            col = {m: i for i, m in enumerate(columns)}
            rows: dict = {}
            for g in G:
                w = next(iter(g.terms)).weight
                for m in monos[l - w] if w <= l else ():
                    row = mul_monomial(g, m)
                    echelon_insert(rows, {col[t]: c for t, c in row.terms.items()})
            pivots = {columns[p] for p in rows}
            standard = [m for m in columns if not any(h.divides(m) for h in leads)]
            assert len(columns) - len(rows) == len(standard), l
            assert pivots == set(columns) - set(standard), l
            assert all(m.count > 1 for m in pivots), l
            assert all(r[p] == 1 and not any(q in r for q in rows if q != p)
                       for p, r in rows.items())


def product_combo(A, combo1, combo2):
    out = {}
    for x, a in combo1.items():
        for y, b in combo2.items():
            for z, c in A.product(x, y).items():
                out[z] = out.get(z, Fraction(0)) + a * b * c
    return {z: c for z, c in out.items() if c}


class TestRandomInputs:
    def test_random_series_bounds(self):
        rng = random.Random(3)
        for _ in range(40):
            s = random_series(rng, 5)
            assert all(1 <= n <= 5 for n in exponents(s))
            assert all(len(s.coeff(n).terms) <= 2 for n in exponents(s))

    def test_draw_matches_the_choice_reference(self):
        # The draw reads getrandbits as Random.choice does: the same
        # series, in the same order, and the same generator state after.
        for seed in range(200):
            for N in range(1, 13):
                rng, ref = random.Random(seed), random.Random(seed)
                got, want = embed_module._draw(rng, N), oracles.draw_reference(ref, N)
                assert repr(got) == repr(want)
                assert rng.getstate() == ref.getstate()

    def test_random_series_deterministic(self):
        a = random_series(random.Random(13), 6)
        b = random_series(random.Random(13), 6)
        assert a == b

    @pytest.mark.parametrize("seed, N, digest", [
        (0, 2, "ca96db31c992aa8de35c8aeaea8a4a210578a3424472713b5f39779ce22a3633"),
        (1, 5, "26124f58de96bfd3a09c55634ac0b2296c932d4d6a659d8d48678fbf68287e5a"),
        (7, 8, "3bbf0c506e1e782d7ef3a971bd4a98193b6f4634622a56c1cbd651c450cbe3cf"),
        (42, 12, "0033839e8ec993a0801dcb6508301a040bb365d77876943bc8a2da9f384a1fb1"),
        (2024, 12, "6b6fdd7cf09374397529ddcbefd2b38b40a69d3105262d9e4bd4fc33dec75d07"),
    ])
    def test_random_series_stream_pinned(self, seed, N, digest):
        # The draw and the generator state after it, as random_series made
        # them when it built Fraction coefficients: a change in how it uses
        # the generator changes every verify rb trial after it.
        rng = random.Random(seed)
        s = random_series(rng, N)
        text = repr(sorted((n, m.key, str(c)) for (n, m), c in s.terms.items()))
        text += " %d" % rng.getrandbits(32)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_random_nilpotent_algebras_are_associative(self):
        rng = random.Random(19)
        for _ in range(20):
            A = random_nilpotent_algebra(rng)
            basis = A.basis
            for x in basis:
                for y in basis:
                    for z in basis:
                        left = product_combo(A, A.product(x, y), {z: Fraction(1)})
                        right = product_combo(A, {x: Fraction(1)}, A.product(y, z))
                        assert left == right, (x, y, z)

    def test_random_nilpotent_algebras_filter(self):
        rng = random.Random(31)
        for _ in range(10):
            assert_filtration_holds(standard_filtration(random_nilpotent_algebra(rng)))
