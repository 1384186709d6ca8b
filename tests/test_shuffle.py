from __future__ import annotations

import inspect
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb as binom

import pytest

from precom import shuffle as shuffle_module
from precom.envelope import default_alphabet
from precom.magma import Alphabet, MagmaPoly, comb, leaf, node
from precom.rewrite import ZinbielFamily, irreducible_words, normal_form
from precom.sexpr import parse_aword
from precom.shuffle import (
    ZinbElement,
    _tensor_mul,
    decode_word,
    encode_word,
    perm_tensor_check,
    random_element,
    star,
    zinbiel_product,
)

from oracles import (from_left_comb, half_shuffle, magma_product, perm_tensor_reference,
                     random_element_with_terms, shuffle_product, to_left_comb)


def wd(ab, names):
    return tuple(ab[n] for n in names)


def el(ab, names, coeff=1):
    return ZinbElement.monomial(wd(ab, names)).scale(coeff)


def decoded(terms):
    # A term dict of the library's words keyed by letter tuples instead,
    # so it compares with the oracles, which compute on letter tuples.
    return {decode_word(w): c for w, c in terms.items()}


def encoded(terms):
    # An oracle's term dict, keyed by letter tuples, keyed by the
    # library's words instead.
    return {encode_word(w): c for w, c in terms.items()}


def all_awords(ab, n):
    return list(product(ab.letters, repeat=n))


def triples_up_to(ab, total):
    for i in range(1, total - 1):
        for j in range(1, total - i):
            for k in range(1, total - i - j + 1):
                for a in all_awords(ab, i):
                    for b in all_awords(ab, j):
                        for c in all_awords(ab, k):
                            yield a, b, c


class TestShuffle:
    def test_two_letters(self, ab2):
        got = shuffle_product(wd(ab2, "x"), wd(ab2, "y"))
        assert got == el(ab2, "xy") + el(ab2, "yx")

    def test_letter_into_pair(self, ab3):
        got = shuffle_product(wd(ab3, "x"), wd(ab3, "yz"))
        assert got == el(ab3, "xyz") + el(ab3, "yxz") + el(ab3, "yzx")

    def test_collision_doubles(self, ab2):
        assert shuffle_product(wd(ab2, "x"), wd(ab2, "x")) == el(ab2, "xx", 2)

    def test_rejects_empty(self, ab2):
        with pytest.raises(ValueError, match="nonempty"):
            shuffle_product((), wd(ab2, "x"))

    def test_coefficient_sum_is_binomial(self, ab2):
        rng = random.Random(3)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            u = tuple(rng.choice(ab2.letters) for _ in range(n))
            v = tuple(rng.choice(ab2.letters) for _ in range(m))
            total = sum(shuffle_product(u, v).terms.values())
            assert total == binom(n + m, n)

    def test_commutative(self, ab3):
        for u in all_awords(ab3, 2):
            for v in all_awords(ab3, 3):
                assert shuffle_product(u, v) == shuffle_product(v, u)

    def test_deep_word_needs_no_recursion(self, ab2):
        x = ab2["x"]
        assert shuffle_product((x,) * 1200, (x,)) == ZinbElement.monomial((x,) * 1201).scale(1201)


class TestZinbielProduct:
    def test_letters(self, ab2):
        assert zinbiel_product(el(ab2, "x"), el(ab2, "y")) == el(ab2, "xy")

    def test_letter_times_pair(self, ab3):
        got = zinbiel_product(el(ab3, "x"), el(ab3, "yz"))
        assert got == el(ab3, "xyz") + el(ab3, "yxz")

    def test_pair_times_letter(self, ab3):
        assert zinbiel_product(el(ab3, "xy"), el(ab3, "z")) == el(ab3, "xyz")

    def test_defining_identity_instance(self, ab3):
        x, y, z = el(ab3, "x"), el(ab3, "y"), el(ab3, "z")
        left = zinbiel_product(x, zinbiel_product(y, z))
        right = zinbiel_product(zinbiel_product(x, y), z) \
            + zinbiel_product(zinbiel_product(y, x), z)
        assert left == right

    def test_defining_identity_exhaustive(self, ab2):
        for a, b, c in triples_up_to(ab2, 6):
            fa, fb, fc = (ZinbElement.monomial(w) for w in (a, b, c))
            left = zinbiel_product(fa, zinbiel_product(fb, fc))
            right = zinbiel_product(zinbiel_product(fa, fb), fc) \
                + zinbiel_product(zinbiel_product(fb, fa), fc)
            assert left == right, (a, b, c)

    def test_defining_identity_random_words(self, ab3):
        rng = random.Random(17)
        for _ in range(200):
            ws = [tuple(rng.choice(ab3.letters) for _ in range(rng.randint(1, 4)))
                  for _ in range(3)]
            fa, fb, fc = (ZinbElement.monomial(w) for w in ws)
            left = zinbiel_product(fa, zinbiel_product(fb, fc))
            right = zinbiel_product(zinbiel_product(fa, fb), fc) \
                + zinbiel_product(zinbiel_product(fb, fa), fc)
            assert left == right

    def test_bilinear(self, ab2):
        f = el(ab2, "x", 2) + el(ab2, "y", -1)
        g = el(ab2, "xy")
        h = el(ab2, "y", 3)
        assert zinbiel_product(f + h, g) \
            == zinbiel_product(f, g) + zinbiel_product(h, g)


def brute_shuffle(u, v):
    """Interleavings of u and v with multiplicities, by choosing the
    positions of u's letters: each of u's letters is inserted into v at
    its position, in increasing order."""
    out = Counter()
    for pos in combinations(range(len(u) + len(v)), len(u)):
        w = list(v)
        for k, a in zip(pos, u):
            w.insert(k, a)
        out[tuple(w)] += 1
    return out


def brute_zinbiel(f, g):
    # On letter tuples: each word of f and g decoded.
    out = Counter()
    for u, a in decoded(f.terms).items():
        for v, b in decoded(g.terms).items():
            for s, m in brute_shuffle(u, v[:-1]).items():
                out[s + v[-1:]] += a * b * m
    return {w: c for w, c in out.items() if c}


def assert_exact_terms(f):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


class TestKernelOracle:
    """The shuffle table and the integer-first product against a
    brute-force half-shuffle."""

    def words(self, ab):
        return [w for n in range(1, 5) for w in all_awords(ab, n)]

    def test_shuffle_product_all_pairs(self, ab3):
        ws = self.words(ab3)
        for u in ws:
            for v in ws:
                got = shuffle_product(u, v)
                assert decoded(got.terms) == brute_shuffle(u, v), (u, v)
                assert all(type(c) is int for c in got.terms.values())

    def test_zinbiel_product_all_pairs(self, ab3):
        ws = self.words(ab3)
        for u in ws:
            for v in ws:
                fu, fv = ZinbElement.monomial(u), ZinbElement.monomial(v)
                got = zinbiel_product(fu, fv)
                assert decoded(got.terms) == brute_zinbiel(fu, fv), (u, v)
                assert all(type(c) is int for c in got.terms.values())

    def test_zinbiel_product_fraction_elements(self, ab3):
        rng = random.Random(41)
        for _ in range(300):
            f = random_element_with_terms(rng, ab3, 4, 4)
            g = random_element_with_terms(rng, ab3, 4, 4)
            if rng.random() < 0.3:
                f = f.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
            got = zinbiel_product(f, g)
            assert decoded(got.terms) == brute_zinbiel(f, g), (f, g)
            assert_exact_terms(got)

    def test_warm_table_matches_oracle(self, ab2, monkeypatch):
        # The second pass reads every half-shuffle from the table.
        table: dict = {}
        monkeypatch.setattr(shuffle_module, "_HALF", table)
        ws = [w for n in range(1, 4) for w in all_awords(ab2, n)]
        for _ in range(2):
            for u in ws:
                for v in ws:
                    fu, fv = ZinbElement.monomial(u), ZinbElement.monomial(v)
                    assert decoded(zinbiel_product(fu, fv).terms) == brute_zinbiel(fu, fv), (u, v)
            assert len(table) == len(ws) ** 2

    @pytest.mark.parametrize("letters, longest", [(2, 5), (3, 4)])
    def test_fill_matches_prefix_table(self, letters, longest, monkeypatch):
        # Every pair of words up to the length, requested cold in a seeded
        # shuffled order and then warm: each entry is the prefix table's,
        # with int multiplicities, and the shorter entries each one was
        # built from are pairs of the same set.
        ab = Alphabet(["x", "y", "z"][:letters])
        ws = [w for n in range(1, longest + 1) for w in all_awords(ab, n)]
        pairs = [(u, v) for u in ws for v in ws]
        random.Random(letters).shuffle(pairs)
        cases = [(u, v, encode_word(u), encode_word(v)) for u, v in pairs]
        want = {(eu, ev): encoded(half_shuffle(u, v)) for u, v, eu, ev in cases}
        table: dict = {}
        monkeypatch.setattr(shuffle_module, "_HALF", table)
        for _ in range(2):
            for u, v, eu, ev in cases:
                got = zinbiel_product(ZinbElement.monomial(u), ZinbElement.monomial(v))
                assert got.terms == want[eu, ev], (u, v)
            assert table == want
            assert all(type(m) is int for entry in table.values() for m in entry.values())

    def test_table_does_not_depend_on_fill_order(self, ab2, monkeypatch):
        # The same requests in three orders fill the same entries: a
        # request fills exactly the pairs it is built from, whatever the
        # table already holds.
        rng = random.Random(53)
        ws = [w for n in range(1, 7) for w in all_awords(ab2, n)]
        requests = [(rng.choice(ws), rng.choice(ws)) for _ in range(60)]
        tables = []
        for order in (requests, requests[::-1], rng.sample(requests, len(requests))):
            table: dict = {}
            monkeypatch.setattr(shuffle_module, "_HALF", table)
            for u, v in order:
                zinbiel_product(ZinbElement.monomial(u), ZinbElement.monomial(v))
            tables.append(table)
        assert tables[0] == tables[1] == tables[2]
        assert all(entry == encoded(half_shuffle(decode_word(u), decode_word(v)))
                   for (u, v), entry in tables[0].items())

    def test_fill_needs_no_recursion(self, ab2, monkeypatch):
        # The pair's total length exceeds the lowered recursion limit,
        # which a fill one frame per shorter entry would reach.
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        x = ab2["x"]
        limit = sys.getrecursionlimit()
        low = len(inspect.stack(0)) + 50
        n = low + 20
        sys.setrecursionlimit(low)
        try:
            got = zinbiel_product(ZinbElement.monomial((x,) * n), ZinbElement.monomial((x,) * 3))
        finally:
            sys.setrecursionlimit(limit)
        assert decoded(got.terms) == {(x,) * (n + 3): binom(n + 2, 2)}

    def test_same_names_other_alphabet(self, ab2):
        # No two letters share a character: x.y over another alphabet
        # named x, y is a different word pair with its own entry.
        other = Alphabet(["x", "y"])
        for ab in (ab2, other, ab2):
            f = el(ab, "xy", Fraction(1, 2)) + el(ab, "y", 3)
            g = el(ab, "yx") + el(ab, "x", -2)
            got = zinbiel_product(f, g)
            assert decoded(got.terms) == brute_zinbiel(f, g)
            assert all(any(x is y for y in ab.letters) for w in got.terms for x in decode_word(w))

    def test_products_do_not_alias_the_table(self, ab2):
        u, v = wd(ab2, "xyx"), wd(ab2, "yy")
        fu, fv = ZinbElement.monomial(u), ZinbElement.monomial(v)
        first = zinbiel_product(fu, fv)
        entry = shuffle_module._HALF[encode_word(u), encode_word(v)]
        snapshot = dict(entry)
        assert first.terms is not entry
        scaled = zinbiel_product(fu.scale(Fraction(3, 2)), fv.scale(-4))
        summed = first + zinbiel_product(fu, fv)
        assert scaled.terms is not entry and summed.terms is not entry
        assert entry == snapshot
        assert decoded(entry) == brute_zinbiel(fu, fv)
        assert scaled.terms == {w: -6 * c for w, c in snapshot.items()}

    def test_denominators_cancel_to_int(self, ab2):
        f = el(ab2, "x", Fraction(3, 2)) + el(ab2, "yx", Fraction(1, 6))
        g = el(ab2, "y", 2) + el(ab2, "xy", 6)
        got = zinbiel_product(f, g)
        assert decoded(got.terms) == brute_zinbiel(f, g)
        assert_exact_terms(got)
        assert type(got.terms[encode_word(wd(ab2, "xy"))]) is int


def perm_product(i, j):
    # The Perm algebra that ``perm_tensor_check`` runs: e_i e_j = e_j.
    return j


def old_tensor_mul(s, t):
    # The per-term formula: keys (perm index, word), one product per
    # pair of monomials.
    out = Counter()
    for (i, u), a in s.items():
        for (j, v), b in t.items():
            eu, ev = (ZinbElement.monomial(decode_word(w)).scale(c) for w, c in ((u, a), (v, b)))
            for pidx, prod in ((perm_product(i, j), zinbiel_product(eu, ev)),
                               (perm_product(j, i), zinbiel_product(ev, eu))):
                for w, c in prod.terms.items():
                    out[(pidx, w)] += c
    return {k: c for k, c in out.items() if c}


def flat(s):
    return {(p, w): c for p, e in s.items() for w, c in e.terms.items()}


class TestTensorProduct:
    """``_tensor_mul`` against the per-term formula, so a product that
    confused a>b with b>a would show."""

    @pytest.mark.parametrize("dim", [1, 2, 3], ids=lambda dim: "e_j-%d" % dim)
    def test_against_per_term_formula(self, ab2, dim):
        rng = random.Random(100 + dim)
        for _ in range(4):
            f, g, h = (random_element(rng, ab2, 3) for _ in range(3))
            for i, j, k in product(range(dim), repeat=3):
                A, B, C = {i: f}, {j: g}, {k: h}
                AB, BA = _tensor_mul(A, B), _tensor_mul(B, A)
                assert flat(AB) == old_tensor_mul(flat(A), flat(B))
                assert flat(BA) == old_tensor_mul(flat(B), flat(A))
                BC = _tensor_mul(B, C)
                assert flat(_tensor_mul(AB, C)) == old_tensor_mul(flat(AB), flat(C))
                assert flat(_tensor_mul(A, BC)) == old_tensor_mul(flat(A), flat(BC))
                assert flat(_tensor_mul(C, AB)) == old_tensor_mul(flat(C), flat(AB))

    def test_cancelling_component_dropped(self, ab2):
        f, g = el(ab2, "x"), el(ab2, "yx", Fraction(1, 2))
        # Component r of the product is (sum of s)>t[r] + (sum of t)>s[r].
        assert _tensor_mul({0: f, 1: f.scale(-1)}, {0: g, 1: g.scale(-1)}) == {}
        assert _tensor_mul({0: f}, {0: ZinbElement.zero()}) == {}
        assert _tensor_mul({0: f}, {}) == {}


class TestStar:
    def test_letters(self, ab2):
        assert star(el(ab2, "x"), el(ab2, "y")) == el(ab2, "xy") + el(ab2, "yx")

    def test_equals_full_shuffle(self, ab3):
        assert star(el(ab3, "x"), el(ab3, "yz")) == shuffle_product(wd(ab3, "x"), wd(ab3, "yz"))
        for u in all_awords(ab3, 2):
            for v in all_awords(ab3, 2):
                assert star(ZinbElement.monomial(u), ZinbElement.monomial(v)) == shuffle_product(u, v)

    def test_commutative(self, ab2):
        for total in range(2, 7):
            for i in range(1, total):
                for u in all_awords(ab2, i):
                    for v in all_awords(ab2, total - i):
                        fu, fv = ZinbElement.monomial(u), ZinbElement.monomial(v)
                        assert star(fu, fv) == star(fv, fu)

    def test_associative(self, ab2):
        for a, b, c in triples_up_to(ab2, 6):
            fa, fb, fc = (ZinbElement.monomial(w) for w in (a, b, c))
            assert star(star(fa, fb), fc) == star(fa, star(fb, fc))


class TestCombConversion:
    def test_right_nested_product(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        got = to_left_comb(MagmaPoly.monomial(node(x, node(y, z))), ab3)
        assert got == el(ab3, "xyz") + el(ab3, "yxz")

    def test_comb_is_already_normal(self, ab3):
        got = to_left_comb(MagmaPoly.monomial(comb(wd(ab3, "xyz"))), ab3)
        assert got == el(ab3, "xyz")

    def test_round_trip(self, ab2):
        f = el(ab2, "xyx", 2) + el(ab2, "y", -3)
        assert to_left_comb(from_left_comb(f), ab2) == f

    def test_from_left_comb_matches_reduction(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(node(x, node(y, y)), 1), (node(y, x), 2)])
        assert from_left_comb(to_left_comb(p, ab2)) == normal_form(p, [ZinbielFamily(ab2)])

    def test_cross_oracle_tree_product(self, ab2):
        # The tree product, combed out, is the shuffle-formula product.
        for total in range(2, 7):
            for i in range(1, total):
                for u in all_awords(ab2, i):
                    for v in all_awords(ab2, total - i):
                        trees = magma_product(
                            MagmaPoly.monomial(comb(u)), MagmaPoly.monomial(comb(v)))
                        want = zinbiel_product(ZinbElement.monomial(u), ZinbElement.monomial(v))
                        assert to_left_comb(trees, ab2) == want, (u, v)

    def test_degree_dimensions_match_irreducibles(self, ab2):
        table = irreducible_words([ZinbielFamily(ab2)], ab2, 5)
        for n in range(1, 6):
            assert len(table[n]) == 2 ** n == len(all_awords(ab2, n))


class TestZinbElement:
    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            ZinbElement.monomial(())

    @pytest.mark.parametrize("word, bad", [("xy", "'x' of type str"), ([1, 2], "1 of type int")],
                             ids=["str", "ints"])
    def test_monomial_rejects_non_letters(self, word, bad):
        with pytest.raises(TypeError, match="got %s$" % bad):
            ZinbElement.monomial(word)

    def test_from_terms_rejects_non_letters(self, ab2):
        x = ab2["x"]
        with pytest.raises(TypeError, match="got 2 of type int$"):
            ZinbElement.from_terms([((x,), 1), ((x, 2), 3)])
        # An encoded word is not a letter sequence either.
        with pytest.raises(TypeError, match="of type str$"):
            ZinbElement.from_terms([(encode_word((x, x)), 1)])
        with pytest.raises(TypeError, match="got x of type NaWord$"):
            ZinbElement.from_terms([((leaf(x),), 1)])

    def test_arithmetic(self, ab2):
        f = el(ab2, "x") + el(ab2, "x")
        assert f == el(ab2, "x", 2)
        assert f - f == ZinbElement.zero()
        assert f.scale(-1) + f == ZinbElement.zero()
        assert f.scale(0) == ZinbElement.zero()

    def test_mul_operator(self, ab2):
        # The product is a function; test_exactness pins that `*` raises.
        x, y = el(ab2, "x"), el(ab2, "y")
        assert zinbiel_product(x, y) == el(ab2, "xy")
        assert x.scale(2) == el(ab2, "x", 2)

    def test_max_degree(self, ab2):
        assert max(map(len, ZinbElement.zero().terms), default=0) == 0
        assert max(map(len, (el(ab2, "x") + el(ab2, "yxy")).terms), default=0) == 3

    def test_repr(self, ab2):
        assert repr(el(ab2, "xy") + el(ab2, "x", 3)) == "(+ (* 3 x) x.y)"

    def test_sorted_terms_descending_like_every_lincomb(self, ab2):
        # sorted_terms is LinComb's, largest word first; the text forms
        # list the words in increasing order, and repr is the text form.
        f = el(ab2, "x") + el(ab2, "xy", 2) + el(ab2, "y", 3)
        assert [decode_word(w) for w, _ in f.sorted_terms()] \
            == [wd(ab2, "xy"), wd(ab2, "y"), wd(ab2, "x")]
        assert "sorted_terms" not in vars(ZinbElement)
        assert repr(f) == "(+ x (* 3 y) (* 2 x.y))"


class TestWordEncoding:
    """A word is the ``str`` of its letters' ``char``s.  The encoding
    keeps the length-then-ranks order, reads back to the letters, and
    keeps apart letters of two alphabets that share names and ranks."""

    def test_key_sorts_by_length_then_ranks(self, ab3):
        ws = [w for n in range(1, 5) for w in all_awords(ab3, n)]
        random.Random(5).shuffle(ws)
        by_ranks = sorted(ws, key=lambda w: (len(w), [x.rank for x in w]))
        assert sorted(ws, key=lambda w: ZinbElement._key(encode_word(w))) == by_ranks
        assert all(decode_word(encode_word(w)) == w for w in ws)

    def test_repr_and_parse_round_trip_past_four_letters(self):
        ab = default_alphabet(5)
        assert [x.name for x in ab] == ["x1", "x2", "x3", "x4", "x5"]
        rng = random.Random(8)
        for _ in range(60):
            text = ".".join(rng.choice(ab.letters).name for _ in range(rng.randint(1, 6)))
            w = parse_aword(text, ab)
            assert repr(ZinbElement.monomial(w)) == text
            assert decode_word(encode_word(w)) == w

    def test_same_names_give_distinct_words(self, ab2, monkeypatch):
        other = Alphabet(["x", "y"])
        assert encode_word(wd(ab2, "xy")) != encode_word(wd(other, "xy"))
        assert el(ab2, "xy") != el(other, "xy")
        assert repr(el(ab2, "xy")) == repr(el(other, "xy")) == "x.y"
        table: dict = {}
        monkeypatch.setattr(shuffle_module, "_HALF", table)
        mine = zinbiel_product(el(ab2, "x"), el(ab2, "y"))
        theirs = zinbiel_product(el(other, "x"), el(other, "y"))
        assert len(table) == 2
        assert mine != theirs
        assert decoded(mine.terms) == {wd(ab2, "xy"): 1}
        assert decoded(theirs.terms) == {wd(other, "xy"): 1}


class TestPermTensor:
    def test_default_rule_validates(self):
        # The rule (i, j) -> j that the check hard-codes satisfies both Perm
        # identities on every basis triple.
        for dim in range(1, 5):
            for i, j, k in product(range(dim), repeat=3):
                assert perm_product(perm_product(i, j), k) == perm_product(i, perm_product(j, k))
                assert perm_product(i, perm_product(j, k)) == perm_product(j, perm_product(i, k))

    def test_dimension_positive(self):
        # A dimension of 0 would check nothing and pass.
        with pytest.raises(ValueError, match="dimension must be positive"):
            perm_tensor_check(0, [])

    def test_tensor_fixed_triples(self, ab2):
        f = el(ab2, "x")
        g = el(ab2, "y") + el(ab2, "xy", -2)
        h = el(ab2, "yx")
        rep = perm_tensor_check(2, [(f, g, h)])
        assert rep.verified
        assert rep.checked == 8

    def test_tensor_random_triples(self, ab2):
        rng = random.Random(29)
        samples = [tuple(random_element(rng, ab2, 3) for _ in range(3))
                   for _ in range(10)]
        rep = perm_tensor_check(2, samples)
        assert rep.verified

    def test_zero_elements_pass(self, ab2):
        z = ZinbElement.zero()
        assert perm_tensor_check(2, [(z, z, z)]).verified

    def test_non_pre_commutative_product_is_caught(self, ab2, monkeypatch):
        # A bilinear product that is not pre-commutative breaks the tensor
        # product's associativity; its commutativity holds by construction.
        monkeypatch.setattr(shuffle_module, "zinbiel_product", lambda f, g: f.scale(2) + g)
        rng = random.Random(31)
        samples = [tuple(random_element(rng, ab2, 3) for _ in range(3))
                   for _ in range(5)]
        rep = perm_tensor_check(2, samples)
        assert not rep.verified
        assert rep.checked == 40
        assert len(rep.failures) == 40

    def test_violations_report_the_given_samples(self, ab2, monkeypatch):
        # The commutative shuffle is bilinear but not pre-commutative.  The
        # check runs on integer-scaled copies; each violation must still
        # name the caller's elements, and rescaling a sample by nonzero
        # factors must not change the verdict.
        orig = shuffle_module.zinbiel_product
        monkeypatch.setattr(shuffle_module, "zinbiel_product",
                            lambda f, g: orig(f, g) + orig(g, f))
        rng = random.Random(37)
        samples = [tuple(random_element(rng, ab2, 3) for _ in range(3))
                   for _ in range(3)]
        assert any(type(c) is Fraction for s in samples for x in s
                   for c in x.terms.values())
        rep = perm_tensor_check(2, samples)
        assert not rep.verified
        given = {tuple(map(id, s)) for s in samples}
        for *_, f, g, h in rep.failures:
            assert (id(f), id(g), id(h)) in given
        for f, g, h in samples:
            rescaled = [(f.scale(Fraction(2, 3)), g.scale(5), h.scale(Fraction(-1, 7)))]
            a, b = perm_tensor_check(2, [(f, g, h)]), perm_tensor_check(2, rescaled)
            assert a.verified == b.verified
            assert a.checked == b.checked == 8
            assert [v[:3] for v in a.failures] \
                == [v[:3] for v in b.failures]
            assert all(v[3:] == rescaled[0] for v in b.failures)

    def test_counters(self, ab2, monkeypatch):
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        rng = random.Random(43)
        samples = [tuple(random_element(rng, ab2, 3) for _ in range(3))
                   for _ in range(4)]
        cold = perm_tensor_check(2, samples)
        warm = perm_tensor_check(2, samples)
        assert cold.half_shuffles == len(shuffle_module._HALF) > 0
        assert warm.half_shuffles == 0


def relabel(s, sigma):
    # sigma (x) id on a tensor element: component l moves to sigma[l], and
    # the components that sigma sends to one index merge.
    out: dict = {}
    for p, e in s.items():
        v = sigma[p]
        out[v] = out[v] + e if v in out else e
    return {v: e for v, e in out.items() if e}


class TestPermRelabeling:
    """The lemma the tensor check rests on: e_p -> e_s(p) is a homomorphism
    of the Perm algebra e_i e_j = e_j for any map s of indices, so
    relabeling commutes with the tensor product."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_relabeling_commutes_with_tensor_product(self, ab2, d):
        rng = random.Random(200 + d)
        for _ in range(4):
            s, t = ({p: random_element(rng, ab2, 3) for p in range(3) if rng.random() < 0.8}
                    for _ in range(2))
            st = _tensor_mul(s, t)
            for sigma in product(range(d), repeat=3):
                assert relabel(st, sigma) \
                    == _tensor_mul(relabel(s, sigma), relabel(t, sigma)), sigma

    def test_relabeling_merges_components(self, ab2):
        f, g = el(ab2, "x"), el(ab2, "xy", -1)
        assert relabel({0: f, 1: g, 2: f.scale(-1)}, (0, 1, 0)) == {1: g}
        assert relabel({0: f, 2: g}, (1, 1, 1)) == {1: f + g}


# Bilinear products that are not pre-commutative, each as a function of the
# true product zp, and the failures each gives at dimensions 1 to 4 over
# the 25 x 4 seeded samples of TestPermTensorAgainstReference.
BROKEN = {
    "scaled-left": (lambda zp: lambda f, g: f.scale(2) + g, (100, 800, 2700, 6400)),
    "commutative": (lambda zp: lambda f, g: zp(f, g) + zp(g, f), (0, 364, 1638, 4368)),
    "reversed": (lambda zp: lambda f, g: zp(g, f), (0, 544, 2178, 5448)),
}


class TestPermTensorAgainstReference:
    """``perm_tensor_check`` reads every basis triple off one product on
    three labels; the reference forms both sides again for each triple.
    They must agree on the count, on each failure and its order, on the
    given elements a failure names and on the table entries filled, under
    the true product and under products that break the identity."""

    @staticmethod
    def compare(monkeypatch, dim, samples):
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        ref = perm_tensor_reference(dim, samples)
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        got = perm_tensor_check(dim, samples)
        assert got.checked == ref.checked == len(samples) * dim ** 3
        assert [(*v[:3], *map(id, v[3:])) for v in got.failures] \
            == [(*v[:3], *map(id, v[3:])) for v in ref.failures]
        assert got.half_shuffles == ref.half_shuffles
        return len(got.failures)

    @pytest.mark.parametrize("broken", [None, *BROKEN])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_reference(self, ab2, monkeypatch, dim, broken):
        if broken is not None:
            make, counts = BROKEN[broken]
            monkeypatch.setattr(shuffle_module, "zinbiel_product", make(zinbiel_product))
        total = 0
        for seed in range(25):
            rng = random.Random(seed)
            samples = [tuple(random_element(rng, ab2, 3) for _ in range(3))
                       for _ in range(4)]
            total += self.compare(monkeypatch, dim, samples)
        assert total == (0 if broken is None else counts[dim - 1])

    def test_coinciding_and_zero_elements(self, ab2, monkeypatch):
        # Equal elements form equal products, and a zero element makes
        # every product zero.
        f, g = el(ab2, "x"), el(ab2, "yx", Fraction(1, 2))
        z = ZinbElement.zero()
        samples = [(f, f, f), (f, g, f), (z, g, f), (g, z, z)]
        for dim in (1, 2, 3):
            self.compare(monkeypatch, dim, samples)
        orig = shuffle_module.zinbiel_product
        monkeypatch.setattr(shuffle_module, "zinbiel_product", lambda a, b: orig(b, a))
        for dim in (1, 2, 3):
            self.compare(monkeypatch, dim, samples)

    def test_cancelling_sum_at_dimension_1(self, ab2, monkeypatch):
        # f>g + g>f = 2xx - 2yy: the reference's one triple (0, 0, 0)
        # multiplies that sum by h, and the check multiplies f>g and g>f
        # apart, so it also fills the entries of xy and yx, which cancel.
        # The verdicts agree; from dimension 2 on, both multiply them apart.
        f, g = el(ab2, "x") + el(ab2, "y"), el(ab2, "x") - el(ab2, "y")
        samples = [(f, g, el(ab2, "yx"))]
        self.compare(monkeypatch, 2, samples)
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        ref = perm_tensor_reference(1, samples)
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        got = perm_tensor_check(1, samples)
        assert got.verified and ref.verified
        assert (ref.half_shuffles, got.half_shuffles) == (38, 41)


class TestRandomElement:
    def test_respects_limits(self, ab3):
        rng = random.Random(1)
        for _ in range(50):
            f = random_element(rng, ab3, 4)
            assert max(map(len, f.terms), default=0) <= 4
            assert len(f.terms) <= 3
            f = random_element_with_terms(rng, ab3, 4, 2)
            assert max(map(len, f.terms), default=0) <= 4
            assert len(f.terms) <= 2

    def test_oracle_copy_draws_the_same(self, ab3):
        # With three terms at most, the oracle that takes the term cap
        # draws the library's elements and leaves the generator as it does.
        rng, ref = random.Random(3), random.Random(3)
        for _ in range(50):
            assert random_element(rng, ab3, 4) == random_element_with_terms(ref, ab3, 4, 3)
            assert rng.getstate() == ref.getstate()

    def test_deterministic(self, ab2):
        a = random_element(random.Random(9), ab2, 3)
        b = random_element(random.Random(9), ab2, 3)
        assert a == b


def test_module_not_shadowed_by_a_function():
    import precom
    import precom.shuffle as m

    assert isinstance(precom.shuffle, types.ModuleType)
    assert m is sys.modules["precom.shuffle"]
    assert m.zinbiel_product is zinbiel_product
