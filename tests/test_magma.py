from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precom.magma import Alphabet, MagmaPoly, _DeepKey, _FLAT_KEY_LENGTH, comb, leaf, node

from oracles import leaves, magma_product, nested_key, words_of_length

# Letters from rank 256 on have a ``char`` at U+0100 or above, so their
# keys are two-byte strings.
AB300 = Alphabet(["a%d" % i for i in range(300)])


def words_upto(ab, n):
    out = []
    for k in range(1, n + 1):
        out.extend(words_of_length(ab, k))
    return out


def cmp(u, v):
    """-1, 0 or +1 as ``u`` is below, equal to or above ``v`` by ``key``."""
    return (u.key > v.key) - (u.key < v.key)


def recursive_compare(u, v):
    """Independent word comparison, straight off the weight definition."""
    if u.length != v.length:
        return -1 if u.length < v.length else 1
    if u.letter is not None and v.letter is not None:
        if u.letter.rank == v.letter.rank:
            return 0
        return -1 if u.letter.rank < v.letter.rank else 1
    r = recursive_compare(u.right, v.right)
    if r:
        return r
    return recursive_compare(u.left, v.left)


def random_word(rng, ab, n):
    if n == 1:
        return leaf(rng.choice(ab.letters))
    k = rng.randint(1, n - 1)
    return node(random_word(rng, ab, k), random_word(rng, ab, n - k))


def flip_leaf(w, i, ab):
    """``w`` with its ``i``-th leaf (from the left) replaced by another letter."""
    if w.letter is not None:
        return leaf(ab.letters[(w.letter.rank + 1) % len(ab)])
    k = w.left.length
    if i < k:
        return node(flip_leaf(w.left, i, ab), w.right)
    return node(w.left, flip_leaf(w.right, i - k, ab))


class TestAlphabet:
    def test_ranks_contiguous(self, ab3):
        assert [x.rank for x in ab3] == [0, 1, 2]
        assert [x.name for x in ab3] == ["x", "y", "z"]

    def test_lookup(self, ab2):
        assert ab2["x"] is ab2[0]
        assert ab2["y"].rank == 1
        with pytest.raises(KeyError, match="no letter named 'q'"):
            ab2["q"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            Alphabet([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(["a", "b", "a"])

    def test_letter_order(self, ab2):
        assert ab2["x"] < ab2["y"]
        assert not ab2["y"] < ab2["x"] and not ab2["x"] < ab2["x"]
        # Letters are only sorted and min-ed, which read <.
        assert sorted([ab2["y"], ab2["x"]]) == [ab2["x"], ab2["y"]]
        assert min(ab2["y"], ab2["x"]) is ab2["x"]


class TestWords:
    def test_interning(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert leaf(ab2["x"]) is x
        assert node(x, y) is node(x, y)
        assert node(x, y) is not node(y, x)

    def test_length(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert x.length == 1
        assert node(node(x, y), x).length == 3

    def test_leaves(self, ab3):
        w = comb([ab3["x"], ab3["z"], ab3["y"]])
        assert leaves(w) == (ab3["x"], ab3["z"], ab3["y"])

    def test_subtrees_preorder(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        w = node(node(x, y), z)
        assert list(w.subtrees()) == [
            ((), w),
            ((0,), node(x, y)),
            ((0, 0), x),
            ((0, 1), y),
            ((1,), z),
        ]

    def test_is_comb(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        assert x.is_comb
        assert node(node(x, y), z).is_comb
        assert not node(x, node(y, z)).is_comb
        assert not node(node(x, node(y, z)), x).is_comb

    def test_repr(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert repr(node(x, node(y, x))) == "(x (y x))"
        # A 3000-deep right-nested word writes without recursion.
        w = x
        for _ in range(3000):
            w = node(y, w)
        text = repr(w)
        assert text == "(y " * 3000 + "x" + ")" * 3000
        assert repr(MagmaPoly.monomial(w).scale(2)) == "(+ (* 2 %s))" % text


class TestBracket:
    """The left bracketing of a letter sequence, built by ``comb``."""

    def test_left(self, ab3):
        x, y, z = ab3["x"], ab3["y"], ab3["z"]
        w = comb([x, y, z])
        assert w == node(node(leaf(x), leaf(y)), leaf(z))

    def test_single_letter(self, ab2):
        assert comb([ab2["x"]]) is leaf(ab2["x"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            comb([])


class TestOrder:
    def test_letters_by_rank(self, ab2):
        assert cmp(leaf(ab2["x"]), leaf(ab2["y"])) == -1

    def test_right_nesting_beats_left(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        assert cmp(node(x, node(y, z)), node(node(x, y), z)) == 1

    def test_right_factor_decides(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert cmp(node(x, y), node(y, x)) == 1

    def test_shorter_is_smaller(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert cmp(node(x, node(y, y)), node(y, x)) == 1
        assert cmp(y, node(x, x)) == -1

    def test_matches_recursive_definition(self, ab2):
        ws = words_upto(ab2, 4)
        for u in ws:
            for v in ws:
                assert cmp(u, v) == recursive_compare(u, v)

    def test_total_on_length_five(self, ab2):
        rng = random.Random(7)
        ws = words_of_length(ab2, 5)
        for _ in range(2000):
            u, v = rng.choice(ws), rng.choice(ws)
            c = cmp(u, v)
            assert c == -cmp(v, u)
            assert (c == 0) == (u is v)

    @pytest.mark.parametrize("n", [63, 64, 65, 66, 130])
    def test_long_words_match_recursive_definition(self, ab2, n):
        # Around the length where keys stop being nested tuples; variants
        # of one word that differ in a single leaf agree down to it.
        rng = random.Random(n)
        base = [random_word(rng, ab2, n) for _ in range(4)]
        ws = base + [flip_leaf(w, rng.randrange(n), ab2) for w in base for _ in range(4)]
        ws += [random_word(rng, ab2, n - 1), random_word(rng, ab2, n + 1)]
        for u in ws:
            for v in ws:
                want = recursive_compare(u, v)
                assert cmp(u, v) == want
                assert (u.key < v.key, u.key > v.key, u.key == v.key) \
                    == (want < 0, want > 0, want == 0)

    def test_leaf_keys(self):
        leaves = [leaf(AB300[r]) for r in (0, 1, 255, 256)]
        assert [w.key for w in leaves] == ["\x01" + w.letter.char for w in leaves]
        assert ord(leaves[3].letter.char) >= 0x100
        assert sorted(reversed(leaves), key=lambda w: w.key) == leaves
        lo, hi = leaves[0], leaves[3]
        assert node(lo, hi).key == chr(2) + hi.key + lo.key
        assert node(hi, lo).key < node(lo, hi).key

    @pytest.mark.parametrize("ab", [Alphabet("a"), Alphabet("xyz"), AB300],
                             ids=["1", "3", "300"])
    def test_keys_match_nested_oracle(self, ab):
        # Lengths 1-12, and 60-70 across the switch to _DeepKey; variants
        # that differ in one leaf share all but one path with their base.
        rng = random.Random(len(ab))
        special = [leaf(AB300[r]) for r in (0, 1, 255, 256)] if ab is AB300 else []
        buckets = []
        for n in list(range(1, 13)) + list(range(60, 71)):
            ws = [random_word(rng, ab, n) for _ in range(25)]
            ws += ([flip_leaf(w, rng.randrange(n), ab) for w in ws[:8]] if len(ab) > 1
                   else [random_word(rng, ab, n) for _ in range(8)])
            if n == 2:
                ws += [node(u, v) for u in special for v in special]
            buckets.append(ws + (special if n == 1 else []))
        every = [w for ws in buckets for w in ws]
        assert len(every) >= 759
        for w in every:
            assert type(w.key) is (str if w.length <= _FLAT_KEY_LENGTH else _DeepKey)
        for ws in buckets:
            for u in ws:
                for v in ws:
                    nu, nv = nested_key(u), nested_key(v)
                    assert (u.key < v.key, u.key == v.key, u.key > v.key) \
                        == (nu < nv, nu == nv, nu > nv)
        shuffled = every[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=lambda w: w.key) == sorted(every, key=nested_key)

    def test_same_names_other_alphabet(self):
        # Two alphabets named x, y: each orders its own words like the
        # nested oracle, and no word of one shares a key with the other's.
        ab, other = Alphabet("xy"), Alphabet("xy")
        for n in range(1, 5):
            ws, twins = words_of_length(ab, n), words_of_length(other, n)
            assert [repr(w) for w in ws] == [repr(t) for t in twins]
            assert not {w.key for w in ws} & {t.key for t in twins}
            for side in (ws, twins):
                assert sorted(side, key=lambda w: w.key) == sorted(side, key=nested_key)

    def test_deep_combs_compare_without_recursion(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        lo, hi = x, y
        for _ in range(3000):
            lo, hi = node(x, lo), node(x, hi)
        assert cmp(lo, hi) == -1
        assert lo.key != hi.key and lo.key == lo.key
        assert lo.key < hi.key and hi.key > lo.key
        assert sorted([hi, x, lo], key=lambda w: w.key) == [x, lo, hi]

    def test_multiplicative(self, ab2):
        ws = words_upto(ab2, 3)
        for i, u in enumerate(ws):
            for v in ws[i + 1:]:
                if cmp(u, v) >= 0:
                    u, v = v, u
                if u is v:
                    continue
                for w in ws:
                    assert cmp(node(w, u), node(w, v)) == -1
                    assert cmp(node(u, w), node(v, w)) == -1


class TestWordsOfLength:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 16), (4, 80), (5, 448), (6, 2688)])
    def test_counts_two_letters(self, ab2, n, count):
        # Catalan(n-1) tree shapes times 2^n letterings.
        assert len(words_of_length(ab2, n)) == count

    @pytest.mark.parametrize("n,count", [(1, 3), (2, 9), (3, 54), (4, 405)])
    def test_counts_three_letters(self, ab3, n, count):
        assert len(words_of_length(ab3, n)) == count

    def test_no_duplicates(self, ab2):
        ws = words_of_length(ab2, 4)
        assert len(set(id(w) for w in ws)) == len(ws)

    def test_rejects_nonpositive(self, ab2):
        with pytest.raises(ValueError):
            words_of_length(ab2, 0)


class TestMagmaPoly:
    def test_constructor_drops_zeros(self, ab2):
        x = leaf(ab2["x"])
        p = MagmaPoly.from_terms([(x, Fraction(0))])
        assert not p
        assert p == MagmaPoly.zero()

    def test_from_terms_merges(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(x, 1), (y, 2), (x, -1)])
        assert p == MagmaPoly.monomial(y).scale(2)

    def test_addition_cancels(self, ab2):
        x = leaf(ab2["x"])
        p = MagmaPoly.monomial(x).scale(Fraction(1, 3))
        q = MagmaPoly.monomial(x).scale(Fraction(-1, 3))
        assert p + q == MagmaPoly.zero()

    def test_arithmetic_identities(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(x, 2), (node(x, y), -3)])
        q = MagmaPoly.from_terms([(y, Fraction(1, 2))])
        r = MagmaPoly.monomial(node(y, x)).scale(5)
        assert (p + q) + r == p + (q + r)
        assert p - p == MagmaPoly.zero()
        assert p.scale(-1) + p == MagmaPoly.zero()
        assert magma_product(p + q, r) == magma_product(p, r) + magma_product(q, r)
        assert magma_product(r, p + q) == magma_product(r, p) + magma_product(r, q)

    def test_scalar_exactness(self, ab2):
        x = leaf(ab2["x"])
        p = MagmaPoly.monomial(x).scale(Fraction(2, 3))
        assert p.scale(Fraction(3, 2)).terms[x] == 1
        assert p.scale(Fraction(3, 7)).terms[x] == Fraction(2, 7)
        assert p.scale(0) == MagmaPoly.zero()

    def test_magma_product_monomials(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert magma_product(MagmaPoly.monomial(x), MagmaPoly.monomial(y)) \
            == MagmaPoly.monomial(node(x, y))

    def test_magma_product_bilinear(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(x, 1), (y, 1)])
        got = magma_product(p, MagmaPoly.monomial(x))
        assert got == MagmaPoly.from_terms([(node(x, x), 1), (node(y, x), 1)])

    def test_leading_of_anticommutator(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])
        assert p.leading() is node(x, y)

    def test_leading_and_monic(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(node(x, y), 3), (node(y, x), 1)])
        lead, monic = p.leading(), p.monic()
        assert lead is node(x, y)
        assert monic == MagmaPoly.from_terms(
            [(node(x, y), 1), (node(y, x), Fraction(1, 3))])

    def test_leading_single_monomial(self, ab2):
        x = leaf(ab2["x"])
        p = MagmaPoly.monomial(node(x, x)).scale(5)
        lead, monic = p.leading(), p.monic()
        assert lead is node(x, x)
        assert monic == MagmaPoly.monomial(node(x, x))

    def test_leading_of_zero_rejected(self):
        with pytest.raises(ValueError, match="no leading monomial"):
            MagmaPoly.zero().leading()

    def test_sorted_terms_descending(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(x, 1), (node(x, y), 1), (y, 1)])
        words = [w for w, _ in p.sorted_terms()]
        assert words == [node(x, y), y, x]

