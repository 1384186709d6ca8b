from __future__ import annotations

from fractions import Fraction
from math import comb as binom

import pytest

from precom import envelope
from precom.envelope import (
    CommAlgebra,
    TailFamily,
    collapse_check,
    default_alphabet,
    enveloping_relations,
    idempotent_algebra,
    odd_even_zero_sweep,
    trivial_algebra,
    trivial_envelope_dimension,
    trivial_gsb,
    truncated_power_algebra,
    verify_trivial_envelope,
    verify_zinbiel_basis,
)
from precom.magma import Alphabet, MagmaPoly, comb, leaf, node
from precom.rewrite import (
    ExplicitRelation,
    ZinbielFamily,
    irreducible_counts,
    irreducible_words,
    normal_form,
    verify_gsb,
)

from oracles import leaves, scan_instances, truncated_poly_relations, words_of_length


def alternates_down(word):
    """Letters strictly descend inside each adjacent (1,2), (3,4), ... pair."""
    ls = leaves(word)
    return all(ls[i].rank > ls[i + 1].rank for i in range(0, len(ls) - 1, 2))


class TestCommAlgebra:
    def test_product_is_symmetric(self):
        A = truncated_power_algebra(3)
        x1, x2 = A.alphabet["x1"], A.alphabet["x2"]
        assert A.product(x1, x2) == A.product(x2, x1) == {A.alphabet["x3"]: 1}

    def test_zero_products_dropped(self):
        A = truncated_power_algebra(3)
        x2, x3 = A.alphabet["x2"], A.alphabet["x3"]
        assert A.product(x2, x3) == {}
        assert A.product(x3, x3) == {}

    def test_rejects_misordered_key(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(ValueError, match="rank"):
            CommAlgebra(ab, {(ab["b"], ab["a"]): {ab["a"]: 1}})

    def test_rejects_foreign_letters(self):
        ab = Alphabet(["a", "b"])
        other = Alphabet(["c"])
        with pytest.raises(ValueError, match="outside the basis"):
            CommAlgebra(ab, {(other["c"], other["c"]): {ab["a"]: 1}})
        with pytest.raises(ValueError, match="outside the basis"):
            CommAlgebra(ab, {(ab["a"], ab["a"]): {other["c"]: 1}})

    def test_default_alphabet_names(self):
        assert [x.name for x in default_alphabet(2)] == ["x", "y"]
        assert [x.name for x in default_alphabet(4)] == ["x", "y", "z", "w"]
        assert [x.name for x in default_alphabet(5)] == ["x1", "x2", "x3", "x4", "x5"]
        with pytest.raises(ValueError):
            default_alphabet(0)

    def test_idempotent(self):
        A = idempotent_algebra()
        e = A.alphabet["x"]
        assert A.product(e, e) == {e: 1}

    def test_truncated_table(self):
        A = truncated_power_algebra(4)
        ab = A.alphabet
        assert A.product(ab["x1"], ab["x3"]) == {ab["x4"]: 1}
        assert A.product(ab["x2"], ab["x2"]) == {ab["x4"]: 1}
        assert A.product(ab["x2"], ab["x3"]) == {}
        with pytest.raises(ValueError):
            truncated_power_algebra(0)


def non_associative_algebra():
    """a*a = b, a*b = c, b*b = d: (aa)b = d but a(ab) = ac = 0."""
    ab = Alphabet("abcd")
    a, b, c, d = ab.letters
    return CommAlgebra(ab, {(a, a): {b: 1}, (a, b): {c: 1}, (b, b): {d: 1}})


class TestAssociativity:
    def test_failure_names_first_triple(self):
        A = non_associative_algebra()
        with pytest.raises(ValueError, match=r"not associative on basis triple \(a, a, b\)"):
            A.require_associative()

    @pytest.mark.parametrize("A", [trivial_algebra(3), idempotent_algebra(),
                                   truncated_power_algebra(4)])
    def test_associative_algebras_pass(self, A):
        assert A.require_associative() is None


class TestEnvelopingRelations:
    def test_trivial_two_letters(self):
        rels = enveloping_relations(trivial_algebra(2))
        fams = [r for r in rels if isinstance(r, ZinbielFamily)]
        exps = [r.poly for r in rels if isinstance(r, ExplicitRelation)]
        assert len(fams) == 1 and len(exps) == 3
        ab = fams[0].alphabet
        x, y = leaf(ab["x"]), leaf(ab["y"])
        assert MagmaPoly.from_terms([(node(x, x), 1)]) in exps
        assert MagmaPoly.from_terms([(node(y, y), 1)]) in exps
        assert MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)]) in exps

    def test_idempotent_diagonal_coefficient(self):
        rels = enveloping_relations(idempotent_algebra())
        exps = [r.poly for r in rels if isinstance(r, ExplicitRelation)]
        assert len(exps) == 1
        ab = rels[0].alphabet
        x = leaf(ab["x"])
        assert exps[0] == MagmaPoly.from_terms([(node(x, x), 1), (x, Fraction(-1, 2))])

    def test_nonzero_pair_product(self):
        A = truncated_power_algebra(3)
        rels = enveloping_relations(A)
        exps = {r.poly.leading(): r.poly
                for r in rels if isinstance(r, ExplicitRelation)}
        ab = A.alphabet
        x1, x2, x3 = (leaf(ab[n]) for n in ("x1", "x2", "x3"))
        assert exps[node(x1, x2)] == MagmaPoly.from_terms(
            [(node(x1, x2), 1), (node(x2, x1), 1), (x3, -1)])
        assert exps[node(x1, x1)] == MagmaPoly.from_terms(
            [(node(x1, x1), 1), (x2, Fraction(-1, 2))])

    def test_leading_monomials_are_quadratic(self):
        for A in (trivial_algebra(3), truncated_power_algebra(4), idempotent_algebra()):
            for r in enveloping_relations(A):
                if isinstance(r, ExplicitRelation):
                    assert r.lead.length == 2


class TestTailFamilies:
    def test_anticomm_match(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        a = node(y, x)
        w = node(node(a, x), y)
        got = TailFamily(ab2).match(w)
        assert got == MagmaPoly.from_terms([(w, 1), (node(node(a, y), x), 1)])
        # With the empty comb: the letter anticommutator.
        assert TailFamily(ab2).match(node(x, y)) \
            == MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])

    def test_anticomm_requires_even_comb_prefix(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        fam = TailFamily(ab2)
        a = node(x, x)
        assert fam.match(node(node(x, x), y)) is None           # odd prefix
        assert fam.match(node(node(a, y), x)) is None           # letters not ascending
        assert fam.match(node(y, x)) is None                    # letters not ascending
        not_comb = node(a, node(x, y))
        assert fam.match(node(node(not_comb, x), y)) is None    # prefix not combed
        assert fam.match(x) is None

    def test_square_match(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        a = node(y, x)
        w = node(node(a, y), y)
        assert TailFamily(ab2).match(w) == MagmaPoly.from_terms([(w, 1)])
        assert TailFamily(ab2).match(node(x, x)) == MagmaPoly.monomial(node(x, x))

    def test_match_is_the_ascending_even_comb_tail(self, ab3):
        # (a x) y with a an even-length left comb, or empty, is exactly a
        # left comb of even length; the rule takes those whose last two
        # letters do not descend.
        fam = TailFamily(ab3)
        for n in range(1, 7):
            for w in words_of_length(ab3, n):
                ls = leaves(w)
                got = fam.match(w)
                if not (w.is_comb and n % 2 == 0 and ls[-2].rank <= ls[-1].rank):
                    assert got is None
                elif ls[-2] is ls[-1]:
                    assert got == MagmaPoly.monomial(w)
                else:
                    swapped = comb(ls[:-2] + (ls[-1], ls[-2]))
                    assert got == MagmaPoly.from_terms([(w, 1), (swapped, 1)])

    def test_instances_counts(self, ab2):
        # The empty comb and the 4 combs of length 2, each followed by
        # one of the 3 ascending letter pairs.
        assert len(TailFamily(ab2).instances(4)) == (1 + 4) * 3

    @pytest.mark.parametrize("d,bound", [(2, 6), (3, 5), (2, 7)])
    def test_instance_counts_closed_form(self, d, bound):
        # An instance of the tail family is (a x) y with a one of d^m
        # combs, m even and m + 2 <= bound, and x <= y; an instance of the
        # tree family is a word whose right factor is compound,
        # d^n (C(n-1) - C(n-2)) of length n, with C the Catalan numbers.
        ab = default_alphabet(d)
        prefixes = sum(d ** m for m in range(0, bound - 1, 2))
        catalan = [binom(2 * k, k) // (k + 1) for k in range(bound)]
        trees = sum(d ** n * (catalan[n - 1] - catalan[n - 2]) for n in range(3, bound + 1))
        assert len(TailFamily(ab).instances(bound)) == prefixes * binom(d + 1, 2)
        assert len(scan_instances(ZinbielFamily(ab), bound)) == trees

    def test_trivial_gsb_instances_two_letters_bound_6(self, ab2):
        # 2136 tree instances and 63 tail instances.
        zinbiel, tail = trivial_gsb(ab2)
        assert len(scan_instances(zinbiel, 6)) + len(tail.instances(6)) == 2199

    @pytest.mark.parametrize("d", [2, 3])
    def test_instances_match_the_generic_scan(self, d, spelled_out_gsb):
        # The closed form lists what matching every word gives, in the same
        # order, also for a subclass that declines the length-2 words.
        ab = default_alphabet(d)
        for fam in (TailFamily(ab), spelled_out_gsb(ab)[-1]):
            for bound in range(1, 7):
                assert fam.instances(bound) == scan_instances(fam, bound)


class TestTrivialGsb:
    def test_verified_small(self, ab2):
        assert verify_gsb(trivial_gsb(ab2), 4).verified

    def test_irreducibles_are_descending_pair_combs(self, ab3):
        table = irreducible_words(trivial_gsb(ab3), ab3, 4)
        for n, row in table.items():
            want = [w for w in words_of_length(ab3, n)
                    if w.is_comb and alternates_down(w)]
            assert sorted(row, key=lambda w: w.key) == sorted(want, key=lambda w: w.key)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_match_formula(self, d):
        ab = default_alphabet(d)
        counts = irreducible_counts(trivial_gsb(ab), ab, 6)
        assert counts == [trivial_envelope_dimension(d, n) for n in range(1, 7)]

    def test_corrupted_sign_breaks_confluence(self, ab2, spelled_out_gsb):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        rels = spelled_out_gsb(ab2)
        for i, r in enumerate(rels):
            if isinstance(r, ExplicitRelation) and r.lead is node(x, y):
                rels[i] = ExplicitRelation(
                    MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), -1)]))
        assert not verify_gsb(rels, 4).verified

    def test_dropped_square_breaks_confluence(self, ab2, spelled_out_gsb):
        x = leaf(ab2["x"])
        rels = [r for r in spelled_out_gsb(ab2)
                if not (isinstance(r, ExplicitRelation) and r.lead is node(x, x))]
        assert not verify_gsb(rels, 4).verified


class TestDimensionFormula:
    def test_values(self):
        assert [trivial_envelope_dimension(2, n) for n in range(1, 7)] == [2, 1, 2, 1, 2, 1]
        assert [trivial_envelope_dimension(3, n) for n in range(1, 7)] == [3, 3, 9, 9, 27, 27]
        assert trivial_envelope_dimension(4, 4) == binom(4, 2) ** 2

    def test_one_letter_dies(self):
        assert [trivial_envelope_dimension(1, n) for n in range(1, 4)] == [1, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            trivial_envelope_dimension(0, 1)
        with pytest.raises(ValueError):
            trivial_envelope_dimension(2, 0)


class TestTruncatedRelations:
    def test_structure(self):
        rels = truncated_poly_relations(2)
        exps = {r.poly.leading(): r.poly
                for r in rels if isinstance(r, ExplicitRelation)}
        ab = rels[0].alphabet
        x1, x2 = leaf(ab["x1"]), leaf(ab["x2"])
        assert len(exps) == 4
        assert exps[node(x1, x1)] == MagmaPoly.from_terms(
            [(node(x1, x1), 1), (x2, Fraction(-1, 2))])
        assert exps[node(x1, x2)] == MagmaPoly.monomial(node(x1, x2))

    def test_tail_coefficients(self):
        rels = truncated_poly_relations(5)
        ab = rels[0].alphabet
        exps = {r.poly.leading(): r.poly
                for r in rels if isinstance(r, ExplicitRelation)}
        x2, x3, x5 = (leaf(ab[n]) for n in ("x2", "x3", "x5"))
        assert exps[node(x2, x3)].terms[x5] == Fraction(-3, 5)
        assert exps[node(x3, x2)].terms[x5] == Fraction(-2, 5)

    def test_confluent(self):
        assert verify_gsb(truncated_poly_relations(3), 4).verified

    def test_alphabet_size_checked(self):
        with pytest.raises(ValueError, match="alphabet size"):
            truncated_poly_relations(3, Alphabet(["a", "b"]))


class TestDrivers:
    def test_zinbiel_basis(self):
        rep = verify_zinbiel_basis(2, 4)
        assert rep.verified and rep.gsb.ambiguities_checked > 0
        assert rep.counts == rep.expected_counts == [2, 4, 8, 16]
        assert rep.completion_counts is None

    def test_zinbiel_basis_fails_a_cut_family(self, monkeypatch):
        # A family that skips the words with a compound left factor still
        # forms no composition site, so its confluence report passes; the
        # d^n irreducible counts are what fail it.
        match = ZinbielFamily.match
        monkeypatch.setattr(ZinbielFamily, "match", lambda self, w: None if (
            w.left is not None and w.left.letter is None) else match(self, w))
        rep = verify_zinbiel_basis(2, 5)
        assert rep.gsb.verified and rep.gsb.ambiguities_checked == 240
        assert rep.counts == [2, 4, 8, 32, 128]
        assert rep.expected_counts == [2, 4, 8, 16, 32]
        assert not rep.verified

    def test_trivial_envelope_report(self):
        rep = verify_trivial_envelope(2, 4, True)
        assert rep.verified
        assert rep.counts == [2, 1, 2, 1]
        assert rep.completion_counts == [2, 1, 2, 1]

    def test_trivial_envelope_without_completion(self):
        rep = verify_trivial_envelope(2, 4, False)
        assert rep.verified and rep.completion_counts is None

    def test_collapse_on_idempotent(self):
        rep = collapse_check(idempotent_algebra(), 4)
        assert not rep.verified
        # The generator itself lands in the ideal, so nothing survives.
        assert rep.counts == [0, 0, 0, 0]

    def test_no_collapse_on_trivial(self):
        rep = collapse_check(trivial_algebra(2), 4)
        assert rep.verified
        assert rep.counts == [2, 1, 2, 1]

    def test_collapse_rejects_non_associative(self):
        with pytest.raises(ValueError, match=r"not associative on basis triple \(a, a, b\)"):
            collapse_check(non_associative_algebra(), 4)

    def test_no_collapse_on_truncated(self):
        A = truncated_power_algebra(2)
        rep = collapse_check(A, 4)
        assert rep.verified
        ab = A.alphabet
        x1, x2 = ab["x1"], ab["x2"]
        assert rep.star_table[(x1, x1)] == MagmaPoly.monomial(leaf(x2))


class TestOddEvenSweep:
    def test_small_sweep(self):
        rep = odd_even_zero_sweep(2, 3, 2)
        assert rep.verified
        # Odd combs of lengths 1 and 3, even combs of length 2.
        assert rep.checked == (2 + 8) * 4

    def test_three_letters(self):
        assert odd_even_zero_sweep(3, 1, 2).verified

    def test_bare_tree_family_fails(self, monkeypatch):
        # A failing control: without the tail family no odd-by-even
        # product vanishes, and each violation holds its normal form.
        monkeypatch.setattr(envelope, "trivial_gsb", lambda ab: [ZinbielFamily(ab)])
        rep = odd_even_zero_sweep(2, 3, 2)
        assert not rep.verified
        assert rep.checked == len(rep.failures) == 40
        for a, b, nf in rep.failures:
            assert nf and nf == normal_form(MagmaPoly.monomial(node(a, b)),
                                            [ZinbielFamily(default_alphabet(2))])

    def test_parameter_validation(self):
        # The CLI checks the flags first, so only library callers reach
        # these.  An odd m_max below 1 (or a k_max below 2) would sweep no
        # pair and pass.
        for m_max in (2, 0, -1):
            with pytest.raises(ValueError, match="^m_max must be odd and positive$"):
                odd_even_zero_sweep(2, m_max, 2)
        for k_max in (3, 1, 0, -2):
            with pytest.raises(ValueError, match="^k_max must be even and at least 2$"):
                odd_even_zero_sweep(2, 3, k_max)
