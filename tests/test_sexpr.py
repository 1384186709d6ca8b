from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from precom.envelope import TailFamily, trivial_gsb
from precom.magma import MagmaPoly, leaf, node
from precom.rewrite import ExplicitRelation, ZinbielFamily
from precom.sexpr import (
    ParseError,
    format_relations,
    parse_algebra,
    parse_aword,
    parse_poly,
    parse_relations,
)
from precom.shuffle import ZinbElement

from oracles import parse_word, words_of_length


class TestWords:
    def test_leaf(self, ab2):
        assert parse_word("x", ab2) is leaf(ab2["x"])

    def test_nested(self, ab3):
        w = parse_word("(x (y z))", ab3)
        assert w is node(leaf(ab3["x"]), node(leaf(ab3["y"]), leaf(ab3["z"])))

    def test_comments_and_whitespace(self, ab2):
        text = "( x   ; a comment\n  (y x) )"
        assert parse_word(text, ab2) \
            is node(leaf(ab2["x"]), node(leaf(ab2["y"]), leaf(ab2["x"])))

    def test_format_round_trip(self, ab2):
        for text in ["x", "(x y)", "((x y) (y x))", "(x (x (y y)))"]:
            w = parse_word(text, ab2)
            assert repr(w) == text
            assert parse_word(repr(w), ab2) is w

    def test_deep_right_comb_round_trip(self, ab2):
        n = 3000
        text = "(x " * (n - 1) + "x" + ")" * (n - 1)
        w = parse_word(text, ab2)
        assert w.length == n and w.left is leaf(ab2["x"])
        assert repr(w) == text

    def test_unknown_letter_position(self, ab2):
        with pytest.raises(ParseError, match="line 1, column 4: unknown letter 'q'"):
            parse_word("(x q)", ab2)

    def test_arity_error(self, ab2):
        with pytest.raises(ParseError, match="exactly two subwords"):
            parse_word("(x y x)", ab2)

    def test_unmatched_parens(self, ab2):
        with pytest.raises(ParseError, match="unclosed"):
            parse_word("(x (y x)", ab2)
        with pytest.raises(ParseError, match="unmatched"):
            parse_word("x) ", ab2)

    def test_multiple_forms_rejected(self, ab2):
        with pytest.raises(ParseError, match="exactly one word"):
            parse_word("x y", ab2)


class TestPolys:
    def test_sum_with_coefficients(self, ab2):
        p = parse_poly("(+ (x y) (* -1/2 (y x)))", ab2)
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert p == MagmaPoly.from_terms(
            [(node(x, y), 1), (node(y, x), Fraction(-1, 2))])

    def test_bare_word(self, ab2):
        assert parse_poly("(x x)", ab2) \
            == MagmaPoly.monomial(node(leaf(ab2["x"]), leaf(ab2["x"])))

    def test_zero(self, ab2):
        assert parse_poly("0", ab2) == MagmaPoly.zero()
        assert repr(MagmaPoly.zero()) == "0"

    def test_format_round_trip(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        polys = [
            MagmaPoly.monomial(x),
            MagmaPoly.monomial(node(x, y)).scale(Fraction(2, 3)),
            MagmaPoly.from_terms([(node(x, node(y, y)), 1), (y, -4)]),
        ]
        for p in polys:
            assert parse_poly(repr(p), ab2) == p

    @pytest.mark.parametrize("seed", range(4))
    def test_repr_reads_back(self, ab3, seed):
        # A tree polynomial's repr is its file form: seeded sums of words
        # of lengths 1 to 5 with seeded coefficients, zero included.
        rng = random.Random(seed)
        words = [w for n in range(1, 6) for w in words_of_length(ab3, n)]
        for size in range(8):
            p = MagmaPoly.from_terms(
                (rng.choice(words), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for _ in range(size))
            assert parse_poly(repr(p), ab3) == p

    def test_terms_merge(self, ab2):
        p = parse_poly("(+ x x (* -2 x))", ab2)
        assert p == MagmaPoly.zero()

    def test_bad_coefficient(self, ab2):
        with pytest.raises(ParseError, match="not a rational number"):
            parse_poly("(* pi (x y))", ab2)

    def test_star_arity(self, ab2):
        with pytest.raises(ParseError, match="exactly two arguments"):
            parse_poly("(* 1/2 (x y) x)", ab2)


class TestAWords:
    def test_parse(self, ab2):
        assert parse_aword("x.y.x", ab2) == (ab2["x"], ab2["y"], ab2["x"])
        assert parse_aword("y", ab2) == (ab2["y"],)

    def test_round_trip(self, ab3):
        for text in ["x", "z.y", "x.y.z.x"]:
            assert repr(ZinbElement.monomial(parse_aword(text, ab3))) == text

    def test_empty_rejected(self, ab2):
        with pytest.raises(ParseError, match="empty"):
            parse_aword("", ab2)

    def test_unknown_letter(self, ab2):
        with pytest.raises(ParseError, match="unknown letter 'q'"):
            parse_aword("x.q", ab2)

    @pytest.mark.parametrize("text", ["x.", ".x", "x..y", "."])
    def test_empty_letter_name_rejected(self, ab2, text):
        with pytest.raises(ParseError, match="empty letter name"):
            parse_aword(text, ab2)

    def test_format_zinb(self, ab2):
        f = ZinbElement.monomial((ab2["x"], ab2["y"])) \
            + ZinbElement.monomial((ab2["x"],)).scale(Fraction(1, 2))
        assert repr(f) == "(+ (* 1/2 x) x.y)"


class TestRelationFiles:
    def test_family_and_explicit(self):
        text = """
        (alphabet x y)          ; two letters
        (family zinbiel)
        (rel (+ (x y) (y x)))
        """
        ab, rels = parse_relations(text)
        assert [l.name for l in ab] == ["x", "y"]
        assert isinstance(rels[0], ZinbielFamily)
        assert rels[0].alphabet is ab
        assert isinstance(rels[1], ExplicitRelation)
        assert rels[1].lead is node(leaf(ab["x"]), leaf(ab["y"]))

    def test_trivial_envelope_shorthand(self):
        ab, rels = parse_relations("(alphabet x y)\n(family trivial-envelope)")
        assert [type(r) for r in rels] == [type(r) for r in trivial_gsb(ab)] \
            == [ZinbielFamily, TailFamily]
        text = "(alphabet x y)\n(family zinbiel)\n(family tail)\n"
        assert format_relations(ab, rels) == text
        ab2_, rels2 = parse_relations(text)
        assert [type(r) for r in rels2] == [ZinbielFamily, TailFamily]
        assert rels2[1].alphabet is ab2_

    @pytest.mark.parametrize("name", ["tail-anticomm", "tail-square"])
    def test_removed_tail_names_rejected(self, name):
        with pytest.raises(ParseError, match="unknown family %r; known: "
                           "tail, trivial-envelope, zinbiel$" % name):
            parse_relations("(alphabet x y)\n(family %s)" % name)

    def test_relations_made_monic(self):
        _, rels = parse_relations("(alphabet x)\n(rel (* 3 (x x)))")
        assert rels[0].poly.leading_coeff() == 1

    def test_round_trip(self):
        text = ("(alphabet x y)\n(family zinbiel)\n"
                "(rel (+ (x y) (y x)))\n(rel (x x))\n")
        ab, rels = parse_relations(text)
        assert format_relations(ab, rels) == text
        ab2_, rels2 = parse_relations(format_relations(ab, rels))
        assert format_relations(ab2_, rels2) == text

    def test_errors(self):
        with pytest.raises(ParseError, match="empty relation file"):
            parse_relations("  ; nothing\n")
        with pytest.raises(ParseError, match=r"first form must be \(alphabet"):
            parse_relations("(family zinbiel)")
        with pytest.raises(ParseError, match="at least one letter"):
            parse_relations("(alphabet)")
        with pytest.raises(ParseError, match="unknown family"):
            parse_relations("(alphabet x)\n(family poisson)")
        with pytest.raises(ParseError, match="polynomial is zero"):
            parse_relations("(alphabet x)\n(rel 0)")
        with pytest.raises(ParseError, match=r"expected \(family"):
            parse_relations("(alphabet x)\n(boom)")
        with pytest.raises(ParseError, match="duplicate"):
            parse_relations("(alphabet x x)")

    @pytest.mark.parametrize("name", ["0", "+", "*", "x+y", "+x", "a->b", "->"])
    def test_unreadable_letter_names_rejected(self, name):
        # After (alphabet 0 x), the input 0 would read as the zero
        # polynomial, and after (alphabet + x), (+ x) as a sum.
        with pytest.raises(ParseError, match=r"line 1, column 1: letter name %s cannot be read"
                           % re.escape(repr(name))):
            parse_relations("(alphabet %s x)\n(family zinbiel)" % name)

    def test_letter_names_that_read_back_accepted(self):
        ab, rels = parse_relations("(alphabet x-1 2 - 0x *y 1/2)\n(rel (+ (2 *y) (* 1/2 1/2)))")
        assert [x.name for x in ab.letters] == NAMES_THAT_READ_BACK
        text = format_relations(ab, rels)
        assert format_relations(*parse_relations(text)) == text


NAMES_THAT_READ_BACK = ["x-1", "2", "-", "0x", "*y", "1/2"]

ALGEBRA = {
    "basis": ["x1", "x2"],
    "levels": {"x1": 1, "x2": 2},
    "products": ["x1 x1 -> x2"],
}


class TestAlgebraFiles:
    def test_parse(self):
        A, levels = parse_algebra(ALGEBRA)
        ab = A.alphabet
        assert A.product(ab["x1"], ab["x1"]) == {ab["x2"]: 1}
        assert levels == {ab["x1"]: 1, ab["x2"]: 2}

    def test_levels_optional(self):
        A, levels = parse_algebra({"basis": ["x"], "products": []})
        assert levels is None

    def test_misordered_pair_normalized(self):
        A, _ = parse_algebra({"basis": ["a", "b"], "products": ["b a -> 1/2 a"]})
        ab = A.alphabet
        assert A.product(ab["a"], ab["b"]) == {ab["a"]: Fraction(1, 2)}

    def test_combination_right_side(self):
        A, _ = parse_algebra(
            {"basis": ["a", "b", "c"], "products": ["a a -> 2 b + -1/3 c"]})
        ab = A.alphabet
        assert A.product(ab["a"], ab["a"]) \
            == {ab["b"]: 2, ab["c"]: Fraction(-1, 3)}

    def test_zero_right_side(self):
        A, _ = parse_algebra({"basis": ["a"], "products": ["a a -> 0"]})
        assert A.product(A.alphabet["a"], A.alphabet["a"]) == {}

    def test_reads_exactly_the_listed_products_and_levels(self):
        A, levels = parse_algebra(ALGEBRA)
        ab = A.alphabet
        x1, x2 = ab["x1"], ab["x2"]
        assert [x.name for x in ab.letters] == ALGEBRA["basis"]
        assert A.product(x1, x1) == {x2: 1}
        assert A.product(x1, x2) == A.product(x2, x1) == A.product(x2, x2) == {}
        assert {x.name: k for x, k in levels.items()} == ALGEBRA["levels"]

    def test_errors(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_algebra([1, 2])
        with pytest.raises(ParseError, match="'basis' must be"):
            parse_algebra({"basis": "xy"})
        with pytest.raises(ParseError, match="look like"):
            parse_algebra({"basis": ["a"], "products": ["a a = a"]})
        with pytest.raises(ParseError, match="exactly two letters"):
            parse_algebra({"basis": ["a"], "products": ["a -> a"]})
        with pytest.raises(ParseError, match="unknown letter"):
            parse_algebra({"basis": ["a"], "products": ["a q -> a"]})
        # A first copy that is zero, as written or after cancelling, counts.
        for first in ("a a -> 0", "a a -> a + -1 a"):
            with pytest.raises(ParseError, match="duplicate product entry for a a"):
                parse_algebra({"basis": ["a"], "products": [first, "a a -> a"]})
        with pytest.raises(ParseError, match="duplicate product"):
            parse_algebra({"basis": ["a"],
                           "products": ["a a -> a", "a a -> 0"]})
        with pytest.raises(ParseError, match="positive integer"):
            parse_algebra({"basis": ["a"], "levels": {"a": 0}, "products": []})
        with pytest.raises(ParseError, match="positive integer"):
            parse_algebra({"basis": ["a"], "levels": {"a": True}, "products": []})
        with pytest.raises(ParseError, match="levels missing for: b"):
            parse_algebra({"basis": ["a", "b"], "levels": {"a": 1}, "products": []})
        with pytest.raises(ParseError, match="unknown letter 'q' in levels"):
            parse_algebra({"basis": ["a"], "levels": {"q": 1}, "products": []})

    @pytest.mark.parametrize("name", ["(", ")", "a)", "a;b", "", " ", "a b", "a\tb", "a\u00a0b",
                                      "0", "+", "*", "x+y", "a->b"])
    def test_unreadable_letter_names_rejected(self, name):
        # A name the relation format cannot read as one atom, or that
        # the product entries would split, never reaches an alphabet.
        with pytest.raises(ParseError, match="^letter name %s cannot be read back as a letter$"
                           % re.escape(repr(name))):
            parse_algebra({"basis": [name, "b"], "products": []})

    def test_letter_names_that_read_back_accepted(self):
        names = NAMES_THAT_READ_BACK
        A, _ = parse_algebra({"basis": names, "products": ["2 - -> 1/2 + 3 1/2"]})
        ab = A.alphabet
        assert [x.name for x in ab.letters] == names
        assert A.product(ab["2"], ab["-"]) == {ab["1/2"]: 4}

    @pytest.mark.parametrize("products", [5, None, "a a -> a", {"a a": "a"}],
                             ids=["int", "null", "string", "object"])
    def test_products_must_be_a_list(self, products):
        with pytest.raises(ParseError, match="'products' must be a list"):
            parse_algebra({"basis": ["a"], "products": products})

    def test_absent_products_mean_none(self):
        A, _ = parse_algebra({"basis": ["a"]})
        assert A.product(A.alphabet["a"], A.alphabet["a"]) == {}
