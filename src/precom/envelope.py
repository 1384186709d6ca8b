"""Universal pre-commutative envelopes of commutative algebras.

A commutative algebra A on an ordered basis presents an envelope by the
defining tree family together with one quadratic relation per basis pair:

    xy + yx - (x*y)        for x < y,
    xx - (x*x)/2           on the diagonal.

For the zero-multiplication (trivial) algebra the completed rewriting
system is known in closed form: the tree family plus one rule, by which
two letters after an even-length left comb anticommute (the tail
family).  This module carries that rule, the dimension formula for the
envelope's graded pieces, and drivers that verify the basis claims,
sweep the odd-even vanishing law, and detect collapse of an envelope
onto a smaller algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from typing import Mapping, Optional

from .lincomb import Coeff, Report, exact
from .magma import (
    Alphabet,
    Letter,
    MagmaPoly,
    NaWord,
    comb,
    leaf,
    node,
)
from .rewrite import (
    ExplicitRelation,
    RelationSchema,
    ZinbielFamily,
    complete,
    irreducible_counts,
    normal_form,
    normal_forms,
    verify_gsb,
)

__all__ = [
    "CommAlgebra",
    "trivial_algebra",
    "idempotent_algebra",
    "truncated_power_algebra",
    "default_alphabet",
    "TailFamily",
    "enveloping_relations",
    "trivial_gsb",
    "trivial_envelope_dimension",
    "BasisReport",
    "verify_zinbiel_basis",
    "verify_trivial_envelope",
    "CollapseReport",
    "collapse_check",
    "OddEvenReport",
    "odd_even_zero_sweep",
]


class CommAlgebra:
    """A commutative algebra on an ordered basis with exact structure
    constants.  Only products x*y with rank(x) <= rank(y) are stored."""

    def __init__(self, alphabet: Alphabet, products: dict):
        self.alphabet = alphabet
        basis = set(alphabet.letters)
        table: dict[tuple[Letter, Letter], dict[Letter, Fraction]] = {}
        for (x, y), combo in products.items():
            if x not in basis or y not in basis:
                raise ValueError("product key uses letters outside the basis")
            if x.rank > y.rank:
                raise ValueError("store products with rank(x) <= rank(y) only")
            clean = {}
            for z, c in combo.items():
                if z not in basis:
                    raise ValueError("product value uses letters outside the basis")
                c = Fraction(c)
                if c:
                    clean[z] = c
            if clean:
                table[(x, y)] = clean
        self._products = table

    @property
    def basis(self) -> tuple[Letter, ...]:
        return self.alphabet.letters

    def product(self, x: Letter, y: Letter) -> dict[Letter, Fraction]:
        """The structure constants of x*y as a letter -> coefficient map."""
        if x.rank > y.rank:
            x, y = y, x
        return dict(self._products.get((x, y), {}))

    def times(self, u: Mapping[Letter, Coeff],
              v: Mapping[Letter, Coeff]) -> dict[Letter, Coeff]:
        """The product of two letter-keyed combinations through the
        structure constants, with exact coefficients and no zeros."""
        out: dict = {}
        for x, a in u.items():
            for y, b in v.items():
                for z, c in self.product(x, y).items():
                    out[z] = out.get(z, 0) + a * b * c
        return {z: exact(c) for z, c in out.items() if c}

    def require_associative(self) -> None:
        """Check (xy)z = x(yz) on every basis triple, x, y and z each in
        basis order, and raise ValueError naming the first triple that
        fails: ``algebra is not associative on basis triple (x, y, z)``."""
        basis = self.basis
        for x in basis:
            for y in basis:
                xy = self.product(x, y)
                for z in basis:
                    # x(yz) = (yz)x: the algebra is commutative.
                    if self.times(xy, {z: 1}) != self.times(self.product(y, z), {x: 1}):
                        raise ValueError(
                            "algebra is not associative on basis triple (%s, %s, %s)"
                            % (x.name, y.name, z.name))

    def __repr__(self) -> str:
        return "CommAlgebra(%r, %d products)" % (self.alphabet, len(self._products))


@cache
def default_alphabet(d: int) -> Alphabet:
    """x < y < z < w, or x1 < ... < xd past four letters.  One alphabet
    per d, so the words over it, which hash-consing keys by letter, are
    built once per process."""
    if d < 1:
        raise ValueError("need at least one letter")
    return Alphabet("xyzw"[:d] if d <= 4 else ["x%d" % i for i in range(1, d + 1)])


def trivial_algebra(d: int) -> CommAlgebra:
    """The d-dimensional algebra with all products zero."""
    return CommAlgebra(default_alphabet(d), {})


def idempotent_algebra() -> CommAlgebra:
    """The one-dimensional algebra with e*e = e, on the letter x."""
    ab = Alphabet(["x"])
    e = ab[0]
    return CommAlgebra(ab, {(e, e): {e: 1}})


def truncated_power_algebra(n: int) -> CommAlgebra:
    """Basis x1..xn with x_i * x_j = x_(i+j), zero once i+j exceeds n.

    This is the augmentation ideal of a truncated polynomial algebra in
    one variable, with x_i the i-th power of the variable.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ab = Alphabet(["x%d" % i for i in range(1, n + 1)])
    products = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                products[(ab[i - 1], ab[j - 1])] = {ab[i + j - 1]: 1}
    return CommAlgebra(ab, products)


# ---------------------------------------------------------------------------
# The tail family of the trivial algebra's envelope

class TailFamily(RelationSchema):
    """Two letters after an even-length left comb anticommute:

        (a x) y + (a y) x    for letters x < y,
        (a x) x              for x = y (2 (a x) x made monic),

    for every left-combed word a of even length.  The comb a may be
    empty, and then (a x) is x: the quadratic relations xy + yx and xx.
    So the family matches the left combs of even length whose last two
    letters x, y do not descend.  Leading monomial (a x) y, as y >= x.
    """

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        if word.length % 2 or not word.is_comb:
            return None
        ax, y = word.left, word.right
        x = ax if ax.letter is not None else ax.right
        if x is y:
            return MagmaPoly._raw({word: 1})
        if x.letter.rank > y.letter.rank:
            return None
        ay = y if ax is x else node(ax.left, y)
        return MagmaPoly._raw({word: 1, node(ay, x): 1})

    def instances(self, bound: int) -> tuple[MagmaPoly, ...]:
        """The matches among the candidates (a x) y with a an even-length
        comb and x <= y, sum over even m <= bound - 2 of d^m C(d+1, 2) of
        them, ordered by length, then by their letters in lexicographic
        order.  A subclass whose ``match`` declines some of them lists only
        the rest."""
        letters = self.alphabet.letters
        out = []
        for m in range(0, bound - 1, 2):
            for prefix in iproduct(letters, repeat=m):
                for i, x in enumerate(letters):
                    ax = comb(prefix + (x,))
                    for y in letters[i:]:
                        p = self.match(node(ax, leaf(y)))
                        if p is not None:
                            out.append(p)
        return tuple(out)


def enveloping_relations(A: CommAlgebra) -> list[RelationSchema]:
    """Defining relations of the universal envelope of A.

    The tree family plus, for each basis pair x <= y, the monic quadratic
    relation whose leading monomial is xy.  The length-first order makes
    the quadratic monomial lead regardless of the structure constants.
    """
    rels: list[RelationSchema] = [ZinbielFamily(A.alphabet)]
    letters = A.alphabet.letters
    for i, x in enumerate(letters):
        for y in letters[i:]:
            # (x y) + (y x), which sums to 2 (x x) on the diagonal.
            terms = [(node(leaf(x), leaf(y)), 1), (node(leaf(y), leaf(x)), 1)]
            terms += [(leaf(z), -c) for z, c in A.product(x, y).items()]
            poly = MagmaPoly.from_terms(terms)
            if poly.leading().length != 2:
                raise AssertionError("quadratic monomial must lead an enveloping relation")
            rels.append(ExplicitRelation(poly))
    return rels


def trivial_gsb(alphabet: Alphabet) -> list[RelationSchema]:
    """The completed rewriting system for the trivial algebra's envelope:
    the tree family and one rule, :class:`TailFamily`, by which two
    letters after an even-length left comb anticommute."""
    return [ZinbielFamily(alphabet), TailFamily(alphabet)]


def trivial_envelope_dimension(d: int, n: int) -> int:
    """Dimension of the length-n piece of the trivial envelope on d letters:
    C(d,2)^(n//2) * d^(n%2).  The basis consists of left combs whose
    letters strictly descend in odd-even adjacent pairs."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return math.comb(d, 2) ** (n // 2) * d ** (n % 2)


# ---------------------------------------------------------------------------
# Drivers

class BasisReport(Report):
    """The verdict on a relation set's claimed basis: its confluence
    report ``gsb``, its irreducible ``counts`` at lengths 1..bound against
    the ``expected_counts`` of the dimension formula, and the counts of a
    completion of the raw defining relations, or ``None`` when none was
    run."""

    __slots__ = ("gsb", "counts", "expected_counts", "completion_counts")

    @property
    def verified(self) -> bool:
        return (self.gsb.verified and self.counts == self.expected_counts
                and self.completion_counts in (None, self.expected_counts))


def verify_zinbiel_basis(d: int, bound: int) -> BasisReport:
    """Two checks on the bare tree family over d letters: it is confluent
    to the bound, and its irreducible counts are d^n, the dimension of the
    free Zinbiel algebra.  The family forms no composition site, as the
    composition lemma discharges every one, so a family that matches the
    wrong words passes the first check and fails only the second."""
    ab = default_alphabet(d)
    rels = [ZinbielFamily(ab)]
    rep = verify_gsb(rels, bound)
    counts = irreducible_counts(rels, ab, bound)
    return BasisReport(rep, counts, [d ** n for n in range(1, bound + 1)], None)


def verify_trivial_envelope(d: int, bound: int, run_completion: bool) -> BasisReport:
    """Three checks on the trivial algebra's envelope over d letters:
    the closed-form relation set is confluent to the bound, its
    irreducible counts match the dimension formula, and, with
    ``run_completion``, completing the raw defining relations reproduces
    the same counts."""
    ab = default_alphabet(d)
    rels = trivial_gsb(ab)
    rep = verify_gsb(rels, bound)
    counts = irreducible_counts(rels, ab, bound)
    expected = [trivial_envelope_dimension(d, n) for n in range(1, bound + 1)]
    completion_counts = None
    if run_completion:
        A = trivial_algebra(d)
        completed = complete(enveloping_relations(A), bound)
        completion_counts = irreducible_counts(completed, A.alphabet, bound)
    return BasisReport(rep, counts, expected, completion_counts)


class CollapseReport(Report):
    """The irreducible ``counts`` of the completed envelope, its
    ``star_table`` of generator pairs x <= y in basis order, and as
    ``failures`` each ``(x, y, star, expected)`` whose star is not x*y in A."""

    __slots__ = ("counts", "star_table", "failures")


def collapse_check(A: CommAlgebra, bound: int) -> CollapseReport:
    """Complete the enveloping relations and compare the induced star
    products of generators, nf(xy + yx), against A's structure constants.
    A must be associative (checked on basis triples)."""
    A.require_associative()
    completed = complete(enveloping_relations(A), bound)
    counts = irreducible_counts(completed, A.alphabet, bound)
    table = {}
    failures = []
    letters = A.alphabet.letters
    for i, x in enumerate(letters):
        for y in letters[i:]:
            p = MagmaPoly.from_terms([(node(leaf(x), leaf(y)), 1),
                                      (node(leaf(y), leaf(x)), 1)])
            got = normal_form(p, completed)
            expected = MagmaPoly.from_terms(
                [(leaf(z), c) for z, c in A.product(x, y).items()])
            table[(x, y)] = got
            if got != expected:
                failures.append((x, y, got, expected))
    return CollapseReport(counts, table, failures)


class OddEvenReport(Report):
    """``checked`` comb products, and as ``failures`` each ``(a, b, nf)``
    whose normal form nf is not zero."""

    __slots__ = ("checked", "failures")


def odd_even_zero_sweep(d: int, m_max: int, k_max: int) -> OddEvenReport:
    """In the trivial envelope, the product of an odd-length comb by an
    even-length comb vanishes.  Sweep all combed words a (odd length up
    to m_max) and b (even length up to k_max) over d letters and reduce
    a b, all modulo one relation index; report any nonzero normal form."""
    if m_max < 1 or m_max % 2 == 0:
        raise ValueError("m_max must be odd and positive")
    if k_max < 2 or k_max % 2:
        raise ValueError("k_max must be even and at least 2")
    ab = default_alphabet(d)
    rels = trivial_gsb(ab)
    letters = ab.letters
    pairs = [(comb(atup), comb(btup))
             for m in range(1, m_max + 1, 2)
             for atup in iproduct(letters, repeat=m)
             for k in range(2, k_max + 1, 2)
             for btup in iproduct(letters, repeat=k)]
    nfs = normal_forms([MagmaPoly.monomial(node(a, b)) for a, b in pairs], rels)
    return OddEvenReport(len(pairs), [(a, b, nf) for (a, b), nf in zip(pairs, nfs) if nf])
