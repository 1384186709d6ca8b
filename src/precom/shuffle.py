"""The free pre-commutative (Zinbiel) algebra on associative words.

Elements are rational combinations of nonempty words over an alphabet.
The product of words u and v = v'y shuffles u into the prefix v' and
appends the last letter y:

    u * v  =  sum over interleavings s of (u, v')  of  s y

Symmetrizing this product lands in the shuffle algebra.  The module also
converts between this basis and left-combed tree polynomials, and carries
the Perm-algebra tensor construction that turns a pre-commutative algebra
into a commutative envelope candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .lincomb import Coeff, LinComb, exact
from .magma import Alphabet, Letter, MagmaPoly, NaWord, bracket
from .rewrite import ZinbielFamily, normal_form

__all__ = [
    "AWord",
    "ZinbElement",
    "shuffle_product",
    "zinbiel_product",
    "star",
    "comb",
    "to_left_comb",
    "from_left_comb",
    "PermAlgebra",
    "PermTensorReport",
    "perm_tensor_check",
    "random_element",
]

AWord = tuple  # nonempty tuple of Letter


def _interleavings(a: tuple, b: tuple) -> Iterator[tuple]:
    # Classic recursion: an interleaving starts with the head of a or of b.
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in _interleavings(a[1:], b):
        yield (a[0],) + rest
    for rest in _interleavings(a, b[1:]):
        yield (b[0],) + rest


def _aword_key(w: tuple) -> tuple:
    return (len(w), tuple(x.rank for x in w))


class ZinbElement(LinComb):
    """A finite rational combination of nonempty associative words; the
    arithmetic and exactness rules are :class:`~precom.lincomb.LinComb`'s."""

    __slots__ = ()

    _key = staticmethod(_aword_key)

    @classmethod
    def _monomial(cls, w) -> tuple:
        w = tuple(w)
        if not w:
            raise ValueError("words must be nonempty")
        return w

    @classmethod
    def word(cls, letters: Iterable[Letter], coeff=1) -> "ZinbElement":
        return cls.monomial(letters, coeff)

    def _product(self, other: "ZinbElement") -> "ZinbElement":
        return zinbiel_product(self, other)

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def sorted_terms(self):
        """Terms in increasing word order (length, then letter ranks)."""
        return sorted(self.terms.items(), key=lambda t: _aword_key(t[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            name = ".".join(x.name for x in w)
            bits.append(name if c == 1 else "%s*%s" % (c, name))
        return " + ".join(bits)


def shuffle_product(u: Sequence[Letter], v: Sequence[Letter]) -> ZinbElement:
    """The shuffle product of two words, with interleaving multiplicities."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise ValueError("shuffle needs nonempty words")
    out: dict[tuple, int] = {}
    for s in _interleavings(u, v):
        out[s] = out.get(s, 0) + 1
    return ZinbElement._raw(out)


def zinbiel_product(f: ZinbElement, g: ZinbElement) -> ZinbElement:
    """Bilinear pre-commutative product: shuffle into the prefix, keep the
    right argument's last letter last."""
    out: dict[tuple, Coeff] = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            c = a * b
            last = v[-1:]
            for s in _interleavings(u, v[:-1]):
                w = s + last
                nc = out.get(w, 0) + c
                if nc:
                    out[w] = nc
                else:
                    del out[w]
    return ZinbElement._raw({w: exact(c) for w, c in out.items()})


def star(f: ZinbElement, g: ZinbElement) -> ZinbElement:
    """The symmetrized product f*g = fg + gf (a shuffle-algebra product)."""
    return zinbiel_product(f, g) + zinbiel_product(g, f)


# ---------------------------------------------------------------------------
# Left combs vs associative words

def comb(letters: Sequence[Letter]) -> NaWord:
    """The left-combed tree spelling out the given letters."""
    return bracket(letters, "left")


def to_left_comb(p: MagmaPoly) -> ZinbElement:
    """Rewrite a tree polynomial onto the left-comb basis and read each
    comb as an associative word.  This realizes the free pre-commutative
    product on trees."""
    nf = normal_form(p, [ZinbielFamily()])
    out: dict[tuple, Coeff] = {}
    for w, c in nf.terms.items():
        out[w.leaves()] = c  # distinct combs give distinct words
    return ZinbElement._raw(out)


def from_left_comb(f: ZinbElement) -> MagmaPoly:
    """The inverse embedding: each word becomes its left comb."""
    return MagmaPoly._raw({comb(w): c for w, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Perm algebras and the tensor trick

class PermAlgebra:
    """An algebra whose basis products land on basis elements.

    ``rule(i, j)`` gives the index of e_i e_j; the default rule
    e_i e_j = e_j satisfies both Perm identities
    (x1 x2) x3 = x1 (x2 x3) and x1 (x2 x3) = x2 (x1 x3).
    """

    def __init__(self, dim: int, rule: Optional[Callable[[int, int], int]] = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.rule = rule if rule is not None else (lambda i, j: j)

    def product(self, i: int, j: int) -> int:
        k = self.rule(i, j)
        if not 0 <= k < self.dim:
            raise ValueError("product rule left the basis on (%d, %d)" % (i, j))
        return k

    def validate(self) -> None:
        """Raise if some basis triple violates a Perm identity."""
        rng = range(self.dim)
        for i in rng:
            for j in rng:
                for k in rng:
                    if self.product(self.product(i, j), k) != self.product(i, self.product(j, k)):
                        raise ValueError(
                            "Perm associativity fails on basis triple (%d, %d, %d)" % (i, j, k))
                    if self.product(i, self.product(j, k)) != self.product(j, self.product(i, k)):
                        raise ValueError(
                            "Perm left-commutativity fails on basis triple (%d, %d, %d)" % (i, j, k))


def _tensor(i: int, f: ZinbElement) -> dict:
    return {(i, w): c for w, c in f.terms.items()}


def _tensor_mul(P: PermAlgebra, s: dict, t: dict) -> dict:
    # (p (x) a)(q (x) b) = pq (x) a>b + qp (x) b>a, with > the
    # pre-commutative product; on basis perm elements pq is again basis.
    out: dict = {}
    for (i, u), a in s.items():
        eu = ZinbElement._raw({u: a})
        for (j, v), b in t.items():
            ev = ZinbElement._raw({v: b})
            for pidx, prod in ((P.product(i, j), zinbiel_product(eu, ev)),
                               (P.product(j, i), zinbiel_product(ev, eu))):
                for w, c in prod.terms.items():
                    key = (pidx, w)
                    nc = out.get(key, 0) + c
                    if nc:
                        out[key] = nc
                    else:
                        del out[key]
    return out


@dataclass
class PermTensorReport:
    triples_checked: int
    commutativity_violations: list
    associativity_violations: list

    @property
    def verified(self) -> bool:
        return not self.commutativity_violations and not self.associativity_violations


def perm_tensor_check(P: PermAlgebra,
                      samples: Iterable[tuple[ZinbElement, ZinbElement, ZinbElement]]
                      ) -> PermTensorReport:
    """Validate P, then check that the tensor product on P (x) Z is
    commutative and associative on every sampled element triple, paired
    with every basis triple of P (multilinearity covers the rest)."""
    P.validate()
    comm_bad, assoc_bad = [], []
    checked = 0
    for f, g, h in samples:
        for i in range(P.dim):
            A = _tensor(i, f)
            for j in range(P.dim):
                B = _tensor(j, g)
                AB = _tensor_mul(P, A, B)
                BA = _tensor_mul(P, B, A)
                if AB != BA:
                    comm_bad.append((i, j, f, g))
                for k in range(P.dim):
                    C = _tensor(k, h)
                    checked += 1
                    left = _tensor_mul(P, AB, C)
                    right = _tensor_mul(P, A, _tensor_mul(P, B, C))
                    if left != right:
                        assoc_bad.append((i, j, k, f, g, h))
    return PermTensorReport(checked, comm_bad, assoc_bad)


def random_element(rng: random.Random, alphabet: Alphabet, max_degree: int,
                   max_terms: int = 3) -> ZinbElement:
    """A small random element with degrees up to ``max_degree``."""
    letters = alphabet.letters
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1, max_degree)
        w = tuple(rng.choice(letters) for _ in range(n))
        terms.append((w, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return ZinbElement.from_terms(terms)
