"""The free pre-commutative (Zinbiel) algebra on associative words.

Elements are rational combinations of nonempty words over an alphabet.
A word is a ``str`` with one character per letter, the letter's
``char`` (:func:`encode_word`; :func:`decode_word` reads the letters
back).  So a word caches its hash, slicing and concatenation copy
characters rather than pointers, and ``(len(w), w)`` orders words by
length, then by their letters' ranks, since an alphabet gives higher
ranks higher code points.  The product of words u and v = v'y shuffles
u into the prefix v' and appends the last letter y:

    u * v  =  sum over interleavings s of (u, v')  of  s y

Symmetrizing this product lands in the shuffle algebra.  The product
reads each word pair's half-shuffle, a map from each distinct interleaving
to its multiplicity, from the process-global table ``_HALF``, keyed by
the pair of words, filled on first use and never shrunk, like
``magma._NODES``.  An interleaving ends with a letter of one word or of
the other, so an entry is the merge of two entries one letter shorter
(``_half``), and every word pair of the process shares those shorter
entries.  The work grows with the distinct words rather than with the
interleavings, and no path recurses.  The tests hold each entry to a
prefix-table reference.
``zinbiel_product`` multiplies the given coefficients directly: every
library caller hands it integer coefficients (the tensor check's integer
copies, ``zmul``'s monomials), so its sums stay in ``int``, and a sum
that is not an ``int`` is normalized once at the end.

The module stands alone: it runs no tree word and no rewrite.  A word
is the leaf sequence of a left comb of the tree model, and the tests
hold the two models to each other through that bridge, kept in
``tests/oracles.py``.  The module also carries the tensor construction
that turns a pre-commutative algebra, tensored with the Perm algebra
e_i e_j = e_j, into a commutative envelope candidate.  The tensor check
scales each sample to integer coefficients once, since both sides of the
checked identity are trilinear in it.  It forms the identity once per
sample, on the three distinct labels e_0, e_1, e_2, and reads every
basis triple off it, at every dimension: any map s of indices makes
e_p -> e_s(p) a homomorphism of the Perm algebra, since e_p e_q = e_q
goes to e_s(q) = e_s(p) e_s(q), so s (x) id is a homomorphism of the
tensor product.  A sample whose three label differences vanish passes
every triple with no further work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .lincomb import LinComb, Report, exact, integral
from .magma import _LETTERS, Alphabet, Letter, _format_terms

__all__ = [
    "encode_word",
    "decode_word",
    "ZinbElement",
    "zinbiel_product",
    "star",
    "PermTensorReport",
    "perm_tensor_check",
    "random_element",
]


# The half-shuffle of each word pair (u, v) that ``zinbiel_product`` has
# met, and of the shorter pairs it was built from: the product of u and v
# as a dict from word to multiplicity, v's last letter already appended.
# No two letters of the process share a character, so pairs over
# different alphabets never share an entry, even where their letters'
# names and ranks agree.
_HALF: dict[tuple[str, str], dict] = {}


def encode_word(letters: Iterable[Letter]) -> str:
    """The word spelling out a nonempty letter sequence, one character per
    letter.  Raises ``TypeError`` on an item that is not a
    :class:`~precom.magma.Letter`, a character of a string included."""
    chars = []
    for x in letters:
        if type(x) is not Letter:
            raise TypeError("a word is a sequence of letters; got %r of type %s"
                            % (x, type(x).__name__))
        chars.append(x.char)
    if not chars:
        raise ValueError("words must be nonempty")
    return "".join(chars)


def decode_word(w: str) -> tuple[Letter, ...]:
    """The letters of a word, left to right."""
    return tuple(_LETTERS[ord(c)] for c in w)


def _half(u: str, v: str) -> dict:
    """The half-shuffle of ``u`` and ``v``, filled into ``_HALF`` with the
    entries it is built from.

    An interleaving of u and v' ends with u's last letter or with v''s, so
    half(u, v'y) = (half(v', u) + half(u, v'))y, and half(u, y) = {uy: 1}.
    Each entry is one merge of two entries one letter shorter; an explicit
    stack fills the missing ones first, so no path recurses."""
    todo = [(u, v)]
    while todo:
        key = a, b = todo[-1]
        if key in _HALF:
            todo.pop()
            continue
        if len(b) == 1:
            _HALF[key] = {a + b: 1}
            todo.pop()
            continue
        p = b[:-1]
        left, right = _HALF.get((p, a)), _HALF.get((a, p))
        if left is None or right is None:
            if left is None:
                todo.append((p, a))
            if right is None:
                todo.append((a, p))
            continue
        y = b[-1:]
        entry = {w + y: m for w, m in left.items()}
        for w, m in right.items():
            w += y
            entry[w] = entry.get(w, 0) + m
        _HALF[key] = entry
        todo.pop()
    return _HALF[u, v]


def _aword_key(w: str) -> tuple:
    return (len(w), w)


class ZinbElement(LinComb):
    """A finite rational combination of nonempty associative words; the
    arithmetic and exactness rules are :class:`~precom.lincomb.LinComb`'s.
    Its monomials are the ``str`` words of :func:`encode_word`: the public
    constructors take letter sequences and encode them, and ``terms`` is
    keyed by the encoded words.  Its repr is the S-expression that
    ``zmul`` prints, of dotted words."""

    __slots__ = ()

    _key = staticmethod(_aword_key)
    _monomial = staticmethod(encode_word)

    def __repr__(self) -> str:
        # Terms in increasing word order (length, then letter ranks).
        return _format_terms(reversed(self.sorted_terms()),
                             lambda w: ".".join(x.name for x in decode_word(w)))


def zinbiel_product(f: ZinbElement, g: ZinbElement) -> ZinbElement:
    """Bilinear pre-commutative product: shuffle into the prefix, keep the
    right argument's last letter last.  The given coefficients multiply
    directly, so integer factors stay in ``int``; a sum that is not an
    ``int`` is normalized by :func:`~precom.lincomb.exact`.  Each word
    pair's half-shuffle is read from ``_HALF``."""
    out: dict = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            half = _HALF.get((u, v))
            if half is None:
                half = _half(u, v)
            c = a * b
            for w, m in half.items():
                out[w] = out.get(w, 0) + c * m
    return ZinbElement._raw({w: c if type(c) is int else exact(c)
                             for w, c in out.items() if c})


def star(f: ZinbElement, g: ZinbElement) -> ZinbElement:
    """The symmetrized product f*g = fg + gf (a shuffle-algebra product)."""
    return zinbiel_product(f, g) + zinbiel_product(g, f)


# ---------------------------------------------------------------------------
# The Perm-algebra tensor trick

def _tensor_mul(s: dict, t: dict) -> dict:
    # Tensor elements are {perm index: ZinbElement} over the Perm algebra
    # e_i e_j = e_j.  By bilinearity,
    # (e_p (x) a)(e_q (x) b) = e_q (x) a>b + e_p (x) b>a, with > the
    # pre-commutative product.
    out: dict = {}
    for p, a in s.items():
        for q, b in t.items():
            for idx, prod in ((q, zinbiel_product(a, b)), (p, zinbiel_product(b, a))):
                out[idx] = out[idx] + prod if idx in out else prod
    return {p: e for p, e in out.items() if e}


class PermTensorReport(Report):
    """The outcome of :func:`perm_tensor_check` on the Perm algebra
    e_i e_j = e_j.  ``checked`` counts the basis-paired triples, and
    ``failures`` lists each sample and basis triple on which associativity
    fails as ``(i, j, k, f, g, h)``, by sample, then in triple order;
    ``half_shuffles`` counts the ``_HALF`` entries the check filled, the
    shorter pairs each product's entries were built from included."""

    __slots__ = ("checked", "failures", "half_shuffles")


def perm_tensor_check(dim: int,
                      samples: Iterable[tuple[ZinbElement, ZinbElement, ZinbElement]]
                      ) -> PermTensorReport:
    """Check that the tensor product on P (x) Z is associative on every
    sampled element triple, paired with every basis triple of P
    (multilinearity covers the rest).  P is the Perm algebra of dimension
    ``dim`` with e_i e_j = e_j, which satisfies both Perm identities
    (x1 x2) x3 = x1 (x2 x3) and x1 (x2 x3) = x2 (x1 x3).

    The product is commutative by construction, for any bilinear product:
    (e_p (x) a)(e_q (x) b) and (e_q (x) b)(e_p (x) a) add the same two
    terms e_q (x) a>b and e_p (x) b>a, so there is nothing to check.

    Both sides of the identity are trilinear in (f, g, h), so scaling the
    sample by its denominators df, dg, dh multiplies each side by
    df dg dh != 0 and keeps every equality and every inequality.  The
    check therefore runs on integer copies of f, g and h, and a failure
    reports the given elements.

    For any map s of indices, e_p -> e_s(p) is a homomorphism of P:
    e_p e_q = e_q goes to e_s(q) = e_s(p) e_s(q).  So s (x) id is a
    homomorphism of P (x) Z, and the basis triple (i, j, k) is the image
    of the labels (0, 1, 2) under s = (0 -> i, 1 -> j, 2 -> k).  The check
    forms left - right = sum over l of e_l (x) D_l once per sample, on
    e_0 (x) f, e_1 (x) g and e_2 (x) h, in four tensor products; the
    triple fails iff, for some index v, the D_l with s(l) = v sum to a
    nonzero element.  When D_0, D_1 and D_2 all vanish, every such sum is
    a sum of zeros, so the sample passes every triple; only a sample with
    a nonzero D_l is summed triple by triple, in triple order."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    dims = range(dim)
    triples = [(i, j, k) for i in dims for j in dims for k in dims]
    zero = ZinbElement.zero()
    failures = []
    checked = 0
    filled = len(_HALF)
    for f, g, h in samples:
        A, B, C = ({l: ZinbElement._raw(integral(x.terms)[1])}
                   for l, x in enumerate((f, g, h)))
        left = _tensor_mul(_tensor_mul(A, B), C)
        right = _tensor_mul(A, _tensor_mul(B, C))
        D = [left.get(l, zero) - right.get(l, zero) for l in range(3)]
        checked += len(triples)
        if not any(D):
            continue
        for t in triples:
            # The D_l that the triple sends to one index, summed.
            sums: dict = {}
            for v, d in zip(t, D):
                sums[v] = sums[v] + d if v in sums else d
            if any(sums.values()):
                failures.append((*t, f, g, h))
    return PermTensorReport(checked, failures, len(_HALF) - filled)


def random_element(rng: random.Random, alphabet: Alphabet, max_degree: int) -> ZinbElement:
    """A small random element of one to three terms with degrees up to
    ``max_degree``.  Each word is drawn as a letter tuple and encoded by
    :meth:`ZinbElement.from_terms`, so a seed draws the same elements
    whatever the word type."""
    letters = alphabet.letters
    terms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max_degree)
        w = tuple(rng.choice(letters) for _ in range(n))
        terms.append((w, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return ZinbElement.from_terms(terms)
