"""Exact sparse linear combinations and the rewriting loop they share.

The subclasses of ``LinComb`` (the tree polynomials ``MagmaPoly``, the
half-shuffle words ``ZinbElement`` and the commutative polynomials
``ComPoly``) are all finite maps from monomials to exact coefficients,
and the tree and commutative sides both reduce modulo monic relations by
rewriting one monomial at a time.  This module holds that common part:

* :class:`LinComb`, the immutable coefficient map with its arithmetic and
  no ``*`` (products are functions); subclasses add order, validation, repr;
* :func:`exact`, the coefficient normalization: an ``int`` when integral,
  else a ``Fraction``, never a float;
* :func:`integral`, the integer copy of a term dict: its terms scaled by
  the common denominator of their coefficients;
* :func:`descend`, the reducer: it rewrites the largest reducible
  monomial first and is driven by a pair of callables: ``find(m)``
  returns ``None`` for an irreducible monomial or ``(step, rel)``, where
  ``rel`` is a relation whose rewrite applies to ``m``, and
  ``image(m, step, t)`` is the monomial that the tail monomial ``t`` of
  ``rel`` becomes when the rewrite is applied to ``m``.  ``rel`` is monic
  or has an ``int`` leading coefficient, which :func:`descend` divides
  by pseudo-division, keeping integer coefficients integer;
* :func:`memo_descend`, which gives exactly :func:`descend`'s normal
  form from memoized normal forms of single monomials, for callers that
  reduce many combinations modulo one monic relation set;
* :func:`echelon_insert`, exact sparse Gaussian elimination: a reduced
  echelon form of ``{column: coeff}`` rows, grown one vector at a time;
* :class:`Report`, the base of the drivers' verdicts, which take their
  ``__slots__`` fields by position and list what failed in ``failures``.
"""

from __future__ import annotations

import operator
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "Coeff",
    "LinComb",
    "exact",
    "integral",
    "descend",
    "memo_descend",
    "echelon_insert",
    "Report",
]

Coeff = Union[int, Fraction]


def exact(c) -> Coeff:
    """``c`` as an exact coefficient: an ``int`` when it is integral, else a
    ``Fraction``.  Anything ``Fraction`` accepts is converted exactly, so a
    float never survives as a coefficient."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def integral(terms: dict) -> tuple[int, dict]:
    """``(d, int_terms)``: ``d`` the least common denominator of the
    coefficients and ``int_terms`` the terms times ``d``, all ``int``.
    With ``d == 1`` the given dict itself is returned."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return 1, terms
    return d, {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
               for m, c in terms.items()}


class LinComb:
    """A finite exact combination of monomials.

    Immutable; zero coefficients are never stored, and every coefficient
    is an ``int`` when integral and a ``Fraction`` otherwise, never a
    float.  A combination is built by :meth:`from_terms`, :meth:`monomial`
    or :meth:`zero`.  Combinations of different subclasses never compare
    equal and cannot be added; a multiple, -1 included, is :meth:`scale`,
    not an operator.  The leading monomial (the largest under ``_key``)
    is cached after first use.
    """

    __slots__ = ("terms", "_lead")

    # Monomial sort key: tree words and commutative monomials carry ``key``.
    _key = operator.attrgetter("key")

    @classmethod
    def _monomial(cls, m):
        """Validate or normalize a monomial given to a public constructor."""
        return m

    @classmethod
    def _collect(cls, items: Iterable[tuple]) -> dict:
        out: dict = {}
        for m, c in items:
            m = cls._monomial(m)
            c = exact(c)
            if c:
                acc = out.get(m)
                if acc is not None:
                    c = exact(acc + c)
                    if not c:
                        del out[m]
                        continue
                out[m] = c
        return out

    @classmethod
    def _raw(cls, terms: dict, lead=None):
        """Trusted constructor: terms already clean (exact coefficients as
        :func:`exact` returns them, no zeros), and ``lead``, when given,
        their leading monomial."""
        p = cls.__new__(cls)
        p.terms = terms
        p._lead = lead
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def monomial(cls, m):
        """The monomial ``m`` with coefficient 1; a multiple is
        :meth:`scale`."""
        return cls._raw({cls._monomial(m): 1})

    @classmethod
    def from_terms(cls, items: Iterable[tuple]):
        """Sum of ``(monomial, coeff)`` pairs; repeated monomials add up."""
        return cls._raw(cls._collect(items))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; compare by value only

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = op(out.get(m, 0), c)
            if nc:
                out[m] = nc if type(nc) is int else exact(nc)
            else:
                del out[m]
        return self._raw(out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def scale(self, c: Coeff):
        c = exact(c)
        if not c:
            return self.zero()
        return self._raw({m: exact(q * c) for m, q in self.terms.items()})

    def leading(self):
        """The largest monomial.  Raises on the zero combination."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("no leading monomial: zero polynomial")
            self._lead = max(self.terms, key=self._key)
        return self._lead

    def leading_coeff(self) -> Coeff:
        return self.terms[self.leading()]

    def monic(self):
        c = self.leading_coeff()
        if c == 1:
            return self
        # Fraction division: int / int would give a float.
        return self._raw({m: exact(Fraction(q, c)) for m, q in self.terms.items()})

    def sorted_terms(self) -> list[tuple]:
        """Terms in descending monomial order."""
        key = self._key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)


def _require_monic(polys: Iterable[LinComb]) -> None:
    for p in polys:
        if not p:
            raise ValueError("zero polynomial in relation list")
        if p.leading_coeff() != 1:
            raise ValueError("relations must be monic")


Find = Callable[[object], Optional[tuple]]
Image = Callable[[object, object, object], object]


def descend(terms: dict, find: Find, image: Image,
            trace: Optional[list] = None) -> dict:
    """Normal form of a term dict, rewriting the largest reducible
    monomial first.

    Each rewrite replaces the current largest reducible monomial by
    strictly smaller ones (tails sit below the leading monomial and the
    orders are multiplicative), so one descending sweep suffices: once a
    monomial is popped it never reappears.  The worklist is a list sorted
    by ``key`` and popped from its end, so every order comparison is a C
    comparison of keys.  A monomial is listed once, from its first
    appearance until it is popped, and keeps coefficient 0 while it is
    cancelled.  Every listed monomial is below the one last popped, so the
    nonzero ones pop in the order a max-heap of the monomials with a
    coefficient would give, and a listed zero pops with nothing to do.
    Coefficients are normalized by :func:`exact` as they are read.

    A relation's leading coefficient L is 1 or an ``int``; it is read
    once per rewrite.  With L != 1 the rewrite is a pseudo-division: an
    ``int`` coefficient c of the popped monomial takes the pending terms
    and the output times L/gcd(L, c), so that the tail is subtracted c/L
    times in integers, and a running scale records the product of these
    factors (a ``Fraction`` c is divided by L instead).  The result is
    divided by the scale once, at the end, so it is exactly the normal
    form that reducing by the monic relations rel/L gives; monic
    relations never scale.  With a ``trace`` list, each rewrite appends
    ``(coeff, monomial, step, rel)``, where ``coeff`` is the true
    coefficient of the monomial (its scaled one over the scale at that
    step): the coefficient of the monic relation rel/L.  The tree side's
    :func:`~precom.rewrite.normal_form_with_trace` passes one, and its
    steps are its output; :func:`~precom.compoly.com_reduce` passes none.
    """
    coeffs = dict(terms)
    key = LinComb._key
    todo = sorted(coeffs, key=key)
    out: dict = {}
    scale = 1
    while todo:
        m = todo.pop()
        c = coeffs.pop(m)
        if not c:
            continue
        if type(c) is not int:
            c = exact(c)
        hit = find(m)
        if hit is None:
            out[m] = c
            continue
        step, rel = hit
        if trace is not None:
            trace.append((c if scale == 1 else exact(Fraction(c, scale)), m, step, rel))
        lead = rel.leading()
        rterms = rel.terms
        lc = rterms[lead]
        # a: the multiple of rel's tail to subtract, c / lc after scaling.
        if lc == 1:
            a = c
        elif type(c) is int:
            g = gcd(lc, c)
            k = lc // g
            a = c // g
            if k != 1:
                scale *= k
                for t in coeffs:
                    coeffs[t] *= k
                for t in out:
                    out[t] *= k
        else:
            a = c / lc
        for t, q in rterms.items():
            if t is lead:
                continue
            nm = image(m, step, t)
            old = coeffs.get(nm)
            if old is None:
                coeffs[nm] = -a * q
                insort(todo, nm, key=key)
            else:
                coeffs[nm] = old - a * q
    if scale != 1:
        return {m: exact(Fraction(c, scale)) for m, c in out.items()}
    return out


def memo_descend(terms: dict, find: Find, image: Image, memo: dict) -> dict:
    """The normal form :func:`descend` gives, summed from memoized normal
    forms of single monomials.

    :func:`descend` is linear in its term dict, and the rewrite it applies
    to a monomial depends only on that monomial, so the normal form of
    ``Σ c_m·m`` is ``Σ c_m·N(m)``, where ``N(m) = m`` when ``find(m)`` is
    ``None`` and otherwise ``N(m) = -Σ q·N(image(m, step, t))`` over the
    tail terms ``q·t`` of the relation found.  This holds for any relation
    set, confluent or not.  ``memo`` maps each monomial met to ``N(m)`` as
    a term dict, or to ``None`` when ``m`` is irreducible; it stays valid
    while ``find`` gives the same answers, so a caller keeps one per
    relation set and clears it when the set grows.  Unlike
    :func:`descend`, it requires every relation ``find`` answers with to
    be monic: it reads no leading coefficient.
    """
    out: dict = {}
    for m, c in terms.items():
        nf = memo.get(m, memo)
        if nf is memo:
            nf = _monomial_nf(m, find, image, memo)
        if nf is None:
            out[m] = out.get(m, 0) + c
        else:
            for w, d in nf.items():
                out[w] = out.get(w, 0) + c * d
    return {w: c if type(c) is int else exact(c) for w, c in out.items() if c}


def _monomial_nf(m, find: Find, image: Image, memo: dict):
    """Fill ``memo`` for ``m`` and every monomial its rewrites reach, in
    postorder with an explicit stack of ``(monomial, images)`` frames:
    ``images`` is ``None`` until the monomial's rewrite is looked up, then
    the ``(image, q)`` pairs whose normal forms it sums once they are all
    known.  Images are strictly smaller than the monomial rewritten, so no
    frame waits on itself."""
    stack = [(m, None)]
    while stack:
        w, images = stack.pop()
        if images is None:
            if w in memo:
                continue
            hit = find(w)
            if hit is None:
                memo[w] = None
                continue
            step, rel = hit
            lead = rel.leading()
            images = [(image(w, step, t), q) for t, q in rel.terms.items() if t is not lead]
            stack.append((w, images))
            stack.extend((nw, None) for nw, _ in images if nw not in memo)
            continue
        acc: dict = {}
        for nw, q in images:
            nf = memo[nw]
            if nf is None:
                acc[nw] = acc.get(nw, 0) - q
            else:
                for u, d in nf.items():
                    acc[u] = acc.get(u, 0) - q * d
        memo[w] = {u: d if type(d) is int else exact(d) for u, d in acc.items() if d}
    return memo[m]


def _sub_scaled(u: dict, c: Coeff, w: dict) -> dict:
    """``u - c·w`` as a new ``{column: coeff}`` dict without zeros."""
    out = dict(u)
    for col, x in w.items():
        y = out.get(col, 0) - c * x
        if y:
            out[col] = y if type(y) is int else exact(y)
        else:
            out.pop(col, None)
    return out


def echelon_insert(rows: dict, v: dict) -> Optional[dict]:
    """Add the sparse vector ``v`` to the reduced echelon form ``rows``.

    Vectors map columns to nonzero exact coefficients.  ``rows`` maps the
    pivot of each row, its smallest column, to the row, which is 1 there
    and 0 at every other row's pivot; so the form is the canonical basis
    of the rows' span.  ``v`` is reduced against the rows.  What is left
    is made monic at its pivot, cleared from the other rows, filed, and
    returned as inserted; ``None`` means ``v`` was already in the span.
    Rows are replaced, never mutated, so a returned row keeps its value.
    """
    # Each row is 0 at the other pivots, so subtracting it leaves them be.
    for p in [p for p in v if p in rows]:
        v = _sub_scaled(v, v[p], rows[p])
    if not v:
        return None
    p = min(v)
    lead = v[p]
    if lead != 1:
        v = {col: exact(Fraction(x, lead)) for col, x in v.items()}
    for q, row in list(rows.items()):
        if p in row:
            rows[q] = _sub_scaled(row, row[p], v)
    rows[p] = v
    return v


class Report:
    """A verdict with its fields in ``__slots__``, given by position in
    slot order.  ``verified`` holds when ``failures`` is empty; a
    subclass whose verdict reads more than that overrides it."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    @property
    def verified(self) -> bool:
        return not self.failures
