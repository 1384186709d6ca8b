"""Commutative polynomials in weighted generator symbols.

Symbols carry a base name, a filtration level, and a weight (their
t-degree in the series picture); a symbol exists only for weight >= level.
Monomials are multisets of symbols ordered by their ``key``

    (factor count, total weight, sorted symbol keys lexicographically),

so fewer factors always means smaller.  A relation "quadratic part =
linear part" therefore rewrites the quadratic side downward and single
symbols stay irreducible unless completion *proves* a linear leading
monomial — the alarm the embedding drivers watch for.  The order is
multiplicative: appending a symbol to two multisets shifts the
multiplicity of that symbol in both, which moves neither the smallest
symbol whose multiplicities differ nor the direction of the difference.

Symbols and monomials are hash-consed, as tree words are in
``magma._NODES``: one object per value, kept in process-global tables
that never shrink, so equality and hashing are identity and a monomial
product is computed once per process and pair.  Nothing is ordered by
those identity hashes; every order is by ``key``.  A :class:`ComBasis`
memoizes its divisor lookups on these objects; its docstring states why
the memo stays exact while the basis grows.

Completion is integer-first.  A :class:`ComBasis` files each monic
relation with its integer copy, :func:`buchberger_bounded` forms each
S-pair from two copies, and :func:`~precom.lincomb.descend` reduces by
the copies through pseudo-division, dividing by its running scale once
at the end.  The answers are those of the monic ``Fraction`` loop, and
an S-pair that reduces to zero makes no ``Fraction``.  Only the pairs
whose leading monomials share a symbol are formed, each when its lcm,
weighed from one leading monomial's ``cofactor`` by the other, is within
the bound; the coprime ones are counted from the leading weights.  Of
the pairs that a new relation makes with one lcm, only the first is
formed (Gebauer-Moeller criterion F) and the rest are counted.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from math import gcd
from operator import attrgetter
from typing import Iterable, Sequence

from .lincomb import LinComb, Report, _require_monic, descend, integral

__all__ = [
    "GenSymbol",
    "ComMonomial",
    "ComPoly",
    "ComBasis",
    "com_reduce",
    "BuchbergerReport",
    "buchberger_bounded",
]

_SYMBOLS: dict = {}     # key -> the one GenSymbol with that key
_MONOMIALS: dict = {}   # sorted factor tuple -> the one ComMonomial
_PRODUCTS: dict = {}    # (a, b) -> a * b, for monomials a and b


class GenSymbol:
    """A generator symbol: ``base`` seen at t-degree ``weight``, tagged
    with the filtration ``level`` of its base element.  ``rank`` is the
    base's position in the algebra's ordered basis and only breaks ties
    between distinct bases at equal weight and level.

    Symbols are hash-consed on their ``key``, ``(weight, level, rank,
    base)``: constructing an existing symbol returns the one instance, so
    equality and hashing are identity and immutable attributes."""

    __slots__ = ("base", "level", "weight", "rank", "key")

    def __new__(cls, base: str, level: int, weight: int, rank: int):
        key = (weight, level, rank, base)
        s = _SYMBOLS.get(key)
        if s is None:
            if level < 1:
                raise ValueError("symbol level must be positive")
            if weight < level:
                raise ValueError(
                    "symbol weight must be at least its level (got weight %d, level %d)"
                    % (weight, level))
            s = object.__new__(cls)
            for name, value in zip(cls.__slots__, (base, level, weight, rank, key)):
                object.__setattr__(s, name, value)
            _SYMBOLS[key] = s
        return s

    def __setattr__(self, name, value):
        raise AttributeError("GenSymbol is immutable")

    def __delattr__(self, name):
        raise AttributeError("GenSymbol is immutable")

    def __str__(self) -> str:
        return "%s[%d]" % (self.base, self.weight)

    def __repr__(self) -> str:
        return "GenSymbol(base=%r, level=%d, weight=%d, rank=%d)" % (
            self.base, self.level, self.weight, self.rank)


_symbol_key = attrgetter("key")


class ComMonomial:
    """A commutative monomial: a multiset of symbols kept as a sorted
    tuple, with the comparison key cached.

    Monomials are hash-consed on that tuple: the constructor, products
    and cofactors all return the one instance per multiset, so equality
    and hashing are identity, and a product is computed once per pair of
    monomials.  The symbol -> multiplicity map that :meth:`divides` and
    :meth:`cofactor`, the one quotient, read is built on first use and
    never mutated afterwards."""

    __slots__ = ("factors", "key", "_mult")

    def __new__(cls, factors: Iterable[GenSymbol]):
        return cls._sorted(tuple(sorted(factors, key=_symbol_key)))

    @classmethod
    def _sorted(cls, fs: tuple) -> "ComMonomial":
        """The one monomial of factors already in key order."""
        m = _MONOMIALS.get(fs)
        if m is None:
            m = object.__new__(cls)
            m.factors = fs
            m.key = (len(fs), sum(f.weight for f in fs), tuple(f.key for f in fs))
            m._mult = None
            _MONOMIALS[fs] = m
        return m

    def _mults(self) -> dict:
        mult = self._mult
        if mult is None:
            mult = {}
            for f in self.factors:
                mult[f] = mult.get(f, 0) + 1
            self._mult = mult
        return mult

    @property
    def count(self) -> int:
        return len(self.factors)

    @property
    def weight(self) -> int:
        return self.key[1]

    def __mul__(self, other: "ComMonomial") -> "ComMonomial":
        pair = (self, other)
        m = _PRODUCTS.get(pair)
        if m is None:
            # Timsort merges the two sorted runs.
            m = _PRODUCTS[pair] = ComMonomial._sorted(
                tuple(sorted(self.factors + other.factors, key=_symbol_key)))
        return m

    def divides(self, other: "ComMonomial") -> bool:
        mine, theirs = self.key, other.key
        if mine[0] > theirs[0] or mine[1] > theirs[1]:
            return False
        have = other._mults().get
        for s, n in self._mults().items():
            if have(s, 0) < n:
                return False
        return True

    def cofactor(self, other: "ComMonomial") -> "ComMonomial":
        """What other has beyond self, lcm(self, other) / self: other / self
        when self divides other."""
        mine = self._mults()
        extra = []
        for s, n in other._mults().items():
            k = n - mine.get(s, 0)
            if k > 0:
                extra += [s] * k
        # other's map is in factor order, so extra is already sorted.
        return ComMonomial._sorted(tuple(extra))

    def __repr__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(f) for f in self.factors)


class ComPoly(LinComb):
    """A polynomial as a finite monomial -> nonzero exact coefficient map;
    the arithmetic and exactness rules are
    :class:`~precom.lincomb.LinComb`'s."""

    __slots__ = ()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if c == 1:
                txt = repr(m)
            elif c == -1:
                txt = "-" + repr(m)
            else:
                txt = "%s %s" % (c, repr(m))
            parts.append(txt)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class ComBasis:
    """A monic relation list with its integer copies, divisor index and
    lookup memo.

    Each relation is checked once, when it is appended, and filed with
    its integer copy: the relation times the least common denominator of
    its coefficients (:func:`~precom.lincomb.integral`), so the copy has
    ``int`` coefficients and a leading coefficient L >= 1, and is the
    relation itself when L is 1.  Iterating gives the monic relations;
    :meth:`find` answers with the copy, which
    :func:`~precom.lincomb.descend` divides by pseudo-division.  The copy
    is filed under the smallest factor of its leading monomial (a
    constant leading monomial under ``None``), in list order.  A leading
    monomial dividing m has its smallest factor among m's symbols, so a
    lookup reads only the ``None`` bucket and the buckets of m's own
    symbols, and stops reading a bucket at its first divisor or at a
    position past the best found.  The basis only grows, so the index
    never goes stale.

    :meth:`find` memoizes ``m -> (basis length at lookup, answer)``, and
    the memo is exact.  Lemma: appending only adds relations at positions
    past every existing one, and ``find`` answers the smallest position
    whose leading monomial divides m; so a divisor found stays the
    answer for good, and an answer ``None`` stays right for the relations
    it was checked against.  A memoized divisor is therefore returned as
    it is, and a memoized ``None`` is checked again only against the
    relations appended since.  ``calls`` counts lookups and
    ``memo_hits`` those the memo answered without reading the index."""

    __slots__ = ("_relations", "_copies", "_buckets", "_memo", "calls", "memo_hits")

    def __init__(self, relations: Iterable[ComPoly]):
        self._relations: list[ComPoly] = []
        self._copies: list[ComPoly] = []
        self._buckets: dict = {}
        self._memo: dict = {}
        self.calls = self.memo_hits = 0
        for g in relations:
            self.append(g)

    def append(self, g: ComPoly) -> None:
        _require_monic((g,))
        lead = g.leading()
        d, terms = integral(g.terms)
        copy = g if d == 1 else ComPoly._raw(terms, lead)
        first = lead.factors[0] if lead.factors else None
        self._buckets.setdefault(first, []).append((len(self._relations), lead, copy))
        self._relations.append(g)
        self._copies.append(copy)

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self):
        return iter(self._relations)

    def find(self, m: ComMonomial):
        """``find`` for the shared reducer: ``((quotient, position),
        copy)`` for the relation at the smallest position whose leading
        monomial divides m -- the one a scan of the list in order would
        meet first -- with ``copy`` its integer copy, or ``None``."""
        self.calls += 1
        n = len(self._relations)
        known = self._memo.get(m)
        start = 0
        if known is not None:
            seen, answer = known
            if answer is not None or seen == n:
                self.memo_hits += 1
                return answer
            start = seen
        answer = self._scan(m, start)
        self._memo[m] = (n, answer)
        return answer

    def _scan(self, m: ComMonomial, start: int):
        """``find`` read from the index, among the positions >= start."""
        buckets = self._buckets
        best = None
        for s in (None, *m._mults()):
            for entry in buckets.get(s, ()):
                pos = entry[0]
                if pos < start:
                    continue
                if best is not None and pos > best[0]:
                    break
                if entry[1].divides(m):
                    best = entry
                    break
        if best is None:
            return None
        pos, lead, g = best
        return (lead.cofactor(m), pos), g


def _times(m: ComMonomial, step: tuple, t: ComMonomial) -> ComMonomial:
    return t * step[0]


def com_reduce(p: ComPoly, basis: ComBasis) -> ComPoly:
    """Normal form of p modulo the relations of ``basis``: no monomial of
    the result is divisible by any of their leading monomials.  The
    reduction runs on the relations' integer copies, so integer terms
    stay integer until the one division by the scale at the end; it
    keeps no trace of its rewrites."""
    return ComPoly._raw(descend(p.terms, basis.find, _times))


class BuchbergerReport:
    """The additions and counters of :func:`buchberger_bounded`, and the
    relations of its final basis whose leading monomial has one factor,
    built by position with ``Report``'s constructor; the basis itself is
    the first element of the function's return.  It is no verdict, so it
    has no ``verified``.  Every pair considered is processed or skipped
    once: for the bound, as coprime, or for an lcm that an earlier pair of
    the same new relation has (``pairs_skipped_lcm``)."""

    __slots__ = ("added", "pairs_considered", "pairs_processed",
                 "pairs_skipped_bound", "pairs_skipped_coprime",
                 "pairs_skipped_lcm", "lookups", "memo_hits", "linear_leadings")

    __init__ = Report.__init__


def _s_pair(f: ComPoly, g: ComPoly) -> dict:
    """The S-polynomial of two integer copies, times lcm(a, b) for their
    leading coefficients a and b, as ``int`` terms: the lcm-cancellation
    (b/h)·(lcm/lf)·f - (a/h)·(lcm/lg)·g with h = gcd(a, b).  The leading
    terms cancel and are not formed."""
    lf, lg = f.leading(), g.leading()
    a, b = f.terms[lf], g.terms[lg]
    h = gcd(a, b)
    a //= h
    b //= h
    # lcm / lf is what lg has beyond lf, and lcm / lg what lf has beyond lg.
    u, v = lf.cofactor(lg), lg.cofactor(lf)
    out = {m * u: b * c for m, c in f.terms.items() if m is not lf}
    for m, c in g.terms.items():
        if m is not lg:
            t = m * v
            x = out.get(t, 0) - a * c
            if x:
                out[t] = x
            else:
                del out[t]
    return out


def buchberger_bounded(G: Sequence[ComPoly], weight_bound: int):
    """Complete G over the S-pairs whose lcm has weight <= weight_bound.

    Each input relation must be nonzero and weight-homogeneous, all its
    monomials of one weight, or ValueError is raised before any pair is
    formed: ``zero polynomial in relation list``, or ``relations must be
    weight-homogeneous; got weights [...] in g`` with the weights of g's
    monomials.  So an S-polynomial and its reduction stay in the weight
    of the pair's lcm.  Truncating by weight alone is then exact: a
    skipped pair only yields relations heavier than the bound, so the
    result is a Groebner basis of the ideal in every weight up to
    weight_bound (Becker & Weispfenning, *Groebner Bases*, 1993).  Each symbol weighs at least 1, so the bound also caps
    the factor count of every lcm formed.

    Every pair (i, k), i < k, of the final basis is considered once, in
    FIFO order: the pairs of the input relations by k, then those of each
    added relation, by i.  Only a pair whose leading monomials share a
    symbol and whose lcm is within the bound is formed: a symbol ->
    positions index lists the earlier relations that share a symbol with
    the new one, and the lcm weighs the new leading weight plus that of
    its cofactor by the earlier one.  A coprime pair reduces to zero by
    the product criterion; its lcm weighs the sum of the two leading
    weights, so the coprime pairs within the bound are counted from the
    sorted leading weights without being formed.  A pair is reduced as the S-polynomial
    of the basis's integer copies (:func:`_s_pair`), a multiple of the
    monic one, so its normal form made monic is the same relation.

    Of the pairs (i, k) of a new relation k with one lcm L, only the
    first i is queued: Gebauer-Moeller criterion F (Gebauer & Moeller,
    *J. Symb. Comp.* 6, 1988).  The lcm is lead_k times its cofactor by
    lead_i, so an equal lcm is the same hash-consed cofactor.  A skipped
    pair (j, k) is sound: lead_i divides L, so S(j, k) = S(i, k) -
    (L / lcm(i, j)) S(i, j), both with lcm dividing L; the pair (i, j) is
    within the bound, and is formed, coprime or itself skipped so.

    Returns (basis, report).  Any factor-count-1 leading monomial in the
    final basis is collected in report.linear_leadings.  The report also
    counts the pairs by what became of them, and the divisor lookups of
    the reductions with those the basis's memo answered.  The pairs
    considered are those processed plus those skipped for the bound, as
    coprime and for a repeated lcm.
    """
    for g in G:
        if not g:
            raise ValueError("zero polynomial in relation list")
        found = {m.weight for m in g.terms}
        if len(found) > 1:
            raise ValueError(
                "relations must be weight-homogeneous; got weights %s in %r"
                % (sorted(found), g))
    basis = ComBasis(g.monic() for g in G)
    copies = basis._copies
    pairs: deque = deque()
    holders: dict = {}      # symbol -> positions whose leading monomial has it
    weights: list = []      # the leading weights so far, sorted
    coprime = same_lcm = 0

    def pair_up(k: int) -> None:
        """Queue the pairs (i, k), i < k, that are formed, one per lcm;
        count the coprime ones within the bound and those of a repeated
        lcm."""
        nonlocal coprime, same_lcm
        lead = copies[k].leading()
        room = weight_bound - lead.weight
        within = bisect_right(weights, room)
        shared = set()
        for s in lead._mults():
            shared.update(holders.setdefault(s, set()))
        queued = set()      # lcm / lead of the pairs queued for k
        for i in sorted(shared):
            other = copies[i].leading()
            if other.weight <= room:
                within -= 1
            extra = lead.cofactor(other)
            if extra.weight <= room:
                if extra in queued:
                    same_lcm += 1
                else:
                    queued.add(extra)
                    pairs.append((i, k))
        coprime += within
        insort(weights, lead.weight)
        for s in lead._mults():
            holders[s].add(k)

    for k in range(len(basis)):
        pair_up(k)
    processed = 0
    added: list[ComPoly] = []
    while pairs:
        i, j = pairs.popleft()
        processed += 1
        nf = com_reduce(ComPoly._raw(_s_pair(copies[i], copies[j])), basis)
        if nf:
            nf = nf.monic()
            basis.append(nf)
            added.append(nf)
            pair_up(len(basis) - 1)
    relations = list(basis)
    n = len(relations)
    considered = n * (n - 1) // 2
    report = BuchbergerReport(added, considered, processed,
                              considered - processed - coprime - same_lcm, coprime,
                              same_lcm, basis.calls, basis.memo_hits,
                              [p for p in relations if p.leading().count == 1])
    return relations, report
