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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .lincomb import LinComb, _require_monic, descend, exact

__all__ = [
    "GenSymbol",
    "ComMonomial",
    "ComPoly",
    "ComBasis",
    "com_reduce",
    "com_reduce_with_trace",
    "s_polynomial",
    "BuchbergerReport",
    "buchberger_bounded",
]

@dataclass(frozen=True)
class GenSymbol:
    """A generator symbol: ``base`` seen at t-degree ``weight``, tagged
    with the filtration ``level`` of its base element.  ``rank`` is the
    base's position in the algebra's ordered basis and only breaks ties
    between distinct bases at equal weight and level.

    ``key`` is ``(weight, level, rank, base)``; it and the hash are
    computed once, at construction, since monomial products, divisor
    lookups and dict probes read them on every step."""

    base: str
    level: int
    weight: int
    rank: int = 0

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("symbol level must be positive")
        if self.weight < self.level:
            raise ValueError(
                "symbol weight must be at least its level (got weight %d, level %d)"
                % (self.weight, self.level))
        key = (self.weight, self.level, self.rank, self.base)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not GenSymbol:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "%s[%d]" % (self.base, self.weight)


_symbol_key = attrgetter("key")


class ComMonomial:
    """A commutative monomial: a multiset of symbols kept as a sorted
    tuple, with the comparison key cached.  The symbol -> multiplicity
    map that :meth:`divides`, :meth:`div` and :meth:`cofactor` read is
    built on first use and never mutated afterwards; :attr:`multiplicities`
    hands out a read-only view of it."""

    __slots__ = ("factors", "key", "_hash", "_mult")

    def __init__(self, factors: Iterable[GenSymbol] = ()):
        fs = tuple(sorted(factors, key=_symbol_key))
        self.factors = fs
        self.key = (len(fs), sum(f.weight for f in fs),
                    tuple(f.key for f in fs))
        self._hash = hash(fs)
        self._mult = None

    @classmethod
    def _sorted(cls, fs: tuple, keys: tuple, weight: int) -> "ComMonomial":
        """A monomial from factors already in key order, with their keys
        and total weight: the constructor without its sort."""
        m = object.__new__(cls)
        m.factors = fs
        m.key = (len(fs), weight, keys)
        m._hash = hash(fs)
        m._mult = None
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
    def multiplicities(self) -> Mapping[GenSymbol, int]:
        """Read-only map symbol -> multiplicity, in increasing symbol order."""
        return MappingProxyType(self._mults())

    @property
    def count(self) -> int:
        return len(self.factors)

    @property
    def weight(self) -> int:
        return self.key[1]

    def __mul__(self, other: "ComMonomial") -> "ComMonomial":
        a, b = self.factors, other.factors
        if not b:
            return self
        if not a:
            return other
        ka, kb = self.key[2], other.key[2]
        la, lb = len(a), len(b)
        fs: list = []
        ks: list = []
        i = j = 0
        while i < la and j < lb:
            if kb[j] < ka[i]:
                fs.append(b[j])
                ks.append(kb[j])
                j += 1
            else:
                fs.append(a[i])
                ks.append(ka[i])
                i += 1
        if i < la:
            fs += a[i:]
            ks += ka[i:]
        else:
            fs += b[j:]
            ks += kb[j:]
        return ComMonomial._sorted(tuple(fs), tuple(ks), self.key[1] + other.key[1])

    def divides(self, other: "ComMonomial") -> bool:
        mine, theirs = self.key, other.key
        if mine[0] > theirs[0] or mine[1] > theirs[1]:
            return False
        have = other._mults().get
        for s, n in self._mults().items():
            if have(s, 0) < n:
                return False
        return True

    def div(self, other: "ComMonomial") -> "ComMonomial":
        """self / other; raises if other does not divide self."""
        need = dict(other._mults())
        fs = []
        for f in self.factors:
            n = need.get(f)
            if n:
                need[f] = n - 1
            else:
                fs.append(f)
        # Every factor of other was matched exactly when len(other) were dropped.
        if len(fs) + len(other.factors) != len(self.factors):
            raise ValueError("monomial %r does not divide %r" % (other, self))
        return ComMonomial._sorted(tuple(fs), tuple(f.key for f in fs),
                                   self.key[1] - other.key[1])

    def cofactor(self, other: "ComMonomial") -> "ComMonomial":
        """What other has beyond self: lcm(self, other) / self."""
        mine = self._mults()
        extra = []
        for s, n in other._mults().items():
            k = n - mine.get(s, 0)
            if k > 0:
                extra += [s] * k
        # other's map is in factor order, so extra is already sorted.
        return ComMonomial._sorted(tuple(extra), tuple(s.key for s in extra),
                                   sum(s.weight for s in extra))

    def _common(self, other: "ComMonomial") -> tuple:
        """(factor count, weight) of gcd(self, other), read from the shared
        multiplicities without building it."""
        theirs = other._mults().get
        count = weight = 0
        for s, n in self._mults().items():
            k = theirs(s, 0)
            if k:
                k = min(n, k)
                count += k
                weight += k * s.weight
        return count, weight

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is ComMonomial and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(f) for f in self.factors)


class ComPoly(LinComb):
    """A polynomial as a finite monomial -> nonzero exact coefficient map;
    the arithmetic and exactness rules are
    :class:`~precom.lincomb.LinComb`'s."""

    __slots__ = ()

    def _product(self, other: "ComPoly") -> "ComPoly":
        return ComPoly.from_terms((m * n, a * b) for m, a in self.terms.items()
                                  for n, b in other.terms.items())

    def mul_monomial(self, m: ComMonomial, coeff=1) -> "ComPoly":
        c = exact(coeff)
        if not c:
            return ComPoly.zero()
        return ComPoly._raw({n * m: exact(a * c) for n, a in self.terms.items()})

    def weights(self) -> set:
        return {m.weight for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

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
    """A monic relation list with its divisor index.

    Each relation is checked once, when it is appended, and filed under
    the smallest factor of its leading monomial (a constant leading
    monomial under ``None``), in list order.  A leading monomial dividing
    m has its smallest factor among m's symbols, so a lookup reads only
    the ``None`` bucket and the buckets of m's own symbols, and stops
    reading a bucket at its first divisor or at a position past the best
    found.  The basis only grows, so the index never goes stale."""

    __slots__ = ("_relations", "_buckets")

    def __init__(self, relations: Iterable[ComPoly] = ()):
        self._relations: list[ComPoly] = []
        self._buckets: dict = {}
        for g in relations:
            self.append(g)

    def append(self, g: ComPoly) -> None:
        _require_monic((g,))
        lead = g.leading()
        first = lead.factors[0] if lead.factors else None
        self._buckets.setdefault(first, []).append((len(self._relations), lead, g))
        self._relations.append(g)

    @classmethod
    def of(cls, G: Sequence[ComPoly]) -> "ComBasis":
        """G itself when it is a basis, else a new basis built from G."""
        return G if isinstance(G, ComBasis) else cls(G)

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self):
        return iter(self._relations)

    def __getitem__(self, i):
        return self._relations[i]

    def find(self, m: ComMonomial):
        """``find`` for the shared reducer: ``((quotient, position),
        relation)`` for the relation at the smallest position whose leading
        monomial divides m -- the one a scan of the list in order would
        meet first -- or ``None``."""
        buckets = self._buckets
        best = None
        for s in (None, *m._mults()):
            for entry in buckets.get(s, ()):
                if best is not None and entry[0] > best[0]:
                    break
                if entry[1].divides(m):
                    best = entry
                    break
        if best is None:
            return None
        pos, lead, g = best
        return (m.div(lead), pos), g


def _times(m: ComMonomial, step: tuple, t: ComMonomial) -> ComMonomial:
    return t * step[0]


def com_reduce(p: ComPoly, G: Sequence[ComPoly]) -> ComPoly:
    """Normal form of p modulo the monic relation list G: no monomial of
    the result is divisible by any leading monomial of G.  A
    :class:`ComBasis` is used as it is; any other sequence is checked and
    indexed for this one call."""
    return ComPoly._raw(descend(p.terms, ComBasis.of(G).find, _times))


def com_reduce_with_trace(p: ComPoly, G: Sequence[ComPoly]):
    """Normal form plus the steps (coeff, quotient monomial, index into G)
    taken; p - nf == sum of coeff * quotient * G[index] over the steps."""
    trace: list = []
    nf = ComPoly._raw(descend(p.terms, ComBasis.of(G).find, _times, trace))
    return nf, [(c, q, pos) for c, _, (q, pos), _ in trace]


def s_polynomial(f: ComPoly, g: ComPoly) -> ComPoly:
    """lcm-cancellation of the leading terms of two monic polynomials."""
    if not f or not g:
        raise ValueError("zero polynomial has no S-polynomial")
    _require_monic([f, g])
    lf, lg = f.leading(), g.leading()
    # lcm / lf is what lg has beyond lf, and lcm / lg what lf has beyond lg.
    return f.mul_monomial(lf.cofactor(lg)) - g.mul_monomial(lg.cofactor(lf))


@dataclass
class BuchbergerReport:
    basis: list
    added: list
    pairs_considered: int
    pairs_processed: int
    pairs_skipped_bound: int
    pairs_skipped_coprime: int

    @property
    def linear_leadings(self) -> list:
        return [p for p in self.basis if p.leading().count == 1]


def buchberger_bounded(G: Sequence[ComPoly], weight_bound: int):
    """Complete G over the S-pairs whose lcm has weight <= weight_bound.

    Input must be weight-homogeneous, so an S-polynomial and its
    reduction stay in the weight of the pair's lcm.  Truncating by weight
    alone is then exact: a skipped pair only yields relations heavier
    than the bound, so the result is a Groebner basis of the ideal in
    every weight up to weight_bound (Becker & Weispfenning, *Groebner
    Bases*, 1993).  Each symbol weighs at least 1, so the bound also caps
    the factor count of every lcm formed.

    Returns (basis, report).  Any factor-count-1 leading monomial in the
    final basis is collected in report.linear_leadings.
    """
    basis = ComBasis()
    for g in G:
        if not g:
            raise ValueError("zero polynomial in relation list")
        if not g.is_homogeneous():
            raise ValueError(
                "relations must be weight-homogeneous; got weights %s in %r"
                % (sorted(g.weights()), g))
        basis.append(g.monic())
    pairs: deque = deque()
    for j in range(len(basis)):
        for i in range(j):
            pairs.append((i, j))
    considered = processed = skipped_bound = skipped_coprime = 0
    added: list[ComPoly] = []
    while pairs:
        i, j = pairs.popleft()
        considered += 1
        f, g = basis[i], basis[j]
        lf, lg = f.leading(), g.leading()
        # The lcm's weight is the sum less the gcd's.
        gcd_count, gcd_weight = lf._common(lg)
        if lf.weight + lg.weight - gcd_weight > weight_bound:
            skipped_bound += 1
            continue
        if not gcd_count:
            # Coprime leading monomials: the S-polynomial reduces to zero
            # by the product criterion.
            skipped_coprime += 1
            continue
        processed += 1
        nf = com_reduce(s_polynomial(f, g), basis)
        if nf:
            nf = nf.monic()
            basis.append(nf)
            added.append(nf)
            k = len(basis) - 1
            for i2 in range(k):
                pairs.append((i2, k))
    relations = list(basis)
    report = BuchbergerReport(relations, added, considered, processed,
                              skipped_bound, skipped_coprime)
    return relations, report
