"""Power-series embeddings of positively filtered commutative algebras.

A positively filtered commutative algebra assigns each basis element a
level so that products of levels i and j land in level >= i+j.  Each
basis element x of level k maps to the truncated series

    x  ->  sum over i = k..N of  i * x[i] t^i

whose coefficients are generator symbols.  Every series is kept as a
scaled series: a pair (d, {n: {m: int}}) whose value is the sum of
c/d m t^n, grouped by exponent n.  A monomial key m is anything whose
``*`` is the monomial product and that hashes and compares by value: a
``ComMonomial`` in ``embed``, and in ``verify rb`` the int product of
one distinct prime per symbol, so that the kernel multiplies small ints.
The truncation is not part of the value but an argument N of
``series_product``, which multiplies the denominators and forms the
terms with one integer Cauchy kernel, dropping every exponent above N.
The averaging operator R is a multiplication by L//n over L =
lcm(1..N), a sum cross-scales, and two series compare as dicts over
one denominator, so no series operation makes a ``Fraction`` or takes
a gcd.

The averaging operator R(t^n) = t^n/n is a weight-zero Rota-Baxter
operator on a commutative ring, so the one-sided product R(f)g is
pre-commutative for every pair of series (Aguiar, Lett. Math. Phys. 54,
2000) and needs no check per input; ``verify rb`` checks both
identities on random series all the same.  The induced symmetric
product R(f)g + fR(g) sends the image series of x and y to the image of
x*y modulo the coefficient relations: the t^l discrepancy is exactly l
times the pair relation of x and y at weight l, and zero below the sum
of their levels.  The verifier checks
that equality as it stands, with no reduction.  Injectivity is
certified per instance by Buchberger completion of the coefficient
relations truncated at weight N.  The relations are weight-homogeneous,
so truncating by weight alone is exact: the result is a Groebner basis
of their ideal in every weight up to N.  A nonzero combination of
generator symbols in the ideal would therefore show as a completed
relation whose leading monomial is a single symbol, and the
report flags any such linear leading monomial.

Filtration levels can be supplied directly or computed: the chain of
power subspaces A, A^2 = A*A, A^3 = A*A^2, ... is computed by exact
sparse Gaussian elimination, and the algebra is rewritten on a basis
adapted to the chain.  A chain that stabilizes at a nonzero subspace
proves that an associative algebra is not nilpotent and carries no such
filtration; a non-associative chain can pause and then fall again, so a
pause is reported as the associativity failure when there is one.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Mapping

from .compoly import (
    ComMonomial,
    ComPoly,
    GenSymbol,
    buchberger_bounded,
)
from .envelope import CommAlgebra
from .lincomb import Report, _sub_scaled, echelon_insert, exact
from .magma import Alphabet, Letter

__all__ = [
    "FilteredAlgebra",
    "standard_filtration",
    "pair_relation",
    "series_product",
    "EmbeddingReport",
    "verify_embedding",
    "verify_rota_baxter",
]

class FilteredAlgebra:
    """A commutative algebra together with a positive level for each
    basis element, such that every product of levels i and j lies in
    levels >= i + j.

    The constructor checks both, and raises ValueError at the first
    fault: ``no level assigned to x`` for a basis element without a
    level, ``level of x must be an int, got v`` for one that is not an
    int (a bool included), ``levels must be positive`` for one below 1,
    and ``filtration violation: x*y contains z at level k < m`` for the
    first basis pair x <= y, in basis order, whose product has a term z
    of level k below m = level(x) + level(y)."""

    def __init__(self, algebra: CommAlgebra, levels: Mapping[Letter, int]):
        self.algebra = algebra
        lv = {}
        for x in algebra.basis:
            if x not in levels:
                raise ValueError("no level assigned to %r" % (x,))
            k = levels[x]
            # bool subclasses int, so the type is tested exactly.
            if type(k) is not int:
                raise ValueError("level of %r must be an int, got %r" % (x, k))
            if k < 1:
                raise ValueError("levels must be positive")
            lv[x] = k
        self.levels = lv
        basis = algebra.basis
        for i, x in enumerate(basis):
            for y in basis[i:]:
                need = lv[x] + lv[y]
                for z in algebra.product(x, y):
                    if lv[z] < need:
                        raise ValueError(
                            "filtration violation: %s*%s contains %s at level %d < %d"
                            % (x.name, y.name, z.name, lv[z], need))

    @property
    def basis(self) -> tuple[Letter, ...]:
        return self.algebra.basis

    def level(self, x: Letter) -> int:
        return self.levels[x]

    def max_level(self) -> int:
        return max(self.levels.values())

    def product(self, x: Letter, y: Letter) -> dict[Letter, Fraction]:
        return self.algebra.product(x, y)

    def symbol(self, x: Letter, weight: int) -> GenSymbol:
        return GenSymbol(x.name, self.levels[x], weight, x.rank)

    def __repr__(self) -> str:
        return "FilteredAlgebra(%r, levels=%s)" % (
            self.algebra, {x.name: k for x, k in self.levels.items()})


def standard_filtration(A: CommAlgebra) -> FilteredAlgebra:
    """The filtration by power subspaces A >= A^2 >= A^3 >= ..., with the
    algebra rewritten on an adapted basis.

    The chain is computed exactly.  If it stabilizes at a nonzero
    subspace, a non-associative algebra is rejected with its first failing
    basis triple, since its chain may fall again; an associative one is
    not nilpotent, and no positive filtration of this kind exists.  The
    adapted basis extends a basis of the deepest nonzero power upward
    level by level, each element's level being the deepest power
    containing it.  Basis vectors that come out as unit coordinate
    vectors keep their original names; mixed vectors are named v1, v2,
    ... in the adapted order, skipping every name of the input basis.
    The adapted basis is ordered by (level, pivot letter) ascending.

    Vectors are sparse ``{basis letter: coeff}`` dicts, multiplied by
    :meth:`~precom.envelope.CommAlgebra.times`; letters order by rank, so
    each power is kept as a reduced echelon form
    (:func:`~precom.lincomb.echelon_insert`) whose pivots are letters.
    """
    spans = {1: [{x: 1} for x in A.basis]}
    n = 1
    while spans[n]:
        n += 1
        rows: dict = {}
        for i in range(1, n // 2 + 1):
            for u in spans[i]:
                for v in spans[n - i]:
                    echelon_insert(rows, A.times(u, v))
        spans[n] = [rows[p] for p in sorted(rows)]
        if spans[n] == spans[n - 1]:
            A.require_associative()
            raise ValueError("no positive filtration: algebra not nilpotent")

    # (level, pivot, vector), deepest level first.  Each vector is zero at
    # the pivots of those inserted before it, and no two share a pivot.
    adapted: list[tuple] = []
    rows = {}
    for k in range(n - 1, 0, -1):
        for v in spans[k]:
            r = echelon_insert(rows, v)
            if r is not None:
                adapted.append((k, min(r), r))

    ranked = sorted(adapted, key=lambda a: a[:2])
    # Unit vectors have distinct pivots, and no fresh name is an input name.
    taken = {x.name for x in A.basis}
    fresh = (name for k in itertools.count(1) if (name := "v%d" % k) not in taken)
    ab = Alphabet([p.name if len(v) == 1 else next(fresh) for _, p, v in ranked])
    letter = {p: ab[pos] for pos, (_, p, _) in enumerate(ranked)}

    def coords(w: dict) -> dict:
        # Only the vectors inserted earlier are nonzero at each pivot, so
        # one pass in insertion order reads every coordinate.
        out = {}
        for _, p, v in adapted:
            c = w.get(p)
            if c:
                out[letter[p]] = c
                w = _sub_scaled(w, c, v)
        return out

    vectors = [v for _, _, v in ranked]
    products = {}
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            combo = coords(A.times(u, vectors[j]))
            if combo:
                products[(ab[i], ab[j])] = combo
    levels = {ab[pos]: k for pos, (k, _, _) in enumerate(ranked)}
    return FilteredAlgebra(CommAlgebra(ab, products), levels)


# ---------------------------------------------------------------------------
# Coefficient relations

def pair_relation(F: FilteredAlgebra, x: Letter, y: Letter, l: int) -> ComPoly:
    """The weight-l relation tying the coefficient symbols of x and y:

        sum over i+j=l of x[i]y[j]  minus  sum over z in x*y of c_z z[l],

    where the linear sum keeps only those z whose level is at most l.
    The quadratic sum is over ordered splits, so diagonal pairs (x = y)
    pick up doubled coefficients.  The relation is returned as it stands,
    not made monic.
    """
    k, m = F.level(x), F.level(y)
    if l < k + m:
        raise ValueError("weight %d below level sum %d" % (l, k + m))
    terms = [(ComMonomial((F.symbol(x, i), F.symbol(y, l - i))), 1)
             for i in range(k, l - m + 1)]
    terms += [(ComMonomial((F.symbol(z, l),)), -c)
              for z, c in F.product(x, y).items() if F.level(z) <= l]
    poly = ComPoly.from_terms(terms)
    if poly.leading().count != 2:
        raise AssertionError("coefficient relation must lead with a quadratic monomial")
    return poly


# ---------------------------------------------------------------------------
# Scaled series
#
# A scaled series (see the module docstring) holds no zero coefficient
# and no empty group, so over one denominator equal values are equal
# dicts.  No operation takes a gcd, so one value has many pairs;
# ``_scaled_equal`` cross-scales two denominators that differ.  No group
# is changed once built, so a sum shares the groups that only one operand
# has.

def _cauchy(s: dict, u: dict, N: int) -> dict:
    """The Cauchy product through t^N of two ``{n: {m: int}}`` dicts, as
    one such dict.  A pair of exponents above N is skipped as a block."""
    ug = [(j, q.items()) for j, q in u.items()]
    sums: dict[int, dict] = {}
    for i, p in s.items():
        p = p.items()
        for j, q in ug:
            n = i + j
            if n > N:
                continue
            acc = sums.get(n)
            if acc is None:
                acc = sums[n] = {}
            for m, a in p:
                for k, b in q:
                    mk = m * k
                    acc[mk] = acc.get(mk, 0) + a * b
    # Rebuild only the groups in which a coefficient cancelled, in place.
    for n in [n for n, acc in sums.items() if 0 in acc.values()]:
        sums[n] = {m: c for m, c in sums[n].items() if c}
        if not sums[n]:
            del sums[n]
    return sums


def series_product(s: tuple, u: tuple, N: int) -> tuple:
    """The Cauchy product of two scaled series through t^N, everything
    beyond discarded: the denominators multiply and one integer kernel
    forms the terms."""
    return s[0] * u[0], _cauchy(s[1], u[1], N)


@cache
def _rb_scales(N: int) -> list:
    """[L, L//1, ..., L//N] for L = lcm(1..N): the factors by which
    ``_scaled_rb`` applies R through t^N, built once per N."""
    L = lcm(*range(1, N + 1))
    return [L] + [L // n for n in range(1, N + 1)]


def _scaled_rb(s: tuple, q: list) -> tuple:
    # R with q = _rb_scales(N): t^n/n = (L//n) t^n / L.
    d, terms = s
    return d * q[0], {n: {m: c * q[n] for m, c in p.items()} for n, p in terms.items()}


def _scaled_sum(s: tuple, u: tuple) -> tuple:
    (d, p), (e, q) = s, u
    if d != e:
        p = {n: {m: c * e for m, c in g.items()} for n, g in p.items()}
        q = {n: {m: c * d for m, c in g.items()} for n, g in q.items()}
        d *= e
    out = dict(p)
    for n, g in q.items():
        acc = out.get(n)
        if acc is None:
            out[n] = g
            continue
        acc = dict(acc)
        for m, c in g.items():
            c += acc.get(m, 0)
            if c:
                acc[m] = c
            else:
                del acc[m]
        if acc:
            out[n] = acc
        else:
            del out[n]
    return d, out


def _scaled_equal(s: tuple, u: tuple) -> bool:
    (d, p), (e, q) = s, u
    if d != e:
        p = {n: {m: c * e for m, c in g.items()} for n, g in p.items()}
        q = {n: {m: c * d for m, c in g.items()} for n, g in q.items()}
    return p == q


def _rb_sides(rng: random.Random, max_n: int, stats: dict) -> tuple:
    """One trial of :func:`verify_rota_baxter` as scaled series: it draws
    N in 2..max_n and the series a, b, c, and returns the two sides
    R(a)R(b) and R(R(a)b + aR(b)) of the Rota-Baxter identity, then the
    two sides R(a)(R(b)c) and R(R(a)b + aR(b))c of the pre-commutative
    one.  The last is R(R(a)b)c + R(R(b)a)c in the Zinbiel form
    x(yz) = (xy + yx)z: R is linear and the series ring commutative, so
    R(b)a is aR(b), and the sum under R is the Rota-Baxter right side,
    formed once.  That makes six Cauchy products; ``stats`` counts their
    terms."""
    N = rng.randint(2, max_n)
    a, b, c = (_draw(rng, N) for _ in range(3))
    q = _rb_scales(N)
    ra, rb = _scaled_rb(a, q), _scaled_rb(b, q)
    ra_b = series_product(ra, b, N)
    a_rb = series_product(a, rb, N)
    rb_c = series_product(rb, c, N)
    lhs = series_product(ra, rb, N)
    rhs = _scaled_rb(_scaled_sum(ra_b, a_rb), q)
    zl = series_product(ra, rb_c, N)
    zr = series_product(rhs, c, N)
    stats["terms"] += sum(len(g) for _, terms in (ra_b, a_rb, rb_c, lhs, zl, zr)
                          for g in terms.values())
    return lhs, rhs, zl, zr


def verify_rota_baxter(rng: random.Random, count: int, max_n: int,
                       stats: dict) -> list[tuple[int, str]]:
    """Check the Rota-Baxter identity R(a)R(b) = R(R(a)b + aR(b)) and the
    pre-commutative identity R(a)(R(b)c) = R(R(a)b)c + R(R(b)a)c exactly,
    in scaled integers, on ``count`` trials, each on three random series
    through a random t^N, N in 2..max_n.  The pre-commutative right side
    is formed as R(R(a)b + aR(b))c from the Rota-Baxter right side
    (:func:`_rb_sides`), six Cauchy products a trial.
    The failures are (trial, "rota-baxter" or "pre-commutative") in trial
    order.  ``stats`` gets the number of terms the Cauchy products
    produced."""
    stats.update(terms=0)
    failures = []
    for i in range(count):
        lhs, rhs, zl, zr = _rb_sides(rng, max_n, stats)
        if not _scaled_equal(lhs, rhs):
            failures.append((i, "rota-baxter"))
        if not _scaled_equal(zl, zr):
            failures.append((i, "pre-commutative"))
    return failures


# ---------------------------------------------------------------------------
# The embedding verifier

class EmbeddingReport(Report):
    """The verdict of :func:`verify_embedding`, ``failures`` its
    homomorphism failures; ``phases`` holds the wall-clock seconds of its
    two phases, ``homomorphism_s`` (the checks up to and including the
    homomorphism loop) and ``completion_s`` (the Buchberger completion)."""

    __slots__ = ("relation_count", "failures", "injectivity_certified_to",
                 "buchberger", "phases")

    @property
    def verified(self) -> bool:
        return not self.failures and self.injectivity_certified_to is not None


def verify_embedding(F: FilteredAlgebra, N: int) -> EmbeddingReport:
    """Check that the series assignment embeds F, which must be
    associative (checked on basis triples):

    *  for every basis pair x <= y and every l in 1..N, the t^l
       coefficient of R(fx)fy + fxR(fy) minus the image of x*y (fx the
       image series of x) equals l * pair_relation(F, x, y, l) exactly,
       and is zero when l < level(x) + level(y).  The residue is formed
       in scaled series and its t^l part compared as a ``ComPoly``.  Each
       failure is (x, y, l, difference), in (x, y, l) order;
    *  bounded Buchberger completion of the coefficient relations up to
       weight N yields no linear leading monomial, so no generator symbol
       is rewritten away (injectivity certificate at weight N).
    """
    t0 = time.perf_counter()
    F.algebra.require_associative()
    if N < 2 * F.max_level():
        raise ValueError(
            "truncation too small: N=%d but products need N >= %d"
            % (N, 2 * F.max_level()))
    # The homomorphism loop builds each pair relation once, for basis
    # pairs x <= y and then by weight; completion makes it monic.
    G = []

    # The image series of x, sum of i x[i] t^i from level(x) to N, has
    # integer coefficients: it is a scaled series over 1.
    images = {x: (1, {i: {ComMonomial((F.symbol(x, i),)): i}
                      for i in range(F.level(x), N + 1)}) for x in F.basis}
    q = _rb_scales(N)
    failures = []
    basis = F.basis
    for i, x in enumerate(basis):
        fx = images[x]
        for y in basis[i:]:
            fy = images[y]
            residue = _scaled_sum(series_product(_scaled_rb(fx, q), fy, N),
                                  series_product(fx, _scaled_rb(fy, q), N))
            for z, c in F.product(x, y).items():
                # Minus c times the image of z, over c's own denominator.
                a = -c.numerator
                residue = _scaled_sum(residue, (c.denominator, {
                    n: {m: a * e for m, e in g.items()} for n, g in images[z][1].items()}))
            d, terms = residue
            low = F.level(x) + F.level(y)
            for l in range(1, N + 1):
                r = ComPoly._raw({m: exact(Fraction(e, d)) for m, e in terms.get(l, {}).items()})
                if l >= low:
                    p = pair_relation(F, x, y, l)
                    G.append(p)
                    r = r - p.scale(l)
                if r:
                    failures.append((x.name, y.name, l, r))

    t1 = time.perf_counter()
    _, brep = buchberger_bounded(G, N)
    phases = {"homomorphism_s": t1 - t0, "completion_s": time.perf_counter() - t1}
    certified = N if not brep.linear_leadings else None
    return EmbeddingReport(len(G), failures, certified, brep, phases)


# ---------------------------------------------------------------------------
# Random data helpers

# One distinct prime per draw symbol, x[1..4] then y[2..4]: a monomial is
# keyed by the product of its symbols' primes, 1 for the constant
# monomial; the tests map the codes back to symbols.  By unique
# factorization the code is one-to-one, and the code of a product is the
# product of the codes.
_DRAW_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _draw(rng: random.Random, N: int) -> tuple:
    """A random scaled series with exponents 1..N over the symbols x[1..4]
    (level 1) and y[2..4] (level 2), each monomial keyed by its prime code
    (``_DRAW_PRIMES``).  Each exponent is absent or has one or two draws
    of a coefficient a/b, b in 1..3, times a monomial of at most two
    symbols, possibly constant; a/b is kept as a*(6//b) over the common
    denominator 6.

    Each value is the index ``rng.choice`` over a constant n-tuple would
    take, minus its two Python calls: ``getrandbits(k)``, k =
    n.bit_length(), until it is below n, as on CPython 3.10 to 3.13.  So
    the series and the generator state after it are those of
    ``tests/oracles.py::draw_reference``, which calls ``choice``."""
    bits, uniform = rng.getrandbits, rng.random
    terms: dict = {}
    for n in range(1, N + 1):
        if uniform() < 0.4:
            continue
        group: dict = {}
        while (r := bits(2)) > 1:  # choice((1, 2)) is r + 1
            pass
        for _ in range(r + 1):
            m = 1
            while (k := bits(2)) > 2:  # choice((0, 1, 2))
                pass
            for _ in range(k):
                while (p := bits(3)) > 6:  # choice(_DRAW_PRIMES)
                    pass
                m *= _DRAW_PRIMES[p]
            while (a := bits(3)) > 6:  # choice((-3, ..., 3)) is a - 3
                pass
            while (b := bits(2)) > 2:  # choice((6, 3, 2)): 6 // b for b = 1, 2, 3
                pass
            c = (a - 3) * (6, 3, 2)[b] + group.get(m, 0)
            if c:
                group[m] = c
            else:
                group.pop(m, None)
        if group:
            terms[n] = group
    return 6, terms
