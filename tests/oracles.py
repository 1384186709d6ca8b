"""Reference implementations that only the tests call.

Each enumerates by brute force what the library builds directly: every
word of a length, the instances of a family by matching every word, and
the inclusion compositions of two relations formed one by one, at the
paths that ``occurrences`` lists for each subtree occurrence.  One
gives a word's sort key as a nested tuple, the form keys had before
they became strings.  ``TruncSeries`` and its products compute in
``Fraction`` series, term by term, what the library computes in scaled
integer series: a trial of the Rota-Baxter check and the residues of the
embedding check, with the prime codes of the Rota-Baxter draw decoded to
``ComMonomial``s; ``draw_reference`` is that draw as it was made by
``Random.choice``, and ``DRAW_SYMBOLS`` the symbols it draws.
``truncated_poly_relations`` is the closed-form completed system of the
truncated power algebra, ``subtree`` reads the subword at a path,
``reducible`` asks whether a word has a redex, and ``parse_word`` reads
one tree word.

The word model and the tree model meet in ``to_left_comb``: it rewrites
a tree polynomial onto left combs by the Zinbiel family and reads each
comb as its leaf sequence (``leaves``), encoded by
``shuffle.encode_word``, and ``from_left_comb`` goes back through
``shuffle.decode_word`` (Loday 1995).  The tests hold
``shuffle.zinbiel_product`` to the tree product ``magma_product``
through that bridge, and the symmetrized product to
``shuffle_product``, the plain shuffle of two words.
``perm_tensor_reference`` is the Perm-tensor check that forms both
sides again for each basis triple, computing each distinct element
product of a sample once.
``random_element_with_terms`` draws the library's random elements
with more or fewer terms.  ``shuffles`` builds a shuffle by one
iterative table over the prefixes of both words, as the library did for
each word pair before its table of half-shuffles filled each entry from
two shorter entries; ``half_shuffle`` is the reference for those
entries.  ``shuffles``, ``half_shuffle``, ``leaves`` and
``random_element_with_terms`` compute on tuples of ``Letter``s, not on
the library's encoded words, and ``shuffle_product`` encodes its result
only at the end.

Linear algebra meets rewriting in ``ideal_ranks``: it closes
length-homogeneous relations under products, one length at a time, with
``echelon_insert``.  ``magma_quotient_dimensions`` and
``zinbiel_quotient_dimensions`` subtract its ranks from the word counts
of the free magma algebra and of the half-shuffle algebra, the free
Zinbiel algebra, and ``random_homogeneous_relations`` draws their inputs.

``buchberger_reference`` is the bounded Buchberger loop on monic
``Fraction`` relations that forms every pair, each by ``s_polynomial``,
and then skips most of them; ``unresolved_pairs`` lists the pairs of a
basis, within a weight, whose S-polynomial does not reduce to zero by
it; ``com_product`` multiplies two
polynomials, which no completion step does.  ``coefficient_relations``
lists, in the library's order, the monic pair relations that ``embed``
completes, and ``com_reduce_with_trace`` reduces with the steps taken.
``random_nilpotent_algebra`` draws the seeded nilpotent input algebras
of the tests.  One is the ``argparse`` parser the CLI read its flags
with before it read them from its own flag table, and
``reference_parse`` adds the verify targets' flag rule to it.  The tests
hold the library's answers against them.
"""

from __future__ import annotations

import argparse
import itertools
import random
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence

from precom import shuffle
from precom.compoly import BuchbergerReport, ComBasis, ComMonomial, ComPoly, GenSymbol, _times
from precom.embed import _DRAW_PRIMES, FilteredAlgebra, _draw, pair_relation
from precom.envelope import CommAlgebra
from precom.lincomb import LinComb, _require_monic, descend, echelon_insert, exact, integral
from precom.magma import Alphabet, Letter, MagmaPoly, NaWord, comb, leaf, node
from precom.rewrite import (ExplicitRelation, RelationSchema, ZinbielFamily, _RedexIndex,
                            normal_form, substitute)
from precom.sexpr import _one_form, _word_from_form
from precom.shuffle import PermTensorReport, ZinbElement, decode_word, encode_word

_WORDS: dict[tuple[Alphabet, int], tuple[NaWord, ...]] = {}


def words_of_length(alphabet: Alphabet, n: int) -> tuple[NaWord, ...]:
    """All words with exactly n letters, in a fixed enumeration order:
    by the length of the left factor, then by left factor, then by right
    factor."""
    if n < 1:
        raise ValueError("word length must be positive")
    cached = _WORDS.get((alphabet, n))
    if cached is None:
        if n == 1:
            cached = tuple(leaf(x) for x in alphabet)
        else:
            out = []
            for i in range(1, n):
                rights = words_of_length(alphabet, n - i)
                for lw in words_of_length(alphabet, i):
                    for rw in rights:
                        out.append(node(lw, rw))
            cached = tuple(out)
        _WORDS[(alphabet, n)] = cached
    return cached


_NESTED_KEYS: dict[NaWord, tuple] = {}


def nested_key(w: NaWord) -> tuple:
    """The weight-order key as a nested tuple at every length: (1, rank)
    at a leaf, (length, right key, left key) for a compound word.  It
    recurses once per level, so it suits words of at most a few hundred
    letters."""
    key = _NESTED_KEYS.get(w)
    if key is None:
        key = ((1, w.letter.rank) if w.letter is not None
               else (w.length, nested_key(w.right), nested_key(w.left)))
        _NESTED_KEYS[w] = key
    return key


def scan_instances(schema: RelationSchema, bound: int) -> tuple[MagmaPoly, ...]:
    """All instances of a family whose leading monomial has length <=
    bound: the matches of every word up to the bound, by length, in
    :func:`words_of_length` order."""
    out = []
    for n in range(1, bound + 1):
        for w in words_of_length(schema.alphabet, n):
            m = schema.match(w)
            if m is not None:
                out.append(m)
    return tuple(out)


def occurrences(w: NaWord, pattern: NaWord) -> list[tuple[int, ...]]:
    """Paths of all subtree occurrences of ``pattern`` in ``w``, preorder.

    The root occurrence is included.  Hash-consing makes each test O(1).
    """
    return [path for path, sub in w.subtrees() if sub is pattern]


def inclusion_compositions(f: MagmaPoly, g: MagmaPoly) -> list[tuple[NaWord, MagmaPoly]]:
    """All (ambiguity, composition) pairs of the inclusion f - graft of g.

    One entry per occurrence of g's leading monomial inside f's leading
    monomial.  The root occurrence is kept for distinct relations with
    equal leading monomials and skipped when f equals g.
    """
    _require_monic((f, g))
    fl = f.leading()
    gl = g.leading()
    out = []
    for path in occurrences(fl, gl):
        if not path and f == g:
            continue
        out.append((fl, f - substitute(fl, path, g)))
    return out


def subtree(w: NaWord, path: Sequence[int]) -> NaWord:
    """The subword at a path of {0, 1} steps (0 = left factor)."""
    for step in path:
        if w.letter is not None:
            raise ValueError("invalid path %r: ran past a leaf" % (tuple(path),))
        w = w.left if step == 0 else w.right
    return w


def truncated_poly_relations(n: int, alphabet: Optional[Alphabet] = None
                             ) -> list[RelationSchema]:
    """The completed rewriting system for the truncated power algebra:
    the tree family plus, for every ordered pair (i, j),

        x_i x_j - (j/(i+j)) x_(i+j)    when i+j <= n,
        x_i x_j                        when i+j >  n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ab = alphabet if alphabet is not None else Alphabet(
        ["x%d" % i for i in range(1, n + 1)])
    if len(ab) != n:
        raise ValueError("alphabet size must equal n")
    rels: list[RelationSchema] = [ZinbielFamily(ab)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = {node(leaf(ab[i - 1]), leaf(ab[j - 1])): 1}
            if i + j <= n:
                terms[leaf(ab[i + j - 1])] = Fraction(-j, i + j)
            rels.append(ExplicitRelation(MagmaPoly._raw(terms)))
    return rels


def reducible(word: NaWord, relations) -> bool:
    """Whether some relation rewrites a subword of ``word``."""
    return _RedexIndex(list(relations)).redex(word) is not None


def parse_word(text: str, alphabet: Alphabet) -> NaWord:
    """One tree word written as an S-expression, such as ``(x (y z))``."""
    return _word_from_form(_one_form(text, "word"), alphabet)


# ---------------------------------------------------------------------------
# Words and trees

def shuffles(u: tuple, v: tuple) -> dict:
    """Every interleaving of ``u`` and ``v``, mapped to its multiplicity.

    One iterative table over prefixes: row ``j`` holds the shuffles of
    ``u[:i]`` and ``v[:j]``, and an interleaving of ``u[:i]`` and
    ``v[:j]`` ends with ``u[i-1]`` or with ``v[j-1]``, so each distinct
    word is built once per cell, never once per interleaving."""
    row = [{v[:j]: 1} for j in range(len(v) + 1)]
    for i, a in enumerate(u, 1):
        prev, row = row, [{u[:i]: 1}]
        for j, b in enumerate(v, 1):
            cell = {w + (a,): m for w, m in prev[j].items()}
            for w, m in row[j - 1].items():
                w += (b,)
                cell[w] = cell.get(w, 0) + m
            row.append(cell)
    return row[-1]


def half_shuffle(u: tuple, v: tuple) -> dict:
    """The half-shuffle of two nonempty words by the prefix table: every
    interleaving of ``u`` and ``v`` without its last letter, that letter
    appended."""
    last = v[-1:]
    return {s + last: m for s, m in shuffles(u, v[:-1]).items()}


def shuffle_product(u: Sequence[Letter], v: Sequence[Letter]) -> ZinbElement:
    """The shuffle product of two words, with interleaving multiplicities."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise ValueError("shuffle needs nonempty words")
    return ZinbElement._raw({encode_word(w): m for w, m in shuffles(u, v).items()})


def leaves(w: NaWord) -> tuple[Letter, ...]:
    """The letters of a word, left to right."""
    out = []
    stack = [w]
    while stack:
        w = stack.pop()
        if w.letter is not None:
            out.append(w.letter)
        else:
            stack.append(w.right)
            stack.append(w.left)
    return tuple(out)


def magma_product(p: MagmaPoly, q: MagmaPoly) -> MagmaPoly:
    """Bilinear extension of the tree product (u, v) -> (u v)."""
    return MagmaPoly.from_terms((node(u, v), a * b) for u, a in p.terms.items()
                                for v, b in q.terms.items())


def random_element_with_terms(rng: random.Random, alphabet: Alphabet, max_degree: int,
                              max_terms: int) -> ZinbElement:
    """``shuffle.random_element`` with up to ``max_terms`` terms where it
    draws up to three: the same draws, so ``max_terms=3`` gives its
    elements."""
    letters = alphabet.letters
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1, max_degree)
        w = tuple(rng.choice(letters) for _ in range(n))
        terms.append((w, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return ZinbElement.from_terms(terms)


def to_left_comb(p: MagmaPoly, alphabet: Alphabet) -> ZinbElement:
    """Rewrite a tree polynomial over the alphabet onto the left-comb
    basis and read each comb as an associative word.  This realizes the
    free pre-commutative product on trees."""
    nf = normal_form(p, [ZinbielFamily(alphabet)])
    # Distinct combs give distinct words.
    return ZinbElement._raw({encode_word(leaves(w)): c for w, c in nf.terms.items()})


def from_left_comb(f: ZinbElement) -> MagmaPoly:
    """The inverse embedding: each word becomes its left comb."""
    return MagmaPoly._raw({comb(decode_word(w)): c for w, c in f.terms.items()})


def _memo_tensor_mul(s: dict, t: dict, memo: dict) -> dict:
    """``shuffle._tensor_mul`` with each distinct ordered element product
    computed once in ``memo``, keyed by the two elements' terms."""
    out: dict = {}
    for p, a in s.items():
        ka = frozenset(a.terms.items())
        for q, b in t.items():
            kb = frozenset(b.terms.items())
            for idx, x, y, key in ((q, a, b, (ka, kb)), (p, b, a, (kb, ka))):
                prod = memo.get(key)
                if prod is None:
                    prod = memo[key] = shuffle.zinbiel_product(x, y)
                out[idx] = out[idx] + prod if idx in out else prod
    return {p: e for p, e in out.items() if e}


def perm_tensor_reference(dim: int, samples) -> PermTensorReport:
    """``shuffle.perm_tensor_check`` with both sides of the identity
    formed for each basis triple (i, j, k) from e_i (x) f, e_j (x) g and
    e_k (x) h, the products B[j] C[k] tabulated once per sample and each
    distinct element product computed once per sample; the library reads
    every triple off one identity on three labels."""
    failures = []
    checked = 0
    filled = len(shuffle._HALF)
    dims = range(dim)
    for f, g, h in samples:
        fi, gi, hi = (ZinbElement._raw(integral(x.terms)[1]) for x in (f, g, h))
        memo: dict = {}
        B = [{j: gi} for j in dims]
        C = [{k: hi} for k in dims]
        BC = [[_memo_tensor_mul(B[j], C[k], memo) for k in dims] for j in dims]
        for i in dims:
            A = {i: fi}
            for j in dims:
                AB = _memo_tensor_mul(A, B[j], memo)
                for k in dims:
                    checked += 1
                    left = _memo_tensor_mul(AB, C[k], memo)
                    right = _memo_tensor_mul(A, BC[j][k], memo)
                    if left != right:
                        failures.append((i, j, k, f, g, h))
    return PermTensorReport(checked, failures, len(shuffle._HALF) - filled)


# ---------------------------------------------------------------------------
# Quotient dimensions by linear algebra

def ideal_ranks(relations, product, left, right, bound: int) -> list[int]:
    """The rank at each length 1..bound of the ideal that length-homogeneous
    relations generate in a graded algebra, by linear algebra.

    ``relations`` lists (length, element) pairs.  At length m the ideal is
    spanned by its relations of length m and by ``product(w, p)`` and
    ``product(p, v)`` for p in the ideal at a shorter length k, w in
    ``left(m - k)`` and v in ``right(m - k)``.  Each length is kept in
    reduced echelon form by :func:`~precom.lincomb.echelon_insert`, words
    numbered as columns when first met, and ``spans[m]`` keeps each
    element that raised its rank: a basis, whose products span those of
    the whole length."""
    column: dict = {}
    rows: list[dict] = [{} for _ in range(bound + 1)]
    spans: list[list] = [[] for _ in range(bound + 1)]

    def insert(m, e):
        v = {column.setdefault(w, len(column)): c for w, c in e.terms.items()}
        if echelon_insert(rows[m], v) is not None:
            spans[m].append(e)

    for m in range(1, bound + 1):
        for n, e in relations:
            if n == m:
                insert(m, e)
        for k in range(1, m):
            for p in spans[k]:
                for w in left(m - k):
                    insert(m, product(w, p))
                for v in right(m - k):
                    insert(m, product(p, v))
    return [len(spans[m]) for m in range(1, bound + 1)]


def magma_quotient_dimensions(rels: Sequence[MagmaPoly], alphabet: Alphabet,
                              bound: int) -> list[int]:
    """The dimension at each length 1..bound of the free magma algebra on
    the alphabet modulo the ideal of length-homogeneous tree polynomials:
    the words of the length less the ideal's rank, the ideal closed under
    tree products by every word on both sides."""
    def words(n):
        return [MagmaPoly.monomial(w) for w in words_of_length(alphabet, n)]

    ranks = ideal_ranks([(p.leading().length, p) for p in rels], magma_product, words, words,
                        bound)
    return [len(words_of_length(alphabet, m)) - r for m, r in enumerate(ranks, 1)]


def zinbiel_quotient_dimensions(rels: Sequence[MagmaPoly], alphabet: Alphabet,
                                bound: int) -> list[int]:
    """The dimension at each length 1..bound of the free Zinbiel algebra
    on the alphabet modulo the ideal of length-homogeneous tree
    polynomials, each mapped onto associative words by
    :func:`to_left_comb`: d^m words less the ideal's rank at length m.
    The ideal is closed under ``shuffle.zinbiel_product`` by every word
    on the left and by every letter on the right; p(w'x) = (pw')x +
    (w'p)x then gives every word on the right, by induction on its
    length."""
    def words(n):
        return [ZinbElement.monomial(w) for w in itertools.product(alphabet.letters, repeat=n)]

    def letters(n):
        return words(1) if n == 1 else []

    ranks = ideal_ranks([(p.leading().length, to_left_comb(p, alphabet)) for p in rels],
                        shuffle.zinbiel_product, words, letters, bound)
    return [len(alphabet) ** m - r for m, r in enumerate(ranks, 1)]


def random_homogeneous_relations(rng: random.Random, alphabet: Alphabet,
                                 lengths: Sequence[int]) -> list[MagmaPoly]:
    """One to three tree polynomials, each of one to three words of one
    length drawn from ``lengths``, with coefficients in {-2, -1, 1, 2}; a
    polynomial whose terms cancel is left out."""
    rels = []
    for _ in range(rng.randint(1, 3)):
        words = words_of_length(alphabet, rng.choice(lengths))
        p = MagmaPoly.from_terms((rng.choice(words), rng.choice((-2, -1, 1, 2)))
                                 for _ in range(rng.randint(1, 3)))
        if p:
            rels.append(p)
    return rels


# ---------------------------------------------------------------------------
# Commutative completion

def com_product(p: ComPoly, q: ComPoly) -> ComPoly:
    """The product of two commutative polynomials."""
    return ComPoly.from_terms((m * n, a * b) for m, a in p.terms.items()
                              for n, b in q.terms.items())


def random_nilpotent_algebra(rng: random.Random) -> CommAlgebra:
    """A random 3-dimensional nilpotent commutative associative algebra.

    Two shapes, both associative by construction: either every product
    lands on the last basis vector and that vector annihilates (two-step
    nilpotent), or the chain b1*b1 = a b2, b1*b2 = b b3 with all other
    products zero.
    """
    ab = Alphabet(["b1", "b2", "b3"])
    b1, b2, b3 = ab.letters

    def nz() -> Fraction:
        return rng.choice([Fraction(c) for c in (-2, -1, 1, 2)]
                          + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])

    if rng.random() < 0.5:
        products = {(b1, b1): {b3: nz()}, (b1, b2): {b3: nz()}}
        if rng.random() < 0.5:
            products[(b2, b2)] = {b3: nz()}
    else:
        products = {(b1, b1): {b2: nz()}, (b1, b2): {b3: nz()}}
    return CommAlgebra(ab, products)


def mul_monomial(p: ComPoly, m: ComMonomial, coeff=1) -> ComPoly:
    """coeff * m * p."""
    c = exact(coeff)
    if not c:
        return ComPoly.zero()
    return ComPoly._raw({n * m: exact(a * c) for n, a in p.terms.items()})


def s_polynomial(f: ComPoly, g: ComPoly) -> ComPoly:
    """lcm-cancellation of the leading terms of two monic polynomials."""
    if not f or not g:
        raise ValueError("zero polynomial has no S-polynomial")
    _require_monic([f, g])
    lf, lg = f.leading(), g.leading()
    # lcm / lf is what lg has beyond lf, and lcm / lg what lf has beyond lg.
    return mul_monomial(f, lf.cofactor(lg)) - mul_monomial(g, lg.cofactor(lf))


def com_reduce_with_trace(p: ComPoly, G: Sequence[ComPoly]):
    """Normal form plus the steps (coeff, quotient monomial, index into G)
    taken; p - nf == sum of coeff * quotient * G[index] over the steps."""
    trace: list = []
    basis = G if isinstance(G, ComBasis) else ComBasis(G)
    nf = ComPoly._raw(descend(p.terms, basis.find, _times, trace))
    return nf, [(c, q, pos) for c, _, (q, pos), _ in trace]


def coefficient_relations(F: FilteredAlgebra, weight_bound: int) -> list[ComPoly]:
    """All pair relations for basis pairs x <= y and weights up to the
    bound, each monic and weight-homogeneous."""
    if weight_bound < 2:
        raise ValueError("weight bound must be at least 2")
    out = []
    basis = F.basis
    for i, x in enumerate(basis):
        for y in basis[i:]:
            for l in range(F.level(x) + F.level(y), weight_bound + 1):
                out.append(pair_relation(F, x, y, l).monic())
    return out


def monic_find(basis: ComBasis):
    """``basis.find`` answering with the monic relation at the position
    found, where ``find`` answers with its integer copy: a reduction by
    it never pseudo-divides."""
    def find(m):
        hit = basis.find(m)
        return hit if hit is None else (hit[0], basis._relations[hit[0][1]])
    return find


def unresolved_pairs(basis: Sequence[ComPoly], weight_bound: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of a monic basis whose lcm weighs at most
    weight_bound and whose ``s_polynomial`` does not reduce to zero by
    the monic relations: none for a Groebner basis truncated at that
    weight.  Every such pair is formed, coprime ones included."""
    find = monic_find(ComBasis(basis))
    bad = []
    for j, g in enumerate(basis):
        lg = g.leading()
        for i, f in enumerate(basis[:j]):
            if lg.weight + lg.cofactor(f.leading()).weight <= weight_bound \
                    and descend(s_polynomial(f, g).terms, find, _times):
                bad.append((i, j))
    return bad


def buchberger_reference(G: Sequence[ComPoly], weight_bound: int):
    """``buchberger_bounded`` as it was before it formed the S-pairs of
    integer copies, and before it formed only the pairs whose leading
    monomials share a symbol: monic ``Fraction`` relations, each S-pair
    formed by ``s_polynomial`` and reduced by the monic relations, and
    every pair of the basis queued, then skipped for the weight bound or
    as coprime.  Returns (basis, report), as the library does."""
    basis = ComBasis(g.monic() for g in G)
    find = monic_find(basis)
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j))
    considered = processed = skipped_bound = skipped_coprime = 0
    added = []
    while pairs:
        i, j = pairs.popleft()
        considered += 1
        f, g = basis._relations[i], basis._relations[j]
        lf, lg = f.leading(), g.leading()
        # lcm(lf, lg) is lf times what lg has beyond it: lg itself when
        # the two share no symbol.
        extra = lf.cofactor(lg)
        if lf.weight + extra.weight > weight_bound:
            skipped_bound += 1
            continue
        if extra is lg:
            skipped_coprime += 1
            continue
        processed += 1
        nf = ComPoly._raw(descend(s_polynomial(f, g).terms, find, _times))
        if nf:
            nf = nf.monic()
            basis.append(nf)
            added.append(nf)
            k = len(basis) - 1
            pairs.extend((i2, k) for i2 in range(k))
    relations = list(basis)
    report = BuchbergerReport(added, considered, processed, skipped_bound, skipped_coprime, 0,
                              basis.calls, basis.memo_hits,
                              [p for p in relations if p.leading().count == 1])
    return relations, report


# ---------------------------------------------------------------------------
# Fraction series

class TruncSeries(LinComb):
    """A power series, the sum of c_n t^n over exponents n >= 1 with
    ComPoly coefficients c_n, kept as a combination of (n, m) pairs: n an
    int exponent and m a :class:`~precom.compoly.ComMonomial`.  The
    arithmetic and exactness rules are :class:`~precom.lincomb.LinComb`'s;
    truncation is not part of the value but an argument of the products."""

    __slots__ = ()

    _key = staticmethod(lambda t: (t[0], t[1].key))

    @classmethod
    def _monomial(cls, t) -> tuple:
        if type(t) is not tuple or len(t) != 2:
            raise ValueError("series terms are (exponent, monomial) pairs, got %r" % (t,))
        n, m = t
        if type(n) is not int or n < 1:
            raise ValueError("series exponent must be an int >= 1, got %r" % (n,))
        if type(m) is not ComMonomial:
            raise ValueError("series term needs a ComMonomial, got %r" % (m,))
        return t

    def coeff(self, n: int) -> ComPoly:
        """The coefficient of t^n."""
        return ComPoly._raw({m: c for (k, m), c in self.terms.items() if k == n})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("(%r) t^%d" % (self.coeff(n), n)
                          for n in sorted({n for n, _ in self.terms}))


def rb_apply(s: TruncSeries) -> TruncSeries:
    """The averaging operator t^n -> t^n/n, a Rota-Baxter operator of
    weight zero on series."""
    return TruncSeries._raw({t: exact(Fraction(c, t[0])) for t, c in s.terms.items()})


def series_product(s: TruncSeries, u: TruncSeries, N: int) -> TruncSeries:
    """The Cauchy product through t^N, everything beyond discarded, formed
    one pair of terms at a time in ``Fraction`` arithmetic."""
    out: dict = {}
    for (i, m), a in s.terms.items():
        for (j, k), b in u.terms.items():
            if i + j <= N:
                t = (i + j, m * k)
                out[t] = out.get(t, 0) + a * b
    return TruncSeries.from_terms(out.items())


def generator_series(x: Letter, F: FilteredAlgebra, N: int) -> TruncSeries:
    """The image series of a basis element: sum of i * x[i] t^i for i
    from level(x) to N."""
    k = F.level(x)
    if N < k:
        raise ValueError("truncation below level: N=%d < level %d" % (N, k))
    return TruncSeries._raw({(i, ComMonomial((F.symbol(x, i),))): i
                             for i in range(k, N + 1)})


def series_star(s: TruncSeries, u: TruncSeries, N: int) -> TruncSeries:
    """R(s)u + sR(u) through t^N: the symmetrized product induced by the
    averaging operator."""
    return series_product(rb_apply(s), u, N) + series_product(s, rb_apply(u), N)


def splitting_product(s: TruncSeries, u: TruncSeries, N: int) -> TruncSeries:
    """The one-sided product R(s)u through t^N; satisfies the defining
    identity a(bc) = (ab)c + (ba)c of pre-commutative algebras."""
    return series_product(rb_apply(s), u, N)


# The symbols x[1..4] (level 1) and y[2..4] (level 2) of the Rota-Baxter
# draw, in the order of their primes ``embed._DRAW_PRIMES``.
DRAW_SYMBOLS = (tuple(GenSymbol("x", 1, i, 0) for i in range(1, 5))
                + tuple(GenSymbol("y", 2, i, 1) for i in range(2, 5)))


def draw_reference(rng: random.Random, N: int) -> tuple:
    """``embed._draw`` as it drew through ``rng.choice``: every value is a
    choice over a constant tuple.  ``randint(a, b)`` is ``a +
    _randbelow(b - a + 1)`` and ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]``, so a choice over the b - a + 1 values
    from a up draws the generator stream that ``randint`` drew."""
    choice = rng.choice
    terms: dict = {}
    for n in range(1, N + 1):
        if rng.random() < 0.4:
            continue
        group: dict = {}
        for _ in range(choice((1, 2))):
            m = 1
            for _ in range(choice((0, 1, 2))):
                m *= choice(_DRAW_PRIMES)
            # 6 // b for b = 1, 2, 3.
            c = choice((-3, -2, -1, 0, 1, 2, 3)) * choice((6, 3, 2)) + group.get(m, 0)
            if c:
                group[m] = c
            else:
                group.pop(m, None)
        if group:
            terms[n] = group
    return 6, terms


def decode_monomial(m) -> ComMonomial:
    """The monomial a scaled-series key stands for: a ``ComMonomial`` is
    itself, and an int is a prime code of the draw, decoded by trial
    division with the prime of each draw symbol."""
    if type(m) is not int:
        return m
    factors = []
    for p, x in zip(_DRAW_PRIMES, DRAW_SYMBOLS):
        while m % p == 0:
            factors.append(x)
            m //= p
    if m != 1:
        raise ValueError("not a product of draw primes: %d left" % m)
    return ComMonomial(factors)


def _as_series(s: tuple) -> TruncSeries:
    """The value of a scaled series (d, {n: {m: int}}), each key m a
    ``ComMonomial`` or a prime code."""
    d, terms = s
    return TruncSeries._raw({(n, decode_monomial(m)): exact(Fraction(c, d))
                             for n, g in terms.items() for m, c in g.items()})


def random_series(rng: random.Random, N: int) -> TruncSeries:
    """The library's random scaled series as a ``TruncSeries``: exponents
    1..N over the symbols x[1..4] (level 1) and y[2..4] (level 2), each
    coefficient a small polynomial of at most two terms, possibly with a
    constant term."""
    return _as_series(_draw(rng, N))


def rota_baxter_sides(rng: random.Random, max_n: int) -> tuple[TruncSeries, ...]:
    """One trial of ``verify rb`` in ``TruncSeries`` arithmetic: the
    sides R(a)R(b), R(R(a)b + aR(b)) of the Rota-Baxter identity and
    R(a)(R(b)c), R(R(a)b)c + R(R(b)a)c of the pre-commutative one, for a
    truncation N in 2..max_n and three random series, drawn in that
    order."""
    N = rng.randint(2, max_n)
    a, b, c = (random_series(rng, N) for _ in range(3))
    ra, rb = rb_apply(a), rb_apply(b)
    ra_b = series_product(ra, b, N)
    lhs = series_product(ra, rb, N)
    rhs = rb_apply(ra_b + series_product(a, rb, N))
    zl = series_product(ra, series_product(rb, c, N), N)
    zr = (splitting_product(ra_b, c, N)
          + splitting_product(series_product(rb, a, N), c, N))
    return lhs, rhs, zl, zr


def rota_baxter_failures(seed: int, count: int, max_n: int) -> list[tuple[int, str]]:
    """The failures of ``count`` trials from ``random.Random(seed)``, as
    (trial, identity) in trial order."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        lhs, rhs, zl, zr = rota_baxter_sides(rng, max_n)
        if lhs != rhs:
            failures.append((i, "rota-baxter"))
        if zl != zr:
            failures.append((i, "pre-commutative"))
    return failures


# Each verify target with the flags it requires and the other flags it
# reads; it reads no other flag of verify's.
VERIFY_TARGETS = {
    "zinbiel": (("letters", "bound"), ()),
    "trivial-envelope": (("letters", "bound"), ("no-completion",)),
    "odd-even": (("letters", "m-max", "k-max"), ()),
    "collapse": (("algebra", "bound"), ()),
    "rb": (("count", "max-n"), ("seed",)),
    "perm": (("dim", "triples", "max-degree"), ("seed",)),
}


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's flags as an ``argparse`` parser: ``parse_args`` gives
    the namespace that ``precom.cli`` hands its verbs."""
    parser = argparse.ArgumentParser(
        prog="precom",
        description="Exact rewriting in free pre-commutative algebras and "
                    "power-series embeddings of filtered commutative algebras.")
    sub = parser.add_subparsers(dest="verb", required=True, prog="precom")

    def verb_parser(verb: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=summary)
        p.add_argument("--json", action="store_true", help="emit a structured JSON report")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        return p

    p = verb_parser("reduce", "normal form of a tree polynomial modulo relations")
    p.add_argument("--relations", required=True, help="relation file")
    p.add_argument("--input", required=True, help="word or polynomial S-expression")

    p = verb_parser("complete", "bounded completion of a relation set")
    p.add_argument("--relations", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--interreduce", action="store_true",
                   help="minimalize and tail-reduce the completed set")

    p = verb_parser("irr", "irreducible words modulo a relation set")
    p.add_argument("--relations", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--words", action="store_true", help="list the words, not just counts")

    p = verb_parser("zmul", "product of dotted words in the free pre-commutative algebra")
    p.add_argument("--left", required=True, help="dotted word, e.g. x.y")
    p.add_argument("--right", required=True)
    p.add_argument("--star", action="store_true",
                   help="symmetrized product instead of the one-sided one")

    p = verb_parser("verify", "run a verification driver")
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--letters", type=int, default=None, help="alphabet size")
    p.add_argument("--bound", type=int, default=None, help="ambiguity/length bound")
    p.add_argument("--no-completion", action="store_true",
                   help="trivial-envelope: skip the completion cross-check")
    p.add_argument("--m-max", type=int, default=None, help="odd-even: odd length cap")
    p.add_argument("--k-max", type=int, default=None, help="odd-even: even length cap")
    p.add_argument("--algebra", default=None, help="collapse: algebra JSON file")
    p.add_argument("--count", type=int, default=None, help="rb: number of random trials")
    p.add_argument("--max-n", type=int, default=None, help="rb: max truncation degree")
    p.add_argument("--dim", type=int, default=None, help="perm: Perm-algebra dimension")
    p.add_argument("--triples", type=int, default=None, help="perm: number of triples")
    p.add_argument("--max-degree", type=int, default=None, help="perm: element degree cap")
    p.add_argument("--seed", type=int, default=0, help="random seed (rb, perm)")

    p = verb_parser("embed", "verify the power-series embedding of a filtered algebra")
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--N", type=int, required=True, help="truncation degree")
    return parser


def reference_parse(argv: list) -> argparse.Namespace:
    """``reference_parser().parse_args(argv)``, then the verify target's
    rule: a flag that the target requires but argv leaves out, or one of
    verify's flags that it does not read set away from its default, is a
    usage error, which exits 2."""
    parser = reference_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify":
        required, read = VERIFY_TARGETS[args.target]
        values = {k.replace("_", "-"): v for k, v in vars(args).items()
                  if k not in ("verb", "target", "json", "timings")}
        defaults = {"no-completion": False, "seed": 0}
        if (any(values[f] is None for f in required)
                or any(v != defaults.get(f) for f, v in values.items()
                       if f not in required + read)):
            parser.exit(2, "error: verify %s: a flag it requires is missing, or one it "
                           "does not read is set\n" % args.target)
    return args
