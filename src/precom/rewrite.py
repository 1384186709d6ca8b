"""Subtree rewriting and Groebner-Shirshov machinery for tree polynomials.

Relations are monic polynomials used as rewrite rules: an occurrence of a
leading monomial as a subtree is replaced by the negated tail.  Because
monomials are trees, two occurrences are always nested or disjoint, so the
only compositions are inclusions: f minus the grafting of g into f's
leading monomial at an occurrence of g's leading monomial.

A relation set is a list of :class:`RelationSchema`.  A schema either
wraps one explicit monic polynomial or describes an infinite family; a
family can match a given word structurally (for reduction, no
instantiation needed) and can enumerate every instance whose leading
monomial fits under a length bound (for composition search).

Each schema also declares which compositions with its instances can be
nontrivial, and :func:`verify_gsb` and :func:`complete` reduce only
those.  Two criteria discharge the rest, both trivial by Shirshov's
composition lemma: a composition of two instances of one schema that is
a Groebner-Shirshov basis by itself (``self_gsb``), and a composition at
a subword that the outer instance's schema does not list in
:meth:`RelationSchema.site_subwords`.  The Zinbiel family a(bc) is a
basis by itself and lists only the root and the right factor bc, since
a site inside a, b or c is trivial; every other schema lists every
subword.  The criteria apply only to instances that a schema of the set
produced, so an explicit relation keeps all of its sites.

Normal forms rewrite the largest reducible monomial first, at its first
redex in preorder.  A redex index over one relation set memoizes both the
first redex and the normal form of every word it meets
(:func:`~precom.lincomb.memo_descend`), so :func:`verify_gsb`,
:func:`complete`, :func:`interreduce`, :func:`normal_forms` and
:func:`normal_form` rewrite each word once per relation set;
:func:`normal_form_with_trace` rewrites term by term, since its steps are
the output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .lincomb import Coeff, _require_monic, descend, memo_descend
from .magma import Alphabet, MagmaPoly, NaWord, leaf, node, words_of_length

__all__ = [
    "LEFT",
    "RIGHT",
    "RelationSchema",
    "ExplicitRelation",
    "ZinbielFamily",
    "ReductionStep",
    "CompositionFailure",
    "GsbReport",
    "subtree",
    "graft",
    "occurrences",
    "substitute",
    "reducible",
    "normal_form",
    "normal_forms",
    "normal_form_with_trace",
    "replay_trace",
    "inclusion_compositions",
    "verify_gsb",
    "complete",
    "interreduce",
    "irreducible_words",
    "irreducible_counts",
]

LEFT, RIGHT = 0, 1


# ---------------------------------------------------------------------------
# Paths, occurrences, grafting

def subtree(w: NaWord, path: Sequence[int]) -> NaWord:
    """The subword at a path of {0, 1} steps (0 = left factor)."""
    for step in path:
        if w.letter is not None:
            raise ValueError("invalid path %r: ran past a leaf" % (tuple(path),))
        w = w.left if step == 0 else w.right
    return w


def graft(w: NaWord, path: Sequence[int], repl: NaWord) -> NaWord:
    """The word obtained by replacing the subword at ``path`` with ``repl``.

    Walks down the path, then rebuilds the spine bottom-up, so the depth
    of the word is not limited by the recursion limit.
    """
    spine = []
    for step in path:
        if w.letter is not None:
            raise ValueError("invalid path %r: ran past a leaf" % (tuple(path),))
        spine.append(w)
        w = w.left if step == 0 else w.right
    for step in reversed(path):
        w = spine.pop()
        repl = node(repl, w.right) if step == 0 else node(w.left, repl)
    return repl


def occurrences(w: NaWord, pattern: NaWord) -> list[tuple[int, ...]]:
    """Paths of all subtree occurrences of ``pattern`` in ``w``, preorder.

    The root occurrence is included.  Hash-consing makes each test O(1).
    """
    return [path for path, sub in w.subtrees() if sub is pattern]


def substitute(w: NaWord, path: Sequence[int], replacement: MagmaPoly) -> MagmaPoly:
    """Graft a polynomial into ``w`` at ``path``, linearly per monomial."""
    out: dict[NaWord, Coeff] = {}
    for m, c in replacement.terms.items():
        g = graft(w, path, m)
        nc = out.get(g, 0) + c
        if nc:
            out[g] = nc
        else:
            out.pop(g, None)
    return MagmaPoly._raw(out)


# ---------------------------------------------------------------------------
# Relation schemas

class RelationSchema:
    """A finitely described set of monic rewrite relations.

    A family matches words structurally, so reduction needs no alphabet;
    enumerating its instances does.
    """

    # True when the instances alone form a Groebner-Shirshov basis, so
    # that a composition of two of them is trivial.
    self_gsb = False

    def __init__(self, alphabet: Optional[Alphabet] = None):
        self.alphabet = alphabet

    def site_subwords(self, lead: NaWord):
        """(path, subword) pairs of an instance's leading word ``lead`` where
        a composition with another relation can be nontrivial, in preorder,
        the root first."""
        return lead.subtrees()

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        """The instance whose leading monomial is ``word``, if any."""
        raise NotImplementedError

    def instances(self, bound: int) -> tuple[MagmaPoly, ...]:
        """All instances whose leading monomial has length <= bound: the
        matches of every word up to the bound, by length, in
        :func:`~precom.magma.words_of_length` order."""
        if self.alphabet is None:
            raise ValueError("family cannot enumerate instances without an alphabet")
        out = []
        for n in range(1, bound + 1):
            for w in words_of_length(self.alphabet, n):
                m = self.match(w)
                if m is not None:
                    out.append(m)
        return tuple(out)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.alphabet)


class ExplicitRelation(RelationSchema):
    """A single relation given outright; rescaled monic on construction."""

    def __init__(self, poly: MagmaPoly):
        if not poly:
            raise ValueError("zero polynomial is not a relation")
        self.poly = poly.monic()
        self.lead = self.poly.leading()

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        return self.poly if word is self.lead else None

    def instances(self, bound: int) -> tuple[MagmaPoly, ...]:
        return (self.poly,) if self.lead.length <= bound else ()

    def __repr__(self) -> str:
        return "ExplicitRelation(%r)" % (self.poly,)


class ZinbielFamily(RelationSchema):
    """The defining rewrite family of free pre-commutative algebras:

        a(bc)  ->  (ab)c + (ba)c        for all words a, b, c.

    Matching is purely structural (any word whose right factor is
    compound), so reduction needs no instantiation.

    The family alone is a Groebner-Shirshov basis: its irreducible words
    are the left combs, d^n of them at length n, the dimension of the free
    Zinbiel algebra (Loday 1995).  An instance Z(a, b, c) is linear in
    each of the words a, b and c, so for a relation g = u + tail with u
    inside a, and a[g] the word a with u replaced by g, the composition is

        -(a[g] b) c - (b a[g]) c - Z(a[tail], b, c),

    whose leading words all lie below a(bc), and likewise inside b or c.
    Such a composition is trivial by Shirshov's composition lemma (Bokut
    and Chen 2014), so sites can be nontrivial only at the root and at the
    right factor bc.
    """

    self_gsb = True

    def site_subwords(self, lead: NaWord):
        return (((), lead), ((RIGHT,), lead.right))

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        if word.letter is not None:
            return None
        bc = word.right
        if bc.letter is not None:
            return None
        a, b, c = word.left, bc.left, bc.right
        terms = {word: 1}
        for w in (node(node(a, b), c), node(node(b, a), c)):
            nc = terms.get(w, 0) - 1
            if nc:
                terms[w] = nc
            else:
                del terms[w]
        return MagmaPoly._raw(terms)


# ---------------------------------------------------------------------------
# Redex lookup

class _RedexIndex:
    """Leading-monomial lookup across a schema list, honoring list order.

    ``explicit`` maps each leading word to every explicit relation with
    that leading word, as ``(position, relation)`` in list order.
    ``first`` memoizes :meth:`redex` and ``nf`` memoizes the normal form
    of :meth:`reduce` per word, for the life of the index or until
    :meth:`add_explicit` grows it; words are hash-consed, so a dict keyed
    by word is exact.
    """

    def __init__(self, schemas: Sequence[RelationSchema]):
        self.schemas = list(schemas)
        self.families: list[tuple[int, RelationSchema]] = []
        self.explicit: dict[NaWord, list[tuple[int, MagmaPoly]]] = {}
        for pos, s in enumerate(self.schemas):
            if isinstance(s, ExplicitRelation):
                self.explicit.setdefault(s.lead, []).append((pos, s.poly))
            else:
                self.families.append((pos, s))
        self._next_pos = len(self.schemas)
        self.first: dict[NaWord, Optional[tuple]] = {}
        self.nf: dict[NaWord, Optional[dict]] = {}

    def add_explicit(self, poly: MagmaPoly) -> int:
        pos = self._next_pos
        self._next_pos += 1
        self.explicit.setdefault(poly.leading(), []).append((pos, poly))
        # The new leading word may sit earlier in preorder than a cached
        # redex, so every entry is stale, not only the irreducible ones.
        self.first.clear()
        self.nf.clear()
        return pos

    def reduce(self, terms: dict) -> dict:
        """The largest-first normal form of a term dict, through ``nf``."""
        return memo_descend(terms, self.redex, graft, self.nf)

    def find(self, word: NaWord) -> Optional[MagmaPoly]:
        """First schema (in list order) whose leading monomial is ``word``."""
        exp = self.explicit.get(word)
        exp_pos = exp[0][0] if exp is not None else None
        for pos, fam in self.families:
            if exp_pos is not None and pos > exp_pos:
                break
            m = fam.match(word)
            if m is not None:
                return m
        return exp[0][1] if exp is not None else None

    def redex(self, word: NaWord):
        """First reducible position in preorder: (path, relation) or None.

        The first redex of (l r) is the root if a relation matches it, else
        l's first redex under 0, else r's first redex under 1.  Results are
        memoized in ``first``; the walk keeps its own stack of
        (word, stage) frames instead of recursing.
        """
        memo = self.first
        hit = memo.get(word, memo)
        if hit is not memo:
            return hit
        find = self.find
        stack = [(word, 0)]
        while stack:
            w, stage = stack.pop()
            if stage == 0:
                if w in memo:
                    continue
                rel = find(w)
                if rel is not None:
                    memo[w] = ((), rel)
                elif w.letter is not None:
                    memo[w] = None
                else:
                    stack.append((w, 1))
                    stack.append((w.left, 0))
            elif stage == 1:
                hit = memo[w.left]
                if hit is not None:
                    memo[w] = ((0,) + hit[0], hit[1])
                else:
                    stack.append((w, 2))
                    stack.append((w.right, 0))
            else:
                hit = memo[w.right]
                memo[w] = ((1,) + hit[0], hit[1]) if hit is not None else None
        return memo[word]


# ---------------------------------------------------------------------------
# Normal forms

@dataclass
class ReductionStep:
    """One rewrite: the term ``coeff * word`` was rewritten with ``relation``
    grafted at ``path``.  Replaying subtracts coeff * substitute(word, path,
    relation) from the polynomial."""
    coeff: Coeff
    word: NaWord
    path: tuple[int, ...]
    relation: MagmaPoly


def normal_form(p: MagmaPoly, relations: Iterable[RelationSchema]) -> MagmaPoly:
    """Fully rewrite ``p`` modulo the relations, the largest reducible
    monomial first, at its first reducible position in preorder."""
    return MagmaPoly._raw(_RedexIndex(list(relations)).reduce(p.terms))


def normal_forms(polys: Iterable[MagmaPoly],
                 relations: Iterable[RelationSchema]) -> list[MagmaPoly]:
    """The largest-first normal form of each polynomial, in order, all
    modulo one relation set: words shared between the polynomials are
    rewritten once."""
    index = _RedexIndex(list(relations))
    return [MagmaPoly._raw(index.reduce(p.terms)) for p in polys]


def normal_form_with_trace(p: MagmaPoly, relations: Iterable[RelationSchema]):
    """Like :func:`normal_form`, also returning the list of rewrite steps.

    The trace is a constructive ideal-membership certificate:
    ``p - normal_form(p)`` equals the replayed sum of the steps, and every
    rewritten word is <= the leading monomial of ``p``.
    """
    index = _RedexIndex(list(relations))
    trace: list = []
    nf = MagmaPoly._raw(descend(p.terms, index.redex, graft, trace))
    return nf, [ReductionStep(*step) for step in trace]


def replay_trace(steps: Iterable[ReductionStep]) -> MagmaPoly:
    """Sum of coeff * substitute(word, path, relation) over the steps."""
    total = MagmaPoly.zero()
    for s in steps:
        total = total + substitute(s.word, s.path, s.relation).scale(s.coeff)
    return total


def reducible(word: NaWord, relations: Iterable[RelationSchema]) -> bool:
    return _RedexIndex(list(relations)).redex(word) is not None


# ---------------------------------------------------------------------------
# Compositions and verification

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


@dataclass
class CompositionFailure:
    f: MagmaPoly
    g: MagmaPoly
    ambiguity: NaWord
    normal_form: MagmaPoly


@dataclass
class GsbReport:
    """``ambiguities_checked`` counts every composition site up to the
    bound; ``discharged`` of them are trivial by a composition criterion
    and were not reduced."""
    ambiguities_checked: int
    failures: list[CompositionFailure]
    discharged: int

    @property
    def verified(self) -> bool:
        return not self.failures


def _instantiate(index: _RedexIndex,
                 bound: int) -> list[tuple[MagmaPoly, RelationSchema]]:
    """All instances of the index's schemas with leading length <= bound,
    in schema order then enumeration order (the creation index is the list
    position), each with the schema that produced it.  An instance that an
    earlier schema also produces is left out: that schema matches its
    leading word with an equal polynomial."""
    out: list[tuple[MagmaPoly, RelationSchema]] = []
    for pos, s in enumerate(index.schemas):
        families = [fam for fpos, fam in index.families if fpos < pos]
        for p in s.instances(bound):
            lead = p.leading()
            if any(fam.match(lead) == p for fam in families):
                continue
            if any(q == p for qpos, q in index.explicit.get(lead, ()) if qpos < pos):
                continue
            out.append((p, s))
    return out


def _sites(fi: int, f: MagmaPoly, schema: RelationSchema, index: _RedexIndex):
    """The composition sites of instance ``f`` of ``schema`` (creation
    index ``fi``) as the outer relation that can be nontrivial, keyed for
    :func:`_pair_compositions` order: each subword that the schema's
    :meth:`~RelationSchema.site_subwords` lists, with each relation of the
    index that matches it, except the schema itself when it is
    self-GSB."""
    fl = f.leading()
    own = schema if schema.self_gsb else None
    for path, sub in schema.site_subwords(fl):
        matches = [(gpos, fam.match(sub)) for gpos, fam in index.families
                   if fam is not own]
        matches += index.explicit.get(sub, ())
        for gpos, g in matches:
            if g is not None and (path or g != f):
                yield (fl.length, fl.key, fi, gpos, path, f, g)


def _pair_compositions(insts: list[tuple[MagmaPoly, RelationSchema]],
                       index: _RedexIndex):
    """Composition sites among instances that can be nontrivial, sorted by
    (ambiguity length, ambiguity word, creation index of f, schema position
    of g, path)."""
    comps = [site for fi, (f, s) in enumerate(insts)
             for site in _sites(fi, f, s, index)]
    comps.sort(key=lambda t: t[:5])
    return comps


def _matches_within(word: NaWord, index: _RedexIndex, within: dict) -> int:
    """The number of (path, relation) pairs with a relation of the index
    matching the subword of ``word`` at the path; ``within`` memoizes it
    per word."""
    stack = [word]
    while stack:
        w = stack.pop()
        if w in within:
            continue
        if w.letter is None and (w.left not in within or w.right not in within):
            stack += (w, w.left, w.right)
            continue
        n = len(index.explicit.get(w, ()))
        n += sum(fam.match(w) is not None for _, fam in index.families)
        within[w] = n if w.letter is not None else n + within[w.left] + within[w.right]
    return within[word]


def verify_gsb(relations: Iterable[RelationSchema], bound: int) -> GsbReport:
    """Check triviality of every composition with ambiguity length <= bound.

    Instantiates each schema up to the bound and forms the inclusion
    compositions among the instances.  Two kinds of site are trivial by
    Shirshov's composition lemma and are counted as checked and
    ``discharged`` without reduction: a site of two instances of one
    self-GSB schema, and a site outside an instance's
    :meth:`~RelationSchema.site_subwords` (for the Zinbiel family, inside
    its variables a, b and c).  Every other site is reduced; reductions
    only ever rewrite monomials strictly below the ambiguity, so a zero
    normal form witnesses triviality.  The verdict is the same as reducing
    every site, since the set is a Groebner-Shirshov basis up to the bound
    exactly when every composition is trivial, but a failing set may list
    fewer failures.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    index = _RedexIndex(list(relations))
    insts = _instantiate(index, bound)
    sites = _pair_compositions(insts, index)
    # Every site below the root, reduced or not, minus those reduced.  The
    # root is always listed, so no root site is discharged.
    within: dict[NaWord, int] = {}
    below = sum(_matches_within(w, index, within)
                for f, _ in insts if f.leading().letter is None
                for w in (f.leading().left, f.leading().right))
    discharged = below - sum(1 for site in sites if site[4])
    failures: list[CompositionFailure] = []
    for _, _, fi, gpos, path, f, g in sites:
        h = f - substitute(f.leading(), path, g)
        nf = index.reduce(h.terms)
        if nf:
            failures.append(CompositionFailure(f, g, f.leading(), MagmaPoly._raw(nf)))
    return GsbReport(len(sites) + discharged, failures, discharged)


def complete(relations: Iterable[RelationSchema], bound: int) -> list[RelationSchema]:
    """Bounded Shirshov completion.

    Keeps one heap of the composition sites with ambiguity length <=
    bound that can be nontrivial, in :func:`_pair_compositions` order,
    and reduces each site once; the sites that :func:`verify_gsb`
    discharges are never formed.  A nonzero normal form becomes a new
    monic explicit relation at once: it joins the redex index and only
    its own sites are pushed, as the outer relation f (the subwords of
    its leading word that some relation matches) and as the inner
    relation g (every instance with its leading word at one of that
    instance's :meth:`~RelationSchema.site_subwords`).  A composition
    trivial modulo a set stays trivial modulo any larger set, so the
    returned set is confluent up to the bound.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    work = list(relations)
    index = _RedexIndex(work)
    insts = _instantiate(index, bound)
    # Subword -> creation indices of the instances whose leading word has
    # it at a site subword below the root; the paths are found again only
    # when a site is pushed.  A new relation's leading word is irreducible,
    # so it is never the leading word of an instance, which its own schema
    # rewrites.
    containing: dict[NaWord, list[int]] = {}

    def note_subwords(fi: int, word: NaWord, schema: RelationSchema) -> None:
        for path, sub in schema.site_subwords(word):
            if not path:
                continue
            at = containing.setdefault(sub, [])
            if not at or at[-1] != fi:
                at.append(fi)

    for fi, (f, s) in enumerate(insts):
        note_subwords(fi, f.leading(), s)
    heap = _pair_compositions(insts, index)  # sorted, hence already a heap
    while heap:
        _, _, _, _, path, f, g = heapq.heappop(heap)
        nf = index.reduce((f - substitute(f.leading(), path, g)).terms)
        if not nf:
            continue
        new = ExplicitRelation(MagmaPoly._raw(nf))
        p, pl = new.poly, new.lead
        gpos = index.add_explicit(p)
        work.append(new)
        for fi in containing.get(pl, ()):
            f, s = insts[fi]
            fl = f.leading()
            for path, sub in s.site_subwords(fl):
                if sub is pl:
                    heapq.heappush(heap, (fl.length, fl.key, fi, gpos, path, f, p))
        fi = len(insts)
        insts.append((p, new))
        note_subwords(fi, pl, new)
        for site in _sites(fi, p, new, index):
            heapq.heappush(heap, site)
    return work


def interreduce(relations: Iterable[RelationSchema]) -> list[RelationSchema]:
    """Minimalize and tail-reduce the explicit relations of a set.

    Families pass through unchanged.  The explicit relations are taken in
    increasing leading-monomial order, and one is kept when its leading
    monomial is irreducible modulo the families and the relations kept
    before it; of several with one leading monomial, the first is kept.
    The survivors' tails are then fully reduced modulo the families and
    the survivors.  The survivors are returned sorted by leading monomial.
    """
    schemas = list(relations)
    fams = [s for s in schemas if not isinstance(s, ExplicitRelation)]
    index = _RedexIndex(fams)
    kept: list[MagmaPoly] = []
    for p in sorted((s.poly for s in schemas if isinstance(s, ExplicitRelation)),
                    key=lambda p: p.leading().key):
        if index.redex(p.leading()) is None:
            index.add_explicit(p)
            kept.append(p)
    out = list(fams)
    for p in kept:
        lead = p.leading()
        tail = index.reduce({w: c for w, c in p.terms.items() if w is not lead})
        out.append(ExplicitRelation(MagmaPoly.monomial(lead) + MagmaPoly._raw(tail)))
    return out


# ---------------------------------------------------------------------------
# Irreducible words

def irreducible_words(relations: Iterable[RelationSchema], alphabet: Alphabet,
                      max_len: int) -> dict[int, list[NaWord]]:
    """Words with no relation leading monomial as a subtree, by length.

    Within each length words are listed in increasing weight order.  A
    word is irreducible exactly when both factors are and no relation
    matches its root, so length n is built from the shorter irreducible
    words and only roots are checked; words with a reducible factor are
    never formed.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    find = _RedexIndex(list(relations)).find
    out: dict[int, list[NaWord]] = {}
    for n in range(1, max_len + 1):
        if n == 1:
            row = [w for w in map(leaf, alphabet) if find(w) is None]
        else:
            row = []
            for i in range(1, n):
                rights = out[n - i]
                for lw in out[i]:
                    for rw in rights:
                        w = node(lw, rw)
                        if find(w) is None:
                            row.append(w)
        row.sort(key=lambda w: w.key)
        out[n] = row
    return out


def irreducible_counts(relations: Iterable[RelationSchema], alphabet: Alphabet,
                       max_len: int) -> list[int]:
    """Counts of irreducible words at lengths 1..max_len."""
    table = irreducible_words(relations, alphabet, max_len)
    return [len(table[n]) for n in range(1, max_len + 1)]
