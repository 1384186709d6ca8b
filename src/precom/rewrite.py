"""Subtree rewriting and Groebner-Shirshov machinery for tree polynomials.

Relations are monic polynomials used as rewrite rules: an occurrence of a
leading monomial as a subtree is replaced by the negated tail.  Because
monomials are trees, two occurrences are always nested or disjoint, so the
only compositions are inclusions: f minus the grafting of g into f's
leading monomial at an occurrence of g's leading monomial.

A relation set is a list of :class:`RelationSchema`.  A schema either
wraps one explicit monic polynomial or describes an infinite family; a
family matches a given word structurally, so reduction needs no
instantiation.  For composition search, an explicit relation and the tail
family list their instances under a length bound; the Zinbiel family
lists none (see below).

:func:`verify_gsb` and :func:`complete` reduce only the compositions that
can be nontrivial.  An explicit relation or a tail-family instance is the
outer relation at every subword of its leading word: one subword index
files each occurrence with its path, and one lookup lists the relations
matching a word.  The Zinbiel family a(bc) builds no instances: it is a
Groebner-Shirshov basis by itself and a composition inside its variables
a, b or c is trivial by Shirshov's composition lemma (see
:class:`ZinbielFamily`), so its only such sites pair it with another
relation g with leading word u: at the root u, formed once with g as the
outer relation, and at the right factor u of a(u) for every irreducible
word a that fits under the bound (the chain criterion).  The trivial
ones are counted by length without being built.

Normal forms rewrite the largest reducible monomial first, at its first
redex in preorder.  A redex index over one relation set memoizes, for
every word it meets, one step toward its first redex (the relation at the
root, or the factor that holds the redex) and its normal form
(:func:`~precom.lincomb.memo_descend`), so :func:`verify_gsb`,
:func:`complete`, :func:`interreduce`, :func:`normal_forms` and
:func:`normal_form` rewrite each word once per relation set;
:func:`normal_form_with_trace` rewrites term by term, since its steps
are the output.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence, Union

from .lincomb import Report, descend, memo_descend
from .magma import Alphabet, MagmaPoly, NaWord, leaf, node

__all__ = [
    "LEFT",
    "RIGHT",
    "RelationSchema",
    "ExplicitRelation",
    "ZinbielFamily",
    "GsbReport",
    "graft",
    "substitute",
    "normal_form",
    "normal_forms",
    "normal_form_with_trace",
    "replay_trace",
    "verify_gsb",
    "complete",
    "interreduce",
    "irreducible_words",
    "irreducible_counts",
]

LEFT, RIGHT = 0, 1


# ---------------------------------------------------------------------------
# Paths and grafting

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


def substitute(w: NaWord, path: Sequence[int], replacement: MagmaPoly) -> MagmaPoly:
    """Graft a polynomial into ``w`` at ``path``, linearly per monomial.

    The graft of m has m as its subword at ``path``, so distinct monomials
    give distinct words and no coefficient cancels."""
    return MagmaPoly._raw({graft(w, path, m): c for m, c in replacement.terms.items()})


# ---------------------------------------------------------------------------
# Relation schemas

class RelationSchema:
    """A finitely described set of monic rewrite relations over an
    alphabet.

    A family matches words structurally, so reduction reads no alphabet;
    composition search, which lists words, does.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        """The instance whose leading monomial is ``word``, if any."""
        raise NotImplementedError

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
    right factor bc, and only with an inner relation from outside the
    family (every copy of the family in a set counts as the family).

    The right-factor site needs an irreducible a too (the chain criterion,
    Bokut and Chen 2014, triviality modulo w).  Take f = Z(a, b, c) and
    g = bc + g' at w = a(bc), and a relation h = v + h' of the set with v
    inside a.  Write a[h'] = sum_j c_j a_j, each a_j < a.  Replacing a by
    a[h] - a[h'] in f - a(g) = -(ab)c - (ba)c - a(g') gives

        -(a[h] b) c - (b a[h]) c - a[h](g') + sum_j c_j (a_j(g) - Z(a_j, b, c)),

    copies of h grafted at leading words (ab)c, (ba)c and a(g'_i), and
    instances of g and of the family at a_j(bc).  The order is
    multiplicative, so every leading word lies below w, and the
    composition is trivial modulo w whether or not the set is confluent.
    A set only grows during completion, so a site whose left factor is
    reducible when its inner relation joins stays trivial for good.

    :func:`verify_gsb` and :func:`complete` therefore build no instance
    of the family.  They start from each inner relation g instead, with
    leading word u: the right-factor site of a(u) for every irreducible
    word a with |a| + |u| <= bound.  The root site of Z(u) and g is g's
    (g - Z(u) = -(Z(u) - g)), or an earlier schema's with the instance g;
    an added relation has none, as the family matches no normal form term.
    """

    def match(self, word: NaWord) -> Optional[MagmaPoly]:
        bc = word.right
        if bc is None or bc.letter is not None:
            return None
        a, b, c = word.left, bc.left, bc.right
        ab, ba = node(node(a, b), c), node(node(b, a), c)
        # a(bc) leads: its right factor is longer than c.
        return MagmaPoly._raw({word: 1, ab: -2} if ab is ba else {word: 1, ab: -1, ba: -1},
                              word)


# ---------------------------------------------------------------------------
# Redex lookup

class _RedexIndex:
    """Leading-monomial lookup across a schema list, honoring list order.

    ``explicit`` maps each leading word to every explicit relation with
    that leading word, as ``(position, relation)`` in list order, a
    position being an index in ``schemas``, which :meth:`add_explicit`
    appends to.  :meth:`matches` lists every relation matching a word,
    for composition search; :meth:`find` gives the first, for rewriting.
    ``first`` memoizes :meth:`redex` per word as one step (``None``, the
    relation at the root, or ``LEFT`` or ``RIGHT``), and ``nf`` memoizes
    the normal form of :meth:`reduce` per word, for the life of the index
    or until :meth:`add_explicit` grows it; words are hash-consed, so a
    dict keyed by word is exact.  ``longest`` bounds the length of
    every word in either memo: rewriting never lengthens a word, and each
    word is looked up through :meth:`redex` before it is memoized.
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
        self.first: dict[NaWord, Union[None, int, MagmaPoly]] = {}
        self.nf: dict[NaWord, Optional[dict]] = {}
        self.longest = 0

    def add_explicit(self, rel: ExplicitRelation) -> int:
        """Append ``rel`` to the schemas; its position.

        When no memoized word is longer than the new leading word u, a
        memoized word contains u only if it is u, so only u's entry is
        dropped.  Every other entry stands, and so does every step chain:
        the chain of a word w runs through subwords of w alone, and u is a
        subword of no memoized word but itself, so no chain passes through
        the dropped entry, and each step still leads to an entry that is
        there.  Otherwise u may sit earlier in preorder than a cached
        redex, and ``first`` is cleared.  A normal form may hold u as a
        term, so ``nf`` is always cleared.
        """
        pos = len(self.schemas)
        self.schemas.append(rel)
        lead = rel.lead
        self.explicit.setdefault(lead, []).append((pos, rel.poly))
        if lead.length >= self.longest:
            self.first.pop(lead, None)
        else:
            self.first.clear()
            self.longest = 0
        self.nf.clear()
        return pos

    def reduce(self, terms: dict) -> dict:
        """The largest-first normal form of a term dict, through ``nf``."""
        return memo_descend(terms, self.redex, graft, self.nf)

    def matches(self, word: NaWord) -> list[tuple[int, MagmaPoly]]:
        """``(position, relation)`` for every relation whose leading
        monomial is ``word``: the families', then the explicit ones."""
        found = [(pos, fam.match(word)) for pos, fam in self.families]
        return [m for m in found if m[1] is not None] + self.explicit.get(word, [])

    def find(self, word: NaWord) -> Optional[MagmaPoly]:
        """First schema (in list order) whose leading monomial is ``word``."""
        exp = self.explicit.get(word)
        for pos, fam in self.families:
            if exp is not None and pos > exp[0][0]:
                break
            m = fam.match(word)
            if m is not None:
                return m
        return None if exp is None else exp[0][1]

    def redex(self, word: NaWord):
        """First reducible position in preorder: (path, relation) or None.

        The first redex of (l r) is the root if a relation matches it, else
        l's first redex under ``LEFT``, else r's first redex under
        ``RIGHT``.  ``first`` memoizes one step per word: ``None`` when it
        is irreducible, the relation matching at its root, or the step
        ``LEFT`` or ``RIGHT`` into the factor that holds its first redex.
        A miss fills ``first`` with its own stack instead of recursing, one
        (word, step) frame per ancestor whose answer waits on the factor
        that ``step`` leads to.  The path is then read by following the
        steps down from ``word``, into a fresh tuple: only the steps of
        :func:`normal_form_with_trace` keep one past the ``graft`` that
        reads it.
        """
        memo = self.first
        hit = memo.get(word, memo)
        if hit is memo:
            if word.length > self.longest:
                self.longest = word.length
            find = self.find
            stack = []
            w = word
            while True:
                # Down: answer w at once, or wait on its left factor.
                hit = memo.get(w, memo)
                if hit is memo:
                    rel = find(w)
                    if rel is not None:
                        hit = memo[w] = rel
                    elif w.letter is not None:
                        hit = memo[w] = None
                    else:
                        stack.append((w, LEFT))
                        w = w.left
                        continue
                # Up: pass whether w has a redex to the waiting ancestors
                # until one with no redex on its left turns to its right.
                while stack:
                    w, step = stack.pop()
                    if hit is not None:
                        hit = memo[w] = step
                    elif step == LEFT:
                        stack.append((w, RIGHT))
                        w = w.right
                        break
                    else:
                        memo[w] = None
                else:
                    break
        if hit is None:
            return None
        path = []
        w = word
        while type(hit) is int:
            path.append(hit)
            w = w.right if hit else w.left
            hit = memo[w]
        return tuple(path), hit


# ---------------------------------------------------------------------------
# Normal forms

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
    """Like :func:`normal_form`, also returning the list of rewrite steps,
    each ``(coeff, word, path, relation)``: the term ``coeff * word`` was
    rewritten with ``relation`` grafted at ``path``.

    The trace is a constructive ideal-membership certificate:
    ``p - normal_form(p)`` equals the replayed sum of the steps, and every
    rewritten word is <= the leading monomial of ``p``.
    """
    trace: list = []
    nf = descend(p.terms, _RedexIndex(list(relations)).redex, graft, trace)
    return MagmaPoly._raw(nf), trace


def replay_trace(steps: Iterable[tuple]) -> MagmaPoly:
    """Sum of coeff * substitute(word, path, relation) over the steps."""
    total = MagmaPoly.zero()
    for coeff, word, path, relation in steps:
        total = total + substitute(word, path, relation).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# Compositions and verification

class GsbReport(Report):
    """``ambiguities_checked`` counts the composition sites up to the
    bound, each root pair of a Zinbiel instance and a relation g once;
    ``discharged`` of them are trivial by a composition criterion and
    were not reduced, ``skipped`` of those by the chain criterion.
    A Zinbiel family's sites are counted from its definition, by word
    counts (``_Sites.below_root``), not from calls to its ``match``; a
    family that matches too little fails the d^n irreducible counts of
    :func:`~precom.envelope.verify_zinbiel_basis`, not these.  Each of
    ``failures`` is a tuple ``(f, g, ambiguity, normal_form)``: the two
    relations, the word where they overlap and the nonzero normal form of
    their composition."""

    __slots__ = ("ambiguities_checked", "failures", "discharged", "skipped")


def _shadowed(index: _RedexIndex, pos: int, p: MagmaPoly) -> bool:
    """Whether a schema before position ``pos`` matches p's leading word
    with a polynomial equal to p; p is then that schema's instance."""
    return any(q == p for qpos, q in index.matches(p.leading()) if qpos < pos)


class _Sites:
    """The composition sites that can be nontrivial with ambiguity length
    <= bound, over one redex index.

    A site is the tuple (ambiguity length, ambiguity key, position of f's
    schema, position of g's schema, path, ambiguity word, g); the first
    five entries are unique, so sites sort and heap on them.  The outer
    relation f is its schema's match at the ambiguity word, rebuilt when
    the site is reduced.  At one ambiguity word each schema has at most one
    instance, so f's schema position orders the outer instances as they
    are created: the schemas in list order, then the added relations.

    ``containing`` maps a word to ``(schema position, leading word,
    path)`` for each of its occurrences below the root of an outer leading
    word that :meth:`note` filed: the sites of a relation with that
    leading word, below the root.
    """

    def __init__(self, index: _RedexIndex, bound: int):
        self.index = index
        self.bound = bound
        # Every instance of every schema but the Zinbiel family, with the
        # schema's position, in schema order then enumeration order.
        self.instances = [(pos, p) for pos, s in enumerate(index.schemas)
                          if not isinstance(s, ZinbielFamily) for p in s.instances(bound)]
        # The outer instances leave out those that an earlier schema
        # produces too.
        self.outer = [(pos, p) for pos, p in self.instances if not _shadowed(index, pos, p)]
        self.containing: dict[NaWord, list[tuple[int, NaWord, tuple]]] = {}
        for pos, f in self.outer:
            self.note(pos, f.leading())
        self.zinbiel = next(((pos, fam) for pos, fam in index.families
                             if isinstance(fam, ZinbielFamily)), None)
        # The words whose family instance an earlier schema produces.
        self.shadow: set[NaWord] = set()
        # The right-factor sites a(u) never formed, as a is reducible.
        self.skipped = 0
        self.left: list[list[NaWord]] = []
        if self.zinbiel is not None:
            zpos, z = self.zinbiel
            self.shadow = {p.leading() for pos, p in self.instances
                           if pos < zpos and z.match(p.leading()) == p}
            # words[n] counts the words of length n; left[n] lists those
            # irreducible modulo the index, the left factors of the
            # right-factor sites (the chain criterion, see ZinbielFamily).
            self.words = [0, len(z.alphabet)]
            for n in range(2, bound + 1):
                self.words.append(sum(self.words[i] * self.words[n - i] for i in range(1, n)))
            self.left = _irreducible_rows(index.find, z.alphabet, bound - 2)

    def add(self, rel: ExplicitRelation) -> int:
        """Add a relation to the index and drop the left factors that its
        leading word makes reducible; its schema position."""
        gpos = self.index.add_explicit(rel)
        redex = self.index.redex
        for row in self.left[rel.lead.length:]:
            row[:] = [a for a in row if redex(a) is None]
        return gpos

    def note(self, pos: int, lead: NaWord) -> None:
        """File each subword below the root of ``lead``, the leading word
        of an outer relation of the schema at ``pos``, in ``containing``.
        A relation g = u + t has a site at each occurrence of u.  Two, at
        p1 < p2, are disjoint, and their compositions differ by lead[p2<-t]
        - lead[p1<-t], copies of g grafted at words below lead: the second
        is trivial modulo lead once the first, popped first, is reduced.
        Both are filed: filing one would add code, and move the counts
        ``sites`` of :func:`complete` and ``ambiguities_checked``."""
        for path, sub in lead.subtrees():
            if path:
                self.containing.setdefault(sub, []).append((pos, lead, path))

    def of_inner(self, gpos: int, g: MagmaPoly):
        """The sites with a Zinbiel instance as the outer relation and
        ``g`` of the schema at ``gpos`` as the inner one, at the right
        factor u of a(u) for every irreducible word a with |a| + |u| <=
        bound; the others are counted in ``skipped``.  The root site at u
        is g's (see :class:`ZinbielFamily`)."""
        u = g.leading()
        if self.zinbiel is None or u.letter is not None:
            return
        zpos = self.zinbiel[0]
        top = self.bound - u.length
        redex = self.index.redex
        self.skipped += sum(self.words[1:top + 1]) - sum(map(len, self.left[1:top + 1]))
        self.skipped -= sum(1 for w in self.shadow
                            if w.right is u and redex(w.left) is not None)
        for row in self.left[1:top + 1]:
            for a in row:
                w = node(a, u)
                if w not in self.shadow:
                    yield (w.length, w.key, zpos, gpos, (RIGHT,), w, g)

    def initial(self) -> list:
        """Every site among the instances, sorted: at the root of each
        outer instance f, every relation matching it but f, the family
        included; at each filed subword, every relation matching it; and
        those of :meth:`of_inner`."""
        matches = self.index.matches
        sites = []
        for fpos, f in self.outer:
            fl = f.leading()
            sites += [(fl.length, fl.key, fpos, gpos, (), fl, g)
                      for gpos, g in matches(fl) if g != f]
        for sub, at in self.containing.items():
            found = matches(sub)
            sites += [(fl.length, fl.key, fpos, gpos, path, fl, g)
                      for fpos, fl, path in at for gpos, g in found]
        sites += [site for pos, g in self.instances for site in self.of_inner(pos, g)]
        sites.sort()
        return sites

    def below_root(self) -> int:
        """The number of sites strictly below the root of a Zinbiel
        instance's leading word, formed or not, counted by length from the
        number of words and the number of (subword, relation) matches over
        the words of each length; 0 without the family.  The sites below
        the root of any other outer instance are all formed."""
        if self.zinbiel is None:
            return 0
        index, top, words = self.index, self.bound, self.words
        copies = sum(isinstance(fam, ZinbielFamily) for _, fam in index.families)
        matched = [0] * (top + 1)
        for _, p in self.instances:
            matched[p.leading().length] += 1
        for n in range(1, top + 1):
            # The family matches the words whose right factor is compound.
            matched[n] += copies * sum(words[i] * words[n - i] for i in range(1, n - 1))
            matched[n] += sum(matched[i] * words[n - i] + words[i] * matched[n - i]
                              for i in range(1, n))
        # Over the words a(u) with u compound: the matches within a and u.
        total = sum(matched[i] * words[j] + words[i] * matched[j]
                    for i in range(1, top) for j in range(2, top + 1 - i))
        within: dict[NaWord, int] = {}
        return total - sum(_matches_within(w.left, index, within)
                           + _matches_within(w.right, index, within) for w in self.shadow)


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
        n = len(index.matches(w))
        within[w] = n if w.letter is not None else n + within[w.left] + within[w.right]
    return within[word]


def verify_gsb(relations: Iterable[RelationSchema], bound: int) -> GsbReport:
    """Check triviality of every composition with ambiguity length <= bound.

    Forms the inclusion compositions among the instances of the schemas.
    Three kinds of site are trivial and are counted as checked and
    ``discharged`` without being formed: by Shirshov's composition lemma, a
    site of two Zinbiel instances and a site inside the variables a, b and
    c of a Zinbiel instance; by the chain criterion, the ``skipped`` site
    a(u) at the right factor of a Zinbiel instance whose left factor a is
    reducible (see :class:`ZinbielFamily`).  All three sit below the root
    of a Zinbiel instance, so ``discharged`` is the count of those sites
    by length less the ones formed.  Every other site is reduced;
    reductions only ever rewrite monomials strictly below the ambiguity,
    so a zero normal form witnesses triviality.  The verdict is
    the same as reducing every site, since the set is a Groebner-Shirshov
    basis up to the bound exactly when every composition is trivial, but a
    failing set may list fewer failures.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    index = _RedexIndex(list(relations))
    search = _Sites(index, bound)
    sites = search.initial()
    # Every site below the root of a Zinbiel instance, reduced or not,
    # minus those reduced.  initial forms every root site, the family's as
    # the other relation's, and every site of another outer instance.
    discharged = search.below_root() - sum(
        1 for site in sites if site[4] and isinstance(index.schemas[site[2]], ZinbielFamily))
    failures: list[tuple] = []
    for _, _, fpos, _, path, w, g in sites:
        f = index.schemas[fpos].match(w)
        nf = index.reduce((f - substitute(w, path, g)).terms)
        if nf:
            failures.append((f, g, w, MagmaPoly._raw(nf)))
    return GsbReport(len(sites) + discharged, failures, discharged, search.skipped)


def complete(relations: Iterable[RelationSchema], bound: int,
             stats: Optional[dict] = None) -> list[RelationSchema]:
    """Bounded Shirshov completion.

    Keeps one heap of the composition sites with ambiguity length <=
    bound that can be nontrivial, and reduces each site once; the sites
    that :func:`verify_gsb` discharges are never formed.  A nonzero normal
    form becomes a new monic explicit relation at once: it joins the redex
    index and only its own sites are pushed, as the inner relation g (each
    occurrence of its leading word that the subword index files below the
    root of an outer leading word, and the Zinbiel right-factor sites
    a(u), only for a left factor a irreducible when g joins).  It has
    no site yet as the outer relation: its leading word is a term of a
    normal form, so no relation matches any of its subwords but itself at
    the root; they are filed, and later relations find it there.  A
    composition trivial modulo a set stays trivial modulo any larger set,
    so the returned set is confluent up to the bound.  A ``stats`` dict
    receives the number of ``instances`` built from the input schemas, of
    ``sites`` reduced and of right-factor sites ``skipped`` by the chain
    criterion, never formed.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    index = _RedexIndex(list(relations))
    search = _Sites(index, bound)
    heap = search.initial()  # sorted, hence already a heap
    reduced = 0
    while heap:
        _, _, fpos, _, path, w, g = heapq.heappop(heap)
        reduced += 1
        f = index.schemas[fpos].match(w)
        nf = index.reduce((f - substitute(w, path, g)).terms)
        if not nf:
            continue
        new = ExplicitRelation(MagmaPoly._raw(nf))
        p, pl = new.poly, new.lead
        gpos = search.add(new)
        for fpos, fl, path in search.containing.get(pl, ()):
            heapq.heappush(heap, (fl.length, fl.key, fpos, gpos, path, fl, p))
        for site in search.of_inner(gpos, p):
            heapq.heappush(heap, site)
        search.note(gpos, pl)
    if stats is not None:
        stats.update(instances=len(search.instances), sites=reduced, skipped=search.skipped)
    return index.schemas


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
    for s in sorted((s for s in schemas if isinstance(s, ExplicitRelation)),
                    key=lambda s: s.lead.key):
        if index.redex(s.lead) is None:
            index.add_explicit(s)
    out = list(fams)
    for s in index.schemas[len(fams):]:
        tail = index.reduce({w: c for w, c in s.poly.terms.items() if w is not s.lead})
        out.append(ExplicitRelation(MagmaPoly.monomial(s.lead) + MagmaPoly._raw(tail)))
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
    rows = _irreducible_rows(_RedexIndex(list(relations)).find, alphabet, max_len)
    return {n: rows[n] for n in range(1, max_len + 1)}


def _irreducible_rows(find, alphabet: Alphabet, max_len: int) -> list[list[NaWord]]:
    """The words of each length 1..max_len, in increasing weight order,
    at whose root and below it ``find`` matches nothing; row 0 is empty.
    Length n is built from the shorter rows, and only roots are looked up."""
    rows: list[list[NaWord]] = [[]]
    for n in range(1, max_len + 1):
        if n == 1:
            row = [w for w in map(leaf, alphabet) if find(w) is None]
        else:
            row = []
            for i in range(1, n):
                rights = rows[n - i]
                for lw in rows[i]:
                    for rw in rights:
                        w = node(lw, rw)
                        if find(w) is None:
                            row.append(w)
        row.sort(key=lambda w: w.key)
        rows.append(row)
    return rows


def irreducible_counts(relations: Iterable[RelationSchema], alphabet: Alphabet,
                       max_len: int) -> list[int]:
    """Counts of irreducible words at lengths 1..max_len."""
    table = irreducible_words(relations, alphabet, max_len)
    return [len(table[n]) for n in range(1, max_len + 1)]
