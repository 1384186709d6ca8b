from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from precom import cli, rewrite
from precom.envelope import (
    CommAlgebra,
    enveloping_relations,
    idempotent_algebra,
    trivial_algebra,
    trivial_envelope_dimension,
    trivial_gsb,
    truncated_power_algebra,
)
from precom.lincomb import descend, memo_descend
from precom.magma import Alphabet, MagmaPoly, leaf, node
from precom.rewrite import (
    LEFT,
    RIGHT,
    ExplicitRelation,
    ZinbielFamily,
    _RedexIndex,
    _Sites,
    complete,
    graft,
    interreduce,
    irreducible_counts,
    irreducible_words,
    normal_form,
    normal_form_with_trace,
    normal_forms,
    replay_trace,
    substitute,
    verify_gsb,
)
from precom.sexpr import format_relations, parse_relations

from oracles import (inclusion_compositions, occurrences, random_nilpotent_algebra, reducible,
                     scan_instances, subtree, truncated_poly_relations, words_of_length)


def kept_sites(schemas, bound):
    """(f, path, g) of each composition site that verify_gsb and complete
    reduce, in their order."""
    index = _RedexIndex(schemas)
    return [(index.schemas[fpos].match(w), path, g)
            for _, _, fpos, _, path, w, g in _Sites(index, bound).initial()]


def instances_of(schemas, bound):
    """(instance, schema) for every instance of every schema, the Zinbiel
    family's included (by the generic scan), in schema order then
    enumeration order; an instance that an earlier schema produces too is
    left out."""
    out = []
    for pos, s in enumerate(schemas):
        found = scan_instances(s, bound) if isinstance(s, ZinbielFamily) else s.instances(bound)
        for p in found:
            if not any(t.match(p.leading()) == p for t in schemas[:pos]):
                out.append((p, s))
    return out


def rel(*terms):
    return ExplicitRelation(MagmaPoly.from_terms(list(terms)))


def random_poly(rng, ab, max_len, max_terms=3):
    pool = []
    for n in range(1, max_len + 1):
        pool.extend(words_of_length(ab, n))
    items = []
    for _ in range(rng.randint(1, max_terms)):
        items.append((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
    return MagmaPoly.from_terms(items)


class TestPaths:
    def test_subtree(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        w = node(x, node(y, z))
        assert subtree(w, ()) is w
        assert subtree(w, (1,)) is node(y, z)
        assert subtree(w, (1, 0)) is y

    def test_subtree_bad_path(self, ab2):
        x = leaf(ab2["x"])
        with pytest.raises(ValueError, match="ran past a leaf"):
            subtree(x, (0,))

    def test_graft(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        w = node(x, node(y, z))
        assert graft(w, (1, 1), x) is node(x, node(y, x))
        assert graft(w, (), z) is z

    def test_graft_bad_path(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        with pytest.raises(ValueError, match="ran past a leaf"):
            graft(node(x, y), (0, 1), x)


class TestOccurrences:
    def test_single(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        assert occurrences(node(x, node(y, z)), node(y, z)) == [(1,)]

    def test_disjoint_pair(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        xy = node(x, y)
        assert occurrences(node(xy, xy), xy) == [(0,), (1,)]

    def test_none(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert occurrences(node(x, y), node(y, x)) == []

    def test_root_included(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        assert occurrences(node(x, y), node(x, y)) == [()]

    def test_nested_or_disjoint(self, ab2):
        # Tree geometry: two subtree occurrences never properly overlap.
        def leaf_span(w, path):
            start = 0
            for step in path:
                if step == 0:
                    w = w.left
                else:
                    start += w.left.length
                    w = w.right
            return (start, start + w.length)

        for n in range(2, 6):
            for w in words_of_length(ab2, n):
                subs = list(w.subtrees())
                for i, (p, _) in enumerate(subs):
                    for q, _ in subs[i + 1:]:
                        nested = p == q[: len(p)] or q == p[: len(q)]
                        if nested:
                            continue
                        a0, a1 = leaf_span(w, p)
                        b0, b1 = leaf_span(w, q)
                        assert a1 <= b0 or b1 <= a0


class TestSubstitute:
    def test_linear(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        w = node(x, node(y, z))
        repl = MagmaPoly.from_terms([(node(y, z), 1), (node(z, y), -1)])
        got = substitute(w, (1,), repl)
        assert got == MagmaPoly.from_terms([(w, 1), (node(x, node(z, y)), -1)])

    def test_at_root(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        repl = MagmaPoly.from_terms([(x, 2), (y, -1)])
        assert substitute(node(x, y), (), repl) == repl

    def test_single_monomial(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        got = substitute(node(x, node(y, z)), (1,), MagmaPoly.monomial(node(z, y)).scale(-1))
        assert got == MagmaPoly.monomial(node(x, node(z, y))).scale(-1)

    def test_bad_path(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        with pytest.raises(ValueError, match="invalid path"):
            substitute(node(x, y), (1, 1), MagmaPoly.monomial(x))


class TestZinbielFamily:
    def test_match(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        got = ZinbielFamily(ab3).match(node(x, node(y, z)))
        assert got == MagmaPoly.from_terms(
            [(node(x, node(y, z)), 1), (node(node(x, y), z), -1), (node(node(y, x), z), -1)])

    def test_match_collision(self, ab2):
        # a = b makes the two tail terms coincide with coefficient -2.
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        got = ZinbielFamily(ab2).match(node(x, node(x, y)))
        assert got == MagmaPoly.from_terms(
            [(node(x, node(x, y)), 1), (node(node(x, x), y), -2)])

    def test_no_match(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        fam = ZinbielFamily(ab3)
        assert fam.match(x) is None
        assert fam.match(node(node(x, y), z)) is None

    def test_instance_counts(self, ab2):
        assert len(scan_instances(ZinbielFamily(ab2), 3)) == 8
        assert len(scan_instances(ZinbielFamily(ab2), 4)) == 56


def assert_certified(p, rels, nf):
    """``nf`` is p's normal form modulo rels: the traced reduction ends
    at nf, p - nf is the replayed sum of its steps, and no word of nf is
    reducible."""
    got, steps = normal_form_with_trace(p, rels)
    assert got == nf
    assert p - nf == replay_trace(steps)
    assert not any(reducible(w, rels) for w in nf.terms)


class TestNormalForm:
    def test_defining_rewrite(self, ab3):
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        nf = normal_form(MagmaPoly.monomial(node(x, node(y, z))), [ZinbielFamily(ab3)])
        assert nf == MagmaPoly.from_terms(
            [(node(node(x, y), z), 1), (node(node(y, x), z), 1)])

    def test_relation_itself_dies(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])
        assert not normal_form(p, trivial_gsb(ab2))

    def test_truncated_cube(self):
        rels = truncated_poly_relations(3)
        ab = rels[0].alphabet
        x1, x3 = leaf(ab["x1"]), leaf(ab["x3"])
        p = MagmaPoly.monomial(node(x1, node(x1, x1)))
        want = MagmaPoly.monomial(x3).scale(Fraction(1, 3))
        assert normal_form(p, rels) == want
        assert_certified(p, rels, want)

    def test_irreducible_fixed(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        p = MagmaPoly.from_terms([(node(y, x), 2), (x, -1)])
        assert normal_form(p, trivial_gsb(ab2)) == p

    def test_idempotent(self, ab2):
        rng = random.Random(11)
        rels = trivial_gsb(ab2)
        for _ in range(50):
            p = random_poly(rng, ab2, 5)
            nf = normal_form(p, rels)
            assert normal_form(nf, rels) == nf

    def test_trace_certifies_memoized_form_on_confluent_set(self, ab2):
        rng = random.Random(23)
        rels = trivial_gsb(ab2)
        for _ in range(200):
            p = random_poly(rng, ab2, 6)
            assert_certified(p, rels, normal_form(p, rels))

    def test_reducible(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        rels = trivial_gsb(ab2)
        assert reducible(node(x, y), rels)
        assert not reducible(node(y, x), rels)


class TestTrace:
    def test_replay_reproduces_difference(self):
        rels = truncated_poly_relations(3)
        ab = rels[0].alphabet
        x1, x2 = leaf(ab["x1"]), leaf(ab["x2"])
        p = MagmaPoly.from_terms(
            [(node(x1, node(x1, x1)), 1), (node(x2, x1), Fraction(1, 2))])
        nf, trace = normal_form_with_trace(p, rels)
        assert trace
        assert p - nf == replay_trace(trace)

    def test_steps_below_leading(self, ab2):
        rng = random.Random(5)
        rels = trivial_gsb(ab2)
        for _ in range(30):
            p = random_poly(rng, ab2, 5)
            if not p:
                continue
            nf, trace = normal_form_with_trace(p, rels)
            assert nf == normal_form(p, rels)
            for _, word, _, _ in trace:
                assert word.key <= p.leading().key

    def test_reduce_reports_the_trace_length(self, tmp_path, capsys):
        # `reduce` prints the normal form and the number of steps of the
        # trace that certifies it.
        text = "(alphabet x y z)\n(family trivial-envelope)\n"
        path = tmp_path / "rels.sexp"
        path.write_text(text, encoding="utf-8")
        ab, rels = parse_relations(text)
        rng = random.Random(7)
        rewrites = 0
        for _ in range(10):
            p = random_poly(rng, ab, 5)
            assert cli.main(["reduce", "--relations", str(path),
                             "--input", repr(p), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            nf, steps = normal_form_with_trace(p, rels)
            assert report["result"] == repr(nf)
            assert report["steps"] == len(steps)
            assert replay_trace(steps) == p - nf
            rewrites += len(steps)
        assert rewrites

    def test_empty_trace_when_irreducible(self, ab2):
        x = leaf(ab2["x"])
        nf, trace = normal_form_with_trace(MagmaPoly.monomial(x), trivial_gsb(ab2))
        assert nf == MagmaPoly.monomial(x)
        assert trace == []


class TestCompositions:
    def test_inclusion_value(self, ab3):
        # f is the defining rewrite at (x, y, z); g rewrites yz -> -zy.
        x, y, z = (leaf(ab3[n]) for n in "xyz")
        f = MagmaPoly.from_terms(
            [(node(x, node(y, z)), 1), (node(node(x, y), z), -1), (node(node(y, x), z), -1)])
        g = MagmaPoly.from_terms([(node(y, z), 1), (node(z, y), 1)])
        comps = inclusion_compositions(f, g)
        assert len(comps) == 1
        amb, h = comps[0]
        assert amb is node(x, node(y, z))
        assert h == MagmaPoly.from_terms(
            [(node(node(x, y), z), -1), (node(node(y, x), z), -1),
             (node(x, node(z, y)), -1)])

    def test_no_occurrence(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        f = MagmaPoly.monomial(node(x, y))
        g = MagmaPoly.monomial(node(y, x))
        assert inclusion_compositions(f, g) == []

    def test_equal_leads_distinct_relations(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        f = MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])
        g = MagmaPoly.monomial(node(x, y))
        comps = inclusion_compositions(f, g)
        assert comps == [(node(x, y), MagmaPoly.monomial(node(y, x)))]

    def test_self_root_skipped(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        f = MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])
        assert inclusion_compositions(f, f) == []

    def test_rejects_nonmonic(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        f = MagmaPoly.monomial(node(x, y)).scale(2)
        with pytest.raises(ValueError, match="monic"):
            inclusion_compositions(f, f)


class TestVerify:
    def test_defining_family_confluent(self, ab2):
        rep = verify_gsb([ZinbielFamily(ab2)], 4)
        assert rep.verified
        assert rep.ambiguities_checked > 0

    def test_closed_form_set_confluent(self, ab2):
        assert verify_gsb(trivial_gsb(ab2), 4).verified

    def test_idempotent_generator_collapses(self, ab2):
        # x*x = x forces x itself into the ideal; confluence must fail.
        x = leaf(ab2["x"])
        rels = [ZinbielFamily(ab2), rel((node(x, x), 2), (x, -1))]
        rep = verify_gsb(rels, 4)
        assert not rep.verified
        hit = [nf for *_, nf in rep.failures if set(nf.terms) == {x}]
        assert hit

    def test_shared_leading_word_composes_at_root(self, ab2):
        # xy -> y and xy -> x: each is the other's root composition, and
        # both leave x - y, which no relation rewrites.
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        f, g = rel((node(x, y), 1), (y, -1)), rel((node(x, y), 1), (x, -1))
        rep = verify_gsb([f, g], 2)
        assert rep.ambiguities_checked == 2
        diff = MagmaPoly.monomial(x) - MagmaPoly.monomial(y)
        assert rep.failures == [(f.poly, g.poly, node(x, y), diff),
                                (g.poly, f.poly, node(x, y), diff.scale(-1))]

    def test_bound_validation(self, ab2):
        with pytest.raises(ValueError, match="at least 2"):
            verify_gsb([ZinbielFamily(ab2)], 1)


class TestComplete:
    def test_idempotent_completion_finds_generator(self, ab2):
        x = leaf(ab2["x"])
        rels = [ZinbielFamily(ab2), rel((node(x, x), 2), (x, -1))]
        done = complete(rels, 4)
        explicit = [s.poly for s in done if isinstance(s, ExplicitRelation)]
        assert MagmaPoly.monomial(x) in explicit
        assert verify_gsb(done, 4).verified

    def test_already_complete_unchanged(self, ab2):
        rels = trivial_gsb(ab2)
        assert complete(rels, 4) == rels

    def test_reaches_closed_form_counts(self):
        A = trivial_algebra(2)
        done = complete(enveloping_relations(A), 4)
        assert irreducible_counts(done, A.alphabet, 4) \
            == irreducible_counts(trivial_gsb(A.alphabet), A.alphabet, 4)

    def test_bound_validation(self, ab2):
        with pytest.raises(ValueError, match="at least 2"):
            complete(trivial_gsb(ab2), 1)


# The two shapes of random_nilpotent_algebra: the chain b1*b1 ~ b2,
# b1*b2 ~ b3 is a truncated power algebra up to scaling, so its envelope
# keeps only A; when every product lands on b3 the counts alternate 3, 1.
def _chain_counts(bound):
    return [3] + [0] * (bound - 1)


def _two_step_counts(bound):
    return [3 if n % 2 else 1 for n in range(1, bound + 1)]


_SWEEP_CASES = [
    ("trivial-2", trivial_algebra(2), 6,
     [trivial_envelope_dimension(2, n) for n in range(1, 7)]),
    ("trivial-3", trivial_algebra(3), 5,
     [trivial_envelope_dimension(3, n) for n in range(1, 6)]),
    ("idempotent", idempotent_algebra(), 5, [0] * 5),
] + [
    ("truncated-%d" % n, truncated_power_algebra(n), 5, [n, 0, 0, 0, 0])
    for n in (2, 3, 4)
] + [
    ("nilpotent-0", random_nilpotent_algebra(random.Random(0)), 5, _chain_counts(5)),
    ("nilpotent-1", random_nilpotent_algebra(random.Random(1)), 5, _two_step_counts(5)),
    ("nilpotent-3", random_nilpotent_algebra(random.Random(3)), 4, _two_step_counts(4)),
]

# interreduce(complete(...)) of random_nilpotent_algebra(Random(1)) at
# bound 4; bound 5 adds no relation.
_NILPOTENT_1_INTERREDUCED = """(alphabet b1 b2 b3)
(family zinbiel)
(rel (+ (b1 b1) (* -3/4 b3)))
(rel (b3 b1))
(rel (+ (b1 b2) (b2 b1) (* -3/2 b3)))
(rel (b2 b2))
(rel (b3 b2))
(rel (b1 b3))
(rel (b2 b3))
(rel (b3 b3))
(rel (+ (((b2 b1) b1) b1) (* -3/4 ((b2 b1) b3))))
(rel (((b2 b1) b3) b1))
(rel (+ (((b2 b1) b1) b2) (((b2 b1) b2) b1) (* -3/2 ((b2 b1) b3))))
(rel (((b2 b1) b2) b2))
(rel (((b2 b1) b3) b2))
(rel (((b2 b1) b1) b3))
(rel (((b2 b1) b2) b3))
(rel (((b2 b1) b3) b3))
"""


class TestCompletionSweep:
    @pytest.mark.parametrize("name,A,bound,counts", _SWEEP_CASES,
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_confluent_with_closed_form_counts(self, name, A, bound, counts):
        done = complete(enveloping_relations(A), bound)
        assert verify_gsb(done, bound).verified
        assert irreducible_counts(done, A.alphabet, bound) == counts
        assert irreducible_counts(interreduce(done), A.alphabet, bound) == counts

    def test_each_site_reduced_once(self, monkeypatch):
        # Every site among the final instances is reduced exactly once:
        # the initial ones, and each added relation's own as f and as g.
        calls = []
        memo_descend = rewrite.memo_descend

        def counting(*args):
            calls.append(1)
            return memo_descend(*args)

        monkeypatch.setattr(rewrite, "memo_descend", counting)
        A = trivial_algebra(2)
        done = complete(enveloping_relations(A), 5)
        monkeypatch.undo()
        sites = kept_sites(done, 5)
        assert len(done) > len(enveloping_relations(A))
        assert len(calls) == len(sites)

    def test_nilpotent_interreduced_relations(self):
        A = random_nilpotent_algebra(random.Random(1))
        done = interreduce(complete(enveloping_relations(A), 4))
        assert format_relations(A.alphabet, done) == _NILPOTENT_1_INTERREDUCED


# ---------------------------------------------------------------------------
# The composition criteria, held against every site formed outright.

def every_site(schemas, bound):
    """Every composition site among the instances, no criterion applied:
    (f, its schema, path, g, g's schema, composition), with g each
    relation that matches a subword of f's leading word, and each
    composition built by inclusion_compositions.  A root pair of a family
    instance f and another relation g is listed once, as g's root site:
    its two compositions are negatives of each other."""
    for f, fs in instances_of(schemas, bound):
        fl = f.leading()
        for sub in dict.fromkeys(w for _, w in fl.subtrees()):
            for gs in schemas:
                g = gs.match(sub)
                if g is None or (sub is fl and isinstance(fs, ZinbielFamily)
                                 and not isinstance(gs, ZinbielFamily)):
                    continue
                paths = [p for p in occurrences(fl, sub) if p or f != g]
                comps = inclusion_compositions(f, g)
                assert len(comps) == len(paths)
                for path, (_, h) in zip(paths, comps):
                    yield f, fs, path, g, gs, h


def discharged_by_criteria(redex, f, fs, path, gs):
    """Whether a site is trivial by the Zinbiel family's criteria: its
    outer relation f is a family instance, and its inner one is a family
    instance too, or sits inside the variables a, b and c, or sits at the
    right factor bc while a is reducible (the chain criterion), as
    ``redex``, a redex lookup of the whole set, finds."""
    if not isinstance(fs, ZinbielFamily):
        return False
    if isinstance(gs, ZinbielFamily) or path not in ((), (rewrite.RIGHT,)):
        return True
    return bool(path) and redex(f.leading().left) is not None


def site_keys(schemas, sites):
    """Each site as (ambiguity key, f's schema position, path, g's schema
    position), sorted."""
    pos = {id(s): i for i, s in enumerate(schemas)}
    return sorted((f.leading().key, pos[id(fs)], path, pos[id(gs)])
                  for f, fs, path, g, gs in sites)


_CRITERIA_CASES = [
    ("trivial-2", trivial_algebra(2), 5),
    ("truncated-3", truncated_power_algebra(3), 5),
    ("nilpotent-1", random_nilpotent_algebra(random.Random(1)), 5),
]

# Z(xy, y, y) given outright, with no (family zinbiel): the site inside
# its variable a = xy is nontrivial here and adds the last relation.
_LOOKALIKE = """(alphabet x y)
(rel (+ ((x y) (y y)) (* -1 ((y (x y)) y)) (* -1 (((x y) y) y))))
(rel (+ (x y) (y x)))
(rel (y y))
"""


_PINNED_DIR = os.path.join(os.path.dirname(__file__), "data", "complete")


def pinned(name, suffix=".sexp"):
    """The text of a file of tests/data/complete."""
    with open(os.path.join(_PINNED_DIR, name + suffix), encoding="utf-8") as fh:
        return fh.read()


# The inputs whose every composition site is counted, by name.  Each is
# built on first use, not at import, so a fault in ``complete`` or
# ``redex`` fails the tests that use it rather than the collection of
# this file.
_COUNT_CASES = ["trivial-gsb-2", "trivial-gsb-3", "family-2", "family-3", "family-twice",
                "family-last", "shadowed", "root-pair", "lookalike"] + [
                    name for name, _, _ in _CRITERIA_CASES]


@functools.cache
def count_case(name):
    """The schemas and bound of the ``_COUNT_CASES`` input ``name``."""
    for criteria_name, A, bound in _CRITERIA_CASES:
        if name == criteria_name:
            return complete(enveloping_relations(A), bound), bound
    zinb, *quadratic = enveloping_relations(trivial_algebra(2))
    ab2, ab3 = zinb.alphabet, Alphabet("xyz")
    x, y = (leaf(letter) for letter in ab2)
    # Z(x, y, y) given outright before the family, so the family's
    # instance at x(yy) is that relation; Z(y, x, x) after it.
    before = ExplicitRelation(zinb.match(node(x, node(y, y))))
    after = ExplicitRelation(zinb.match(node(y, node(x, x))))
    return {
        "trivial-gsb-2": (trivial_gsb(ab2), 6),
        "trivial-gsb-3": (trivial_gsb(ab3), 5),
        "family-2": ([ZinbielFamily(ab2)], 6),
        "family-3": ([ZinbielFamily(ab3)], 5),
        "family-twice": ([ZinbielFamily(ab2), ZinbielFamily(ab2)], 5),
        "family-last": (quadratic + [ZinbielFamily(ab2)], 5),
        "shadowed": ([before, zinb, after] + quadratic, 5),
        # A relation whose leading word x(yz) the family matches.
        "root-pair": (parse_relations(pinned("root-pair"))[1], 5),
        # No family: every site is formed and none is discharged.
        "lookalike": (parse_relations(_LOOKALIKE)[1], 5),
    }[name]


class TestCompositionCriteria:
    @pytest.mark.parametrize("name,A,bound", _CRITERIA_CASES,
                             ids=[c[0] for c in _CRITERIA_CASES])
    def test_discharged_sites_reduce_to_zero(self, name, A, bound):
        done = complete(enveloping_relations(A), bound)
        index = _RedexIndex(done)
        dropped = [(f, path, g, h) for f, fs, path, g, gs, h in every_site(done, bound)
                   if discharged_by_criteria(index.redex, f, fs, path, gs)]
        assert dropped
        for f, path, g, h in dropped:
            assert index.reduce(h.terms) == {}

    @pytest.mark.parametrize("name", _COUNT_CASES, ids=_COUNT_CASES)
    def test_counts_match_every_site(self, name):
        # The discharged sites are counted by length, never built; the
        # count must equal that of the sites built one by one, and the
        # sites formed must be exactly those no criterion discharges.  The
        # skipped ones are those that only the chain criterion discharges.
        schemas, bound = count_case(name)
        sites = [site[:5] for site in every_site(schemas, bound)]
        redex = _RedexIndex(schemas).redex
        kept = [(f, fs, path, g, gs) for f, fs, path, g, gs in sites
                if not discharged_by_criteria(redex, f, fs, path, gs)]
        chain = [f for f, fs, path, g, gs in sites
                 if isinstance(fs, ZinbielFamily) and not isinstance(gs, ZinbielFamily)
                 and path == (rewrite.RIGHT,) and redex(f.leading().left) is not None]
        rep = verify_gsb(schemas, bound)
        assert (rep.ambiguities_checked, rep.discharged) == (len(sites), len(sites) - len(kept))
        assert rep.skipped == len(chain)
        index = _RedexIndex(schemas)
        formed = [(index.schemas[fpos].match(w), index.schemas[fpos], path, g,
                   index.schemas[gpos])
                  for _, _, fpos, gpos, path, w, g in _Sites(index, bound).initial()]
        assert site_keys(schemas, formed) == site_keys(schemas, kept)

    def test_pinned_counts(self):
        counts = {name: verify_gsb(*count_case(name)).ambiguities_checked
                  for name in _COUNT_CASES}
        assert (counts["trivial-gsb-2"], counts["trivial-gsb-3"]) == (5567, 4482)
        assert counts["family-2"] == 2480
        # The root pair of Z(x(yz)) and x(yz) + (zz)z is counted once.
        assert counts["root-pair"] == 2239
        assert verify_gsb([ZinbielFamily(Alphabet("xy"))], 5).ambiguities_checked == 240

    def test_reduced_plus_discharged_is_checked(self, ab2, monkeypatch):
        calls = []
        memo_descend = rewrite.memo_descend

        def counting(*args):
            calls.append(1)
            return memo_descend(*args)

        monkeypatch.setattr(rewrite, "memo_descend", counting)
        for rels in (trivial_gsb(ab2), enveloping_relations(trivial_algebra(2))):
            calls.clear()
            rep = verify_gsb(rels, 5)
            assert 0 < rep.discharged < rep.ambiguities_checked
            assert len(calls) + rep.discharged == rep.ambiguities_checked

    def test_lookalike_without_family_keeps_every_site(self):
        ab, rels = parse_relations(_LOOKALIKE)
        x, y = leaf(ab["x"]), leaf(ab["y"])
        rep = verify_gsb(rels, 5)
        assert (rep.ambiguities_checked, rep.discharged) == (2, 0)
        assert [g.leading() for _, g, _, _ in rep.failures] == [node(x, y), node(y, y)]
        assert format_relations(ab, complete(rels, 5)) == _LOOKALIKE \
            + "(rel (+ ((y (y x)) y) (((y x) y) y)))\n"

    def test_family_builds_no_instances(self):
        assert not hasattr(ZinbielFamily, "instances")
        A = trivial_algebra(2)
        stats = {}
        done = complete(enveloping_relations(A), 5, stats)
        # Of the 72 sites reduced without the chain criterion, 51 sit at a
        # right factor under a reducible left factor and are never formed.
        assert stats == {"instances": 3, "sites": 21, "skipped": 51}
        assert verify_gsb(done, 5).verified


# The trivial algebra on three letters, as CI's deterministic-report step
# writes it, and the SHA-1 of its raw and interreduced completions at bound
# 7, taken before the chain criterion, when completion reduced 24,588 sites.
_TRIVIAL_3 = """(alphabet x y z)
(family zinbiel)
(rel (+ (x y) (y x)))
(rel (+ (x z) (z x)))
(rel (+ (y z) (z y)))
(rel (x x))
(rel (y y))
(rel (z z))
"""
_TRIVIAL_3_BOUND_7 = ("ade60af4340ad462196774a505057069e467b25a",
                      "a5cf8927e2756de377c33405cadb2e4dc852ff39")


class TestChainCriterion:
    def test_trivial_three_letters_bound_7_unchanged(self):
        ab, rels = parse_relations(_TRIVIAL_3)
        stats = {}
        done = complete(rels, 7, stats)
        assert tuple(hashlib.sha1(format_relations(ab, r).encode()).hexdigest()
                     for r in (done, interreduce(done))) == _TRIVIAL_3_BOUND_7
        # Every site is reduced once or never formed.
        assert stats["sites"] + stats["skipped"] == 24588
        assert stats["sites"] == 1170

    def test_trivial_three_letters_bound_9_closed_form(self):
        ab, rels = parse_relations(_TRIVIAL_3)
        assert irreducible_counts(complete(rels, 9), ab, 9) \
            == [trivial_envelope_dimension(3, n) for n in range(1, 10)]


# Raw completions (no interreduction) pinned when the family still built
# its instances: the order in which relations are added shows the order
# in which sites are reduced.  family-last lists explicit relations before
# the family; compound-right has explicit relations whose leading word is
# a(bc), before and after it, so sites of the family and of those
# relations tie on the ambiguity word; shadowed gives family instances
# outright, before and after the family.  root-pair, pinned when the root
# site of the family and x(yz) + (zz)z was reduced twice, is unchanged.
# inclusion, the third draw of random_homogeneous_relations(Random(23),
# x y, (2, 3)), has no family: its last relation comes from the site of
# x(xx) + ... with the added relation xx inside it.
_PINNED_BOUNDS = {"trivial-2": 6, "truncated-3": 5, "nilpotent-0": 5, "nilpotent-1": 5,
                  "nilpotent-2": 5, "lookalike": 5, "family-last": 5,
                  "compound-right": 5, "shadowed": 5, "root-pair": 5,
                  "inclusion": 4}


class TestPinnedCompletion:
    @pytest.mark.parametrize("name", sorted(_PINNED_BOUNDS))
    def test_raw_relation_file(self, name):
        ab, rels = parse_relations(pinned(name))
        done = complete(rels, _PINNED_BOUNDS[name])
        assert format_relations(ab, done) == pinned(name, ".out.sexp")
        assert verify_gsb(done, _PINNED_BOUNDS[name]).verified

    def test_family_last_stats(self):
        # The one pinned input where an added relation's leading word
        # occurs twice in one outer leading word: each occurrence is a site.
        _, rels = parse_relations(pinned("family-last"))
        stats = {}
        complete(rels, 5, stats)
        assert stats == {"instances": 3, "sites": 21, "skipped": 71}

    def test_root_pair_stats(self):
        # The family matches the leading word x(yz) of an input relation:
        # their root site is reduced once.
        _, rels = parse_relations(pinned("root-pair"))
        stats = {}
        complete(rels, 5, stats)
        assert stats == {"instances": 2, "sites": 121, "skipped": 36}

    def test_every_input_pinned(self):
        assert sorted(f[:-len(".sexp")] for f in os.listdir(_PINNED_DIR)
                      if not f.endswith(".out.sexp")) == sorted(_PINNED_BOUNDS)


_DUPLICATE_LEAD = """(alphabet x y)
(rel (+ (x x) (* -1 y)))
(rel (+ (x x) (* -2 y)))
"""


class TestInterreduce:
    def test_truncated_two(self):
        rels = truncated_poly_relations(2)
        ab = rels[0].alphabet
        x1, x2 = leaf(ab["x1"]), leaf(ab["x2"])
        done = interreduce(complete(rels, 4))
        explicit = {frozenset(s.poly.terms.items())
                    for s in done if isinstance(s, ExplicitRelation)}
        want = {
            frozenset([(node(x1, x1), Fraction(1)), (x2, Fraction(-1, 2))]),
            frozenset([(node(x1, x2), Fraction(1))]),
            frozenset([(node(x2, x1), Fraction(1))]),
            frozenset([(node(x2, x2), Fraction(1))]),
        }
        assert explicit == want

    def test_drops_redundant_leading(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        r1 = rel((node(x, y), 1), (node(y, x), 1))
        r2 = rel((node(node(x, y), x), 1))  # leading reducible via r1
        kept = interreduce([r1, r2])
        polys = [s.poly for s in kept if isinstance(s, ExplicitRelation)]
        assert polys == [r1.poly]

    def test_reduces_tails(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        r1 = rel((node(x, x), 1), (x, -1))
        r2 = rel((node(x, y), 1), (node(x, x), 1))
        kept = interreduce([r1, r2])
        polys = {frozenset(s.poly.terms.items())
                 for s in kept if isinstance(s, ExplicitRelation)}
        assert frozenset([(node(x, y), Fraction(1)), (x, Fraction(1))]) in polys

    def test_keeps_the_first_of_equal_leading_words(self):
        # x x = y and x x = 2y: completion adds y, so only x is left.
        ab, rels = parse_relations(_DUPLICATE_LEAD)
        x, y = leaf(ab["x"]), leaf(ab["y"])
        kept = interreduce(rels)
        assert [s.poly for s in kept] == [MagmaPoly.from_terms([(node(x, x), 1), (y, -1)])]
        done = complete(rels, 3)
        assert irreducible_counts(done, ab, 3) == [1, 0, 0]
        assert irreducible_counts(interreduce(done), ab, 3) == [1, 0, 0]


class TestIrreducibles:
    def test_closed_form_counts(self, ab2):
        assert irreducible_counts(trivial_gsb(ab2), ab2, 4) == [2, 1, 2, 1]

    def test_one_letter(self):
        ab = Alphabet(["x"])
        assert irreducible_counts(trivial_gsb(ab), ab, 3) == [1, 0, 0]

    def test_family_alone_leaves_combs(self, ab2):
        table = irreducible_words([ZinbielFamily(ab2)], ab2, 4)
        assert [len(table[n]) for n in range(1, 5)] == [2, 4, 8, 16]
        assert all(w.is_comb for row in table.values() for w in row)

    def test_ordering_within_length(self, ab2):
        table = irreducible_words(trivial_gsb(ab2), ab2, 4)
        for row in table.values():
            assert row == sorted(row, key=lambda w: w.key)

    def test_counts_complement_reducibles(self, ab2):
        rels = trivial_gsb(ab2)
        for n in range(1, 5):
            red = sum(1 for w in words_of_length(ab2, n) if reducible(w, rels))
            assert irreducible_counts(rels, ab2, n)[-1] == len(words_of_length(ab2, n)) - red

    def test_rejects_nonpositive_length(self, ab2):
        with pytest.raises(ValueError):
            irreducible_words(trivial_gsb(ab2), ab2, 0)


# ---------------------------------------------------------------------------
# The memoized redex lookup and the bottom-up irreducible words, each held
# against a plain reference implementation.

def scan_first_redex(word, index):
    """Uncached reference: the first subtree in preorder that a relation
    matches."""
    for path, sub in word.subtrees():
        rel = index.find(sub)
        if rel is not None:
            return path, rel
    return None


def words_upto(ab, n):
    return [w for k in range(1, n + 1) for w in words_of_length(ab, k)]


def nilpotent_plane():
    """Basis x < y with x*x = y and every other product zero."""
    ab = Alphabet(["x", "y"])
    x, y = ab.letters
    return CommAlgebra(ab, {(x, x): {y: 1}})


class TestRedexCache:
    def assert_agrees(self, index, words):
        # Longest first, so shorter words are answered from entries that
        # were filled while walking longer ones.
        for w in sorted(words, key=lambda w: -w.length):
            assert index.redex(w) == scan_first_redex(w, index), w

    def test_trivial_gsb_three_letters(self, ab3):
        self.assert_agrees(_RedexIndex(trivial_gsb(ab3)), words_upto(ab3, 6))

    @pytest.mark.parametrize("algebra", [idempotent_algebra, nilpotent_plane])
    def test_enveloping_relations(self, algebra):
        A = algebra()
        self.assert_agrees(_RedexIndex(enveloping_relations(A)),
                           words_upto(A.alphabet, 6))

    def test_find_honors_list_order(self, ab2):
        # A family before the first explicit relation leading with a word
        # answers for it; an explicit relation before the family does.
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        w = node(x, node(y, x))
        fam = ZinbielFamily(ab2)
        first, second = MagmaPoly.monomial(w), MagmaPoly.from_terms([(w, 1), (x, 1)])
        instance = fam.match(w)
        for schemas, want in (([fam, ExplicitRelation(first)], instance),
                              ([ExplicitRelation(first), fam], first),
                              ([ExplicitRelation(second), fam, ExplicitRelation(first)], second),
                              ([ExplicitRelation(second), ExplicitRelation(first)], second),
                              ([fam], instance), ([ExplicitRelation(first)], first)):
            assert _RedexIndex(schemas).find(w) == want
        assert _RedexIndex([ExplicitRelation(first), fam]).find(node(y, node(x, y))) \
            == fam.match(node(y, node(x, y)))
        assert _RedexIndex([ExplicitRelation(first)]).find(node(y, node(x, y))) is None

    def test_add_explicit_invalidates(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        xy, yy, yx = node(x, y), node(y, y), node(y, x)
        first = MagmaPoly.monomial(xy)
        index = _RedexIndex([ExplicitRelation(first)])
        w = node(yy, xy)
        assert index.redex(w) == ((1,), first)
        assert index.redex(yx) is None
        words = words_upto(ab2, 4)
        self.assert_agrees(index, words)

        # (y y) sits at path (0,), before the cached redex at (1,).
        earlier = MagmaPoly.monomial(yy)
        # The index's schema list numbers the relation by its length.
        assert index.add_explicit(ExplicitRelation(earlier)) == 1
        assert [s.poly for s in index.schemas] == [first, earlier]
        assert index.redex(w) == ((0,), earlier)
        fresh = _RedexIndex([ExplicitRelation(first), ExplicitRelation(earlier)])
        for u in words:
            assert index.redex(u) == scan_first_redex(u, fresh), u

        # (y x) was cached as irreducible.
        late = MagmaPoly.monomial(yx)
        assert index.add_explicit(ExplicitRelation(late)) == 2
        assert index.redex(yx) == ((), late)
        fresh = _RedexIndex([ExplicitRelation(p) for p in (first, earlier, late)])
        for u in words:
            assert index.redex(u) == scan_first_redex(u, fresh), u

    def test_add_explicit_keeps_redexes_of_no_longer_words(self, ab2):
        # Every memoized word has at most 3 letters, so a new leading word
        # of 3 letters is in none of them but itself: the rest stay.
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        rels = [ZinbielFamily(ab2), rel((node(x, y), 1), (node(y, x), 1)),
                rel((node(x, x), 1)), rel((node(y, y), 1))]
        index = _RedexIndex(rels)
        words = words_upto(ab2, 3)
        self.assert_agrees(index, words)
        lead = node(node(y, x), y)
        assert index.redex(lead) is None
        kept = len(index.first)
        assert index.add_explicit(ExplicitRelation(MagmaPoly.monomial(lead))) == len(rels)
        assert len(index.first) == kept - 1
        fresh = _RedexIndex(rels + [rel((lead, 1))])
        for u in words:
            assert index.redex(u) == scan_first_redex(u, fresh), u
        # A shorter one may sit inside a memoized word: all are dropped.
        index.add_explicit(ExplicitRelation(MagmaPoly.monomial(node(y, x))))
        assert not index.first

    def test_memo_holds_one_step_per_word(self):
        # T3, the three-letter trivial algebra's enveloping relations.
        rels = enveloping_relations(trivial_algebra(3))
        index = _RedexIndex(rels)
        words = sorted(words_upto(rels[0].alphabet, 6), key=lambda w: -w.length)

        def check(fresh):
            answers = [index.redex(w) for w in words]
            assert all(v is None or isinstance(v, MagmaPoly)
                       or (type(v) is int and v in (LEFT, RIGHT)) for v in index.first.values())
            for w, got in zip(words, answers):
                assert got == scan_first_redex(w, fresh), w

        check(index)
        lead = next(w for w in words if w.length == 6 and index.redex(w) is None)
        # Every memoized word has at most 6 letters: only lead's entry goes.
        kept = len(index.first)
        index.add_explicit(ExplicitRelation(MagmaPoly.monomial(lead)))
        assert len(index.first) == kept - 1
        check(_RedexIndex(rels + [rel((lead, 1))]))


def brute_irreducible_words(relations, ab, max_len):
    index = _RedexIndex(list(relations))
    return {n: sorted((w for w in words_of_length(ab, n)
                       if scan_first_redex(w, index) is None),
                      key=lambda w: w.key)
            for n in range(1, max_len + 1)}


class TestIrreducibleWordsBottomUp:
    @pytest.mark.parametrize("letters,max_len", [(2, 6), (3, 5)])
    def test_trivial_gsb(self, letters, max_len):
        ab = Alphabet("xyz"[:letters])
        rels = trivial_gsb(ab)
        assert irreducible_words(rels, ab, max_len) == \
            brute_irreducible_words(rels, ab, max_len)

    def test_bare_family(self, ab2):
        rels = [ZinbielFamily(ab2)]
        assert irreducible_words(rels, ab2, 6) == brute_irreducible_words(rels, ab2, 6)

    def test_truncated_poly(self):
        rels = truncated_poly_relations(3)
        ab = rels[0].alphabet
        assert irreducible_words(rels, ab, 5) == brute_irreducible_words(rels, ab, 5)

    def test_reducible_leaf(self):
        A = idempotent_algebra()
        x = leaf(A.alphabet["x"])
        done = complete(enveloping_relations(A), 5)
        assert any(isinstance(s, ExplicitRelation) and s.lead is x for s in done)
        table = irreducible_words(done, A.alphabet, 5)
        assert table == brute_irreducible_words(done, A.alphabet, 5)
        assert all(row == [] for row in table.values())


def test_graft_deep_word(ab2):
    x, y = leaf(ab2["x"]), leaf(ab2["y"])
    depth = 3000
    w = x
    for _ in range(depth):
        w = node(y, w)
    path = (1,) * depth
    got = graft(w, path, y)
    want = y
    for _ in range(depth):
        want = node(y, want)
    assert got is want
    assert subtree(got, path) is y


# ---------------------------------------------------------------------------
# The memoized normal forms, held against the plain descending sweep.

def plain_descend(terms, schemas):
    """The plain sweep: no normal-form memo, a fresh redex index."""
    index = _RedexIndex(schemas)
    return descend(terms, index.redex, graft)


class TestMemoNormalForms:
    @pytest.mark.parametrize("name,A,bound,counts", _SWEEP_CASES,
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_agrees_with_descend_on_sites(self, name, A, bound, counts):
        # The raw envelope relations are not confluent, so most sites
        # have nonzero remainders; one index serves every site, so later
        # sites are answered from words memoized by earlier ones.
        schemas = enveloping_relations(A)
        index = _RedexIndex(schemas)
        plain = _RedexIndex(schemas)
        nonzero = 0
        for *_, h in every_site(schemas, bound):
            want = descend(h.terms, plain.redex, graft)
            assert index.reduce(h.terms) == want
            nonzero += bool(want)
        assert nonzero
        assert index.nf

    def test_completed_set_sites(self):
        A = trivial_algebra(2)
        done = complete(enveloping_relations(A), 5)
        index = _RedexIndex(done)
        for *_, h in every_site(done, 5):
            assert index.reduce(h.terms) == plain_descend(h.terms, done) == {}

    def test_add_explicit_clears_memo(self, ab2):
        x, y = leaf(ab2["x"]), leaf(ab2["y"])
        xy, yx = node(x, y), node(y, x)
        first = MagmaPoly.from_terms([(xy, 1), (yx, -1)])
        index = _RedexIndex([ExplicitRelation(first)])
        w = node(xy, x)
        assert index.reduce({w: 1}) == {node(yx, x): 1}
        assert index.nf
        index.add_explicit(ExplicitRelation(MagmaPoly.from_terms([(yx, 1), (x, -2)])))
        assert not index.nf
        assert index.reduce({w: 3}) == {node(x, x): 6}

    def test_normal_forms_match_normal_form(self, ab2):
        rng = random.Random(7)
        rels = trivial_gsb(ab2)
        polys = [random_poly(rng, ab2, 6) for _ in range(30)]
        got = normal_forms(polys, rels)
        assert got == [normal_form(p, rels) for p in polys]
        assert got == [MagmaPoly._raw(plain_descend(p.terms, rels)) for p in polys]

    def test_verify_gsb_failures_on_non_confluent_set(self):
        # The raw trivial envelope relations: the memoized check must
        # report the same failures, remainders included, as reducing each
        # site with the plain sweep.
        schemas = enveloping_relations(trivial_algebra(2))
        bound = 5
        want = []
        for f, path, g in kept_sites(schemas, bound):
            h = f - substitute(f.leading(), path, g)
            nf = plain_descend(h.terms, schemas)
            if nf:
                want.append((f, g, f.leading(), MagmaPoly._raw(nf)))
        rep = verify_gsb(schemas, bound)
        assert want
        assert rep.failures == want

    def test_long_chain_under_low_recursion_limit(self):
        # a_i -> 2 a_(i-1): the normal form of a_n needs n dependent
        # rewrites, each waiting on the next.
        n = 2000
        ab = Alphabet(["a%d" % i for i in range(n + 1)])
        a = [leaf(x) for x in ab.letters]
        rels = [rel((a[i], 1), (a[i - 1], -2)) for i in range(1, n + 1)]
        top = MagmaPoly.monomial(a[n])
        index = _RedexIndex(rels)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            got = index.reduce(top.terms)
            nf = normal_form(top, rels)
        finally:
            sys.setrecursionlimit(limit)
        assert got == {a[0]: 2 ** n}
        assert nf.terms == got
        assert len(index.nf) == n + 1
        assert memo_descend(top.terms, index.redex, graft, {}) == \
            descend(top.terms, index.redex, graft)
