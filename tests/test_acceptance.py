"""Acceptance gate: the twelve headline checks, one test each.

Every test asserts exact values (tolerance zero — all arithmetic is
rational) and, where a budget applies, a wall-clock limit.  Each prints
a single ``criterion NN: PASS`` line with the measured quantities so a
``pytest -v -rA`` run reads as a scorecard.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product
from math import comb as binomial

from precom.embed import FilteredAlgebra, standard_filtration, verify_embedding, verify_rota_baxter
from precom.envelope import (
    collapse_check,
    default_alphabet,
    enveloping_relations,
    idempotent_algebra,
    odd_even_zero_sweep,
    trivial_algebra,
    trivial_envelope_dimension,
    trivial_gsb,
    truncated_power_algebra,
    verify_zinbiel_basis,
)
from precom.magma import MagmaPoly, comb, leaf
from precom.rewrite import (
    ExplicitRelation,
    ZinbielFamily,
    complete,
    interreduce,
    irreducible_counts,
    verify_gsb,
)
from precom.shuffle import ZinbElement, perm_tensor_check, random_element, star, zinbiel_product

from oracles import (
    generator_series,
    magma_product,
    random_nilpotent_algebra,
    random_series,
    rb_apply,
    series_product,
    shuffle_product,
    splitting_product,
    to_left_comb,
    truncated_poly_relations,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS — {detail}")


def _explicit_monic(relations) -> set[frozenset]:
    return {frozenset(s.poly.monic().terms.items())
            for s in relations if isinstance(s, ExplicitRelation)}


def _awords(ab, n):
    return list(product(ab.letters, repeat=n))


def test_criterion_01_tree_family_confluent_two_letters():
    t0 = time.perf_counter()
    rep = verify_zinbiel_basis(2, 5)
    dt = time.perf_counter() - t0
    assert rep.verified
    assert rep.gsb.failures == []
    assert rep.gsb.ambiguities_checked == 240
    assert rep.counts == rep.expected_counts == [2, 4, 8, 16, 32]
    assert dt < 60
    _report(1, f"240 ambiguities, 0 failures, {dt:.2f}s")


def test_criterion_02_trivial_envelope_basis_confluent():
    t0 = time.perf_counter()
    rep2 = verify_gsb(trivial_gsb(default_alphabet(2)), 6)
    dt2 = time.perf_counter() - t0
    assert rep2.failures == []
    assert rep2.ambiguities_checked == 5567
    assert dt2 < 300

    t0 = time.perf_counter()
    rep3 = verify_gsb(trivial_gsb(default_alphabet(3)), 5)
    dt3 = time.perf_counter() - t0
    assert rep3.failures == []
    assert rep3.ambiguities_checked == 4482
    assert dt3 < 300
    _report(2, f"d=2 bound 6: 5567 ambiguities in {dt2:.1f}s; "
               f"d=3 bound 5: 4482 ambiguities in {dt3:.1f}s; 0 failures")


def test_criterion_03_irreducible_counts_match_dimension_formula():
    ab2 = default_alphabet(2)
    got2 = irreducible_counts(trivial_gsb(ab2), ab2, 6)
    assert got2 == [2, 1, 2, 1, 2, 1]
    ab3 = default_alphabet(3)
    got3 = irreducible_counts(trivial_gsb(ab3), ab3, 4)
    assert got3 == [3, 3, 9, 9]
    for d, counts in ((2, got2), (3, got3)):
        for n, c in enumerate(counts, start=1):
            assert c == trivial_envelope_dimension(d, n)
    _report(3, f"d=2: {got2}; d=3: {got3}")


def test_criterion_04_tail_families_follow_from_defining_relations():
    A = trivial_algebra(2)
    completed = complete(enveloping_relations(A), 5)
    counts = irreducible_counts(completed, A.alphabet, 5)
    assert counts == [2, 1, 2, 1, 2]
    _report(4, f"completion of the defining relations alone gives {counts}")


def test_criterion_05_idempotent_generator_collapses():
    A = idempotent_algebra()
    completed = complete(enveloping_relations(A), 5)
    x = leaf(A.alphabet["x"])
    assert frozenset([(x, Fraction(1))]) in _explicit_monic(completed)
    counts = irreducible_counts(completed, A.alphabet, 5)
    assert counts == [0, 0, 0, 0, 0]
    _report(5, "completion derives the generator itself; envelope is zero")


def test_criterion_06_truncated_polynomial_envelope_recovers_algebra():
    seen_coeffs = set()
    for n in (2, 3):
        A = truncated_power_algebra(n)
        done = interreduce(complete(enveloping_relations(A), 4))
        want = _explicit_monic(truncated_poly_relations(n, A.alphabet))
        assert _explicit_monic(done) == want

        counts = irreducible_counts(done, A.alphabet, 4)
        assert counts == [n, 0, 0, 0]

        rep = collapse_check(A, 4)
        assert rep.failures == []
        for poly_items in want:
            for word, c in poly_items:
                if c != 1:
                    seen_coeffs.add(-c)
    assert seen_coeffs == {Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)}
    _report(6, "n=2,3: completion finds exactly the closed-form relations "
               "(tails 1/2, 1/3, 2/3); star table reproduces the algebra")


def test_criterion_07_odd_even_products_vanish():
    rep = odd_even_zero_sweep(2, 5, 4)
    assert rep.checked == 840
    assert rep.failures == []
    _report(7, "840 odd-by-even comb products all reduce to 0")


def test_criterion_08_free_zinbiel_identities_and_counts():
    ab = default_alphabet(2)
    triples = 0
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for k in range(1, 7 - i - j):
                for a in _awords(ab, i):
                    for b in _awords(ab, j):
                        for c in _awords(ab, k):
                            fa, fb, fc = (ZinbElement.monomial(w)
                                          for w in (a, b, c))
                            left = zinbiel_product(fa, zinbiel_product(fb, fc))
                            right = zinbiel_product(zinbiel_product(fa, fb), fc) \
                                + zinbiel_product(zinbiel_product(fb, fa), fc)
                            assert left == right, (a, b, c)
                            sa, sb, sc = (star(x, y) for x, y in
                                          ((fa, fb), (fb, fc), (fa, fc)))
                            assert sa == star(fb, fa)
                            assert star(sa, fc) == star(fa, sb)
                            triples += 1
    pairs = 0
    for i in range(1, 6):
        for j in range(1, 7 - i):
            for u in _awords(ab, i):
                for v in _awords(ab, j):
                    total = sum(shuffle_product(u, v).terms.values())
                    assert total == binomial(i + j, i)
                    pairs += 1
    dims = irreducible_counts([ZinbielFamily(ab)], ab, 6)
    assert dims == [2, 4, 8, 16, 32, 64]
    _report(8, f"identity + star laws on {triples} triples; "
               f"shuffle counts on {pairs} pairs; degree dims {dims}")


def test_criterion_09_comb_reduction_matches_shuffle_formula():
    ab = default_alphabet(2)
    pairs = 0
    for i in range(1, 6):
        for j in range(1, 7 - i):
            for u in _awords(ab, i):
                for v in _awords(ab, j):
                    trees = magma_product(MagmaPoly.monomial(comb(u)),
                                          MagmaPoly.monomial(comb(v)))
                    want = zinbiel_product(ZinbElement.monomial(u),
                                           ZinbElement.monomial(v))
                    assert to_left_comb(trees, ab) == want, (u, v)
                    pairs += 1
    _report(9, f"tree-side and word-side products agree on {pairs} pairs")


def test_criterion_10_rota_baxter_identity_and_splitting():
    # The library's check in scaled integer series, then the same
    # identities in the Fraction series of the oracle.
    assert verify_rota_baxter(random.Random(401), 200, 8, {}) == []
    rng = random.Random(401)
    for _ in range(200):
        N = rng.randint(2, 8)
        s, u = random_series(rng, N), random_series(rng, N)
        left = series_product(rb_apply(s), rb_apply(u), N)
        right = rb_apply(series_product(rb_apply(s), u, N)
                         + series_product(s, rb_apply(u), N))
        assert left == right
    for _ in range(100):
        N = rng.randint(2, 6)
        a, b, c = (random_series(rng, N) for _ in range(3))
        lhs = splitting_product(a, splitting_product(b, c, N), N)
        rhs = splitting_product(splitting_product(a, b, N), c, N) \
            + splitting_product(splitting_product(b, a, N), c, N)
        assert lhs == rhs
    _report(10, "both identities on 200 scaled trials; weight-zero identity "
                "on 200 random series; splitting identity on 100 random "
                "triples — all exact")


def test_criterion_11_series_embeddings_certified():
    instances = []
    for d in (1, 2, 3):
        A = trivial_algebra(d)
        instances.append((f"trivial d={d}",
                          FilteredAlgebra(A, {x: 1 for x in A.basis})))
    for n in (2, 3):
        A = truncated_power_algebra(n)
        levels = {A.alphabet[f"x{i}"]: i for i in range(1, n + 1)}
        instances.append((f"truncated n={n}", FilteredAlgebra(A, levels)))
    rng = random.Random(11)
    for k in range(5):
        A = random_nilpotent_algebra(rng)
        instances.append((f"random nilpotent #{k + 1}", standard_filtration(A)))

    details = []
    for name, F in instances:
        t0 = time.perf_counter()
        rep = verify_embedding(F, 6)
        dt = time.perf_counter() - t0
        assert rep.failures == [], name
        assert rep.buchberger.linear_leadings == [], name
        assert rep.injectivity_certified_to == 6, name
        assert dt < 300, name
        # The splitting product on the basis images is pre-commutative:
        # a(bc) = (ab)c + (ba)c, exactly.
        images = [generator_series(x, F, 6) for x in F.basis]
        for a in images:
            for b in images:
                ab, ba = splitting_product(a, b, 6), splitting_product(b, a, 6)
                for c in images:
                    assert splitting_product(a, splitting_product(b, c, 6), 6) \
                        == splitting_product(ab, c, 6) + splitting_product(ba, c, 6), name
        details.append(f"{name} ({dt:.1f}s)")
    _report(11, "embeddings certified at N=6 for " + "; ".join(details))


def test_criterion_12_perm_tensor_commutative_associative():
    rng = random.Random(229)
    ab = default_alphabet(2)
    samples = [tuple(random_element(rng, ab, 4) for _ in range(3))
               for _ in range(50)]
    rep = perm_tensor_check(2, samples)
    assert rep.failures == []
    assert rep.checked == 50 * 8
    _report(12, f"{rep.checked} tensor triples, 0 violations")
