"""Linear algebra against rewriting, on seeded random relation sets.

For length-homogeneous relations, bounded completion to n gives a
Groebner-Shirshov basis in every length up to n, so its irreducible word
count at each length is the dimension of the quotient there.  The oracles
in ``tests/oracles.py`` compute that dimension by closing the relations
under products, one length at a time, and subtracting the rank: in the
free magma algebra for explicit relations alone, and in the free Zinbiel
algebra, the half-shuffle algebra on associative words, for the Zinbiel
family plus explicit relations.  A draw on which the two disagree is
printed as a relation file, ready for ``tests/data/complete``.

Run as a script, this module makes the larger sweeps of the CI step.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from precom.envelope import trivial_envelope_dimension
from precom.magma import Alphabet, MagmaPoly, leaf, node
from precom.rewrite import ExplicitRelation, ZinbielFamily, complete, irreducible_counts
from precom.sexpr import format_relations

from oracles import (magma_quotient_dimensions, random_homogeneous_relations, words_of_length,
                     zinbiel_quotient_dimensions)


def mismatches(zinbiel: bool, letters: int, bound: int, lengths: tuple, trials: int,
               seed: int) -> list[str]:
    """Each draw of ``trials`` from ``random.Random(seed)`` on whose
    completion the irreducible counts at lengths 1..bound differ from the
    quotient dimensions: its relation file and both counts."""
    ab = Alphabet("xyz"[:letters])
    dimensions = zinbiel_quotient_dimensions if zinbiel else magma_quotient_dimensions
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        rels = random_homogeneous_relations(rng, ab, lengths)
        schemas = [ZinbielFamily(ab)] * zinbiel + [ExplicitRelation(p) for p in rels]
        got = irreducible_counts(complete(schemas, bound), ab, bound)
        want = dimensions(rels, ab, bound)
        if got != want:
            out.append("%s; irreducible %s, quotient %s at bound %d"
                       % (format_relations(ab, schemas), got, want, bound))
    return out


# (zinbiel, letters, bound, relation lengths, trials, seed).  Tier-1
# runs the first list in about 2 s; the CI step runs the second.
_TIER_1 = [
    (True, 2, 5, (2, 3), 100, 1),
    (True, 3, 4, (2, 3), 100, 2),
    (False, 2, 5, (2, 3), 200, 3),
    (False, 3, 4, (2, 3), 300, 4),
]
_CI = [
    (True, 2, 6, (2, 3), 200, 11),
    (True, 3, 5, (2, 3), 100, 12),
    (False, 2, 6, (2, 3), 300, 13),
    (False, 3, 5, (2, 3), 200, 14),
    (True, 2, 7, (4, 5), 50, 15),
    (True, 3, 6, (4, 5), 50, 16),
    (False, 2, 7, (4, 5), 200, 17),
    (False, 3, 6, (4, 5), 100, 18),
]


@pytest.mark.parametrize("case", _TIER_1,
                         ids=["%s-d%d-n%d" % ("zinbiel" if c[0] else "magma", c[1], c[2])
                              for c in _TIER_1])
def test_irreducible_counts_are_quotient_dimensions(case):
    bad = mismatches(*case)
    assert not bad, "\n".join(bad)


def test_zinbiel_side_closed_form(ab2):
    # The envelope of the trivial algebra: xy + yx, xx and yy.
    x, y = leaf(ab2["x"]), leaf(ab2["y"])
    rels = [MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)]),
            MagmaPoly.monomial(node(x, x)), MagmaPoly.monomial(node(y, y))]
    assert zinbiel_quotient_dimensions(rels, ab2, 6) \
        == [trivial_envelope_dimension(2, n) for n in range(1, 7)]


def test_magma_side_closed_form(ab2):
    # No relation leaves every word; every word of length 2 leaves the
    # letters alone.
    assert magma_quotient_dimensions([], ab2, 5) \
        == [len(words_of_length(ab2, n)) for n in range(1, 6)]
    squares = [MagmaPoly.monomial(w) for w in words_of_length(ab2, 2)]
    assert magma_quotient_dimensions(squares, ab2, 5) == [2, 0, 0, 0, 0]


if __name__ == "__main__":
    failed = 0
    for case in _CI:
        t0 = time.perf_counter()
        bad = mismatches(*case)
        print("%s: %d mismatches in %.1f s" % (case, len(bad), time.perf_counter() - t0))
        for text in bad:
            print(text)
        failed += len(bad)
    sys.exit(1 if failed else 0)
