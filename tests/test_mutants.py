"""The mutant suite's entries stay appliable.  Tier-1 runs no mutant
(``python tests/mutants.py`` does); it checks that each mutant's old
text occurs exactly once in its file, so a refactor carries the mutants
along, and that each names test files that exist."""

import os

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_old_text_occurs_once(name):
    path, old, new, tests = MUTANTS[name]
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert fh.read().count(old) == 1
    assert old != new
    assert tests and all(os.path.isfile(os.path.join(ROOT, t)) for t in tests)
