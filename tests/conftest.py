from __future__ import annotations

import faulthandler
import gc
import os

import pytest

from precom.envelope import TailFamily
from precom.magma import Alphabet, MagmaPoly, leaf, node
from precom.rewrite import ExplicitRelation, ZinbielFamily


_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of stderr taken while output capture is off: a dump written
    # to a test's capture file would be lost with the process it ends.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_budget(request):
    """End the run, with every thread's stack on stderr, if one test runs
    past 60 s.  The slowest test takes about 2 s, so only a hang meets
    the budget, and it then fails the run instead of stalling it."""
    faulthandler.dump_traceback_later(60, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Hand back to the collector whatever a test's ``cli.main`` froze, so
    one test's frozen heap never hides another test's garbage."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def ab2() -> Alphabet:
    return Alphabet(["x", "y"])


@pytest.fixture(scope="session")
def ab3() -> Alphabet:
    return Alphabet(["x", "y", "z"])


class _LongTails(TailFamily):
    """The tail family without its length-2 instances."""

    def match(self, word):
        return None if word.length == 2 else super().match(word)


def _spelled_out_gsb(alphabet: Alphabet) -> list:
    """The closed form of the trivial envelope with its length-2 rules
    given outright: the tree family, the letter anticommutators xy + yx
    for x < y and the squares xx as explicit relations, then the tail
    family above length 2.  It rewrites as ``trivial_gsb`` does, and a
    test can drop or corrupt one quadratic."""
    letters = [leaf(x) for x in alphabet]
    rels: list = [ZinbielFamily(alphabet)]
    for i, x in enumerate(letters):
        for y in letters[i + 1:]:
            rels.append(ExplicitRelation(
                MagmaPoly.from_terms([(node(x, y), 1), (node(y, x), 1)])))
    rels += [ExplicitRelation(MagmaPoly.monomial(node(x, x))) for x in letters]
    rels.append(_LongTails(alphabet))
    return rels


@pytest.fixture(scope="session")
def spelled_out_gsb():
    return _spelled_out_gsb
