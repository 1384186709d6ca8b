"""What ``import precom`` loads, and the plain classes that keep it small.

Every check runs as a fresh ``precom`` process, so the import is paid
once per verdict.  ``dataclasses`` would pull in ``inspect``, ``ast``,
``dis`` and ``tokenize``; the report and parse-tree classes are plain
``__slots__`` classes instead, and these tests pin what their callers
read from them.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from precom.compoly import BuchbergerReport
from precom.embed import EmbeddingReport
from precom.envelope import BasisReport, CollapseReport, OddEvenReport
from precom.lincomb import Report
from precom.rewrite import GsbReport
from precom.sexpr import _Atom, _Node
from precom.shuffle import PermTensorReport

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_inspect():
    # -S: an installation's site hooks are not precom's imports.
    code = ("import sys; import precom; import precom.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=30, check=True)
    assert out.stdout.split() == []


def test_import_loads_the_library_modules():
    # The package imports its library modules and nothing more: sexpr and
    # cli arrive with precom.cli.  perfbench's job.py stamps its setup time
    # right after `import precom`.
    code = ("import sys; import precom; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'precom'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=30, check=True)
    assert out.stdout.split() == ["precom", *("precom." + m for m in (
        "compoly", "embed", "envelope", "lincomb", "magma", "rewrite", "shuffle"))]


# Prints the parser modules loaded after the import, "|", then the exit
# code of main(argv) and the parser modules loaded after it.
_PARSER_PROBE = """\
import contextlib, io, sys
import precom.cli
loaded = lambda: [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
print(*loaded(), "|")
with contextlib.redirect_stdout(io.StringIO()):
    code = precom.cli.main(sys.argv[1:])
print(code, *loaded())
"""


@pytest.mark.parametrize("argv", [
    ["zmul", "--left", "x.y", "--right", "x", "--json"],
    ["verify", "rb", "--count", "2", "--max-n", "3"],
    ["complete", "--relations", "RELS", "--bound", "4"],
], ids=["zmul", "verify-rb", "complete"])
def test_cli_loads_no_argument_parser(tmp_path, argv):
    # argparse, with the gettext and locale it imports, took a fresh
    # process about 2.5 ms before its first verdict; the CLI reads its
    # flags from its own table instead.
    rels = tmp_path / "rels.sexp"
    rels.write_text("(alphabet x y)\n(family trivial-envelope)\n", encoding="utf-8")
    argv = [str(rels) if a == "RELS" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", _PARSER_PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=30, check=True)
    assert out.stdout.split() == ["|", "0"]


# Each class built by position, as its call site builds it, with the
# attribute names in that order.
CASES = [
    (BuchbergerReport, ("added", "pairs_considered", "pairs_processed",
                        "pairs_skipped_bound", "pairs_skipped_coprime",
                        "pairs_skipped_lcm", "lookups", "memo_hits", "linear_leadings")),
    (EmbeddingReport, ("relation_count", "failures", "injectivity_certified_to",
                       "buchberger", "phases")),
    (BasisReport, ("gsb", "counts", "expected_counts", "completion_counts")),
    (CollapseReport, ("counts", "star_table", "failures")),
    (OddEvenReport, ("checked", "failures")),
    (PermTensorReport, ("checked", "failures", "half_shuffles")),
    (GsbReport, ("ambiguities_checked", "failures", "discharged", "skipped")),
    (_Atom, ("text", "line", "col")),
    (_Node, ("items", "line", "col")),
]


@pytest.mark.parametrize("cls,names", CASES, ids=[c.__name__ for c, _ in CASES])
def test_positional_fields_read_back(cls, names):
    values = [object() for _ in names]
    obj = cls(*values)
    for name, value in zip(names, values):
        assert getattr(obj, name) is value


@pytest.mark.parametrize("cls,names", CASES, ids=[c.__name__ for c, _ in CASES])
def test_undeclared_attribute_raises(cls, names):
    obj = cls(*[None] * len(names))
    with pytest.raises(AttributeError):
        obj.undeclared = 1


SHARED = [(c, n) for c, n in CASES if c.__init__ is Report.__init__]


@pytest.mark.parametrize("cls,names", SHARED, ids=[c.__name__ for c, _ in SHARED])
def test_report_takes_every_field(cls, names):
    # The shared constructor zips values with slots strictly: a value
    # too few or too many is an error, not a field left unset or dropped.
    for n in (len(names) - 1, len(names) + 1):
        with pytest.raises(ValueError):
            cls(*[None] * n)


def test_inherited_verdicts_read_failures():
    # The base's verdict is an empty ``failures``; a class without that
    # field overrides it, and the completion counters are no verdict.
    for cls, names in CASES:
        if getattr(cls, "verified", None) is Report.verified:
            assert "failures" in names, cls.__name__
    assert BasisReport.verified is not Report.verified
    assert not hasattr(BuchbergerReport, "verified")
