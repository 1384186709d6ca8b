from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import math
import pathlib
import sys

import pytest

from precom import cli, envelope, magma
from precom import embed as embed_module
from precom import shuffle as shuffle_module
from precom.cli import main
from precom.compoly import ComMonomial, ComPoly, GenSymbol
from precom.magma import Alphabet, leaf, node
from precom.rewrite import ZinbielFamily

from oracles import reference_parse, reference_parser

ZINBIEL3 = "(alphabet x y z)\n(family zinbiel)\n"
TRIVIAL2 = "(alphabet x y)\n(family trivial-envelope)\n"
IDEMPOTENT = "(alphabet x)\n(family zinbiel)\n(rel (+ (* 2 (x x)) (* -1 x)))\n"

VERIFY_USAGE = ("usage: precom verify {zinbiel,trivial-envelope,odd-even,collapse,rb,perm}"
                " [flags]")

TRUNC2 = {
    "basis": ["x1", "x2"],
    "levels": {"x1": 1, "x2": 2},
    "products": ["x1 x1 -> x2"],
}


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


@pytest.fixture
def rel_file(tmp_path):
    def write(text, name="rels.sexp"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


@pytest.fixture
def alg_file(tmp_path):
    def write(data, name="algebra.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)
    return write


class TestReduce:
    def test_defining_rewrite(self, run, rel_file):
        path = rel_file(ZINBIEL3)
        code, out, _ = run("reduce", "--relations", path, "--input", "(x (y z))")
        assert code == 0
        assert out.splitlines() == ["(+ ((x y) z) ((y x) z))", "steps: 1"]

    def test_strategy_flag_exits_2(self, capsys, rel_file):
        # There is one reduction order, so argparse rejects the flag.
        path = rel_file(ZINBIEL3)
        with pytest.raises(SystemExit) as exit_:
            main(["reduce", "--relations", path, "--input", "(x (y z))",
                  "--strategy", "smallest"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --strategy smallest" in err
        assert "Traceback" not in err

    def test_irreducible_input(self, run, rel_file):
        path = rel_file(ZINBIEL3)
        code, out, _ = run("reduce", "--relations", path, "--input", "((x y) z)")
        assert code == 0
        assert out.splitlines()[0] == "((x y) z)"

    def test_deep_word_round_trips(self, run, rel_file):
        n = 3000
        text = "(x " * (n - 1) + "x" + ")" * (n - 1)
        code, out, _ = run("reduce", "--relations", rel_file("(alphabet x)\n"),
                           "--input", text)
        assert code == 0
        assert out.splitlines() == [text, "steps: 0"]

    def test_sum_of_deep_words(self, run, rel_file):
        # Ordering the two terms compares 3000-deep words.
        n = 3000
        lo = "(x " * (n - 1) + "x" + ")" * (n - 1)
        hi = "(x " * (n - 1) + "y" + ")" * (n - 1)
        code, out, _ = run("reduce", "--relations", rel_file("(alphabet x y)\n"),
                           "--input", "(+ %s %s)" % (lo, hi))
        assert code == 0
        assert out.splitlines() == ["(+ %s %s)" % (hi, lo), "steps: 0"]

    def test_parse_error_exits_2(self, run, rel_file):
        path = rel_file(ZINBIEL3)
        code, _, err = run("reduce", "--relations", path, "--input", "(x (q z))")
        assert code == 2
        assert err.startswith("error:")
        assert "unknown letter 'q'" in err

    def test_missing_file_exits_2(self, run, tmp_path):
        code, _, err = run("reduce", "--relations", str(tmp_path / "nope.sexp"),
                           "--input", "x")
        assert code == 2
        assert err.startswith("error:")

    def test_zero_denominator_in_input_exits_2(self, run, rel_file):
        path = rel_file(ZINBIEL3)
        code, out, err = run("reduce", "--relations", path,
                             "--input", "(+ (* 1/0 (x y)))")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1, column 7: not a rational number: '1/0'")
        assert "Traceback" not in err

    def test_syntax_error_names_the_file(self, run, rel_file):
        path = rel_file("(alphabet x y")
        code, out, err = run("reduce", "--relations", path, "--input", "x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: line 1, column 1: " % path)

    @pytest.mark.parametrize("name, text", [("0", "0"), ("+", "(+ x)")], ids=["zero", "plus"])
    def test_reserved_letter_name_exits_2(self, run, rel_file, name, text):
        # After (alphabet 0 x) the input 0 read as the zero polynomial,
        # and after (alphabet + x) the input (+ x) read as a sum.
        path = rel_file("(alphabet %s x)\n(family zinbiel)\n" % name)
        code, out, err = run("reduce", "--relations", path, "--input", text)
        assert code == 2
        assert out == ""
        assert err == ("error: %s: line 1, column 1: letter name %r cannot be read back "
                       "as a letter\n" % (path, name))

    def test_zero_denominator_in_relation_file_exits_2(self, run, rel_file):
        path = rel_file("(alphabet x y)\n(rel (+ (x y) (* 2/0 (y x))))\n")
        code, out, err = run("reduce", "--relations", path, "--input", "(x y)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: line 2, column 18: not a rational number: '2/0'"
                              % path)
        assert "Traceback" not in err


class TestComplete:
    def test_idempotent_collapse(self, run, rel_file):
        path = rel_file(IDEMPOTENT)
        code, out, _ = run("complete", "--relations", path, "--bound", "4", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        assert rep["counts"] == [0, 0, 0, 0]
        assert "(rel x)" in rep["relations_file"]

    def test_stats_count_instances_and_sites(self, run, rel_file):
        # The family builds no instances: only the three quadratic
        # relations are instances, and the 66 Zinbiel sites at their right
        # factors, plus the added relations' own, are the 72 sites that
        # can be nontrivial; 51 of them sit at a right factor under a
        # reducible left factor and are skipped by the chain criterion.
        path = rel_file("(alphabet x y)\n(family zinbiel)\n(rel (x x))\n"
                        "(rel (+ (x y) (y x)))\n(rel (y y))\n")
        argv = ("complete", "--relations", path, "--bound", "5", "--interreduce", "--json")
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second
        assert json.loads(first)["stats"] == {"instances": 3, "sites": 21, "skipped": 51}

    def test_interreduce_flag(self, run, rel_file):
        path = rel_file(IDEMPOTENT)
        code, out, _ = run("complete", "--relations", path, "--bound", "4",
                           "--interreduce", "--json")
        assert code == 0
        rep = json.loads(out)
        # After interreduction only the family and the generator remain.
        assert rep["relations_file"] == "(alphabet x)\n(family zinbiel)\n(rel x)\n"

    def test_already_complete(self, run, rel_file):
        path = rel_file(TRIVIAL2)
        code, out, _ = run("complete", "--relations", path, "--bound", "4")
        assert code == 0
        assert "irreducible counts: [2, 1, 2, 1]" in out


class TestIrr:
    def test_counts(self, run, rel_file):
        path = rel_file(TRIVIAL2)
        code, out, _ = run("irr", "--relations", path, "--bound", "4")
        assert code == 0
        assert "irreducible counts: [2, 1, 2, 1]" in out

    def test_words_listing(self, run, rel_file):
        path = rel_file(TRIVIAL2)
        code, out, _ = run("irr", "--relations", path, "--bound", "2", "--words", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["words"]["1"] == ["x", "y"]
        assert rep["words"]["2"] == ["(y x)"]

    @pytest.mark.parametrize("name", ["tail-anticomm", "tail-square"])
    def test_removed_family_name_exits_2(self, run, rel_file, name):
        path = rel_file("(alphabet x y)\n(family zinbiel)\n(family %s)\n" % name)
        code, out, err = run("irr", "--relations", path, "--bound", "4")
        assert code == 2
        assert out == ""
        assert err == ("error: %s: line 3, column 9: unknown family %r; "
                       "known: tail, trivial-envelope, zinbiel\n" % (path, name))


class TestZmul:
    def test_one_sided(self, run):
        code, out, _ = run("zmul", "--left", "x.y", "--right", "x")
        assert code == 0
        assert out.strip() == "x.y.x"

    def test_star(self, run):
        code, out, _ = run("zmul", "--left", "x.y", "--right", "x", "--star")
        assert code == 0
        assert out.strip() == "(+ (* 2 x.x.y) x.y.x)"

    def test_deep_word(self, run):
        left = ".".join(["x"] * 1200)
        code, out, _ = run("zmul", "--left", left, "--right", "x.y")
        assert code == 0
        assert out.strip() == "(+ (* 1201 %s.x.y))" % left

    @pytest.mark.parametrize("left", ["x.", ".x", "x..y"])
    def test_empty_letter_name_exits_2(self, run, left):
        code, out, err = run("zmul", "--left", left, "--right", "y")
        assert code == 2
        assert out == ""
        assert "empty letter name in %r" % left in err

    @pytest.mark.parametrize("argv, name", [
        (("--left", "(a", "--right", "b)", "--star"), "(a"),
        (("--left", "+", "--right", "0"), "+"),
        (("--left", "x", "--right", "0"), "0"),
    ])
    def test_unreadable_letter_name_exits_2(self, run, argv, name):
        # The letter-name rule of the relation and algebra files: the
        # result's S-expression could not be read back.
        code, out, err = run("zmul", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: letter name %r cannot be read back as a letter\n" % name


class TestVerify:
    def test_zinbiel(self, run):
        code, out, _ = run("verify", "zinbiel", "--letters", "2", "--bound", "4")
        assert code == 0
        assert "status: verified" in out
        assert "irreducible counts: [2, 4, 8, 16]" in out

    def test_zinbiel_family_matching_too_little_exits_1(self, run, monkeypatch):
        # A failing control.  The bare family forms no composition site, so
        # the irreducible counts carry the verdict: a family that skips the
        # words with a compound left factor leaves too many irreducible.
        argv = ("verify", "zinbiel", "--letters", "2", "--bound", "5", "--json")
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "verified"
        match = ZinbielFamily.match
        monkeypatch.setattr(ZinbielFamily, "match", lambda self, w: None
                            if w.left is not None and w.left.letter is None else match(self, w))
        code, out, err = run(*argv)
        assert (code, err) == (1, "")
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert rep["failures"] == [{"counts": [2, 4, 8, 32, 128], "expected": [2, 4, 8, 16, 32]}]
        code, out, err = run(*argv[:-1])
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == ["irreducible counts: [2, 4, 8, 32, 128]",
                                         "status: failed"]

    def test_trivial_envelope(self, run):
        code, out, _ = run("verify", "trivial-envelope",
                           "--letters", "2", "--bound", "4")
        assert code == 0
        assert "irreducible counts: [2, 1, 2, 1] (expected [2, 1, 2, 1])" in out
        assert "completion counts:  [2, 1, 2, 1]" in out

    def test_trivial_envelope_completion_mismatch_exits_1(self, run, monkeypatch):
        # A failing control for the completion cross-check: without the
        # relation that leads with y y, completion leaves too many words
        # irreducible, while the closed form still passes its own checks.
        argv = ("verify", "trivial-envelope", "--letters", "2", "--bound", "4", "--json")
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "verified"
        relations = envelope.enveloping_relations

        def no_yy(A):
            y = envelope.leaf(A.alphabet["y"])
            return [r for r in relations(A)
                    if getattr(r, "lead", None) is not envelope.node(y, y)]

        monkeypatch.setattr(envelope, "enveloping_relations", no_yy)
        code, out, err = run(*argv)
        assert (code, err) == (1, "")
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert rep["counts"] == [2, 1, 2, 1]
        assert rep["failures"] == [{"completion_counts": [2, 2, 3, 3],
                                    "expected": [2, 1, 2, 1]}]
        code, out, err = run(*argv[:-1])
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == ["completion counts:  [2, 2, 3, 3]", "status: failed"]

    @pytest.mark.parametrize("target,line,discharged,skipped", [
        ("zinbiel", "ambiguities checked: 240 (240 discharged by composition criteria)",
         240, 0),
        ("trivial-envelope",
         "ambiguities checked: 663 (615 discharged by composition criteria)", 615, 51),
    ])
    def test_discharged_sites_reported(self, run, target, line, discharged, skipped):
        argv = ("verify", target, "--letters", "2", "--bound", "5", "--no-completion")
        argv = argv if target == "trivial-envelope" else argv[:-1]
        code, out, _ = run(*argv)
        assert code == 0
        assert line in out.splitlines()
        code, out, _ = run(*argv, "--json")
        assert json.loads(out)["stats"] == {"discharged": discharged, "skipped": skipped}

    def test_failure_at_kept_site_exits_1(self, run, monkeypatch, spelled_out_gsb):
        # Without the square x x the closed-form set is not confluent; both
        # failures sit at the right factor (x y) of a family instance, a
        # site the criteria keep.
        def no_square(alphabet):
            x = envelope.leaf(alphabet["x"])
            return [r for r in spelled_out_gsb(alphabet)
                    if getattr(r, "lead", None) is not envelope.node(x, x)]

        monkeypatch.setattr(envelope, "trivial_gsb", no_square)
        code, out, _ = run("verify", "trivial-envelope", "--letters", "2",
                           "--bound", "4", "--no-completion", "--json")
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "failed"
        # 4 of the 44 discharged sites have a reducible left factor.
        assert rep["stats"] == {"discharged": 44, "skipped": 4}
        found = [(f["ambiguity"], f["g"], f["remainder"])
                 for f in rep["failures"] if "ambiguity" in f]
        assert ("(x (x y))", "(+ (x y) (y x))", "(+ (* -2 ((x x) y)))") in found
        assert len(found) == 2

    def test_odd_even(self, run):
        code, out, _ = run("verify", "odd-even", "--letters", "2",
                           "--m-max", "3", "--k-max", "2")
        assert code == 0
        assert "products checked: 40" in out

    def test_odd_even_bare_tree_family_exits_1(self, run, monkeypatch):
        # A failing control: without the tail family, every odd-by-even
        # product is a nonzero failure.
        monkeypatch.setattr(envelope, "trivial_gsb", lambda ab: [ZinbielFamily(ab)])
        code, out, err = run("verify", "odd-even", "--letters", "2",
                             "--m-max", "3", "--k-max", "2", "--json")
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert rep["counts"] == [40]
        assert len(rep["failures"]) == 40
        assert rep["failures"][0] == {"a": "x", "b": "(x x)", "normal_form": "(+ (* 2 ((x x) x)))"}
        code, out, err = run("verify", "odd-even", "--letters", "2", "--m-max", "3", "--k-max", "2")
        assert code == 1
        assert err == ""
        assert out.splitlines()[-1] == "status: failed"

    def test_rb(self, run):
        code, out, _ = run("verify", "rb", "--count", "5", "--max-n", "5")
        assert code == 0
        assert "trials: 5 (seed 0)" in out

    def test_rb_json_stats(self, run):
        # The terms the Cauchy products produced; the reports of two runs
        # are byte-identical.
        argv = ("verify", "rb", "--count", "20", "--max-n", "8", "--json")
        code, first, _ = run(*argv)
        assert code == 0
        assert json.loads(first)["stats"] == {"terms": 710}
        assert run(*argv)[1] == first

    def test_rb_wrong_operator_exits_1(self, run, monkeypatch):
        # R(t^n) = t^n/(n+1) is no Rota-Baxter operator: the check fails
        # and names the trials and identities that failed.
        def shifted(s, q):
            d, terms = s
            D = math.lcm(*(n + 1 for n in terms))
            return d * D, {n: {m: c * (D // (n + 1)) for m, c in g.items()}
                           for n, g in terms.items()}
        monkeypatch.setattr(embed_module, "_scaled_rb", shifted)
        code, out, _ = run("verify", "rb", "--count", "10", "--max-n", "8", "--json")
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert {f["identity"] for f in rep["failures"]} == {"rota-baxter", "pre-commutative"}
        assert all(0 <= f["trial"] < 10 for f in rep["failures"])
        code, out, _ = run("verify", "rb", "--count", "10", "--max-n", "8")
        assert code == 1 and out.splitlines()[-1] == "status: failed"

    def test_perm(self, run):
        code, out, _ = run("verify", "perm", "--dim", "2", "--triples", "3",
                           "--max-degree", "3")
        assert code == 0
        assert out.splitlines() == ["basis-paired triples checked: 24 (seed 0)",
                                    "status: verified"]

    def test_perm_json_stats(self, run, monkeypatch):
        # ``half_shuffles`` counts the table entries the run filled.  Both
        # runs draw words over the one two-letter default alphabet, so the
        # second finds every half-shuffle in the table and fills none.
        table: dict = {}
        monkeypatch.setattr(shuffle_module, "_HALF", table)
        argv = ("verify", "perm", "--dim", "2", "--triples", "3",
                "--max-degree", "3", "--json")
        first = json.loads(run(*argv)[1])
        assert first["stats"] == {"half_shuffles": len(table)}
        assert len(table) > 0
        second = json.loads(run(*argv)[1])
        assert second["stats"] == {"half_shuffles": 0}
        assert dict(second, stats=first["stats"]) == first

    def test_perm_dropped_half_shuffle_term_exits_1(self, run, monkeypatch):
        # A failing control.  Dropping half(v', u) from the fill's
        # half(u, v'y) = (half(v', u) + half(u, v'))y at every length
        # leaves the concatenation uv: associative, not pre-commutative.
        argv = ("verify", "perm", "--dim", "2", "--triples", "8", "--max-degree", "3",
                "--json")
        monkeypatch.setattr(shuffle_module, "_HALF", {})
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "verified"
        table: dict = {}
        monkeypatch.setattr(shuffle_module, "_HALF", table)
        monkeypatch.setattr(shuffle_module, "_half",
                            lambda u, v: table.setdefault((u, v), {u + v: 1}))
        code, out, err = run(*argv)
        assert (code, err) == (1, "")
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert rep["counts"] == [64]
        assert len(rep["failures"]) == 52
        assert {f["identity"] for f in rep["failures"]} == {"associativity"}
        code, out, err = run(*argv[:-1])
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "status: failed"

    def test_collapse_clean(self, run, alg_file):
        path = alg_file(TRUNC2)
        code, out, _ = run("verify", "collapse", "--algebra", path, "--bound", "4")
        assert code == 0
        assert "x1 * x1 = x2" in out

    def test_collapse_detected_exits_1(self, run, alg_file):
        path = alg_file({"basis": ["e"], "products": ["e e -> e"]})
        code, out, _ = run("verify", "collapse", "--algebra", path, "--bound", "4")
        assert code == 1
        assert "status: failed" in out

    @pytest.mark.parametrize("basis, products, name", [
        (["(", "b"], ["b b -> ("], "("),
        (["", "b"], [], ""),
    ], ids=["paren", "empty"])
    def test_collapse_unreadable_letter_name_exits_2(self, run, alg_file, basis, products, name):
        # Such a name was accepted and printed as `b * b = (` or ` *  = 0`.
        path = alg_file({"basis": basis, "products": products})
        code, out, err = run("verify", "collapse", "--algebra", path, "--bound", "3")
        assert code == 2
        assert out == ""
        assert err == "error: %s: letter name %r cannot be read back as a letter\n" % (path, name)

    def test_collapse_non_associative_exits_2(self, run, alg_file):
        path = alg_file({"basis": ["a", "b", "c", "d"],
                         "products": ["a a -> b", "a b -> c", "b b -> d"]})
        code, out, err = run("verify", "collapse", "--algebra", path, "--bound", "4")
        assert code == 2
        assert out == ""
        assert "not associative on basis triple (a, a, b)" in err

    @staticmethod
    def usage_error(capsys, *argv):
        """stderr of ``main(argv)``, which must exit 2 printing nothing
        to stdout."""
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_missing_flags_exit_2(self, capsys):
        err = self.usage_error(capsys, "verify", "zinbiel", "--letters", "2")
        assert err == VERIFY_USAGE + "\nerror: verify zinbiel requires --bound\n"
        err = self.usage_error(capsys, "verify", "odd-even", "--letters", "2", "--m-max", "3")
        assert err == VERIFY_USAGE + "\nerror: verify odd-even requires --k-max\n"
        # A missing flag is named before a value below its minimum.
        err = self.usage_error(capsys, "verify", "zinbiel", "--letters", "0")
        assert err == VERIFY_USAGE + "\nerror: verify zinbiel requires --bound\n"

    @pytest.mark.parametrize("argv, unread", [
        (("zinbiel", "--letters", "2", "--bound", "3", "--count", "7", "--dim", "9",
          "--algebra", "nope.json"), ("--algebra", "--count", "--dim")),
        (("trivial-envelope", "--letters", "2", "--bound", "3", "--m-max", "3"),
         ("--m-max",)),
        (("odd-even", "--letters", "2", "--m-max", "3", "--k-max", "2", "--bound", "4"),
         ("--bound",)),
        (("collapse", "--algebra", "nope.json", "--bound", "3", "--seed", "5"),
         ("--seed",)),
        (("rb", "--count", "2", "--max-n", "3", "--letters", "2", "--no-completion"),
         ("--letters", "--no-completion")),
        (("perm", "--dim", "2", "--triples", "1", "--max-degree", "1", "--max-n", "4"),
         ("--max-n",)),
    ], ids=["zinbiel", "trivial-envelope", "odd-even", "collapse", "rb", "perm"])
    def test_unread_flags_exit_2(self, capsys, argv, unread):
        # The unread flags are named in the flag table's order.
        err = self.usage_error(capsys, "verify", *argv)
        assert err == "%s\nerror: verify %s does not read %s\n" % (
            VERIFY_USAGE, argv[0], ", ".join(unread))

    def test_read_and_default_flags_accepted(self, run):
        code, out, _ = run("verify", "zinbiel", "--letters", "2", "--bound", "3",
                           "--seed", "0")
        assert code == 0 and "status: verified" in out
        code, out, _ = run("verify", "trivial-envelope", "--letters", "2",
                           "--bound", "3", "--no-completion")
        assert code == 0 and "completion counts" not in out
        code, out, _ = run("verify", "rb", "--count", "2", "--max-n", "3", "--seed", "9")
        assert code == 0 and "trials: 2 (seed 9)" in out

    def test_completion_bound_flag_exits_2(self, capsys):
        # Completion runs at --bound; argparse rejects the old flag.
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "trivial-envelope", "--letters", "2", "--bound", "3",
                  "--completion-bound", "4"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --completion-bound 4" in err

    @pytest.mark.parametrize("argv, flag", [
        (("rb", "--count", "-1", "--max-n", "5"), "--count must be at least 1 (got -1)"),
        (("rb", "--count", "0", "--max-n", "5"), "--count must be at least 1 (got 0)"),
        (("rb", "--count", "5", "--max-n", "1"), "--max-n must be at least 2 (got 1)"),
        (("perm", "--dim", "2", "--triples", "-1", "--max-degree", "3"),
         "--triples must be at least 1 (got -1)"),
        (("perm", "--dim", "2", "--triples", "3", "--max-degree", "0"),
         "--max-degree must be at least 1 (got 0)"),
    ])
    def test_vacuous_counts_exit_2(self, run, argv, flag):
        code, out, err = run("verify", *argv)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "randrange" not in err

    def test_smallest_counts_accepted(self, run):
        code, out, _ = run("verify", "rb", "--count", "1", "--max-n", "2")
        assert code == 0 and "status: verified" in out
        code, out, _ = run("verify", "perm", "--dim", "1", "--triples", "1",
                           "--max-degree", "1")
        assert code == 0 and "status: verified" in out


class TestFlagMinimums:
    """A length bound or alphabet size below its minimum is named as the
    flag the user typed, not as the library parameter it feeds."""

    @pytest.fixture
    def files(self, rel_file, alg_file):
        return {"rels": rel_file(TRIVIAL2), "alg": alg_file(TRUNC2)}

    @pytest.mark.parametrize("argv, message", [
        (("irr", "--relations", "rels", "--bound", "0"), "--bound must be at least 1 (got 0)"),
        (("complete", "--relations", "rels", "--bound", "1"),
         "--bound must be at least 2 (got 1)"),
        (("verify", "zinbiel", "--letters", "2", "--bound", "0"),
         "--bound must be at least 2 (got 0)"),
        (("verify", "trivial-envelope", "--letters", "2", "--bound", "1"),
         "--bound must be at least 2 (got 1)"),
        (("verify", "collapse", "--algebra", "alg", "--bound", "1"),
         "--bound must be at least 2 (got 1)"),
        (("verify", "zinbiel", "--letters", "0", "--bound", "3"),
         "--letters must be at least 1 (got 0)"),
        (("verify", "trivial-envelope", "--letters", "-1", "--bound", "3"),
         "--letters must be at least 1 (got -1)"),
        (("verify", "odd-even", "--letters", "0", "--m-max", "3", "--k-max", "2"),
         "--letters must be at least 1 (got 0)"),
        (("verify", "odd-even", "--letters", "1", "--m-max", "0", "--k-max", "2"),
         "--m-max must be odd and at least 1 (got 0)"),
        (("verify", "odd-even", "--letters", "1", "--m-max", "2", "--k-max", "2"),
         "--m-max must be odd and at least 1 (got 2)"),
        (("verify", "odd-even", "--letters", "1", "--m-max", "1", "--k-max", "0"),
         "--k-max must be even and at least 2 (got 0)"),
        (("verify", "odd-even", "--letters", "1", "--m-max", "1", "--k-max", "3"),
         "--k-max must be even and at least 2 (got 3)"),
        (("verify", "perm", "--dim", "0", "--triples", "1", "--max-degree", "1"),
         "--dim must be at least 1 (got 0)"),
    ], ids=["irr", "complete", "zinbiel-bound", "trivial-envelope-bound",
            "collapse", "zinbiel-letters", "trivial-envelope-letters", "odd-even",
            "odd-even-m-max", "odd-even-m-max-even", "odd-even-k-max",
            "odd-even-k-max-odd", "perm-dim"])
    def test_below_minimum_exits_2(self, run, files, argv, message):
        code, out, err = run(*(files.get(a, a) for a in argv))
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("argv", [
        ("irr", "--relations", "rels", "--bound", "1"),
        ("complete", "--relations", "rels", "--bound", "2"),
        ("verify", "zinbiel", "--letters", "1", "--bound", "2"),
        ("verify", "trivial-envelope", "--letters", "1", "--bound", "2"),
        ("verify", "collapse", "--algebra", "alg", "--bound", "2"),
        ("verify", "odd-even", "--letters", "1", "--m-max", "1", "--k-max", "2"),
    ], ids=["irr", "complete", "zinbiel", "trivial-envelope", "collapse", "odd-even"])
    def test_smallest_values_accepted(self, run, files, argv):
        code, out, err = run(*(files.get(a, a) for a in argv))
        assert code == 0
        assert err == ""


class TestEmbed:
    def test_with_levels(self, run, alg_file):
        path = alg_file(TRUNC2)
        code, out, _ = run("embed", "--algebra", path, "--N", "6")
        assert code == 0
        assert "adapted basis levels: x1:1, x2:2" in out
        assert "certified injective to weight 6" in out
        assert "status: verified" in out

    def test_standard_filtration_fallback(self, run, alg_file):
        path = alg_file({"basis": ["a", "b"], "products": ["a a -> b"]})
        code, out, _ = run("embed", "--algebra", path, "--N", "4")
        assert code == 0
        assert "adapted basis levels: a:1, b:2" in out

    def test_json_report_fields(self, run, alg_file):
        path = alg_file(TRUNC2)
        code, out, _ = run("embed", "--algebra", path, "--N", "6", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "embed"
        assert rep["status"] == "verified"
        assert rep["failures"] == []
        assert rep["levels"] == {"x1": 1, "x2": 2}
        assert rep["injectivity_certified_to"] == 6
        assert rep["timings"] is None
        assert rep["parameters"] == {"N": 6, "algebra": path}

    def test_timings_give_the_phases(self, run, alg_file):
        path = alg_file(TRUNC2)
        code, out, _ = run("embed", "--algebra", path, "--N", "6", "--json", "--timings")
        assert code == 0
        timings = json.loads(out)["timings"]
        assert sorted(timings) == ["completion_s", "homomorphism_s", "total_s"]
        assert all(type(v) is float and v >= 0 for v in timings.values())
        assert timings["homomorphism_s"] + timings["completion_s"] <= timings["total_s"] + 0.002
        _, first, _ = run("embed", "--algebra", path, "--N", "6", "--json")
        _, second, _ = run("embed", "--algebra", path, "--N", "6", "--json")
        assert first == second and json.loads(first)["timings"] is None

    def test_json_stats_count_pairs_and_lookups(self, run, alg_file):
        # x1 < x2 < x3 with x1^2 = x2, x1 x2 = x3: the pairs match
        # test_compoly's PINNED_BUCHBERGER entry for power 3 at N = 10.
        path = alg_file({"basis": ["x1", "x2", "x3"],
                         "levels": {"x1": 1, "x2": 2, "x3": 3},
                         "products": ["x1 x1 -> x2", "x1 x2 -> x3"]})
        code, out, _ = run("embed", "--algebra", path, "--N", "10", "--json")
        assert code == 0
        rep = json.loads(out)
        pairs, lookups = rep["stats"]["pairs"], rep["stats"]["lookups"]
        assert pairs == {"considered": 3081, "processed": 202, "skipped_bound": 2671,
                         "skipped_coprime": 159, "skipped_lcm": 49, "added": 37}
        assert pairs["added"] == rep["counts"][1]
        assert lookups == {"calls": 1172, "memo_hits": 812}
        code, again, _ = run("embed", "--algebra", path, "--N", "10", "--json")
        assert again == out

    def test_linear_relation_exits_1(self, run, alg_file, monkeypatch):
        # A failing control: a completion that also gets a[1] - b[1]
        # proves a linear leading monomial, so the certificate is refused.
        path = alg_file({"basis": ["a", "b"], "products": []})
        assert run("embed", "--algebra", path, "--N", "4")[0] == 0
        a, b = (ComMonomial((GenSymbol(name, 1, 1, rank),)) for rank, name in enumerate("ab"))
        linear = ComPoly.from_terms([(a, 1), (b, -1)])
        completion = embed_module.buchberger_bounded
        monkeypatch.setattr(embed_module, "buchberger_bounded",
                            lambda G, N: completion([*G, linear], N))
        code, out, err = run("embed", "--algebra", path, "--N", "4", "--json")
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        assert rep["status"] == "failed"
        assert rep["injectivity_certified_to"] is None
        assert rep["failures"] == [{"kind": "linear-leading", "relation": "b[1] - a[1]"}]
        code, out, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 1
        assert err == ""
        assert out.splitlines()[-2:] == [
            "linear leading monomial found: injectivity not certified", "status: failed"]

    def test_non_nilpotent_exits_2(self, run, alg_file):
        path = alg_file({"basis": ["e"], "products": ["e e -> e"]})
        code, _, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 2
        assert "not nilpotent" in err

    @pytest.mark.parametrize("first", ["a a -> 0", "a a -> b + -1 b"],
                             ids=["zero", "cancelling"])
    def test_duplicate_after_a_zero_entry_exits_2(self, run, alg_file, first):
        path = alg_file({"basis": ["a", "b"], "products": [first, "a a -> b"]})
        code, out, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 2
        assert out == ""
        assert err == "error: %s: duplicate product entry for a a\n" % path

    def test_boolean_level_exits_2(self, run, alg_file):
        path = alg_file(dict(TRUNC2, levels={"x1": True, "x2": 2}))
        code, _, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 2
        assert "positive integer" in err

    def test_non_associative_exits_2(self, run, alg_file):
        path = alg_file({"basis": ["a", "b", "c", "d"],
                         "levels": {"a": 1, "b": 2, "c": 3, "d": 4},
                         "products": ["a a -> b", "a b -> c", "b b -> d"]})
        code, _, err = run("embed", "--algebra", path, "--N", "8")
        assert code == 2
        assert "not associative on basis triple (a, a, b)" in err

    def test_filtration_violation_exits_2(self, run, alg_file):
        # x1*x1 = x2 but both sit at level 1, below 1 + 1.
        path = alg_file(dict(TRUNC2, levels={"x1": 1, "x2": 1}))
        code, out, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 2
        assert out == ""
        assert err == "error: filtration violation: x1*x1 contains x2 at level 1 < 2\n"

    @pytest.mark.parametrize("levels", [None, {"a": 1, "b": 2, "c": 4}],
                             ids=["power-chain", "levels"])
    def test_paused_power_chain_names_associativity_triple(self, run, alg_file, levels):
        # A^3 = A^4 = span{c} and A^5 = 0: the chain pauses, yet the algebra
        # is nilpotent; the fault is associativity, with or without levels.
        data = {"basis": ["a", "b", "c"], "products": ["a a -> b", "b b -> c"]}
        if levels is not None:
            data["levels"] = levels
        code, out, err = run("embed", "--algebra", alg_file(data), "--N", "8")
        assert code == 2
        assert out == ""
        assert "not associative on basis triple (a, a, b)" in err
        assert "not nilpotent" not in err

    @pytest.mark.parametrize("bound", ["1", "0", "-3"])
    def test_factor_bound_below_2_exits_2(self, capsys, alg_file, bound):
        # The certificate rests on the weight bound alone, so there is no
        # lcm factor cap to set: argparse rejects the flag as unknown.
        path = alg_file(TRUNC2)
        with pytest.raises(SystemExit) as exit_:
            main(["embed", "--algebra", path, "--N", "6", "--factor-bound", bound])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --factor-bound %s" % bound in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["embed", "collapse"])
    def test_json_error_names_the_file(self, run, tmp_path, verb):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        argv = (["embed", "--algebra", str(path), "--N", "4"] if verb == "embed" else
                ["verify", "collapse", "--algebra", str(path), "--bound", "4"])
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err == "error: %s: Expecting value: line 1 column 1 (char 0)\n" % path

    @pytest.mark.parametrize("verb", ["embed", "collapse"])
    def test_deeply_nested_json_names_the_file(self, run, tmp_path, verb):
        # json.loads raises RecursionError, not a decode error, on this.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        argv = (["embed", "--algebra", str(path), "--N", "4"] if verb == "embed" else
                ["verify", "collapse", "--algebra", str(path), "--bound", "4"])
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: maximum recursion depth exceeded" % path)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("reduce", "--relations", "f", "--input", "x"),
        ("embed", "--algebra", "f", "--N", "4"),
    ], ids=["relations", "algebra"])
    def test_undecodable_file_names_the_file(self, run, tmp_path, argv):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe(\x00a\x00")
        code, out, err = run(*(str(path) if a == "f" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err == ("error: %s: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n" % path)

    @pytest.mark.parametrize("verb", ["embed", "collapse"])
    def test_products_not_a_list_exits_2(self, run, alg_file, verb):
        path = alg_file({"basis": ["a"], "products": 5})
        argv = (["embed", "--algebra", path, "--N", "4"] if verb == "embed" else
                ["verify", "collapse", "--algebra", path, "--bound", "4"])
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err == "error: %s: 'products' must be a list of product entries\n" % path

    def test_truncation_too_small_exits_2(self, run, alg_file):
        path = alg_file(TRUNC2)
        code, _, err = run("embed", "--algebra", path, "--N", "3")
        assert code == 2
        assert "truncation too small" in err

    def test_zero_denominator_in_product_entry_exits_2(self, run, alg_file):
        path = alg_file({"basis": ["a", "b"], "products": ["a a -> 1/0 b"]})
        code, out, err = run("embed", "--algebra", path, "--N", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: bad coefficient '1/0' in product entry "
                              "'a a -> 1/0 b'" % path)
        assert "Traceback" not in err


# Bad input, each case as (file name, file text, argv, error), FILE
# standing for the file's path: one ``error:`` line, no output, exit 2.
COMPLETE = ("complete", "--relations", "FILE", "--bound", "3")
EMBED = ("embed", "--algebra", "FILE", "--N", "4")
BAD_INPUT = {
    "letter-not-atom": ("rels.sexp", "(alphabet (x) y)\n", COMPLETE,
                        "FILE: line 1, column 11: letters must be atoms"),
    "family-no-name": ("rels.sexp", "(alphabet x y)\n(family)\n", COMPLETE,
                       "FILE: line 2, column 1: (family name) takes exactly one name"),
    "family-two-names": ("rels.sexp", "(alphabet x y)\n(family zinbiel tail)\n", COMPLETE,
                         "FILE: line 2, column 1: (family name) takes exactly one name"),
    "rel-two-polynomials": ("rels.sexp", "(alphabet x y)\n(rel (x y) (y x))\n", COMPLETE,
                            "FILE: line 2, column 1: (rel polynomial) takes exactly one "
                            "polynomial"),
    "input-coefficient-word": ("rels.sexp", ZINBIEL3,
                               ("reduce", "--relations", "FILE", "--input", "(* (x y) x)"),
                               "line 1, column 4: expected a rational number"),
    "product-term-malformed": ("algebra.json",
                               '{"basis": ["a", "b"], "products": ["a a -> 1 2 b"]}', EMBED,
                               "FILE: malformed product term '1 2 b' in entry 'a a -> 1 2 b'"),
    "product-letter-unknown": ("algebra.json",
                               '{"basis": ["a", "b"], "products": ["a a -> 2 q"]}', EMBED,
                               "FILE: unknown letter 'q' in product entry 'a a -> 2 q'"),
    "levels-a-list": ("algebra.json",
                      '{"basis": ["a", "b"], "levels": [1, 2], "products": ["a a -> b"]}',
                      EMBED, "FILE: 'levels' must map letter names to positive integers"),
}


@pytest.mark.parametrize("name, text, argv, error", BAD_INPUT.values(), ids=list(BAD_INPUT))
def test_bad_input_exits_2(run, tmp_path, name, text, argv, error):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(*(str(path) if a == "FILE" else a for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % error.replace("FILE", str(path))


class TestReports:
    def test_json_structure(self, run):
        code, out, _ = run("verify", "odd-even", "--letters", "2",
                           "--m-max", "1", "--k-max", "2", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "verify odd-even"
        assert rep["status"] == "verified"
        assert rep["counts"] == [8]
        assert rep["failures"] == []
        assert rep["timings"] is None
        assert rep["parameters"]["m-max"] == 1
        assert rep["parameters"]["k-max"] == 2

    def test_byte_identical_without_timings(self, run):
        argv = ("verify", "rb", "--count", "3", "--max-n", "4", "--json")
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second

    def test_timings_included_on_request(self, run):
        code, out, _ = run("verify", "odd-even", "--letters", "2",
                           "--m-max", "1", "--k-max", "2", "--json", "--timings")
        assert code == 0
        rep = json.loads(out)
        assert isinstance(rep["timings"], dict)
        assert "total_s" in rep["timings"]

    def test_sorted_keys(self, run):
        _, out, _ = run("verify", "rb", "--count", "2", "--max-n", "4", "--json")
        rep = json.loads(out)
        assert list(rep) == sorted(rep)


# The flags are read from cli's flag table; the argparse parser they were
# read with before is the reference (tests/oracles.py).  Both must give the
# same namespace, or both exit with the same code, on every argv below: the
# old help and error cases, every argv of this file (file names and words
# written as f), the CI commands and malformed argvs.
_VALID = {
    "reduce": ["--relations", "r", "--input", "x"],
    "complete": ["--relations", "r", "--bound", "2"],
    "irr": ["--relations", "r", "--bound", "2"],
    "zmul": ["--left", "x", "--right", "y"],
    "verify": ["zinbiel"],
    "embed": ["--algebra", "a", "--N", "2"],
}

_TEST_ARGVS = """\
reduce --relations f --input f
reduce --relations f --input f --strategy smallest
complete --relations f --bound 4 --json
complete --relations f --bound 5 --interreduce --json
complete --relations f --bound 4 --interreduce --json
complete --relations f --bound 4
complete --relations f --bound 6
irr --relations f --bound 4
irr --relations f --bound 2 --words --json
irr --relations f --bound 5 --words
zmul --left f --right f
zmul --left f --right f --star
zmul --left f --right f --letters f
verify zinbiel --letters 2 --bound 4
verify trivial-envelope --letters 2 --bound 4
verify zinbiel --letters 2 --bound 5
verify zinbiel --letters 2 --bound 5 --json
verify trivial-envelope --letters 2 --bound 5 --no-completion
verify trivial-envelope --letters 2 --bound 5 --no-completion --json
verify trivial-envelope --letters 2 --bound 4 --no-completion --json
verify odd-even --letters 2 --m-max 3 --k-max 2
verify rb --count 5 --max-n 5
verify rb --count 20 --max-n 8 --json
verify rb --count 10 --max-n 8 --json
verify rb --count 10 --max-n 8
verify perm --dim 2 --triples 3 --max-degree 3
verify perm --dim 2 --triples 3 --max-degree 3 --json
verify collapse --algebra f --bound 4
verify zinbiel --letters 2
verify odd-even --letters 2 --m-max 3
verify zinbiel --letters 2 --bound 3 --count 7 --dim 9 --algebra f
verify trivial-envelope --letters 2 --bound 3 --m-max 3
verify odd-even --letters 2 --m-max 3 --k-max 2 --bound 4
verify collapse --algebra f --bound 3 --seed 5
verify rb --count 2 --max-n 3 --letters 2 --no-completion
verify perm --dim 2 --triples 1 --max-degree 1 --max-n 4
verify zinbiel --letters 2 --bound 3 --seed 0
verify trivial-envelope --letters 2 --bound 3 --no-completion
verify rb --count 2 --max-n 3 --seed 9
verify trivial-envelope --letters 2 --bound 3 --completion-bound 4
verify rb --count -1 --max-n 5
verify rb --count 0 --max-n 5
verify rb --count 5 --max-n 1
verify perm --dim 2 --triples -1 --max-degree 3
verify perm --dim 2 --triples 3 --max-degree 0
verify perm --dim 0 --triples 1 --max-degree 1
verify rb --count 1 --max-n 2
verify perm --dim 1 --triples 1 --max-degree 1
irr --relations f --bound 0
complete --relations f --bound 1
verify zinbiel --letters 2 --bound 0
verify trivial-envelope --letters 2 --bound 1
verify collapse --algebra f --bound 1
verify zinbiel --letters 0 --bound 3
verify trivial-envelope --letters -1 --bound 3
verify odd-even --letters 0 --m-max 3 --k-max 2
verify odd-even --letters 1 --m-max 0 --k-max 2
verify odd-even --letters 1 --m-max 2 --k-max 2
verify odd-even --letters 1 --m-max 1 --k-max 3
irr --relations f --bound 1
complete --relations f --bound 2
verify zinbiel --letters 1 --bound 2
verify trivial-envelope --letters 1 --bound 2
verify collapse --algebra f --bound 2
verify odd-even --letters 1 --m-max 1 --k-max 2
verify odd-even --letters 1 --m-max 1 --k-max 2 --seed 0
verify odd-even --letters 1 --m-max 1 --k-max 2 --seed 1
embed --algebra f --N 6
embed --algebra f --N 4
embed --algebra f --N 6 --json
embed --algebra f --N 10 --json
embed --algebra f --N 8
embed --algebra f --N 6 --factor-bound 1
embed --algebra f --N 6 --factor-bound 0
embed --algebra f --N 6 --factor-bound -3
embed --algebra f --N 3
verify odd-even --letters 2 --m-max 1 --k-max 2 --json
verify rb --count 3 --max-n 4 --json
verify odd-even --letters 2 --m-max 1 --k-max 2 --json --timings
verify rb --count 2 --max-n 4 --json
verify rb --count 20 --max-n 12 --json
verify perm --dim 2 --triples 8 --max-degree 3 --json
zmul --left f --right f --star --json
reduce --relations f --input f --json
complete --relations f --bound 8 --interreduce --json
embed --algebra f --N 8 --json
"""

_MALFORMED = [
    ["complete", "--relations=r", "--bound=2"],
    ["verify", "--letters", "2", "zinbiel", "--bound=3"],
    ["verify", "--json", "rb", "--count", "2", "--max-n", "3"],
    ["verify", "zinbiel", "rb"],
    ["verify", "--letters", "2"],
    ["verify", "-h", "zinbiel"],
    ["complete", "--relations", "r", "--bound", "2", "--bound", "3"],
    ["complete", "--relations", "r", "--bound", " 3 "],
    ["complete", "--relations", "r", "--bound", "1e3"],
    ["complete", "--relations", "r", "--bound="],
    ["complete", "--relations", "--bound", "2"],
    ["complete", "--relations", "r", "--bound"],
    ["complete", "--bound", "two", "--help"],
    ["complete", "--help", "--bound", "two"],
    ["complete", "--no-such-flag", "--help"],
    ["complete", "--relations", "r", "--bound", "2", "--interreduce=yes"],
    ["irr", "--relations", "r", "--bound", "2", "extra"],
    ["reduce", "--relations", "r", "--input", "-1.5"],
    ["reduce", "--relations", "r", "--input", "-"],
    ["reduce", "--relations", "r", "--input", "-x"],
    ["reduce", "--relations", "r", "--input="],
    ["reduce", "--relations", "r", "--input", "x", "-x"],
    ["embed", "--algebra", "a", "--N", "2", "-h"],
    ["embed", "--algebra", "a", "--N", "-2"],
    ["verify", "zinbiel", "--letters=-2", "--bound", "3"],
    ["-x"],
    ["--json"],
]

# Where the readers differ on purpose.  argparse accepts a unique prefix
# of a flag; the flag table accepts only the whole name, so a flag added
# later cannot change what an old abbreviation means.
_ABBREVIATED = [
    ["complete", "--rel", "r", "--bound", "2"],
    ["verify", "rb", "--cou", "2", "--max-n", "3"],
    ["embed", "--alg", "a", "--N", "2"],
]


def _unique(argvs):
    out = []
    for argv in argvs:
        if argv not in out:
            out.append(argv)
    return out


_PARSER_ARGVS = _unique(
    [[], ["--help"], ["-h"], ["no-such-verb"], ["--json", "complete"]]
    + [[verb, "--help"] for verb in _VALID]
    + [[verb] for verb in _VALID]
    + [[verb, *args, "--no-such-flag"] for verb, args in _VALID.items()]
    + [["complete", "--relations", "r", "--bound", "two"], ["verify", "no-such-target"]]
    + [line.split() for line in _TEST_ARGVS.splitlines()]
    + _MALFORMED
)


def _outcome(capsys, parse, argv):
    """The exit code (None if parse returned), the namespace's values
    (None if it exited), and what it printed."""
    try:
        code, values = None, vars(parse(list(argv)))
    except SystemExit as exc:
        code, values = exc.code, None
    out, err = capsys.readouterr()
    return code, values, out, err


def _load_workloads(monkeypatch):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)
    spec.loader.exec_module(module)
    return module


class TestParser:
    @pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
    def test_output_matches_full_parser(self, capsys, argv):
        code, values, out, err = _outcome(capsys, cli._parse, argv)
        want_code, want_values, _, want_err = _outcome(capsys, reference_parse, argv)
        assert (code, values) == (want_code, want_values)
        if code == 0:
            assert out.startswith("usage: precom") and err == ""
        elif code == 2:
            lines = err.splitlines()
            assert out == "" and len(lines) == 2
            assert lines[0].startswith("usage: precom") and lines[1].startswith("error: ")
            for line in want_err.splitlines():
                if "unrecognized arguments: " in line:
                    assert lines[1].endswith(line.partition(": error: ")[2])

    @pytest.mark.parametrize("argv", _ABBREVIATED, ids=" ".join)
    def test_abbreviations_are_not_flags(self, capsys, argv):
        assert _outcome(capsys, reference_parser().parse_args, argv)[0] is None
        code, _, out, err = _outcome(capsys, cli._parse, argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("error: ")

    def test_perfbench_jobs_match_full_parser(self, capsys, monkeypatch):
        workloads = _load_workloads(monkeypatch)
        parser = reference_parser()
        for name in workloads.NAMES:
            for seed in (1, 2):
                for job in workloads.plan(name, seed, 25):
                    argv = job.argv + ["--json"]
                    assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), job.id

    @pytest.mark.parametrize("verb", [None, *cli._TABLE])
    def test_help_lists_every_verb_and_flag(self, capsys, verb):
        code, _, out, err = _outcome(capsys, cli._parse, ["--help"] if verb is None
                                     else [verb, "--help"])
        assert code == 0 and err == ""
        words = out.split()
        for v, (_, _, flags, targets) in cli._TABLE.items():
            if verb is None:
                assert v in words
            elif v == verb:
                for name in [*flags, *cli._COMMON]:
                    assert "--" + name in words
                for target in targets:
                    assert target in words

    def test_table_is_consistent(self):
        verbs = dict(cli._TABLE)
        flags_of_verify = verbs["verify"][2]
        for verb, (summary, handler, flags, targets) in verbs.items():
            assert summary and callable(handler), verb
            for name, (kind, default, text, minimum) in {**flags, **cli._COMMON}.items():
                assert kind in (bool, int, str) and text, (verb, name)
                assert minimum is None or kind is int, (verb, name)
            for target, (handler, required, read) in targets.items():
                assert verb == "verify" and callable(handler), target
                assert set(required) <= set(flags_of_verify), target
                assert set(read) <= set(flags_of_verify), target
                assert not set(required) & set(read), target

    def test_verify_defaults_read_from_the_parser(self, run, capsys):
        # --seed 0 is its default, so odd-even accepts it; 1 is not.
        argv = ("verify", "odd-even", "--letters", "1", "--m-max", "1", "--k-max", "2")
        assert run(*argv, "--seed", "0")[0] == 0
        err = TestVerify.usage_error(capsys, *argv, "--seed", "1")
        assert err == VERIFY_USAGE + "\nerror: verify odd-even does not read --seed\n"


def _cyclic_garbage(argv):
    """The objects that a collection finds unreachable after ``main(argv)``
    ran with the collector off: the reference cycles the verb left.  The
    heap is unfrozen before each collection, so neither what an earlier
    ``main`` froze nor what this one freezes is hidden from it."""
    collecting = gc.isenabled()
    gc.disable()
    gc.unfreeze()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        gc.unfreeze()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()


class TestCollector:
    """``main`` runs a verb with the cyclic collector off, freezes the heap
    and restores the collector's state; the kernel leaves no reference
    cycles for it to find."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_restored_on_success(self, collecting, run):
        assert run("zmul", "--left", "x.y", "--right", "y")[0] == 0
        assert gc.isenabled() is collecting

    def test_restored_on_bad_input(self, collecting, run, tmp_path):
        code, _, err = run("reduce", "--relations", str(tmp_path / "missing.sexp"),
                           "--input", "x")
        assert code == 2 and err.startswith("error:")
        assert gc.isenabled() is collecting

    def test_off_while_reading_argv(self, collecting, monkeypatch, run):
        seen = []
        parse = cli._parse

        def recording(argv):
            seen.append(gc.isenabled())
            return parse(argv)

        monkeypatch.setattr(cli, "_parse", recording)
        assert run("zmul", "--left", "x", "--right", "y")[0] == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_restored_on_a_target_usage_error(self, collecting, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "zinbiel", "--letters", "2"])
        capsys.readouterr()
        assert gc.isenabled() is collecting

    def test_restored_when_a_handler_raises(self, collecting, monkeypatch):
        seen = []

        def boom(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        summary, _, flags, targets = cli._TABLE["zmul"]
        monkeypatch.setitem(cli._TABLE, "zmul", (summary, boom, flags, targets))
        with pytest.raises(RuntimeError, match="boom"):
            main(["zmul", "--left", "x", "--right", "y"])
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_off_while_printing(self, collecting, monkeypatch, run):
        seen = []

        def lines():
            seen.append(gc.isenabled())
            yield "done"

        summary, _, flags, targets = cli._TABLE["zmul"]
        monkeypatch.setitem(cli._TABLE, "zmul",
                            (summary, lambda args: (0, {}, lines()), flags, targets))
        assert run("zmul", "--left", "x", "--right", "y") == (0, "done\n", "")
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_an_error_while_printing_is_not_bad_input(self, collecting, monkeypatch):
        # Exit 2 means bad input; a failed write is not.
        def lines():
            raise BrokenPipeError("closed")
            yield

        summary, _, flags, targets = cli._TABLE["zmul"]
        monkeypatch.setitem(cli._TABLE, "zmul",
                            (summary, lambda args: (0, {}, lines()), flags, targets))
        with pytest.raises(BrokenPipeError):
            main(["zmul", "--left", "x", "--right", "y"])
        assert gc.isenabled() is collecting

    # The raw enveloping relations of the two-letter trivial algebra.
    ENVELOPE2 = ("(alphabet x y)\n(family zinbiel)\n"
                 "(rel (+ (x y) (y x)))\n(rel (x x))\n(rel (y y))\n")

    @staticmethod
    def assert_frozen(word, frozen_before):
        """``word`` is in the frozen generation, which grew in ``main``:
        no collection lists it until ``gc.unfreeze()``."""
        assert gc.is_tracked(word)
        assert gc.get_freeze_count() > frozen_before
        assert all(o is not word for o in gc.get_objects())
        gc.unfreeze()
        assert any(o is word for o in gc.get_objects())

    # Every relation file gets a fresh alphabet, so its words are new
    # and the last word hash-consed is one the verb built.
    @pytest.mark.parametrize("tree,code", [("((x y) ((y x) (x x)))", 0), ("(x z)", 2)],
                             ids=["success", "bad-input"])
    def test_frozen_after_reduce(self, collecting, run, rel_file, tree, code):
        path = rel_file(self.ENVELOPE2)
        built, frozen = len(magma._NODES), gc.get_freeze_count()
        assert run("reduce", "--relations", path, "--input", tree)[0] == code
        assert len(magma._NODES) > built
        self.assert_frozen(next(reversed(magma._NODES.values())), frozen)
        assert gc.isenabled() is collecting

    def test_frozen_when_a_handler_raises(self, collecting, monkeypatch):
        made = []

        def boom(args):
            x, y = (leaf(letter) for letter in Alphabet("xy"))
            made.append(node(x, y))
            raise RuntimeError("boom")

        summary, _, flags, targets = cli._TABLE["zmul"]
        monkeypatch.setitem(cli._TABLE, "zmul", (summary, boom, flags, targets))
        frozen = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="boom"):
            main(["zmul", "--left", "x", "--right", "y"])
        self.assert_frozen(made[0], frozen)
        assert gc.isenabled() is collecting

    def test_verbs_leave_no_precom_cycles(self, rel_file, alg_file):
        rels = rel_file(TRIVIAL2)
        env = rel_file(self.ENVELOPE2, "env.sexp")
        alg = alg_file(TRUNC2)
        verbs = [
            ["reduce", "--relations", rels, "--input", "(((x y) (y x)) ((y y) (x y)))"],
            ["complete", "--relations", env, "--bound", "5", "--interreduce"],
            ["irr", "--relations", rels, "--bound", "5", "--words"],
            ["verify", "zinbiel", "--letters", "2", "--bound", "5"],
            ["verify", "perm", "--dim", "2", "--triples", "3", "--max-degree", "3"],
            ["embed", "--algebra", alg, "--N", "6"],
            ["zmul", "--left", "x.y.x", "--right", "y.x", "--star"],
        ]
        for argv in verbs:
            garbage = _cyclic_garbage(argv)
            assert not [o for o in garbage if type(o).__module__.startswith("precom")], argv

    def test_cycles_do_not_grow_with_the_work(self, rel_file):
        # Bound 6 reduces 324 composition sites, bound 4 only 18.
        env = rel_file(self.ENVELOPE2)
        argv = ["complete", "--relations", env, "--bound"]
        _cyclic_garbage(argv + ["4"])
        assert len(_cyclic_garbage(argv + ["4"])) == len(_cyclic_garbage(argv + ["6"]))
