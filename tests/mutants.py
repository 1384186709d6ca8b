"""The standing mutant suite: each known defect must stay caught.

Each entry of ``MUTANTS`` is a defect once found in this library,
written as a text patch ``(file, old text, new text, test files)``.  For
each mutant in turn, the runner copies ``src/``, ``tests/`` and
``perfbench/`` (which ``tests/test_cli.py`` reads) into a fresh
temporary directory, replaces the one occurrence of ``old text`` in
``file`` with ``new text``, and runs ``python -m pytest -x -q`` on the
named test files there, under a wall-clock timeout and an address-space
limit set in the child alone.  A failing test (a ``MemoryError``
raised in one included) or a timeout kills the mutant; a run that passes
lets it survive.  A run that ends any other way, say because the patch
breaks import or collection, exercised no test and caught nothing: the
mutant is reported as broken.  First, the unpatched copy must pass every
named test file under the same limits, or a kill would prove nothing.

Run from anywhere, with only the standard library and pytest:

    python tests/mutants.py

It runs every mutant, prints each one's outcome, wall time and first
failing test, and exits 1 naming the survivors and the broken ones, 2 if
the unpatched copy fails.  Mend a survivor with a stronger test, never
by weakening or deleting the mutant.  Tier-1 runs no mutant: ``tests/test_mutants.py`` checks only
that every ``old text`` occurs exactly once in its file, so a refactor
carries its mutants along.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench")
TIMEOUT_S = 300
ADDRESS_SPACE = 2 << 30

REWRITE = "src/precom/rewrite.py"
MAGMA = "src/precom/magma.py"

# name: (file, old text, new text, test files)
MUTANTS = {
    # matches lists a polynomial once per family copy that produces it, so
    # a second copy of a family owns its instances too.
    "family-copies-match": (
        REWRITE, "if m is not None and all(q != m for _, q in found):",
        "if m is not None:", ["tests/test_rewrite.py"]),
    # Every explicit relation is filed, one equal to a family instance or
    # to an explicit relation before it included.
    "file-every-explicit": (
        REWRITE, "if all(q != s.poly for _, q in self.matches(s.lead)):", "if True:",
        ["tests/test_rewrite.py"]),
    # A leaf key without its length character: a letter no longer sorts
    # below every compound word.
    "leaf-key-unlengthed": (
        MAGMA, '"\\x01" + letter.char', "letter.char", ["tests/test_acceptance.py"]),
    # A compound key that writes the left factor first.
    "node-key-left-first": (
        MAGMA, "chr(n) + right.key + left.key", "chr(n) + left.key + right.key",
        ["tests/test_acceptance.py"]),
    # Letters created in reverse rank order: code points fall as ranks rise.
    "letters-reversed": (
        MAGMA, "self.letters = tuple(Letter(n, i) for i, n in enumerate(names))",
        "self.letters = tuple(reversed([Letter(n, i) for i, n in reversed(list(enumerate(names)))]))",
        ["tests/test_magma.py"]),
    # descend accepts a rewrite that climbs.
    "no-descent-check": (
        "src/precom/lincomb.py", "if not nm.key < km:", "if False:", ["tests/test_descend.py"]),
    # The redex memo's up-pass stores the other step.
    "memo-other-step": (
        REWRITE, "hit = memo[w] = step", "hit = memo[w] = RIGHT - step",
        ["tests/test_rewrite.py"]),
    # add_explicit keeps a stale first-redex entry for the new leading word.
    "stale-first-redex": (
        REWRITE, "self.first.pop(lead, None)", "pass", ["tests/test_rewrite.py"]),
    # An added relation is not pushed at the subwords that the index filed.
    "no-inclusion-push": (
        REWRITE, "search.containing.get(pl, ())", "()", ["tests/test_rewrite.py"]),
    # note files one path per (subword, outer relation) pair.  No answer
    # moves (see _Sites.note), only the stats pin test_family_last_stats.
    "one-path-per-pair": (
        REWRITE, "                self.containing.setdefault(sub, []).append((pos, lead, path))",
        "                at = self.containing.setdefault(sub, [])\n"
        "                if all(entry[:2] != (pos, lead) for entry in at):\n"
        "                    at.append((pos, lead, path))",
        ["tests/test_rewrite.py"]),
    # initial forms no root site.
    "no-root-site": (REWRITE, "if g != f]", "if False]", ["tests/test_rewrite.py"]),
    # of_inner leaves out the longest left factors.
    "short-left-factors": (
        REWRITE, "for row in self.left[1:top + 1]:", "for row in self.left[1:top]:",
        ["tests/test_rewrite.py"]),
    # Criterion F queues one S-pair per weight of lcm / lead, not per lcm.
    "criterion-f-by-weight": (
        "src/precom/compoly.py",
        "if extra in queued:\n"
        "                    same_lcm += 1\n"
        "                else:\n"
        "                    queued.add(extra)",
        "if extra.weight in queued:\n"
        "                    same_lcm += 1\n"
        "                else:\n"
        "                    queued.add(extra.weight)",
        ["tests/test_compoly.py"]),
    # The Zinbiel family with the tail (ab)c - (ba)c.
    "wrong-zinbiel-tail": (
        REWRITE, "{word: 1, ab: -1, ba: -1}", "{word: 1, ab: -1, ba: 1}",
        ["tests/test_acceptance.py"]),
}


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tests(patch, tests: list[str]) -> tuple[str, float, str]:
    """Copy the tree, apply ``patch`` (a mutant entry, or None) and run
    ``tests`` there: (outcome, wall seconds, first failing test or how
    the run ended).  The outcome is "passed", "killed" (a test failed or
    the run timed out) or "broken" (pytest ended otherwise)."""
    with tempfile.TemporaryDirectory(prefix="precom-mutant-") as tmp:
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        if patch is not None:
            path, old, new, _ = patch
            with open(os.path.join(tmp, path), encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                raise SystemExit("%s: old text occurs %d times" % (path, text.count(old)))
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
        except subprocess.TimeoutExpired:
            return "killed", time.monotonic() - t0, "timeout after %d s" % TIMEOUT_S
        wall = time.monotonic() - t0
        first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
        how = first.group(1) if first else "exit %d" % proc.returncode
        # pytest exits 1 exactly when a collected test failed.
        return {0: "passed", 1: "killed"}.get(proc.returncode, "broken"), wall, how


def main() -> int:
    files = sorted({f for entry in MUTANTS.values() for f in entry[3]})
    t0 = time.monotonic()
    outcome, wall, how = run_tests(None, files)
    print("%-24s %-8s %6.1f s  %s" % ("(unpatched)", outcome, wall, how), flush=True)
    if outcome != "passed":
        return 2
    uncaught = []
    for name, entry in MUTANTS.items():
        outcome, wall, how = run_tests(entry, entry[3])
        if outcome != "killed":
            uncaught.append("%s (%s)" % (name, "survived" if outcome == "passed" else outcome))
        print("%-24s %-8s %6.1f s  %s" % (name, outcome, wall, how), flush=True)
    print("%d mutants, %d not killed, %.1f s" % (len(MUTANTS), len(uncaught),
                                                 time.monotonic() - t0))
    if uncaught:
        print("not killed: %s" % ", ".join(uncaught))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
