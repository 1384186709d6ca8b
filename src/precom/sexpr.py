"""Text formats: S-expression trees, dotted associative words, relation
files, and the JSON algebra description.

This module reads words, polynomials and dotted words, reads and writes
relation files, and reads algebra files.  It writes nothing else: a
word, a tree polynomial and a half-shuffle element each print their own
S-expression through ``repr``, and ``parse_poly`` reads the first two
back.

Words are S-expressions with letters as bare atoms: ``(x (y z))``.
Polynomials are ``(+ term ...)`` where a term is a word or ``(* p/q word)``.
Associative words are dotted: ``x.y.x``.  A relation file is a sequence
of forms::

    (alphabet x y)          ; ordered letters, required first
    (family zinbiel)        ; named relation families
    (rel (+ (x y) (y x)))   ; explicit relations, made monic on load

Algebra files are JSON: ``basis`` (ordered names), optional ``levels``,
and ``products`` entries like ``"x1 x1 -> 1/2 x2"``.  Both formats, and
the letters of dotted words, accept a letter name only if it reads back
as one letter: a single atom, not ``0`` or ``*``, with no ``+`` or ``->``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .envelope import CommAlgebra, TailFamily, trivial_gsb
from .magma import Alphabet, Letter, MagmaPoly, NaWord, leaf, node
from .rewrite import ExplicitRelation, RelationSchema, ZinbielFamily

__all__ = [
    "ParseError",
    "parse_poly",
    "parse_aword",
    "parse_relations",
    "format_relations",
    "parse_algebra",
]


class ParseError(ValueError):
    pass


class _Atom:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


class _Node:
    __slots__ = ("items", "line", "col")

    def __init__(self, items: list, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


Form = Union[_Atom, _Node]


def _tokenize(text: str):
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append((text[i:j], line, col))
            col += j - i
            i = j
    return out


def _read_forms(text: str) -> list:
    tokens = _tokenize(text)
    forms: list = []
    stack: list[_Node] = []
    for tok, line, col in tokens:
        if tok == "(":
            stack.append(_Node([], line, col))
        elif tok == ")":
            if not stack:
                raise ParseError("line %d, column %d: unmatched ')'" % (line, col))
            done = stack.pop()
            (stack[-1].items if stack else forms).append(done)
        else:
            (stack[-1].items if stack else forms).append(_Atom(tok, line, col))
    if stack:
        raise ParseError("line %d, column %d: unclosed '('"
                         % (stack[-1].line, stack[-1].col))
    return forms


def _one_form(text: str, what: str) -> Form:
    forms = _read_forms(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one %s, found %d forms"
                         % (what, len(forms)))
    return forms[0]


def _err(form: Form, message: str) -> ParseError:
    return ParseError("line %d, column %d: %s" % (form.line, form.col, message))


def _alphabet(names: list) -> Alphabet:
    """The alphabet of ``names``; raises ``ValueError`` on a name that
    does not read back as one letter in the relation and algebra
    formats, or in the S-expression of a sum of dotted words."""
    for name in names:
        if (name.split() != [name] or any(c in name for c in "();")
                or name in ("0", "*") or "+" in name or "->" in name):
            raise ValueError("letter name %r cannot be read back as a letter" % (name,))
    return Alphabet(names)


def _word_from_form(form: Form, alphabet: Alphabet) -> NaWord:
    # Postorder walk with an explicit stack, so the depth of a word is not
    # limited by the recursion limit: a node is visited once to check it
    # and push its factors, and once more to combine their words.
    stack = [(form, False)]
    done: list[NaWord] = []
    while stack:
        f, combine = stack.pop()
        if isinstance(f, _Atom):
            try:
                x = alphabet[f.text]
            except KeyError:
                raise _err(f, "unknown letter %r" % (f.text,)) from None
            done.append(leaf(x))
        elif combine:
            right = done.pop()
            done.append(node(done.pop(), right))
        else:
            if len(f.items) != 2:
                raise _err(f, "a word node takes exactly two subwords, got %d"
                           % len(f.items))
            stack.append((f, True))
            stack.append((f.items[1], False))
            stack.append((f.items[0], False))
    return done[0]


def _rational(form: Form) -> Fraction:
    if not isinstance(form, _Atom):
        raise _err(form, "expected a rational number")
    try:
        return Fraction(form.text)
    except (ValueError, ZeroDivisionError):
        raise _err(form, "not a rational number: %r" % (form.text,)) from None


def _is_head(form: Form, symbol: str) -> bool:
    return (isinstance(form, _Node) and form.items
            and isinstance(form.items[0], _Atom)
            and form.items[0].text == symbol)


def _term_from_form(form: Form, alphabet: Alphabet):
    if _is_head(form, "*"):
        if len(form.items) != 3:
            raise _err(form, "(* coeff word) takes exactly two arguments")
        return _word_from_form(form.items[2], alphabet), _rational(form.items[1])
    return _word_from_form(form, alphabet), Fraction(1)


def _poly_from_form(form: Form, alphabet: Alphabet) -> MagmaPoly:
    if isinstance(form, _Atom) and form.text == "0":
        return MagmaPoly.zero()
    if _is_head(form, "+"):
        return MagmaPoly.from_terms(
            _term_from_form(f, alphabet) for f in form.items[1:])
    return MagmaPoly.from_terms([_term_from_form(form, alphabet)])


def parse_poly(text: str, alphabet: Alphabet) -> MagmaPoly:
    return _poly_from_form(_one_form(text, "polynomial"), alphabet)


def parse_aword(text: str, alphabet: Alphabet) -> tuple:
    names = text.strip().split(".")
    if not names or names == [""]:
        raise ParseError("empty associative word")
    out = []
    for name in names:
        if not name:
            raise ParseError("empty letter name in %r" % text)
        try:
            out.append(alphabet[name])
        except KeyError:
            raise ParseError("unknown letter %r in %r" % (name, text)) from None
    return tuple(out)


_FAMILIES = {
    "zinbiel": lambda ab: [ZinbielFamily(ab)],
    "tail": lambda ab: [TailFamily(ab)],
    "trivial-envelope": trivial_gsb,
}


def parse_relations(text: str):
    """A relation file -> (alphabet, list of relation schemas)."""
    forms = _read_forms(text)
    if not forms:
        raise ParseError("empty relation file")
    head = forms[0]
    if not _is_head(head, "alphabet"):
        raise _err(head, "first form must be (alphabet letter ...)")
    names = []
    for f in head.items[1:]:
        if not isinstance(f, _Atom):
            raise _err(f, "letters must be atoms")
        names.append(f.text)
    if not names:
        raise _err(head, "alphabet must list at least one letter")
    try:
        alphabet = _alphabet(names)
    except ValueError as e:
        raise _err(head, str(e)) from None

    relations: list[RelationSchema] = []
    for form in forms[1:]:
        if _is_head(form, "family"):
            if len(form.items) != 2 or not isinstance(form.items[1], _Atom):
                raise _err(form, "(family name) takes exactly one name")
            name = form.items[1].text
            if name not in _FAMILIES:
                raise _err(form.items[1], "unknown family %r; known: %s"
                           % (name, ", ".join(sorted(_FAMILIES))))
            relations.extend(_FAMILIES[name](alphabet))
        elif _is_head(form, "rel"):
            if len(form.items) != 2:
                raise _err(form, "(rel polynomial) takes exactly one polynomial")
            poly = _poly_from_form(form.items[1], alphabet)
            if not poly:
                raise _err(form, "relation polynomial is zero")
            relations.append(ExplicitRelation(poly))
        else:
            raise _err(form, "expected (family ...) or (rel ...)")
    return alphabet, relations


def format_relations(alphabet: Alphabet, relations) -> str:
    """Inverse of parse_relations for explicit relations; named families
    are written back as (family ...) forms."""
    lines = ["(alphabet %s)" % " ".join(x.name for x in alphabet.letters)]
    for r in relations:
        if isinstance(r, ZinbielFamily):
            lines.append("(family zinbiel)")
        elif isinstance(r, TailFamily):
            lines.append("(family tail)")
        elif isinstance(r, ExplicitRelation):
            lines.append("(rel %r)" % (r.poly,))
        else:
            raise ValueError("cannot format relation %r" % (r,))
    return "\n".join(lines) + "\n"


def _combo_from_text(rhs: str, alphabet: Alphabet, entry: str) -> dict:
    rhs = rhs.strip()
    if rhs == "0":
        return {}
    combo: dict[Letter, Fraction] = {}
    for part in rhs.split("+"):
        toks = part.split()
        if len(toks) == 1:
            c, name = Fraction(1), toks[0]
        elif len(toks) == 2:
            try:
                c = Fraction(toks[0])
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad coefficient %r in product entry %r"
                                 % (toks[0], entry)) from None
            name = toks[1]
        else:
            raise ParseError("malformed product term %r in entry %r"
                             % (part.strip(), entry))
        try:
            x = alphabet[name]
        except KeyError:
            raise ParseError("unknown letter %r in product entry %r"
                             % (name, entry)) from None
        combo[x] = combo.get(x, Fraction(0)) + c
    return {x: c for x, c in combo.items() if c}


def parse_algebra(data: dict):
    """A JSON algebra description -> (CommAlgebra, levels-or-None)."""
    if not isinstance(data, dict):
        raise ParseError("algebra description must be a JSON object")
    names = data.get("basis")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ParseError("'basis' must be a list of letter names")
    try:
        alphabet = _alphabet(names)
    except ValueError as e:
        raise ParseError(str(e)) from None

    entries = data.get("products", [])
    if not isinstance(entries, list):
        raise ParseError("'products' must be a list of product entries")
    products = {}
    for entry in entries:
        if not isinstance(entry, str) or "->" not in entry:
            raise ParseError("product entries look like 'x y -> 1/2 z'; got %r"
                             % (entry,))
        lhs, rhs = entry.split("->", 1)
        toks = lhs.split()
        if len(toks) != 2:
            raise ParseError("left side of %r must name exactly two letters"
                             % (entry,))
        try:
            x, y = alphabet[toks[0]], alphabet[toks[1]]
        except KeyError as e:
            raise ParseError("unknown letter %s in product entry %r"
                             % (e.args[0], entry)) from None
        if x.rank > y.rank:
            x, y = y, x
        combo = _combo_from_text(rhs, alphabet, entry)
        if (x, y) in products:
            raise ParseError("duplicate product entry for %s %s" % (x.name, y.name))
        products[(x, y)] = combo  # zero entries too, so a later copy is a duplicate

    levels = None
    if "levels" in data and data["levels"] is not None:
        raw = data["levels"]
        if not isinstance(raw, dict):
            raise ParseError("'levels' must map letter names to positive integers")
        levels = {}
        for name, k in raw.items():
            try:
                x = alphabet[name]
            except KeyError:
                raise ParseError("unknown letter %r in levels" % (name,)) from None
            # JSON true/false parse as bools, which are ints in Python.
            if type(k) is not int or k < 1:
                raise ParseError("level of %r must be a positive integer" % (name,))
            levels[x] = k
        missing = [x.name for x in alphabet.letters if x not in levels]
        if missing:
            raise ParseError("levels missing for: %s" % ", ".join(missing))
    return CommAlgebra(alphabet, {k: c for k, c in products.items() if c}), levels
