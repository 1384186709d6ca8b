"""Letters, non-associative words, and exact tree polynomials.

A non-associative word is a binary tree with letters at the leaves.  Words
are compared by the length-first weight order: shorter words come first;
equally long compound words compare their right factors, then their left
factors, recursively; single letters compare by alphabet rank.  The order
is total, multiplicative (u < v implies wu < wv and uw < vw for every w),
and well founded on words of bounded length.

Words are hash-consed: structurally equal words are the same Python
object, so equality is identity and dictionary lookups never walk a tree.
Build words through :func:`leaf`, :func:`node` and :func:`comb`, never
through the raw ``NaWord`` constructor.

Words order by their ``key`` alone.  Up to ``_FLAT_KEY_LENGTH`` letters
it is a ``str``, the word written in preorder: a compound word of n
letters is ``chr(n)``, then its right factor's key, then its left
factor's; a leaf is ``chr(1)`` and its letter's ``char``, the code that
also spells the letter in a half-shuffle word.  The code is prefix-free,
each field orders like the value it writes, and no two letters of the
process share a ``char``, so one string comparison of two keys gives the
weight order and equal keys mean equal words.  A longer word gets a
``_DeepKey`` of constant size, which compares in the same order with an
explicit stack, so comparing deep words never depends on the recursion
limit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .lincomb import LinComb

__all__ = [
    "Letter",
    "Alphabet",
    "NaWord",
    "MagmaPoly",
    "leaf",
    "node",
    "comb",
]

# Longest word whose key is a string.  Each such key copies its factors'
# keys, so a comb of n letters would hold O(n^2) characters of keys;
# above this length a word gets a _DeepKey of constant size.
_FLAT_KEY_LENGTH = 64

# Every letter of the process, at the code point of its ``char``.
_LETTERS: list["Letter"] = []


class Letter:
    """A generator with a fixed rank in its alphabet's total order.

    ``char`` is the one-character string that stands for the letter in
    both word models: in a tree word's key (after ``chr(1)``) and in a
    half-shuffle word (``shuffle.encode_word``).  Its code point is the
    letter's index in the process-wide ``_LETTERS``, so no two letters
    share it, and an alphabet creates its letters in rank order, so a
    higher rank has a higher code point."""

    __slots__ = ("name", "rank", "char")

    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = rank
        self.char = chr(len(_LETTERS))
        _LETTERS.append(self)

    def __repr__(self) -> str:
        return self.name

    # Identity equality and hashing are intentional: letters are created
    # once by their alphabet, and distinct alphabets stay distinct.
    def __lt__(self, other: "Letter") -> bool:
        return self.rank < other.rank


class Alphabet:
    """A finite ordered alphabet; letter ranks are contiguous from zero."""

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must not be empty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate letter names: %r" % (names,))
        self.letters = tuple(Letter(n, i) for i, n in enumerate(names))
        self._by_name = {x.name: x for x in self.letters}

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, key) -> Letter:
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise KeyError("no letter named %r" % key) from None
        return self.letters[key]

    def __repr__(self) -> str:
        return "Alphabet(%s)" % " < ".join(x.name for x in self.letters)


class NaWord:
    """A non-associative word (binary tree over letters), hash-consed.

    Attributes:
        letter:  the letter at a leaf, or None for a compound word
        left, right:  the factors of a compound word, or None at a leaf
        length:  number of leaves
        key:  sort key realizing the weight order: the string
            ``chr(length)`` + right key + left key, or ``chr(1)`` + the
            letter's ``char`` at a leaf; a ``_DeepKey`` above
            ``_FLAT_KEY_LENGTH`` letters
        is_comb:  True when the word is left-combed, i.e. every right
            factor along the left spine is a single letter
    """

    __slots__ = ("letter", "left", "right", "length", "key", "is_comb")

    def __init__(self, letter, left, right, length, key, is_comb):
        self.letter = letter
        self.left = left
        self.right = right
        self.length = length
        self.key = key
        self.is_comb = is_comb

    def __repr__(self) -> str:
        # The S-expression of the word, written with an explicit stack of
        # the words still to write and the text that closes their brackets,
        # so a deep word does not depend on the recursion limit.
        out = []
        stack: list = [self]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                out.append(x)
            elif x.letter is not None:
                out.append(x.letter.name)
            else:
                out.append("(")
                stack += (")", x.right, " ", x.left)
        return "".join(out)

    def subtrees(self) -> Iterator[tuple[tuple[int, ...], "NaWord"]]:
        """Yield (path, subword) pairs in preorder: root, left, right.

        Paths are tuples over {0, 1}; 0 steps into the left factor.
        """
        stack = [((), self)]
        while stack:
            path, w = stack.pop()
            yield path, w
            if w.letter is None:
                stack.append((path + (1,), w.right))
                stack.append((path + (0,), w.left))


class _DeepKey:
    """The sort key of a word longer than ``_FLAT_KEY_LENGTH`` letters.

    Orders like a string key (length, right key, left key) but walks the
    two words with an explicit stack.  Every string key belongs to a
    shorter word, so a deep key is greater than any of them.
    """

    __slots__ = ("length", "left", "right")

    def __init__(self, length: int, left: "NaWord", right: "NaWord"):
        self.length = length
        self.left = left
        self.right = right

    def _cmp(self, other) -> int:
        if type(other) is not _DeepKey:
            return 1
        if self.length != other.length:
            return -1 if self.length < other.length else 1
        # Word pairs still to compare; right factors first: pushed last,
        # popped first.
        stack = [(self.left, other.left), (self.right, other.right)]
        while stack:
            u, v = stack.pop()
            if u is v:
                continue
            if u.length != v.length:
                return -1 if u.length < v.length else 1
            if u.length <= _FLAT_KEY_LENGTH:
                if u.key == v.key:
                    continue
                return -1 if u.key < v.key else 1
            stack.append((u.left, v.left))
            stack.append((u.right, v.right))
        return 0

    def __eq__(self, other) -> bool:
        return self._cmp(other) == 0

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0


_LEAVES: dict[Letter, NaWord] = {}
_NODES: dict[tuple[NaWord, NaWord], NaWord] = {}


def leaf(letter: Letter) -> NaWord:
    """The one-letter word."""
    w = _LEAVES.get(letter)
    if w is None:
        w = NaWord(letter, None, None, 1, "\x01" + letter.char, True)
        _LEAVES[letter] = w
    return w


def node(left: NaWord, right: NaWord) -> NaWord:
    """The product word (left right)."""
    pair = (left, right)
    w = _NODES.get(pair)
    if w is None:
        n = left.length + right.length
        # Weight key: length first, then right factor, then left factor.
        key = (chr(n) + right.key + left.key if n <= _FLAT_KEY_LENGTH
               else _DeepKey(n, left, right))
        w = NaWord(None, left, right, n, key, left.is_comb and right.letter is not None)
        _NODES[pair] = w
    return w


def comb(letters: Iterable[Letter]) -> NaWord:
    """The left comb spelling out a letter sequence: ``comb([x, y, z])``
    is ((x y) z)."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("comb of empty letter sequence")
    w = leaf(letters[0])
    for x in letters[1:]:
        w = node(w, leaf(x))
    return w


def _format_terms(pairs, fmt) -> str:
    """The S-expression of a combination from its (monomial, coefficient)
    pairs in print order, each monomial written by ``fmt``: ``0``, one
    monomial alone, or ``(+ term ...)`` with the term ``(* c monomial)``
    for a coefficient c other than 1."""
    parts = []
    for w, c in pairs:
        if c == 1:
            parts.append(fmt(w))
        else:
            parts.append("(* %s %s)" % (c, fmt(w)))
    if not parts:
        return "0"
    if len(parts) == 1 and not parts[0].startswith("(*"):
        return parts[0]
    return "(+ %s)" % " ".join(parts)


class MagmaPoly(LinComb):
    """A finite rational combination of non-associative words, ordered by
    the weight order; the arithmetic and exactness rules are
    :class:`~precom.lincomb.LinComb`'s.  Its repr is the S-expression of
    relation files and the ``reduce`` verb, terms in decreasing order."""

    __slots__ = ()

    def __repr__(self) -> str:
        return _format_terms(self.sorted_terms(), repr)
