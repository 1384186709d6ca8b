"""Exact rewriting in free non-associative and pre-commutative (Zinbiel)
algebras, with power-series embeddings of filtered commutative algebras.

The layers, bottom up:

``lincomb``
    exact sparse linear combinations (the base of the tree, word and
    commutative polynomial types), the shared largest-first reducer,
    and a sparse exact eliminator;
``magma``
    letters, binary tree words with a length-then-right-factor order,
    and polynomials over them;
``rewrite``
    subtree rewriting, normal forms, confluence checks, bounded
    completion, and irreducible-word enumeration;
``shuffle``
    the free pre-commutative algebra on associative words and the
    Perm-tensor check, with no tree word or rewrite;
``envelope``
    enveloping relations of commutative algebras and the verification
    drivers around the trivial, idempotent, and truncated-power cases;
``compoly`` / ``embed``
    commutative polynomials in weighted symbols, the scaled integer
    series behind the Rota-Baxter check and the embedding verifier;
``sexpr`` / ``cli``
    the text formats and the ``precom`` command.

``import precom`` loads every layer but ``sexpr`` and ``cli``, which
arrive with ``precom.cli``, and binds no other name: each name is
imported from the module that defines it, as in
``from precom.rewrite import complete``.
"""

from . import compoly, embed, envelope, lincomb, magma, rewrite, shuffle
