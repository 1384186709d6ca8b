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
"""

from .magma import (
    Alphabet,
    Letter,
    MagmaPoly,
    NaWord,
    comb,
    leaf,
    node,
)
from .rewrite import (
    ExplicitRelation,
    GsbReport,
    RelationSchema,
    ZinbielFamily,
    complete,
    graft,
    interreduce,
    irreducible_counts,
    irreducible_words,
    normal_form,
    normal_forms,
    normal_form_with_trace,
    occurrences,
    replay_trace,
    substitute,
    verify_gsb,
)
from .shuffle import (
    PermTensorReport,
    ZinbElement,
    perm_tensor_check,
    random_element,
    star,
    zinbiel_product,
)
from .envelope import (
    BasisReport,
    CollapseReport,
    CommAlgebra,
    OddEvenReport,
    TailFamily,
    collapse_check,
    default_alphabet,
    enveloping_relations,
    idempotent_algebra,
    odd_even_zero_sweep,
    trivial_algebra,
    trivial_envelope_dimension,
    trivial_gsb,
    truncated_power_algebra,
    verify_trivial_envelope,
    verify_zinbiel_basis,
)
from .compoly import (
    BuchbergerReport,
    ComBasis,
    ComMonomial,
    ComPoly,
    GenSymbol,
    buchberger_bounded,
    com_reduce,
)
from .embed import (
    EmbeddingReport,
    FilteredAlgebra,
    pair_relation,
    series_product,
    standard_filtration,
    verify_embedding,
    verify_rota_baxter,
)

__version__ = "0.1.0"
