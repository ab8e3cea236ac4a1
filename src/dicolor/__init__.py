"""Exact and randomized toolkit for graph coloring invariants.

Computes chromatic, dichromatic, and fractional chromatic numbers of
small graphs and digraphs exactly (rational LP, subset covers, full
orientation enumeration), provides the weighted principal/sparse vertex
set machinery with its dense-layer decomposition, certifies orientations
against principal dense sets with seeded Monte Carlo, and builds Kneser
graphs, blow-ups, and their embeddings together with the closed-form
bound evaluators.
"""

from .coloring import (
    CoverSolution,
    chromatic_number,
    dichromatic_lower_bound_mc,
    dichromatic_number_exact,
    digraph_chromatic_number,
    digraph_fractional_chromatic,
    fractional_chromatic_with_dual,
    fractional_dichromatic,
    fractional_independence,
)
from .certify import (
    BoundReport,
    CertificateReport,
    CertifiedOrientation,
    certify_orientation,
    check_binomial_bound,
    cover_bound_certificate,
    enumerate_principal_dense,
    find_good_orientation,
    union_bound_report,
)
from .constructions import (
    BlowUpMap,
    EmbeddingWitness,
    bicliques_all_cyclic,
    biclique_condition,
    blow_up,
    complete_blowup_lower_bound,
    complete_graph_lower_bound,
    detect_complete_blowup,
    kneser_blowup_embedding,
    kneser_graph,
    kneser_lower_bound,
    kneser_recursion_inequalities,
    orient_blowup_bicliques,
    orient_complete_blowup,
    verify_embedding,
)
from .errors import (
    BudgetExceededError,
    ClassificationGapError,
    DicolorError,
    GraphFormatError,
    HypothesesNotMetError,
    InputError,
    TriesExhaustedError,
)
from .families import max_acyclic_weight, maximal_acyclic_sets, maximal_independent_sets
from .graphs import (
    Digraph,
    Graph,
    acyclic_orientation_bound,
    acyclic_probability_bound,
    average_degree,
    complete_graph,
    count_acyclic_orientations,
    count_acyclic_orientations_fast,
    cycle_graph,
    derive_rng,
    empty_graph,
    is_acyclic,
    is_forest,
    mask_of,
    bit_list,
    orientations,
    path_graph,
    random_orientation,
    star_graph,
)
from .sparse import (
    RankedOrder,
    SparseSplit,
    Weighting,
    degeneracy_coloring,
    find_principal_dense,
    is_principal,
    is_sparse,
    ranked_order,
    sparse_split,
)

__version__ = "0.1.0"
