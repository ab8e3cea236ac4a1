"""The package's public names: each resolves to its submodule's object on
first use, and the set of names stays what it was when they were eager."""

import dicolor
from dicolor import certify, coloring, constructions, errors, families, graphs, sparse

# every name `import dicolor` gave before the names became lazy
PINNED = {
    coloring: [
        "CoverSolution", "chromatic_number", "dichromatic_lower_bound_mc",
        "dichromatic_number_exact", "digraph_chromatic_number", "digraph_fractional_chromatic",
        "fractional_chromatic_with_dual", "fractional_dichromatic", "fractional_independence",
    ],
    certify: [
        "BoundReport", "CertificateReport", "CertifiedOrientation", "certify_orientation",
        "check_binomial_bound", "cover_bound_certificate", "enumerate_principal_dense",
        "find_good_orientation", "union_bound_report",
    ],
    constructions: [
        "BlowUpMap", "EmbeddingWitness", "bicliques_all_cyclic", "biclique_condition", "blow_up",
        "complete_blowup_lower_bound", "complete_graph_lower_bound", "detect_complete_blowup",
        "kneser_blowup_embedding", "kneser_graph", "kneser_lower_bound",
        "kneser_recursion_inequalities", "orient_blowup_bicliques", "orient_complete_blowup",
        "verify_embedding",
    ],
    errors: [
        "BudgetExceededError", "ClassificationGapError", "DicolorError", "GraphFormatError",
        "HypothesesNotMetError", "InputError", "TriesExhaustedError",
    ],
    families: ["max_acyclic_weight", "maximal_acyclic_sets", "maximal_independent_sets"],
    graphs: [
        "Digraph", "Graph", "acyclic_orientation_bound", "acyclic_probability_bound",
        "average_degree", "complete_graph", "count_acyclic_orientations",
        "count_acyclic_orientations_fast", "cycle_graph", "derive_rng", "empty_graph",
        "is_acyclic", "is_forest", "mask_of", "bit_list", "orientations", "path_graph",
        "random_orientation", "star_graph",
    ],
    sparse: [
        "RankedOrder", "SparseSplit", "Weighting", "degeneracy_coloring", "find_principal_dense",
        "is_principal", "is_sparse", "ranked_order", "sparse_split",
    ],
}
NAMES = sorted(name for names in PINNED.values() for name in names)


def test_all_is_the_pinned_names():
    assert sorted(dicolor.__all__) == NAMES
    assert len(set(dicolor.__all__)) == len(dicolor.__all__) == 71


def test_each_name_is_its_submodules_object():
    for module, names in PINNED.items():
        for name in names:
            assert getattr(dicolor, name) is getattr(module, name), name


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(dicolor))


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "CONSTRUCT_VERTEX_BUDGET", "_MASK64"):
        assert not hasattr(dicolor, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from dicolor import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert namespace["kneser_graph"](5, 2).n == 10


def test_readme_quick_start():
    import dicolor as dc

    pet = dc.kneser_graph(5, 2)
    assert dc.chromatic_number(pet) == 3
    value, _, dual = dc.fractional_chromatic_with_dual(pet)
    assert str(value) == "5/2" and dual.total == value
