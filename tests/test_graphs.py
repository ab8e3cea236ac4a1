"""Graph/digraph representation, acyclicity, and orientation-count bounds."""

import math
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dicolor.errors import BudgetExceededError, InputError
from dicolor.graphs import (
    Digraph,
    Graph,
    acyclic_orientation_bound,
    acyclic_probability_bound,
    average_degree,
    blocks,
    complete_graph,
    count_acyclic_orientations,
    count_acyclic_orientations_fast,
    cycle_graph,
    derive_rng,
    is_acyclic,
    is_forest,
    mask_of,
    orientations,
    path_graph,
    random_orientation,
    star_graph,
)

from oracles import dfs_has_cycle


def test_graph_invariants_enforced():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])
    G = Graph(3, [(2, 0), (0, 1)])
    assert G.edges == ((0, 1), (0, 2))
    assert G.adj[0] == 0b110


def test_average_degree_examples():
    assert average_degree(cycle_graph(4)) == 2
    assert average_degree(complete_graph(4), 0b0111) == 2
    assert average_degree(path_graph(3)) == Fraction(4, 3)
    with pytest.raises(InputError):
        average_degree(path_graph(3), 0)


def test_is_acyclic_examples():
    K3 = complete_graph(3)
    cyc = Digraph.from_arcs(K3, [(0, 1), (1, 2), (2, 0)])
    assert not is_acyclic(cyc)
    assert is_acyclic(cyc, 0b011)
    assert is_acyclic(cyc, 0)
    K4 = complete_graph(4)
    trans = Digraph.from_arcs(K4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert is_acyclic(trans)


def test_is_acyclic_matches_dfs_oracle():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        D = random_orientation(G, rng.randrange(2**32))
        S = rng.getrandbits(n)
        assert is_acyclic(D, S) == (not dfs_has_cycle(n, D.arcs(), S))


def test_is_acyclic_monotone_under_subsets():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        G = Graph(n, edges)
        D = random_orientation(G, rng.randrange(2**32))
        S = rng.getrandbits(n)
        sub = S & rng.getrandbits(n)
        if is_acyclic(D, S):
            assert is_acyclic(D, sub)


def test_random_orientation_deterministic_and_size():
    G = cycle_graph(5)
    assert random_orientation(G, 42) == random_orientation(G, 42)
    assert random_orientation(G, 42).bits != random_orientation(G, 43).bits or True
    D = random_orientation(G, 7)
    assert len(D.arcs()) == len(G.edges)


def test_random_orientation_single_edge_frequency():
    E = Graph(2, [(0, 1)])
    rng = derive_rng(0, 2)
    n = 10_000
    heads = sum(random_orientation(E, rng).bits for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(heads - n / 2) <= 3 * sigma


def _same_digraphs(got, expected):
    assert got == expected
    assert [(D.graph, D.bits, D.in_masks) for D in got] == [
        (D.graph, D.bits, D.in_masks) for D in expected
    ]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.data())
def test_orientations_equal_the_constructor_for_every_code(n, data):
    # the carried in-masks: every yielded digraph is Digraph(G, code)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in data.draw(st.permutations(pairs)) if data.draw(st.booleans())][:11]
    G = Graph(n, edges)
    _same_digraphs(list(orientations(G)), [Digraph(G, c) for c in range(1 << len(G.edges))])


def test_orientations_of_edgeless_graphs():
    for n in (0, 1, 4):
        G = Graph(n, [])
        _same_digraphs(list(orientations(G)), [Digraph(G, 0)])
    assert [D.in_masks for D in orientations(Graph(0, []))] == [()]


def test_count_acyclic_orientations_examples():
    assert count_acyclic_orientations(complete_graph(3)) == 6
    assert count_acyclic_orientations(path_graph(3)) == 4
    assert count_acyclic_orientations(cycle_graph(4)) == 14
    with pytest.raises(BudgetExceededError):
        count_acyclic_orientations(complete_graph(8))


def test_fast_count_matches_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        assert count_acyclic_orientations_fast(G) == count_acyclic_orientations(G)
    # complete graphs: acyclic orientations are exactly the linear orders
    for n in range(1, 8):
        assert count_acyclic_orientations_fast(complete_graph(n)) == math.factorial(n)


def test_orientation_bound_examples():
    assert acyclic_orientation_bound(complete_graph(3)) == 27
    assert acyclic_orientation_bound(star_graph(3)) == 32
    assert acyclic_orientation_bound(cycle_graph(4)) == 81


def test_orientation_bound_random_graphs():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        assert count_acyclic_orientations_fast(G) <= acyclic_orientation_bound(G)


def test_acyclic_probability_bound_values():
    assert abs(acyclic_probability_bound(complete_graph(8)) - 0.0625) < 1e-12
    assert abs(acyclic_probability_bound(complete_graph(4)) - 4.0) < 1e-12
    assert abs(acyclic_probability_bound(Graph(2, [(0, 1)])) - 2.0) < 1e-12
    with pytest.raises(InputError):
        acyclic_probability_bound(Graph(3, []))


def test_acyclic_probability_bound_vs_exact_fraction():
    # whenever the bound is informative the true fraction stays below it
    rng = random.Random(23)
    informative = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        p = rng.choice([0.5, 0.8, 1.0])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if not edges:
            continue
        G = Graph(n, edges)
        bound = acyclic_probability_bound(G)
        if bound >= 1.0:
            continue
        informative += 1
        frac = count_acyclic_orientations_fast(G) / 2 ** len(edges)
        assert frac < bound * (1 + 1e-12)
    assert informative > 0


def test_acyclic_out_degree_sequences_injective():
    # over every graph on at most 5 vertices, acyclic orientations have
    # pairwise distinct out-degree sequences
    for n in range(1, 6):
        all_edges = list(combinations(range(n), 2))
        for emask in range(1 << len(all_edges)):
            G = Graph(n, [all_edges[i] for i in range(len(all_edges)) if (emask >> i) & 1])
            seen = set()
            for D in orientations(G):
                if is_acyclic(D):
                    seq = tuple(D.out_degree(v) for v in range(n))
                    assert seq not in seen
                    seen.add(seq)


def test_is_forest():
    assert is_forest(path_graph(6))
    assert is_forest(star_graph(4))
    assert is_forest(Graph(5, [(0, 1), (2, 3)]))
    assert not is_forest(cycle_graph(3))
    assert not is_forest(complete_graph(4))


def test_digraph_construction_and_reverse():
    G = cycle_graph(4)
    D = Digraph.from_arcs(G, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_acyclic(D)
    assert sorted(D.arcs()) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert not is_acyclic(D.reverse())
    with pytest.raises(InputError):
        Digraph.from_arcs(G, [(0, 1), (1, 0), (1, 2), (2, 3)])
    with pytest.raises(InputError):
        Digraph.from_arcs(G, [(0, 2), (0, 1), (1, 2), (2, 3)])


@settings(derandomize=True, max_examples=120)
@given(st.integers(min_value=0, max_value=2**15 - 1), st.data())
def test_acyclic_monotone_property(code, data):
    G = complete_graph(6)
    D = Digraph(G, code)
    S = data.draw(st.integers(min_value=0, max_value=63))
    sub = data.draw(st.integers(min_value=0, max_value=63)) & S
    if is_acyclic(D, S):
        assert is_acyclic(D, sub)


def _networkx_blocks(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return sorted(mask_of(c) for c in nx.biconnected_components(H))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_blocks_match_networkx(n, data):
    # sparse draws give bridges, pendant trees and isolated vertices, dense
    # ones cut vertices between 2-connected blocks
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    G = Graph(n, edges)
    got = blocks(G)
    assert len(got) == len(set(got))
    assert sorted(got) == _networkx_blocks(G)


def test_blocks_of_named_graphs():
    # two triangles joined by a bridge, a pendant edge and an isolated vertex
    G = Graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)])
    assert sorted(blocks(G)) == sorted(map(mask_of, ([0, 1, 2], [2, 3], [3, 4, 5], [5, 6])))
    assert sorted(blocks(G)) == _networkx_blocks(G)
    assert blocks(complete_graph(5)) == [0b11111]
    assert blocks(Graph(4, [])) == []
    # a path of 3,000 vertices: a recursive DFS would pass Python's default
    # recursion limit of 1,000 here
    P = path_graph(3000)
    assert sorted(blocks(P)) == [3 << i for i in range(2999)]
