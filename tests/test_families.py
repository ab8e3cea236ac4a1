"""Maximal independent / maximal acyclic set enumeration."""

import gc
import inspect
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dicolor.coloring import (
    chromatic_number,
    digraph_chromatic_number,
    fractional_chromatic_with_dual,
)
from dicolor.constructions import kneser_graph
from dicolor.errors import BudgetExceededError, InputError
from dicolor.families import (
    _maximal_induced_forests,
    max_acyclic_weight,
    maximal_acyclic_sets,
    maximal_independent_sets,
)
from dicolor.graphs import Digraph, Graph, complete_graph, cycle_graph, random_orientation

from oracles import (
    brute_max_acyclic_weight,
    brute_maximal_acyclic_sets,
    brute_maximal_independent_sets,
    generator_maximal_independent_sets,
    is_independent,
)


def _random_graph(rng, n_max=7, p=0.5):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_mis_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(120):
        G = _random_graph(rng)
        got = set(maximal_independent_sets(G))
        want = brute_maximal_independent_sets(G.n, list(G.edges))
        assert got == want


def test_mis_within_and_containing():
    rng = random.Random(9)
    for _ in range(80):
        G = _random_graph(rng)
        S = rng.getrandbits(G.n)
        if not S:
            continue
        got = set(maximal_independent_sets(G, within=S))
        sub_edges = [(u, v) for u, v in G.edges if (S >> u) & 1 and (S >> v) & 1]
        # relabel-free brute force on the induced subgraph
        want = {
            m
            for m in brute_maximal_independent_sets(G.n, sub_edges)
            if not m & ~S
        }
        # brute force over all n vertices also includes sets using vertices
        # outside S; drop those by rebuilding on S only
        def independent(mask):
            return all(not ((mask >> u) & 1 and (mask >> v) & 1) for u, v in sub_edges)

        ind = [m for m in range(1 << G.n) if not m & ~S and independent(m)]
        ind_set = set(ind)
        want = {
            m
            for m in ind
            if not any(
                (m | (1 << v)) in ind_set
                for v in range(G.n)
                if (S >> v) & 1 and not (m >> v) & 1
            )
        }
        assert got == want
        v = (S & -S).bit_length() - 1
        anchored = set(maximal_independent_sets(G, within=S, containing=v))
        assert anchored == {m for m in want if (m >> v) & 1}


def test_mis_order_matches_generator_reference():
    # the chif LP columns, and so every cover and dual it returns, follow
    # this order; it stays a generator function, the public interface that
    # callers iterate and the benchmark's tracer counts yields of
    assert inspect.isgeneratorfunction(maximal_independent_sets)
    rng = random.Random(29)
    for _ in range(60):
        G = _random_graph(rng, n_max=16, p=rng.choice((0.2, 0.5, 0.8)))
        assert list(maximal_independent_sets(G)) == list(generator_maximal_independent_sets(G))
        S = rng.getrandbits(G.n)
        assert list(maximal_independent_sets(G, within=S)) == list(
            generator_maximal_independent_sets(G, within=S)
        )
        for v in range(G.n):
            if (S >> v) & 1:
                assert list(maximal_independent_sets(G, within=S, containing=v)) == list(
                    generator_maximal_independent_sets(G, within=S, containing=v)
                )


def test_mis_edgeless_and_complete():
    assert list(maximal_independent_sets(Graph(4, []))) == [0b1111]
    assert set(maximal_independent_sets(complete_graph(3))) == {0b001, 0b010, 0b100}


def test_independence_predicate():
    G = cycle_graph(4)
    assert is_independent(G, 0b0101)
    assert not is_independent(G, 0b0011)


def test_maximal_acyclic_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(100):
        G = _random_graph(rng, n_max=6)
        D = random_orientation(G, rng.randrange(2**32))
        got = set(maximal_acyclic_sets(D))
        want = brute_maximal_acyclic_sets(G.n, D.arcs())
        assert got == want
        # on an induced sub-digraph and through each anchor vertex too
        S = rng.getrandbits(G.n)
        want = brute_maximal_acyclic_sets(G.n, D.arcs(), within=S)
        got = maximal_acyclic_sets(D, within=S)
        assert len(got) == len(set(got)) and set(got) == want
        for v in range(G.n):
            if (S >> v) & 1:
                anchored = maximal_acyclic_sets(D, within=S, containing=v)
                assert set(anchored) == {m for m in want if (m >> v) & 1}


def test_maximal_acyclic_pendant_path_joins_every_set():
    # no cycle passes through a pendant path, so every maximal acyclic set
    # holds all of it; the exclude branch of such a vertex is cut at once
    K5 = complete_graph(5)
    path = [(0, 5)] + [(v, v + 1) for v in range(5, 14)]
    G = Graph(15, list(K5.edges) + path)
    rng = random.Random(5)
    for _ in range(20):
        core_D = random_orientation(K5, rng.randrange(2**32))
        arcs = core_D.arcs() + [(u, v) if rng.random() < 0.5 else (v, u) for u, v in path]
        D = Digraph.from_arcs(G, arcs)
        core = maximal_acyclic_sets(core_D)
        assert sorted(maximal_acyclic_sets(D)) == sorted(m | 0b111111111100000 for m in core)


def test_maximal_acyclic_examples():
    K3 = complete_graph(3)
    cyc = Digraph.from_arcs(K3, [(0, 1), (1, 2), (2, 0)])
    assert set(maximal_acyclic_sets(cyc)) == {0b011, 0b101, 0b110}
    trans = Digraph.from_arcs(K3, [(0, 1), (0, 2), (1, 2)])
    assert maximal_acyclic_sets(trans) == [0b111]


def test_maximal_acyclic_cap():
    G = complete_graph(6)
    D = random_orientation(G, 1)
    with pytest.raises(BudgetExceededError):
        maximal_acyclic_sets(D, cap=1)


def _heaviest_maximal(D, weights):
    return max(sum((weights[v] for v in range(D.graph.n) if (m >> v) & 1), Fraction(0))
               for m in maximal_acyclic_sets(D))


def _check_max_acyclic_weight(D, weights):
    got = max_acyclic_weight(D, weights)
    assert got == _heaviest_maximal(D, weights)
    assert got == brute_max_acyclic_weight(D.graph.n, D.arcs(), weights)
    return got


def test_max_acyclic_weight_matches_both_references():
    # weights 0..8 over denominators 1, 2, 3, 7 and 8: zeros, ties and
    # mixed denominators in one weighting
    rng = random.Random(41)
    for _ in range(300):
        G = _random_graph(rng, n_max=9, p=rng.choice((0.3, 0.6, 0.9)))
        D = random_orientation(G, rng.randrange(2**32))
        weights = [Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 7, 8))) for _ in range(G.n)]
        _check_max_acyclic_weight(D, weights)


def test_max_acyclic_weight_under_lp_dual_weights():
    # the certificate's default weighting: the optimal clique weighting,
    # fractional on odd cycles, the Petersen graph and the complement of C7
    C7 = cycle_graph(7)
    graphs = [cycle_graph(5), C7, kneser_graph(5, 2),
              Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if not C7.is_edge(u, v)])]
    rng = random.Random(43)
    graphs += [_random_graph(rng, n_max=9, p=0.3) for _ in range(20)]
    fractional = 0
    for G in graphs:
        _, _, dual = fractional_chromatic_with_dual(G)
        fractional += any(x.denominator > 1 for x in dual.values)
        for _ in range(3):
            _check_max_acyclic_weight(random_orientation(G, rng.randrange(2**32)), list(dual.values))
    assert fractional >= 4


def test_max_acyclic_weight_examples():
    assert max_acyclic_weight(Digraph(Graph(0, []), 0), []) == 0
    # edgeless: every vertex at once
    edgeless = Digraph(Graph(5, []), 0)
    weights = [Fraction(1, 2), Fraction(2, 3), Fraction(0), Fraction(5, 7), Fraction(1)]
    assert _check_max_acyclic_weight(edgeless, weights) == sum(weights)
    # a directed triangle drops its lightest vertex, in lowest terms
    cyc = Digraph.from_arcs(complete_graph(3), [(0, 1), (1, 2), (2, 0)])
    assert _check_max_acyclic_weight(cyc, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)]) \
        == Fraction(5, 6)
    assert _check_max_acyclic_weight(cyc, [Fraction(3, 4), Fraction(3, 4), Fraction(3, 4)]) \
        == Fraction(3, 2)
    # all-zero weights, acyclic or not
    D = random_orientation(complete_graph(6), 3)
    assert _check_max_acyclic_weight(D, [Fraction(0)] * 6) == 0
    assert max_acyclic_weight(edgeless, [0] * 5) == 0


def test_max_acyclic_weight_deep_search_and_bad_weights():
    # the include chain of an edgeless graph is n nodes deep, past the
    # default recursion limit of 1,000
    assert max_acyclic_weight(Digraph(Graph(1100, []), 0), [Fraction(1)] * 1100) == 1100
    D = random_orientation(complete_graph(3), 1)
    with pytest.raises(InputError):
        max_acyclic_weight(D, [1, 1])
    with pytest.raises(InputError):
        max_acyclic_weight(D, [1, -1, 1])


def test_max_acyclic_weight_cap():
    D = random_orientation(complete_graph(6), 1)
    with pytest.raises(BudgetExceededError) as err:
        max_acyclic_weight(D, [Fraction(1)] * 6, cap=1)
    assert (err.value.needed, err.value.limit) == (2, 1)


@st.composite
def _graphs_with_trees(draw):
    # a random core, pendant trees hung one vertex at a time, and isolated
    # vertices, at most 10 vertices in all
    core = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges = [e for e in pairs if draw(st.booleans())]
    n = core
    for _ in range(draw(st.integers(min_value=0, max_value=10 - core))):
        if n and draw(st.booleans()):
            edges.append((draw(st.integers(min_value=0, max_value=n - 1)), n))
        n += 1
    return Graph(max(n, 1), edges)


def _brute_maximal_induced_forests(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    forests = {S for S in range(1, 1 << G.n)
               if nx.is_forest(H.subgraph([v for v in range(G.n) if S >> v & 1]))}
    return {S for S in forests
            if not any(S | 1 << v in forests for v in range(G.n) if not S >> v & 1)}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_graphs_with_trees())
def test_maximal_induced_forests_match_bruteforce(G):
    got = _maximal_induced_forests(G)
    assert len(got) == len(set(got))
    assert set(got) == _brute_maximal_induced_forests(G)


def test_maximal_induced_forests_examples():
    # a cycle less one vertex, a clique's edges, and a forest is one set
    assert sorted(_maximal_induced_forests(cycle_graph(5))) == sorted(31 ^ 1 << v for v in range(5))
    assert sorted(_maximal_induced_forests(complete_graph(4))) == sorted(
        1 << u | 1 << v for u in range(4) for v in range(u + 1, 4))
    assert _maximal_induced_forests(Graph(4, [(0, 1), (1, 2)])) == [15]


def test_enumerators_leave_no_reference_cycles():
    # the recursive closures referred to themselves, so every call left a
    # cycle (and chromatic_number its whole memo) for the cyclic collector
    G = cycle_graph(7)
    D = Digraph(complete_graph(5), 0b1011001101)
    gc.collect()
    gc.disable()
    try:
        list(maximal_independent_sets(G))
        next(maximal_independent_sets(G, containing=2))  # left unfinished
        maximal_acyclic_sets(D)
        _maximal_induced_forests(G)
        max_acyclic_weight(D, [1] * 5)
        chromatic_number(G)
        digraph_chromatic_number(D)
        assert gc.collect() == 0
    finally:
        gc.enable()
