"""Maximal independent / maximal acyclic set enumeration."""

import gc
import inspect
import random

import pytest

from dicolor.coloring import chromatic_number, digraph_chromatic_number
from dicolor.errors import BudgetExceededError
from dicolor.families import maximal_acyclic_sets, maximal_independent_sets
from dicolor.graphs import Digraph, Graph, complete_graph, cycle_graph, random_orientation

from oracles import (
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
        chromatic_number(G)
        digraph_chromatic_number(D)
        assert gc.collect() == 0
    finally:
        gc.enable()
