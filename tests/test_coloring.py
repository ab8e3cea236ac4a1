"""Exact coloring invariants against frozen oracle values."""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import ceil, lcm
from operator import or_

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from dicolor import coloring
from dicolor.coloring import (
    chromatic_number,
    dichromatic_lower_bound_mc,
    dichromatic_number_exact,
    digraph_chromatic_number,
    digraph_fractional_chromatic,
    fractional_chromatic_with_dual,
    fractional_dichromatic,
    fractional_independence,
)
from dicolor.errors import BudgetExceededError, DicolorError, InputError
from dicolor.graphs import (
    Digraph,
    Graph,
    blocks,
    complete_graph,
    cycle_graph,
    derive_rng,
    empty_graph,
    is_forest,
    iter_bits,
    orientations,
    path_graph,
    random_orientation,
    star_graph,
)
from dicolor.constructions import kneser_graph
from dicolor.families import maximal_acyclic_sets, maximal_independent_sets
from dicolor.sparse import Weighting
from dicolor.sparse import degeneracy_coloring

import oracles
from oracles import (
    brute_automorphisms,
    brute_chromatic,
    brute_dichromatic,
    brute_digraph_chromatic,
    brute_maximal_acyclic_sets,
    brute_tournament_dichromatic,
    clique_fractional_floor,
    dfs_has_cycle,
    digraph_fractional_bruteforce,
    fraction_check_certificate,
    fractional_chromatic_bruteforce,
    milp_chromatic,
    min_cover_chromatic,
    orbit_minimal_codes,
    permuted_code,
    uncached_pooled_search,
)


def _random_graph(rng, n_max=7, p=0.5):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(kneser_graph(5, 2)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(empty_graph(5)) == 1


def test_chromatic_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(80):
        G = _random_graph(rng)
        assert chromatic_number(G) == brute_chromatic(G.n, list(G.edges))


def _min_acyclic_cover(D, reached):
    # the oracle's count on the parts the library's search branches on; the
    # subsets it expands go to reached
    def parts_for(S):
        reached.append(S)
        return maximal_acyclic_sets(D, within=S, containing=(S & -S).bit_length() - 1)

    return oracles.min_cover(D.graph.full_mask, parts_for)[0]


def test_min_cover_parts_are_an_admissible_cover(monkeypatch):
    # the oracle's parts, recovered from its count memo, and the decision
    # search's: admissible, covering every vertex, and as many as the count,
    # which is the brute-force optimum
    rng = random.Random(17)
    for _ in range(40):
        G = _random_graph(rng)
        # any branch vertex of S will do, each call must just pick the same one
        count, parts = oracles.min_cover(
            G.full_mask,
            lambda S: maximal_independent_sets(G, within=S, containing=S.bit_length() - 1),
        )
        assert count == len(parts) == brute_chromatic(G.n, list(G.edges))
        assert all(not G.adj[v] & part for part in parts for v in range(G.n) if part >> v & 1)
        assert reduce(or_, parts, 0) == G.full_mask
    ceilings = []
    search = coloring._cover_search

    def recorded(full, cover, floor, parts):
        ceilings.append(len(cover))
        return search(full, cover, floor, parts)

    monkeypatch.setattr(coloring, "_cover_search", recorded)
    expanded = []
    enumerate_sets = coloring.maximal_acyclic_sets

    def recording(D, within=None, containing=None):
        expanded.append(within)
        return enumerate_sets(D, within, containing)

    monkeypatch.setattr(coloring, "maximal_acyclic_sets", recording)
    # the empty digraph, acyclic ones, every tournament on at most 5
    # vertices, the Paley tournament P7 (chi 3) and random orientations
    paley = Digraph.from_arcs(complete_graph(7), [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 4)])
    digraphs = [Digraph(empty_graph(0), 0), Digraph(empty_graph(4), 0), Digraph(path_graph(6), 5),
                Digraph(complete_graph(6), 0), paley]
    for m in range(1, 6):
        K = complete_graph(m)
        digraphs += [Digraph(K, code) for code in range(1 << len(K.edges))]
    for _ in range(200):
        n = rng.randint(6, 12)
        p = rng.choice((0.4, 0.6, 0.8))
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        digraphs.append(random_orientation(G, rng.randrange(2**32)))
    above = 0
    for D in digraphs:
        ceilings.clear()
        expanded.clear()
        count, parts = coloring._acyclic_cover(D)
        n, arcs = D.graph.n, D.arcs()
        reached = []
        assert count == len(parts) == _min_acyclic_cover(D, reached)
        # every subset the search expands, the oracle expands too, and at
        # most 2 (hi - 2) times for a greedy ceiling of hi
        times = Counter(expanded)
        assert times.keys() <= set(reached)
        assert max(times.values(), default=0) <= 2 * (max(ceilings, default=2) - 2)
        # the brute force tries count^n colourings
        if count <= 2 or n <= 9:
            assert count == brute_digraph_chromatic(n, arcs)
        assert not any(dfs_has_cycle(n, arcs, part) for part in parts)
        assert reduce(or_, parts, 0) == D.graph.full_mask
        # the greedy ceiling is the cover the search starts from
        above += bool(ceilings) and ceilings[0] > count
    assert coloring._acyclic_cover(paley)[0] == 3
    # so the decisions run on some inputs (on 20 of them)
    assert above >= 10


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for H in graphs:
        edges += [(u + offset, v + offset) for u, v in H.edges]
        offset += H.n
    return Graph(offset, edges)


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _join(*graphs):
    # disjoint union plus every edge between two of the graphs
    G = _disjoint_union(*graphs)
    starts = [sum(H.n for H in graphs[:i]) for i in range(len(graphs) + 1)]
    edges = list(G.edges)
    for i, j in combinations(range(len(graphs)), 2):
        edges += [(u, v) for u in range(starts[i], starts[i + 1]) for v in range(starts[j], starts[j + 1])]
    return Graph(G.n, edges)


def _from_bits(n, bits):
    # edge i of combinations(range(n), 2) is present when bit i is set
    return Graph(n, [e for i, e in enumerate(combinations(range(n), 2)) if bits >> i & 1])


# the slowest 24-vertex graph (chi 7, 132 edges) that ten hill climbs on the
# time of chromatic_number found (eight of 30 s, two of 150 s): 0.17 s,
# against 0.36 s for the minimum over subsets it replaced (2-core VM,
# Python 3.11)
HILL_CLIMBED_24 = _from_bits(
    24, 0xF746B451F0C96A6D268C84BBE17068A8F95A2629077DBCA493EC5ACD05888DC0593A5
)


GROTZSCH = Graph(11, list(nx.mycielski_graph(4).edges()))
MYCIELSKI_M5 = Graph(23, list(nx.mycielski_graph(5).edges()))


def _low_degree_first(G):
    # relabel so that vertex 0 has the lowest degree: the lowest-index
    # branch vertex is then the worst one
    order = sorted(range(G.n), key=lambda v: G.adj[v].bit_count())
    label = {v: i for i, v in enumerate(order)}
    return Graph(G.n, [(label[u], label[v]) for u, v in G.edges])


def test_chromatic_matches_ilp_up_to_the_budget():
    # the colouring ILP shares no code with the cover recursion or the
    # Bron-Kerbosch enumeration
    for n in (12, 18, 21, 24):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            G = _gnp(n, p, 43 * n)
            assert chromatic_number(G) == milp_chromatic(G.n, list(G.edges)), (n, p)


@pytest.mark.parametrize("G, chi", [
    pytest.param(_disjoint_union(*[complete_graph(3)] * 8), 3, id="8xK3"),
    pytest.param(_disjoint_union(*[complete_graph(3)] * 6, complete_graph(6)), 6, id="6xK3+K6"),
    pytest.param(_disjoint_union(*[cycle_graph(5)] * 4, complete_graph(4)), 4, id="4xC5+K4"),
    pytest.param(MYCIELSKI_M5, 5, id="Mycielski-M5"),
    pytest.param(_low_degree_first(_gnp(24, 0.3, 7)), None, id="G(24,0.3)-low-degree-first"),
    pytest.param(_low_degree_first(_gnp(24, 0.6, 8)), None, id="G(24,0.6)-low-degree-first"),
    pytest.param(kneser_graph(7, 2), 5, id="KG(7,2)"),
    pytest.param(_join(*[cycle_graph(5)] * 4), 12, id="C5*C5*C5*C5"),
    pytest.param(_join(*[Graph(11, list(nx.mycielski_graph(4).edges()))] * 2), 8, id="M4*M4"),
    pytest.param(HILL_CLIMBED_24, 7, id="hill-climbed-24"),
])
def test_chromatic_named_cases(G, chi):
    want = milp_chromatic(G.n, list(G.edges))
    assert chi is None or want == chi
    assert chromatic_number(G) == want


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_chromatic_search_matches_min_cover_and_bruteforce(n, data):
    pairs = list(combinations(range(n), 2))
    a, b = (data.draw(st.integers(0, (1 << len(pairs)) - 1)) for _ in range(2))
    # edge densities of about 1/4, 1/2 and 3/4
    bits = data.draw(st.sampled_from((a & b, a, a | b)))
    G = _from_bits(n, bits)
    chi = chromatic_number(G)
    assert chi == min_cover_chromatic(G)
    # brute force takes up to 11 s on a 14-vertex graph of density 3/4
    if n <= 12:
        assert chi == brute_chromatic(n, list(G.edges))


def _record_enumerations(monkeypatch, module):
    # the ground set of every maximal_independent_sets call made through module
    calls = []
    enumerate_sets = module.maximal_independent_sets

    def recording(G, within=None, containing=None):
        calls.append(within)
        return enumerate_sets(G, within, containing)

    monkeypatch.setattr(module, "maximal_independent_sets", recording)
    return calls


def _clique_number(G):
    H = nx.Graph(list(G.edges))
    H.add_nodes_from(range(G.n))
    return max(len(c) for c in nx.find_cliques(H))


def test_chromatic_searches_nothing_when_the_bounds_meet(monkeypatch):
    # a clique as large as the greedy colouring settles chi with no set
    # enumerated
    calls = _record_enumerations(monkeypatch, coloring)
    for G, chi in ((_disjoint_union(*[complete_graph(3)] * 8), 3),
                   (_disjoint_union(*[complete_graph(3)] * 6, complete_graph(6)), 6),
                   (_disjoint_union(*[cycle_graph(5)] * 4, complete_graph(4)), 4),
                   (complete_graph(5), 5), (_biclique(4, 5), 2), (empty_graph(4), 1)):
        assert _clique_number(G) == max(degeneracy_coloring(G)[1]) + 1 == chi
        assert chromatic_number(G) == chi
        assert calls == []
    # the Grötzsch graph's bounds are 2 and 4, so its first decision asks
    # for 3 sets and is searched
    assert chromatic_number(GROTZSCH) == 4 and calls


def test_chromatic_memo_covers_every_smaller_count(monkeypatch):
    # a subset that failed with b sets fails with fewer; a memo that only
    # answered for the same b enumerates 85 times on this G(20, 0.7)
    calls = _record_enumerations(monkeypatch, coloring)
    assert chromatic_number(_gnp(20, 0.7, 39)) == 8
    assert len(calls) == 74
    # with the bipartite test at b = 2, KG(7,2) enumerates 8 times (76
    # when every decision branched down to b = 1)
    calls.clear()
    assert chromatic_number(kneser_graph(7, 2)) == 5
    assert len(calls) == 8


def _odd_wheel(k):
    # a hub joined to every vertex of the odd cycle C_k: chi 4, omega 3
    return Graph(k + 1, list(cycle_graph(k).edges) + [(v, k) for v in range(k)])


def test_bipartite_test_matches_networkx():
    rng = random.Random(53)
    for _ in range(300):
        G = _gnp(rng.randint(1, 16), rng.uniform(0.05, 0.6), rng.randrange(2**32))
        H = nx.Graph(list(G.edges))
        H.add_nodes_from(range(G.n))
        for _ in range(5):
            S = rng.randrange(1 << G.n)
            want = nx.is_bipartite(H.subgraph([v for v in range(G.n) if S >> v & 1]))
            sides = coloring._bipartite(G.adj, S)
            assert (sides is not None) == want
            if sides is not None:
                # two independent classes covering S
                A, B = sides
                assert A | B == S and not A & B
                assert all(not G.adj[v] & side for side in sides for v in iter_bits(side))


def test_chromatic_with_the_bipartite_base_case_matches_min_cover(monkeypatch):
    rng = random.Random(59)
    graphs = [_gnp(rng.randint(8, 20), rng.uniform(0.1, 0.8), rng.randrange(2**32)) for _ in range(120)]
    odd = [cycle_graph(k) for k in (3, 5, 7, 9, 21)] + [_odd_wheel(k) for k in (5, 7, 9, 19)]
    for G in graphs + odd + [GROTZSCH, MYCIELSKI_M5]:
        assert chromatic_number(G) == min_cover_chromatic(G)
    # chi exceeds omega + 1 on the Mycielski graphs
    assert (chromatic_number(GROTZSCH), _clique_number(GROTZSCH)) == (4, 2)
    assert (chromatic_number(MYCIELSKI_M5), _clique_number(MYCIELSKI_M5)) == (5, 2)
    # an odd cycle's only decision asks for 2 sets and enumerates nothing
    calls = _record_enumerations(monkeypatch, coloring)
    for k in (5, 7, 9, 21):
        assert chromatic_number(cycle_graph(k)) == 3
    assert calls == []
    # an odd wheel's first decision asks for 3: the hub's one part leaves
    # the odd cycle, which the bipartite test refuses
    assert chromatic_number(_odd_wheel(7)) == 4
    assert calls == [_odd_wheel(7).full_mask]


def test_chromatic_search_work_is_bounded_by_the_min_cover(monkeypatch):
    # every subset the search expands, the minimum over subsets expands too,
    # and at most 2 (hi - omega) times: once per failing count in a window of
    # hi - omega counts and once per decision that succeeds
    new = _record_enumerations(monkeypatch, coloring)
    old = _record_enumerations(monkeypatch, oracles)
    rng = random.Random(29)
    graphs = [_gnp(rng.randint(8, 20), rng.uniform(0.2, 0.8), rng.randrange(2**32)) for _ in range(60)]
    for G in graphs + [kneser_graph(7, 2), HILL_CLIMBED_24]:
        new.clear()
        old.clear()
        assert chromatic_number(G) == min_cover_chromatic(G)
        hi = max(degeneracy_coloring(G)[1]) + 1
        expanded = Counter(new)
        assert expanded.keys() <= set(old)
        assert max(expanded.values(), default=0) <= 2 * (hi - _clique_number(G))


def test_chromatic_budget():
    with pytest.raises(BudgetExceededError) as err:
        chromatic_number(empty_graph(30))
    assert str(err.value) == "chromatic-number search: needs 30, budget is 24"
    with pytest.raises(BudgetExceededError) as err:
        digraph_chromatic_number(Digraph(empty_graph(30), 0))
    assert str(err.value) == "digraph-chromatic search: needs 30, budget is 24"


def test_digraph_chromatic_examples():
    K4 = complete_graph(4)
    trans = Digraph.from_arcs(K4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert digraph_chromatic_number(trans) == 1
    K3 = complete_graph(3)
    cyc = Digraph.from_arcs(K3, [(0, 1), (1, 2), (2, 0)])
    assert digraph_chromatic_number(cyc) == 2
    arcs = [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 4)]
    paley = Digraph.from_arcs(complete_graph(7), arcs)
    assert digraph_chromatic_number(paley) == 3


def test_dichromatic_exact_examples():
    assert dichromatic_number_exact(path_graph(5))[0] == 1
    assert dichromatic_number_exact(star_graph(6))[0] == 1
    value, witness = dichromatic_number_exact(complete_graph(3))
    assert value == 2 and digraph_chromatic_number(witness) == 2
    assert dichromatic_number_exact(cycle_graph(4))[0] == 2
    # 22 edges: 2^21 codes below the top bit, past the 2^20 of the gate
    with pytest.raises(BudgetExceededError):
        dichromatic_number_exact(Graph(8, list(complete_graph(7).edges) + [(6, 7)]))


def test_dichromatic_mc():
    assert dichromatic_lower_bound_mc(path_graph(6), trials=5)[0] == 1
    # exhaustive fallback when 2^e <= trials reproduces the exact value
    assert dichromatic_lower_bound_mc(complete_graph(3), trials=8)[0] == 2
    # locked regression: 512 sampled orientations of K_7 reach 3
    value, witness = dichromatic_lower_bound_mc(complete_graph(7), trials=512, seed=0)
    assert value == 3
    assert digraph_chromatic_number(witness) == 3


def _small_non_forests():
    rng = random.Random(23)
    graphs = [complete_graph(4), cycle_graph(4), Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])]
    while len(graphs) < 12:
        n = rng.randint(3, 5)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        if 3 <= len(G.edges) <= 8 and len(G.edges) >= n:
            graphs.append(G)
    return graphs


# degeneracy 4 gives the bound 3, which no orientation of these reaches, so
# the search never stops early on them
K5 = complete_graph(5)
K5_PENDANT = Graph(6, list(K5.edges) + [(0, 5)])


def _biclique(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_dichromatic_exact_witness_is_first_maximum():
    # the witness is the first counter code reaching the maximum; a search
    # that kept a later maximum would return another orientation
    for G in _small_non_forests() + [K5, K5_PENDANT]:
        values = [brute_digraph_chromatic(G.n, Digraph(G, code).arcs())
                  for code in range(1 << len(G.edges))]
        best = max(values)
        value, witness = dichromatic_number_exact(G)
        assert value == best
        assert witness == Digraph(G, values.index(best))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_degeneracy_bound_holds_for_every_orientation(n, data):
    # the search stops once it reaches k // 2 + 1; no orientation may exceed it
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = data.draw(st.integers(min_value=3, max_value=min(12, len(pairs))))
    edges = data.draw(st.permutations(pairs))[:m]
    G = Graph(n, edges)
    assume(not is_forest(G))
    k, _ = degeneracy_coloring(G)
    most = max(brute_digraph_chromatic(n, D.arcs()) for D in orientations(G))
    assert most <= k // 2 + 1


def test_tournament_bound_covers_every_small_tournament():
    # t(m) colours every tournament on m vertices, so it is at least the
    # largest dichromatic number among them, by brute force for m <= 5; it
    # is exact for K5, K7 and K8 (Neumann-Lara 1994)
    for m in range(6):
        assert coloring._tournament_bound(m) >= brute_tournament_dichromatic(m)
    assert [coloring._tournament_bound(m) for m in range(10)] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]


def _stop_graphs():
    # K5 with up to two more edges, the octahedron (4-regular, one block of
    # 6), two triangles sharing a vertex, and seeded non-forests, 300 in all
    # with n <= 8 and m <= 12
    k5 = list(K5.edges)
    rng = random.Random(97)
    graphs = [K5, K5_PENDANT, Graph(7, k5 + [(0, 5), (5, 6)]), Graph(7, k5 + [(1, 5), (3, 6)]),
              Graph(6, k5 + [(0, 5), (1, 5)]),
              Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]),
              Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])]
    while len(graphs) < 300:
        n = rng.randint(3, 8)
        p = rng.choice((0.3, 0.5))
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if not is_forest(G) and len(G.edges) <= 12:
            graphs.append(G)
    return graphs


def test_orientation_stop_is_never_below_the_dichromatic_number():
    # the search may stop at a value only if no orientation exceeds it; on
    # K5 and K5 plus edges the blocks lower the stop to t(5) = 2
    lowered = 0
    for G in _stop_graphs():
        stop = coloring._orientation_stop(G)
        assert stop >= brute_dichromatic(G)
        k, colors = degeneracy_coloring(G)
        lowered += stop < min(k // 2 + 1, max(colors) + 1)
    assert lowered >= 4


def _without_table(monkeypatch):
    # no block is in the dichif table: each is bounded by t(|B|) and va_f,
    # and no floor is read off the table
    monkeypatch.setattr(coloring, "_block_table", dict)


def _without_stops(monkeypatch):
    # a stop above every value: the searches walk every code they keep
    _without_table(monkeypatch)
    monkeypatch.setattr(coloring, "_orientation_stop", lambda G: G.n + 1)
    monkeypatch.setattr(coloring, "_fractional_stop", lambda G, top: G.n + 1)


def _stop_and_known(G):
    # the dichif stop of a non-forest G and the largest table value over its
    # blocks, as _best_orientation computes them: the stop is the table
    # answer when that is known, and _fractional_stop otherwise
    top, known = coloring._block_bounds(G)
    return (top if known >= top else coloring._fractional_stop(G, top)), known


def _without_fractional_floor(monkeypatch):
    # a lower bound below every stop, and no table, whose stop would be the
    # answer: exact dichif searches walk the codes
    _without_table(monkeypatch)
    monkeypatch.setattr(coloring, "_fractional_floor", lambda G, stop, known: 0)


def _has_small_blocks(G):
    return max(map(int.bit_count, blocks(G))) <= 6


def test_complete_graph_tables_are_what_the_search_computes(monkeypatch):
    # dichi(K_m) = 2 for 3 <= m <= 6, the block stop of a block of at most 6
    # vertices, recomputed with the stops off, since that stop would return
    # 2 whatever the search finds; the dichif(K_m) rows of the block table
    # are recomputed with the rest of it below
    keys = [coloring._block_key(complete_graph(m).adj, (1 << m) - 1) for m in range(3, 7)]
    assert [coloring._block_table()[key] for key in keys] == list(oracles.COMPLETE_DICHIF.values())
    _without_stops(monkeypatch)
    assert [dichromatic_number_exact(complete_graph(m))[0] for m in range(3, 7)] == [2] * 4


def _atlas_blocks():
    # the two-connected graphs on 3-6 vertices, one per isomorphism class
    return [Graph(H.number_of_nodes(), sorted(tuple(sorted(e)) for e in H.edges()))
            for H in nx.graph_atlas_g() if 3 <= H.number_of_nodes() <= 6 and nx.is_biconnected(H)]


def test_block_table_is_what_the_search_computes(monkeypatch):
    # the atlas lists each class once, so 70 distinct keys prove the
    # label-free key complete on them, and each value is recomputed by the
    # search with its stops, floor and table off
    graphs = _atlas_blocks()
    keys = [coloring._block_key(G.adj, G.full_mask) for G in graphs]
    assert len(graphs) == len(set(keys)) == len(coloring._block_table()) == 70
    table = coloring._block_table()
    values = [table[key] for key in keys]
    _without_stops(monkeypatch)
    _without_fractional_floor(monkeypatch)
    assert values == [fractional_dichromatic(G) for G in graphs]
    # a relabelled copy has the same key
    rng = random.Random(3)
    for G in graphs[::7]:
        perm = rng.sample(range(G.n), G.n)
        H = Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])
        assert coloring._block_key(H.adj, H.full_mask) == coloring._block_key(G.adj, G.full_mask)


def test_block_table_keeps_every_answer(monkeypatch):
    # seeded non-forests with n <= 9: the answer with the table equals the
    # search without it, and every graph whose blocks have at most 6
    # vertices (43 of the 60) is answered with no LP
    rng = random.Random(37)
    graphs = []
    while len(graphs) < 60:
        n = rng.randint(3, 9)
        G = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        if not is_forest(G) and len(G.edges) <= 13:
            graphs.append(G)
    lps = []
    real = coloring._solve_cover_lp
    monkeypatch.setattr(coloring, "_solve_cover_lp", lambda n, cols: lps.append(n) or real(n, cols))
    answered = 0
    got = []
    for G in graphs:
        lps.clear()
        got.append(fractional_dichromatic(G))
        if _has_small_blocks(G):
            assert lps == []
            answered += 1
    _without_table(monkeypatch)
    assert got == [fractional_dichromatic(G) for G in graphs]
    assert answered >= 43 and len(graphs) - answered >= 17


def _glued_blocks():
    # small blocks glued at one vertex, with their answers: the octahedron
    # and the wheel with 4 spokes (20 edges), the octahedron and C5, two C6
    # with two crossing chords, K6 less an edge and a triangle, and two K5
    # less two edges at a vertex
    octahedron = [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]
    wheel = [(5, 6), (6, 7), (7, 8), (5, 8)] + [(i, 9) for i in range(5, 9)]
    c5 = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    chords = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]
    two_chords = chords + [(5 + u, 5 + v) for u, v in chords]
    k6e = [(u, v) for u, v in combinations(range(6), 2) if (u, v) != (0, 1)]
    k5 = [e for e in combinations(range(5), 2) if e not in ((0, 1), (0, 2))]
    return [(Graph(10, octahedron + wheel), Fraction(5, 3)),
            (Graph(10, octahedron + c5), Fraction(5, 3)),
            (Graph(11, two_chords), Fraction(4, 3)),
            (Graph(8, k6e + [(5, 6), (6, 7), (5, 7)]), Fraction(9, 5)),
            (Graph(9, k5 + [(4 + u, 4 + v) for u, v in k5]), Fraction(5, 3))]


def test_glued_small_blocks_solve_no_lp(monkeypatch):
    # each answer is the largest of its blocks' table values, found with no
    # LP, and the search without the table agrees
    lps = []
    real = coloring._solve_cover_lp
    monkeypatch.setattr(coloring, "_solve_cover_lp", lambda n, cols: lps.append(n) or real(n, cols))
    for G, value in _glued_blocks():
        lps.clear()
        assert fractional_dichromatic(G) == value
        assert lps == []
    _without_table(monkeypatch)
    for G, value in _glued_blocks()[1:]:
        assert fractional_dichromatic(G) == value


def _forest_cover_value(G):
    # va_f(G), the covering LP over the maximal induced forests
    return coloring._solve_cover_lp(G.n, coloring._maximal_induced_forests(G))[0]


def test_fractional_stop_is_never_below_the_fractional_dichromatic_number(monkeypatch):
    # the stop with and without the table against the stop-free search on
    # the 300 stop graphs, and that search against the brute-force LP over
    # every lower-half code where basis enumeration is cheap (n <= 5,
    # m <= 7: 97 graphs; K5 alone takes about 20 s).  With the table the
    # stop is the answer when every block has at most 6 vertices.  Without
    # it, va_f is computed on every graph, also where the clique test skips
    # it, and must then be at least the stop
    graphs = _stop_graphs()
    stops = [_stop_and_known(G)[0] for G in graphs]
    _without_table(monkeypatch)
    bare_stops = [_stop_and_known(G)[0] for G in graphs]
    _without_stops(monkeypatch)
    families = {}
    skipped = brute = reached = lowered = small = 0
    for G, stop, bare_stop in zip(graphs, stops, bare_stops):
        value = fractional_dichromatic(G)
        assert stop >= value and bare_stop >= value
        if _has_small_blocks(G):
            small += 1
            assert stop == value
        k, colors = degeneracy_coloring(G)
        cyclic = [B.bit_count() for B in blocks(G) if B.bit_count() > 2]
        block_stop = min(k // 2 + 1, max(colors) + 1,
                         max(2 if s <= 6 else coloring._tournament_bound(s) for s in cyclic))
        forests = _forest_cover_value(G)
        if coloring._has_clique(G.adj, G.full_mask, ceil(2 * block_stop)):
            skipped += 1
            assert bare_stop == block_stop <= forests
        else:
            assert bare_stop == min(block_stop, forests)
        reached += bare_stop == value
        lowered += bare_stop < block_stop
        if G.n <= 5 and len(G.edges) <= 7:
            brute += 1
            best = 0
            for D in _lower_codes(G):
                key = (G.n, tuple(sorted(maximal_acyclic_sets(D))))
                if key not in families:
                    families[key] = digraph_fractional_bruteforce(G.n, D.arcs())
                best = max(best, families[key])
            assert best == value
    assert graphs[0] == K5 and stops[0] == Fraction(7, 4)
    # the table answers 267 of them; without it the stop is the answer on
    # 240, the clique test skips va_f on 29, and va_f lowers the stop on 270
    assert small >= 267 and brute >= 97 and reached >= 240
    assert skipped >= 29 and lowered >= 270


def test_fractional_floor_is_never_above_the_fractional_dichromatic_number(monkeypatch):
    # the lower bound, tested against each graph's own stop, against the
    # stop-free search: it meets the stop on every stop graph whose blocks
    # have at most 6 vertices (267), on 17 of the other 33, and, without the
    # table, on none of the exhausting dichif graphs, whose searches no stop
    # ends
    graphs = _stop_graphs()
    floors = []
    for G in graphs:
        stop, known = _stop_and_known(G)
        floors.append((G, coloring._fractional_floor(G, stop, known), stop))
    _without_table(monkeypatch)
    for G in _exhausting_dichif_graphs():
        stop, known = _stop_and_known(G)
        floors.append((G, coloring._fractional_floor(G, stop, known), stop))
    _without_stops(monkeypatch)
    met = []
    for G, floor, stop in floors:
        assert floor <= fractional_dichromatic(G) <= stop
        met.append(floor >= stop)
    small = [_has_small_blocks(G) for G in graphs]
    assert all(m for m, s in zip(met, small) if s)
    assert sum(small) >= 267 and sum(m for m, s in zip(met, small) if not s) >= 17
    assert not any(met[len(graphs):])


def test_fractional_floor_finds_the_shortest_cycle():
    # below a stop of 3/2, with no table value, the bound is g / (g - 1) for
    # the girth g, which networkx computes on seeded non-forests, cycles and
    # a cycle with chords
    rng = random.Random(29)
    graphs = [cycle_graph(n) for n in (3, 4, 9, 20)]
    graphs.append(Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)]))
    while len(graphs) < 100:
        G = _random_graph(rng, n_max=12, p=rng.choice((0.15, 0.25, 0.5)))
        if not is_forest(G):
            graphs.append(G)
    for G in graphs:
        g = nx.girth(nx.Graph(list(G.edges)))
        assert coloring._fractional_floor(G, Fraction(1), 0) == Fraction(g, g - 1)


def test_girth_floor_decides_as_the_clique_floor():
    # the lower bound meets the stop exactly where the clique floor it
    # replaced did, on the stop graphs and on 200 seeded graphs with a block
    # of at least 7 vertices, n <= 26 and n <= m <= 2n.  The table answers
    # the rest, so some block has 7 or more vertices, and a K_m of G gives a
    # degeneracy stop of at least floor((m - 1) / 2) + 1, m colours, a block
    # bound of at least t(7) = 3 and va_f >= m / 2: only the triangle at a
    # stop of 3/2 met it, and the girth bound finds that triangle.  The
    # floor meets the stop on 332 of the 500, on 59 by the girth bound
    rng = random.Random(7)
    graphs = _stop_graphs()
    while len(graphs) < 500:
        n = rng.randint(7, 26)
        pairs = list(combinations(range(n), 2))
        G = Graph(n, sorted(rng.sample(pairs, rng.randint(n, min(2 * n, len(pairs))))))
        if max(map(int.bit_count, blocks(G))) >= 7:
            graphs.append(G)
    met = by_girth = 0
    for G in graphs:
        stop, known = _stop_and_known(G)
        floor = coloring._fractional_floor(G, stop, known)
        assert (floor >= stop) == (clique_fractional_floor(G, stop, known) >= stop)
        met += floor >= stop
        by_girth += known < stop <= floor
    assert met >= 332 and by_girth >= 59


def test_sampled_dichif_is_not_ended_by_the_lower_bound():
    # the sampled answer is the best sampled value, which may lie below the
    # exact 7/4 of K5 where the lower bound meets the stop
    got = {}
    for trials in (1, 16):
        for seed in range(4):
            got[trials, seed] = fractional_dichromatic(K5, trials=trials, seed=seed)
            samples = _samples(K5, trials, seed)
            assert got[trials, seed] == _first_maximum(samples, digraph_fractional_chromatic)[0]
    assert [got[1, s] for s in range(4)] == [Fraction(3, 2)] * 4
    assert [got[16, s] for s in range(4)] == [Fraction(7, 4)] + [Fraction(5, 3)] * 3


def test_fractional_stop_ends_cycle_like_searches(monkeypatch):
    # C16 and C20 stop at va_f = n / (n - 1), and C8 with the chord 02 at
    # va_f = 3/2: each is one block past the table.  The LPs counted are va_f
    # and one per family evaluated.  The shortest cycle, and the triangle
    # of the lower bound, meet each stop, so no orientation is evaluated.
    # K5 plus a 10-edge path and K_{1,19} plus an edge between two leaves
    # have blocks of at most 5 vertices, so the table answers them with no
    # LP, at the K5 entry 7/4 and the triangle's 3/2
    lps = []
    real = coloring._solve_cover_lp
    monkeypatch.setattr(coloring, "_solve_cover_lp", lambda n, cols: lps.append(n) or real(n, cols))
    k5_path = Graph(15, list(K5.edges) + [(4 + i, 5 + i) for i in range(10)])
    star_edge = Graph(20, [(0, i) for i in range(1, 20)] + [(1, 2)])
    chord = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 2)])
    cases = [(cycle_graph(16), Fraction(16, 15), 1), (cycle_graph(20), Fraction(20, 19), 1),
             (chord, Fraction(3, 2), 1), (k5_path, Fraction(7, 4), 0),
             (star_edge, Fraction(3, 2), 0)]
    for G, value, count in cases:
        lps.clear()
        assert fractional_dichromatic(G) == value
        assert len(lps) == count


def test_petersen_search_stops_at_the_degeneracy_bound(monkeypatch):
    # Petersen is 3-degenerate, so the search ends at the first code with
    # value 2: code 18.  Code 0 is acyclic, its one-part cover {V} stays
    # acyclic in codes 1-17, and code 18, the first the pool does not bound,
    # has a directed cycle, so it reaches the stop of 2 with no value
    # computed: only code 0 is evaluated
    G = kneser_graph(5, 2)
    codes = []
    real = coloring._acyclic_cover

    def counted(D):
        codes.append(D.bits)
        return real(D)

    monkeypatch.setattr(coloring, "_acyclic_cover", counted)
    # the one value raises the best, so the lazy orbit skip never searches Aut(G)
    started = []
    monkeypatch.setattr(coloring, "_automorphism_maps", started.append)
    value, witness = dichromatic_number_exact(G)
    assert (value, witness.bits) == (2, 18)
    assert codes == [0]
    assert started == []
    # every earlier code is acyclic, so 18 is the first maximum of the full search
    full = G.full_mask
    assert [dfs_has_cycle(G.n, Digraph(G, c).arcs(), full) for c in range(19)] == [False] * 18 + [True]


def _pool_graphs():
    # seeded non-forests with n <= 7 and 9 <= m <= 12, where every other
    # one contains K5 and so has at least its 10 edges.  There degeneracy 4
    # gives the bound 3, which no orientation with at most 12 edges
    # reaches, so only the block stop (2, and 7/4 for dichif) ends the
    # search
    rng = random.Random(71)
    graphs = []
    while len(graphs) < 8:
        n = rng.randint(5, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(9, min(12, len(pairs)))
        core = list(combinations(sorted(rng.sample(range(n), 5)), 2)) if len(graphs) % 2 else []
        rest = [e for e in rng.sample(pairs, len(pairs)) if e not in core]
        graphs.append(Graph(n, core + rest[: max(m, len(core)) - len(core)]))
    return graphs


def _first_maximum(digraphs, value):
    # the pool-free search: every orientation evaluated, the first maximum kept
    best, witness = 0, None
    for D in digraphs:
        c = value(D)
        if c > best:
            best, witness = c, D
    return best, witness


def _samples(G, trials, seed):
    return [random_orientation(G, derive_rng(seed, i)) for i in range(trials)]


def _lower_codes(G):
    return [Digraph(G, code) for code in range(1 << (len(G.edges) - 1))]


def test_pooled_search_matches_bruteforce_first_maximum():
    full_searches = 0
    for G in _pool_graphs():
        values = [brute_digraph_chromatic(G.n, Digraph(G, code).arcs())
                  for code in range(1 << len(G.edges))]
        best = max(values)
        assert dichromatic_number_exact(G) == (best, Digraph(G, values.index(best)))
        full_searches += best < degeneracy_coloring(G)[0] // 2 + 1
    assert full_searches >= 4


def test_pooled_sampled_search_matches_pool_free_loop(monkeypatch):
    # exact mode (the lower half of the codes) and sampled mode (--mode mc);
    # fractional_dichromatic returns no witness, so record the search's
    searches = []
    real = coloring._best_orientation

    def recorded(*args, **kwargs):
        searches.append(real(*args, **kwargs))
        return searches[-1]

    families = {}

    def lp_value(D):
        # digraph_fractional_chromatic, solved once per family
        key = tuple(sorted(maximal_acyclic_sets(D)))
        if key not in families:
            families[key] = digraph_fractional_chromatic(D)
        return families[key]

    monkeypatch.setattr(coloring, "_best_orientation", recorded)
    # the lower bound would end exact dichif searches with no witness and
    # no pool
    _without_fractional_floor(monkeypatch)
    for seed, G in enumerate(_pool_graphs()):
        runs = [(trials, _samples(G, trials, seed)) for trials in (1, 5, 37, 300)]
        if len(G.edges) <= 12:
            runs.append((None, _lower_codes(G)))
        for trials, digraphs in runs:
            if trials is None:
                got = dichromatic_number_exact(G)
            else:
                got = dichromatic_lower_bound_mc(G, trials=trials, seed=seed)
            assert got == _first_maximum(digraphs, digraph_chromatic_number)
            expected = _first_maximum(digraphs, lp_value)
            assert fractional_dichromatic(G, trials=trials, seed=seed) == expected[0]
            assert searches[-1] == expected


def test_cached_pool_verdicts_keep_every_pool_decision(monkeypatch):
    # against the search that tests every pooled set with is_acyclic each
    # time and, in exact mode, replays the orbit skip with brute-force
    # automorphisms: the same orientations evaluated, value and witness, with
    # no more is_acyclic calls, in exact and sampled mode, for dichi and
    # dichif covers, with the same stop (the fractional one for the LP
    # covers) and, for dichi, the stop at a cyclic orientation with no value
    # computed.  The fractional stop ends most dichif searches on the pool
    # graphs early, so the exhausting dichif graphs are searched too, and the
    # lower bound that would end exact dichif searches before the pool is off
    _without_fractional_floor(monkeypatch)
    calls = []
    real_is_acyclic = coloring.is_acyclic

    def counted(D, within=None):
        calls.append(within)
        return real_is_acyclic(D, within)

    monkeypatch.setattr(coloring, "is_acyclic", counted)
    monkeypatch.setattr(oracles, "is_acyclic", counted)

    def lp_cover(D):
        _, cover, _ = coloring._solve_cover_lp(D.graph.n, maximal_acyclic_sets(D))
        return cover.objective, [mask for mask, _ in cover.parts]

    fewer = 0
    for seed, G in enumerate(_pool_graphs() + _exhausting_dichif_graphs()):
        stops = {True: coloring._orientation_stop(G), False: _stop_and_known(G)[0]}
        for trials, digraphs in ((None, _lower_codes(G)), (300, _samples(G, 300, seed))):
            for value, integer in ((coloring._acyclic_cover, True), (lp_cover, False)):
                evaluated = []

                def recorded(D):
                    evaluated.append(D.bits)
                    return value(D)

                calls.clear()
                best, witness = coloring._best_orientation(G, recorded, trials, seed, 20, integer)
                cached_calls = len(calls)
                calls.clear()
                expected = uncached_pooled_search(digraphs, value, stops[integer], coloring.COVER_POOL,
                                                  G if trials is None else None, integer)
                assert (best, witness, evaluated) == expected
                assert cached_calls <= len(calls)
                fewer += cached_calls < len(calls)
    assert fewer >= 16


def _act(action, code):
    # an action from coloring._automorphism_maps applied to a code: one entry
    # of 16 per 4 bits, XORed
    image = 0
    for t in range(0, len(action) // 16):
        image ^= action[16 * t + ((code >> (4 * t)) & 15)]
    return image


def _action_key(G, f):
    # a map c -> P(c) ^ F with P linear over GF(2) is fixed by its images of
    # 0 and of each one-bit code
    return (f(0),) + tuple(f(1 << i) for i in range(len(G.edges)))


def _networkx_actions(G):
    # the distinct actions on codes of every automorphism networkx finds,
    # the identity left out
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    actions = set()
    for iso in nx.algorithms.isomorphism.GraphMatcher(H, H).isomorphisms_iter():
        perm = [iso[v] for v in range(G.n)]
        actions.add(_action_key(G, lambda c: permuted_code(G, perm, c)))
    actions.discard(_action_key(G, lambda c: c))
    return actions


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_automorphism_maps_are_the_edge_actions_of_aut(n, data):
    # exactly the non-identity actions of Aut(G), each once; isolated
    # vertices and K2 components make many automorphisms share an action
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    G = Graph(n, edges)
    maps = coloring._automorphism_maps(G)
    keys = [_action_key(G, lambda c, a=a: _act(a, c)) for a, _ in maps]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _networkx_actions(G)


def test_automorphism_maps_of_named_graphs():
    for G, count in ((kneser_graph(5, 2), 119), (_biclique(3, 3), 71), (K5, 119), (K5_PENDANT, 23),
                     (cycle_graph(7), 13), (Graph(9, [(0, 1), (2, 3), (3, 4)]), 3)):
        maps = coloring._automorphism_maps(G)
        assert len(maps) == count
        assert {_action_key(G, lambda c, a=a: _act(a, c)) for a, _ in maps} == _networkx_actions(G)
    # the Frucht graph is cubic with no automorphism but the identity: every
    # vertex is a candidate for every other, and every other branch dies
    frucht = Graph(12, sorted(tuple(sorted(e)) for e in nx.frucht_graph().edges()))
    assert coloring._automorphism_maps(frucht) == []
    # K_{2,10} has 2 * 10! automorphisms: the collection stops at the cap,
    # with distinct actions of automorphisms only
    G = _biclique(2, 10)
    maps = coloring._automorphism_maps(G)
    assert len(maps) == coloring.AUT_MAPS
    assert len({_action_key(G, lambda c, a=a: _act(a, c)) for a, _ in maps}) == len(maps)
    for action, _ in maps[::97]:
        # P permutes the bits, and the image of an orientation is isomorphic
        # to it
        flip = _act(action, 0)
        assert sorted(_act(action, 1 << i) ^ flip for i in range(20)) == [1 << i for i in range(20)]
        code = 0x5A5A5
        pair = [nx.DiGraph(Digraph(G, c).arcs()) for c in (code, _act(action, code))]
        assert nx.is_isomorphic(*pair)


def test_mapped_codes_are_isomorphic_orientations():
    # an orientation and its image, and the image's reverse, have the same
    # sorted sizes of maximal acyclic sets (brute force)
    rng = random.Random(67)
    graphs = [K5, K5_PENDANT, cycle_graph(6), _biclique(3, 3)]
    while len(graphs) < 10:
        G = _random_graph(rng, n_max=7, p=0.6)
        if len(G.edges) >= 3 and coloring._automorphism_maps(G):
            graphs.append(G)

    def sizes(G, code):
        return sorted(map(int.bit_count, brute_maximal_acyclic_sets(G.n, Digraph(G, code).arcs())))

    for G in graphs:
        full = (1 << len(G.edges)) - 1
        maps = coloring._automorphism_maps(G)
        for code in rng.sample(range(full + 1), min(6, full + 1)):
            for action, _ in rng.sample(maps, min(8, len(maps))):
                image = _act(action, code)
                assert sizes(G, image) == sizes(G, image ^ full) == sizes(G, code)


def _orderly_graphs():
    # K5, K5 plus a pendant edge relabelled so that the pendant edge is not
    # the last position, K_{3,3}, K_{2,4}, C6 and 30 seeded non-forests with
    # at most 11 edges
    relabel = [3, 5, 0, 1, 4, 2]
    pendant = Graph(6, sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in K5_PENDANT.edges))
    rng = random.Random(89)
    graphs = [K5, pendant, _biclique(3, 3), _biclique(2, 4), cycle_graph(6)]
    while len(graphs) < 35:
        G = _random_graph(rng, n_max=7, p=rng.choice((0.4, 0.6)))
        if not is_forest(G) and len(G.edges) <= 11:
            graphs.append(G)
    return graphs


def test_orderly_orientations_are_the_orbit_minimal_codes():
    # the pruned depth-first search yields exactly the lower-half codes that
    # no given automorphism maps lower, tested code by code on the vertex
    # permutations behind the actions: with every collected action and with
    # the first half of them, sent after code 0 or after some later code,
    # when every code up to that one comes first
    nontrivial = 0
    for G in _orderly_graphs():
        half = 1 << (len(G.edges) - 1)
        by_action = {_action_key(G, lambda c, p=p: permuted_code(G, p, c)): p
                     for p in brute_automorphisms(G)}
        maps = coloring._automorphism_maps(G)
        nontrivial += len(maps) > 1
        for chosen in (maps, maps[:len(maps) // 2]):
            perms = [by_action[_action_key(G, lambda c, a=a: _act(a, c))] for a, _ in chosen]
            expected = orbit_minimal_codes(G, perms)
            digraphs = coloring._orderly_orientations(G)
            got = [next(digraphs)]
            assert digraphs.send(chosen) is None
            got += digraphs
            assert [D.bits for D in got] == expected
            # each digraph carries the in-masks of its code
            assert all(D.in_masks == Digraph(G, D.bits).in_masks for D in got)
            for start in (1, half // 3, half - 1):
                digraphs = coloring._orderly_orientations(G)
                codes = [next(digraphs).bits for _ in range(start + 1)]
                assert digraphs.send(chosen) is None
                codes += [D.bits for D in digraphs]
                assert codes == list(range(start + 1)) + [c for c in expected if c > start]
    assert nontrivial >= 20


def test_complete_graph_dichromatic_numbers():
    # the smallest 3-dichromatic tournament has 7 vertices and the smallest
    # 4-dichromatic one 11 (Neumann-Lara, Discrete Math. 135, 1994), so
    # dichi(K_n) is 2 for 3 <= n <= 6 and 3 for n = 7, 8.  The witnesses of
    # K7 and K8 are pinned; K7's is checked to be the first code reaching 3
    for n in range(3, 9):
        G = complete_graph(n)
        value, witness = dichromatic_number_exact(G, edge_budget=len(G.edges))
        assert value == (2 if n <= 6 else 3)
        assert brute_digraph_chromatic(n, witness.arcs()) == value
        if n >= 7:
            assert witness.bits == {7: 5617, 8: 19377}[n]
    K7 = complete_graph(7)
    assert all(digraph_chromatic_number(Digraph(K7, code)) <= 2 for code in range(5617))


def _exhausting_dichif_graphs():
    # graphs whose dichif search, with the table off, stops at no bound and
    # whose automorphisms are collected: K5 less an edge, less two edges at one vertex (5/3,
    # with a K4 inside, so no induced-forest LP), with a pendant edge, and
    # less two disjoint edges, the wheel with 4 spokes, K_{2,3}, K_{2,5},
    # K_{3,4}, C6 with two crossing chords and the octahedron
    k5 = list(K5.edges)
    at_vertex = [e for e in k5 if e not in ((0, 1), (0, 2))]
    return [Graph(5, k5[1:]), Graph(5, at_vertex), Graph(6, at_vertex + [(0, 5)]),
            Graph(5, [e for e in k5 if e not in ((0, 1), (2, 3))]),
            Graph(5, [(i, (i + 1) % 4) for i in range(4)] + [(i, 4) for i in range(4)]),
            _biclique(2, 3), _biclique(2, 5), _biclique(3, 4),
            Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]),
            Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3])]


def _orbit_graphs():
    # K5, K_{3,3}, C4 plus a chord, 40 seeded non-forests with at most 11
    # edges, the wheel with 5 spokes, the triangular prism and K_{2,4}, for
    # a skip-free search over every lower-half code.  The last three and
    # the exhausting dichif graphs are there for their dichif searches with
    # the table off; all but the prism's, which va_f ends, reach the lazy
    # start
    rng = random.Random(83)
    graphs = [K5, _biclique(3, 3), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])]
    while len(graphs) < 43:
        G = _random_graph(rng, n_max=7, p=rng.choice((0.4, 0.6)))
        if not is_forest(G) and len(G.edges) <= 11:
            graphs.append(G)
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    prism = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    return graphs + [wheel, prism, _biclique(2, 4)] + _exhausting_dichif_graphs()


def test_orbit_skip_keeps_values_and_witnesses(monkeypatch):
    # exact dichi value and witness and dichif value against a loop that
    # evaluates every code below 2^(e-1) with no pool and no orbit skip; the
    # dichif table, which would answer most of these graphs, is off
    _without_table(monkeypatch)
    started = []
    real = coloring._automorphism_maps
    monkeypatch.setattr(coloring, "_automorphism_maps", lambda G: started.append(G) or real(G))
    families = {}

    def lp_value(D):
        key = tuple(sorted(maximal_acyclic_sets(D)))
        if key not in families:
            families[key] = digraph_fractional_chromatic(D)
        return families[key]

    for G in _orbit_graphs():
        codes = _lower_codes(G)
        assert dichromatic_number_exact(G) == _first_maximum(codes, digraph_chromatic_number)
        assert fractional_dichromatic(G) == _first_maximum(codes, lp_value)[0]
    # 22 of the 112 searches reach the lazy start with a non-trivial Aut(G),
    # all of them dichif searches that no stop ends; no dichi search with a
    # stop of 2 calls value twice, so none of those reaches it
    assert sum(bool(real(G)) for G in started) >= 22


def test_bipartite_search_stops_at_the_first_cyclic_orientation(monkeypatch):
    # K_{4,4} is 4-degenerate, so the degeneracy stop is at 3, but its
    # greedy colouring has 2 colours and chi_f(D) <= chi(D) <= chi(G): the
    # search ends at the first code with a directed cycle, which is the
    # witness.  The pool bounds every code before it by the cover {V} of
    # code 0, and a cyclic code reaches the stop of 2, so only code 0 is
    # evaluated
    G = _biclique(4, 4)
    k, colors = degeneracy_coloring(G)
    assert (k, max(colors) + 1) == (4, 2)
    first = next(c for c in range(1 << 16) if dfs_has_cycle(G.n, Digraph(G, c).arcs(), G.full_mask))
    codes = []
    real = coloring._acyclic_cover

    def counted(D):
        codes.append(D.bits)
        return real(D)

    monkeypatch.setattr(coloring, "_acyclic_cover", counted)
    value, witness = dichromatic_number_exact(G)
    assert (value, witness.bits) == (2, first)
    assert codes == [0]


def test_fractional_dichromatic_is_bruteforce_maximum():
    # one LP per distinct family, over the lower half of the codes, gives the
    # maximum over all orientations
    for G in _small_non_forests():
        best = max(digraph_fractional_bruteforce(G.n, D.arcs()) for D in orientations(G))
        assert fractional_dichromatic(G) == best


def test_dichromatic_mc_witness_is_first_sampled_maximum():
    later_maximum_seen = False
    for seed, G in enumerate(_small_non_forests()):
        trials = (1 << len(G.edges)) // 2 - 1
        samples = [random_orientation(G, derive_rng(seed, i)) for i in range(trials)]
        values = [brute_digraph_chromatic(G.n, D.arcs()) for D in samples]
        best = max(values)
        value, witness = dichromatic_lower_bound_mc(G, trials=trials, seed=seed)
        assert value == best
        assert witness == samples[values.index(best)]
        later_maximum_seen |= values.index(best) > 0 and values.count(best) > 1
    assert later_maximum_seen


def test_fractional_chromatic_examples():
    for n in (1, 2, 4):
        value, cover, dual = fractional_chromatic_with_dual(complete_graph(n))
        assert value == n
        assert all(w == 1 for w in dual.values)
    assert fractional_chromatic_with_dual(cycle_graph(5))[0] == Fraction(5, 2)
    assert fractional_chromatic_with_dual(kneser_graph(5, 2))[0] == Fraction(5, 2)


def test_fractional_chromatic_matches_bruteforce():
    rng = random.Random(59)
    for _ in range(40):
        G = _random_graph(rng, n_max=5)
        assert fractional_chromatic_with_dual(G)[0] == fractional_chromatic_bruteforce(
            G.n, list(G.edges)
        )


def test_fractional_cover_feasibility_exact():
    rng = random.Random(6)
    for _ in range(50):
        G = _random_graph(rng, n_max=7)
        value, cover, dual = fractional_chromatic_with_dual(G)
        assert cover.objective == value == dual.total
        for v in range(G.n):
            assert cover.coverage(v) >= 1
        assert all(0 <= w <= 1 for _, w in cover.parts)


def _rejection(check, certificate):
    # the message a certificate check raises, or None when it accepts
    try:
        check(*certificate)
    except DicolorError as exc:
        return str(exc)
    return None


def _common_denominator(certificate):
    _, _, cover, weighting, value = certificate
    fractions = [value, *(wgt for _, wgt in cover.parts), *weighting.values]
    return lcm(*(f.denominator for f in fractions))


def _shift_cover(certificate, j, step):
    n, columns, cover, weighting, value = certificate
    parts = list(cover.parts)
    parts[j] = (parts[j][0], parts[j][1] + step)
    return n, columns, coloring.CoverSolution(tuple(parts), cover.objective), weighting, value


def _shift_dual(certificate, v, step):
    n, columns, cover, weighting, value = certificate
    values = list(weighting.values)
    values[v] += step
    return n, columns, cover, Weighting(tuple(values)), value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.booleans(), st.data())
def test_integer_certificate_check_agrees_with_fraction_check(n, acyclic, data):
    # every certificate _solve_cover_lp makes, over independent and acyclic
    # families, and every one-entry shift of it by 1/L or 1/(2L), where L is
    # its common denominator: both checks accept or raise the same message
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, [e for e in pairs if data.draw(st.booleans())])
    if acyclic:
        D = Digraph(G, data.draw(st.integers(0, (1 << len(G.edges)) - 1)))
        columns = maximal_acyclic_sets(D)
    else:
        columns = list(maximal_independent_sets(G))
    value, cover, weighting = coloring._solve_cover_lp(n, columns)
    certificate = (n, columns, cover, weighting, value)
    assert _rejection(fraction_check_certificate, certificate) is None
    L = _common_denominator(certificate)
    shifted = []
    for step in (Fraction(1, L), Fraction(-1, L), Fraction(1, 2 * L), Fraction(-1, 2 * L)):
        shifted += [_shift_cover(certificate, j, step) for j in range(len(cover.parts))]
        shifted += [_shift_dual(certificate, v, step)
                    for v in range(n) if weighting.values[v] + step >= 0]
        shifted.append(certificate[:4] + (value + step,))
    for candidate in shifted:
        expected = _rejection(fraction_check_certificate, candidate)
        assert expected is not None
        assert _rejection(coloring._check_certificate, candidate) == expected


def _named_certificates():
    tournament = Digraph.from_arcs(
        complete_graph(5), [(i, (i + d) % 5) for i in range(5) for d in (1, 2)]
    )
    yield 5, list(maximal_independent_sets(cycle_graph(5)))
    yield 10, list(maximal_independent_sets(kneser_graph(5, 2)))
    yield 5, maximal_acyclic_sets(tournament)
    directed_c7 = Digraph.from_arcs(cycle_graph(7), [(i, (i + 1) % 7) for i in range(7)])
    yield 7, maximal_acyclic_sets(directed_c7)


def test_certificate_check_rejects_each_shift_by_one_over_den():
    # a vertex v of positive dual weight has coverage exactly 1, and a part
    # through v of positive weight has dual weight exactly 1 (complementary
    # slackness), so one shift by 1/den trips each check on its own
    for n, columns in _named_certificates():
        value, cover, weighting = coloring._solve_cover_lp(n, columns)
        certificate = (n, columns, cover, weighting, value)
        assert value > 1 and _rejection(coloring._check_certificate, certificate) is None
        v = next(u for u in range(n) if weighting.values[u] > 0)
        j = next(i for i, (mask, _) in enumerate(cover.parts) if (mask >> v) & 1)
        L = _common_denominator(certificate)
        for step in (Fraction(1, L), Fraction(1, 2 * L)):
            cases = [
                (_shift_cover(certificate, j, -step), "violates coverage at vertex"),
                (_shift_cover(certificate, j, step), "cover objective mismatch"),
                (_shift_dual(certificate, v, step), "exceeds 1 on an admissible set"),
                (_shift_dual(certificate, v, -step), "dual objective mismatch"),
            ]
            for candidate, message in cases:
                with pytest.raises(DicolorError, match=message):
                    coloring._check_certificate(*candidate)
                assert message in _rejection(fraction_check_certificate, candidate)


def test_digraph_fractional_examples():
    K3 = complete_graph(3)
    trans = Digraph.from_arcs(K3, [(0, 1), (0, 2), (1, 2)])
    assert digraph_fractional_chromatic(trans) == 1
    cyc = Digraph.from_arcs(K3, [(0, 1), (1, 2), (2, 0)])
    assert digraph_fractional_chromatic(cyc) == Fraction(3, 2)
    C4 = cycle_graph(4)
    dir4 = Digraph.from_arcs(C4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert digraph_fractional_chromatic(dir4) == Fraction(4, 3)


def test_digraph_fractional_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(30):
        G = _random_graph(rng, n_max=5)
        D = random_orientation(G, rng.randrange(2**32))
        assert digraph_fractional_chromatic(D) == digraph_fractional_bruteforce(G.n, D.arcs())


def test_fractional_dichromatic_examples():
    assert fractional_dichromatic(path_graph(4)) == 1
    assert fractional_dichromatic(complete_graph(3)) == Fraction(3, 2)
    assert fractional_dichromatic(cycle_graph(4)) == Fraction(4, 3)
    sampled = fractional_dichromatic(complete_graph(3), trials=16, seed=4)
    assert sampled <= Fraction(3, 2)
    # the 20-vertex LP gate refuses only searches that need an LP: the
    # triangle and C4 are blocks in the table, so no orientation is
    # evaluated, while C7 is past it, its stop of 2 lies above its answer
    # 7/6, and the search needs an LP for its first orientation
    assert fractional_dichromatic(path_graph(30)) == 1
    assert fractional_dichromatic(Graph(21, [(0, 1), (1, 2), (0, 2)])) == Fraction(3, 2)
    assert fractional_dichromatic(Graph(21, [(0, 1), (1, 2), (2, 3), (0, 3)])) == Fraction(4, 3)
    with pytest.raises(BudgetExceededError) as exc:
        fractional_dichromatic(Graph(21, [(i, (i + 1) % 7) for i in range(7)]))
    assert str(exc.value) == "digraph fractional LP: needs 21, budget is 20"


def test_fractional_dichromatic_dominates_each_orientation():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        if len(edges) > 8:
            continue
        G = Graph(n, edges)
        best = fractional_dichromatic(G)
        for D in orientations(G):
            assert digraph_fractional_chromatic(D) <= best


def test_orientation_search_edges_agree():
    # one search serves dichi and dichif: same trials check, same shortcuts,
    # same edge gate
    for search in (
        lambda G, trials: dichromatic_lower_bound_mc(G, trials=trials),
        lambda G, trials: fractional_dichromatic(G, trials=trials),
    ):
        for G in (path_graph(4), complete_graph(3)):
            with pytest.raises(InputError):
                search(G, 0)
    # the exact gates count the 2^(e-1) codes the walk visits, as the
    # exhaustive --mode mc gate does: K7 (21 edges, 2^20 codes) answers, and
    # a pendant edge more is refused by all three with the same sizes
    K7 = complete_graph(7)
    assert dichromatic_number_exact(K7)[0] == 3
    assert fractional_dichromatic(K7) == Fraction(7, 3)
    assert dichromatic_lower_bound_mc(K7, trials=2**21)[0] == 3
    K7_pendant = Graph(8, list(K7.edges) + [(6, 7)])
    gates = []
    for search in (dichromatic_number_exact, fractional_dichromatic,
                   lambda G: dichromatic_lower_bound_mc(G, trials=2**22)):
        with pytest.raises(BudgetExceededError) as exc:
            search(K7_pendant)
        gates.append((exc.value.what, exc.value.needed, exc.value.limit))
    assert gates[0] == gates[1]
    assert {gate[1:] for gate in gates} == {(2**21, 2**20)}
    # the dichif table answers three K5s at one vertex (30 edges) before the
    # gate, since no orientation is evaluated; exact dichi is still refused
    three_k5 = Graph(13, sorted({tuple(sorted(e)) for base in (0, 4, 8)
                                 for e in combinations([0] + [base + i for i in range(1, 5)], 2)}))
    assert fractional_dichromatic(three_k5) == Fraction(7, 4)
    with pytest.raises(BudgetExceededError) as exc:
        dichromatic_number_exact(three_k5)
    assert (exc.value.what, exc.value.needed, exc.value.limit) == (gates[0][0], 2**29, 2**20)
    # past the 24-vertex budget of the digraph-chromatic search a non-forest
    # is still refused when sampled
    with pytest.raises(BudgetExceededError) as exc:
        dichromatic_lower_bound_mc(complete_graph(25), trials=4)
    assert str(exc.value) == "digraph-chromatic search: needs 25, budget is 24"


def test_dichromatic_mc_exhaustive_exactly_when_trials_cover_all_codes():
    for G in _small_non_forests():
        m = len(G.edges)
        assert dichromatic_lower_bound_mc(G, trials=1 << m, seed=3) == dichromatic_number_exact(G)
        value, witness = dichromatic_lower_bound_mc(G, trials=(1 << m) - 1, seed=3)
        samples = [random_orientation(G, derive_rng(3, i)) for i in range((1 << m) - 1)]
        assert witness == next(D for D in samples if digraph_chromatic_number(D) == value)


def test_fractional_independence_examples():
    assert fractional_independence(complete_graph(5))[0] == 1
    assert fractional_independence(empty_graph(4))[0] == 4
    value, weighting = fractional_independence(cycle_graph(5))
    assert value == 2
    assert sum(weighting, Fraction(0)) == 5


def test_fractional_independence_weighting_is_witness():
    from dicolor.sparse import Weighting

    rng = random.Random(21)
    for _ in range(30):
        G = _random_graph(rng, n_max=6)
        value, weighting = fractional_independence(G)
        w = Weighting(weighting)
        assert w.total == G.n
        worst = max(w.of(m) for m in maximal_independent_sets(G))
        assert worst == value


def test_sandwich_and_monotonicity():
    rng = random.Random(33)
    for _ in range(200):
        G = _random_graph(rng, n_max=7)
        chi = chromatic_number(G)
        chif = fractional_chromatic_with_dual(G)[0]
        assert chif <= chi
        for _ in range(3):
            D = random_orientation(G, rng.randrange(2**32))
            assert digraph_chromatic_number(D) <= chi
    # chi_f monotone under taking subgraphs
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        G = Graph(n, edges)
        sub_edges = [e for e in edges if rng.random() < 0.7]
        H = Graph(n, sub_edges)
        assert fractional_chromatic_with_dual(H)[0] <= fractional_chromatic_with_dual(G)[0]


def test_fractional_vs_dichromatic_not_monotone():
    # a pair witnessing that the dichromatic number is not a monotone
    # function of the fractional chromatic number
    G1 = cycle_graph(5)
    G2 = complete_graph(4)
    chif1 = fractional_chromatic_with_dual(G1)[0]
    chif2 = fractional_chromatic_with_dual(G2)[0]
    di1 = dichromatic_number_exact(G1)[0]
    di2 = dichromatic_number_exact(G2)[0]
    assert chif1 < chif2
    assert di1 >= di2


def test_degenerate_inputs():
    assert digraph_chromatic_number(Digraph(empty_graph(0), 0)) == 0
    assert fractional_chromatic_with_dual(empty_graph(0))[0] == 0
    assert fractional_dichromatic(empty_graph(0)) == 0
    assert fractional_chromatic_with_dual(empty_graph(3))[0] == 1
    assert fractional_dichromatic(empty_graph(3)) == 1
    assert dichromatic_number_exact(empty_graph(3))[0] == 1
