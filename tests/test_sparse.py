"""Ranked orders, principal/sparse predicates, and the layer split."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dicolor.errors import BudgetExceededError, ClassificationGapError, InputError
from dicolor.graphs import Graph, complete_graph, cycle_graph, iter_bits, path_graph
from dicolor.sparse import (
    Weighting,
    degeneracy_coloring,
    find_principal_dense,
    is_principal,
    is_sparse,
    _principal_dense_sets,
    ranked_order,
    sparse_split,
)

from oracles import combinations_principal_dense_sets, scan_degeneracy_coloring


def test_ranked_order_examples():
    assert ranked_order(Weighting((Fraction(1, 2), Fraction(3), Fraction(3)))).order == (1, 2, 0)
    assert ranked_order(Weighting.uniform(4)).order == (0, 1, 2, 3)
    assert ranked_order(Weighting((Fraction(5), Fraction(1), Fraction(4)))).order == (0, 2, 1)


def test_ranked_order_is_non_increasing():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(1, 10)
        w = Weighting(tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)))
        order = ranked_order(w)
        for i in range(n - 1):
            a, b = order.order[i], order.order[i + 1]
            assert w.values[a] > w.values[b] or (w.values[a] == w.values[b] and a < b)


def test_prefix_examples():
    order = ranked_order(Weighting.uniform(6))
    assert order.prefix(Fraction(29, 10)) == 0b000011
    assert order.prefix(0) == 0
    assert order.prefix(99) == 0b111111
    assert order.prefix_of(0b101010, 2) == 0b001010
    with pytest.raises(InputError):
        order.prefix(-1)


def test_is_principal_examples():
    order = ranked_order(Weighting.uniform(6))
    assert is_principal(order, 0b000011, 2)
    assert not is_principal(order, 0b010000, 2)
    assert is_principal(order, 0b111111, 1)
    with pytest.raises(InputError):
        is_principal(order, 0, 2)


def test_is_sparse_examples():
    order = ranked_order(Weighting.uniform(6))
    assert is_sparse(order, 0b100100, 2)  # {v3, v6}
    assert not is_sparse(order, 0b000010, 2)  # {v2}: k=2 gives 1 >= 1
    assert is_sparse(order, 0, 2)


def test_sparse_implies_size_bound():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randint(1, 10)
        w = Weighting(tuple(Fraction(rng.randint(0, 9)) for _ in range(n)))
        order = ranked_order(w)
        Y = rng.getrandbits(n) or 1
        s = rng.choice([Fraction(3, 2), Fraction(2), Fraction(3)])
        X = Y & rng.getrandbits(n)
        if is_sparse(order, X, s, Y):
            assert X.bit_count() * s < Y.bit_count() or X == 0


@settings(derandomize=True, max_examples=150)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_hereditary_sparsity(n, data):
    weights = data.draw(st.tuples(*[st.integers(min_value=0, max_value=8) for _ in range(n)]))
    order = ranked_order(Weighting(tuple(Fraction(v) for v in weights)))
    Y = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    s = data.draw(st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]))
    X = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & Y
    if not is_sparse(order, X, s, Y) or X.bit_count() > 6:
        return
    sub = X
    while True:  # all subsets of X
        assert is_sparse(order, sub, s, Y)
        if sub == 0:
            break
        sub = (sub - 1) & X


def test_split_triangle_example():
    split = sparse_split(complete_graph(3), 0b111, Weighting.uniform(3), 3, 2)
    assert split.l1 == 0b100 and split.l2 == 0 and split.rest == 0b011
    assert split.back_degree == {0: 0, 1: 1, 2: 2}


def test_split_independent_set():
    split = sparse_split(path_graph(4), 0b0101, Weighting.uniform(4), 2, 1)
    assert split.l1 == split.l2 == 0 and split.rest == 0b0101


def test_split_zero_threshold():
    # with d = 0 every vertex lands in the layer; at t = 1 the dichotomy
    # resolves (everything goes to L2) and the rest is empty
    G = complete_graph(4)
    split = sparse_split(G, 0b1111, Weighting.uniform(4), 1, 0)
    assert split.rest == 0
    # at t > 1 the hypothesis is false outright (a lone heavy vertex is a
    # principal set of average degree 0), so the gap fires with a witness
    with pytest.raises(ClassificationGapError) as err:
        sparse_split(G, 0b1111, Weighting.uniform(4), 4, 0)
    order = ranked_order(Weighting.uniform(4))
    assert is_principal(order, err.value.witness, 4)


def test_split_layers_have_high_back_degree():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        w = Weighting(tuple(Fraction(rng.randint(0, 5)) for _ in range(n)))
        A = rng.getrandbits(n) or 1
        d = rng.choice([Fraction(1), Fraction(2)])
        try:
            split = sparse_split(G, A, w, Fraction(2), d)
        except ClassificationGapError:
            continue
        for v in iter_bits(split.layer):
            assert split.back_degree[v] >= d
        for v in iter_bits(split.rest):
            assert split.back_degree[v] < d
        assert split.rest | split.layer == A
        assert not split.rest & split.layer


def test_gap_error_carries_valid_witness():
    # engineered instance: heavy dense prefix forces the dichotomy to fail
    G = complete_graph(6)
    w = Weighting.uniform(6)
    with pytest.raises(ClassificationGapError) as err:
        sparse_split(G, G.full_mask, w, Fraction(10), Fraction(1))
    witness = err.value.witness
    order = ranked_order(w)
    assert is_principal(order, witness, Fraction(10))
    two_e = sum((G.adj[v] & witness).bit_count() for v in iter_bits(witness))
    assert two_e >= 1 * witness.bit_count()


def test_find_principal_dense_examples():
    assert find_principal_dense(complete_graph(5), 0b11111, Weighting.uniform(5), 1, 2) == 0b00111
    assert find_principal_dense(path_graph(6), 0b111111, Weighting.uniform(6), 2, 2) is None
    K9 = complete_graph(9)
    got = find_principal_dense(K9, (1 << 9) - 1, Weighting.uniform(9), Fraction(3, 2), 2)
    assert got == 0b000000111


def test_find_principal_dense_cap_is_lazy():
    # the prefix scan misses; the search counts 2 + 3 candidates, finds
    # {0, 2} among the 2-sets and stops before the 3-sets pass the cap
    G = Graph(4, [(0, 2)])
    w = Weighting.uniform(4)
    assert find_principal_dense(G, 0b111, w, 2, 1, cap=5) == 0b101
    with pytest.raises(BudgetExceededError):
        find_principal_dense(G, 0b111, w, 2, 1, cap=4)
    with pytest.raises(InputError):
        find_principal_dense(G, 0b10000, w, 2, 1)


def _run_dense(gen) -> tuple[list[int], int | None]:
    """The sets a principal-dense generator yields, and the running count
    it was refused at (None when it ran to the end)."""
    got = []
    try:
        for W in gen:
            got.append(W)
    except BudgetExceededError as exc:
        return got, exc.needed
    return got, None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_principal_dense_search_matches_the_subset_scan(n, data):
    # the depth-first search must give the oracle's sets in the oracle's
    # order, stop at the same first set, and be refused at the same size
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    p = data.draw(st.sampled_from([0.2, 0.5, 0.7, 0.9]))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    G = Graph(n, [e for e in pairs if rng.random() < p])
    w = Weighting(tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)))
    order = ranked_order(w)
    t = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]))
    d = data.draw(st.sampled_from([
        Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
        Fraction(7, 3), Fraction(3), Fraction(31, 4),
    ]))
    full = (1 << n) - 1
    within = data.draw(st.sampled_from([full, rng.getrandbits(n)]))
    k_max = data.draw(st.integers(min_value=0, max_value=n))
    args = (G, order, t, d, within, k_max)
    want = list(combinations_principal_dense_sets(*args, 1 << 30))
    assert list(_principal_dense_sets(*args, 1 << 30)) == want
    assert next(_principal_dense_sets(*args, 1 << 30), None) == (want[0] if want else None)
    cap = data.draw(st.integers(min_value=0, max_value=300))
    assert _run_dense(_principal_dense_sets(*args, cap)) == _run_dense(
        combinations_principal_dense_sets(*args, cap))


def test_find_principal_dense_definitional():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(3, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.55]
        G = Graph(n, edges)
        w = Weighting(tuple(Fraction(rng.randint(0, 6)) for _ in range(n)))
        A = rng.getrandbits(n) or 1
        t = rng.choice([Fraction(3, 2), Fraction(2), Fraction(3)])
        d = rng.choice([Fraction(1), Fraction(2)])
        got = find_principal_dense(G, A, w, t, d)
        order = ranked_order(w)
        if got is not None:
            assert got and not got & ~A
            assert is_principal(order, got, t)
            two_e = sum((G.adj[v] & got).bit_count() for v in iter_bits(got))
            assert two_e >= d * got.bit_count()
        else:
            # exhaustive confirmation that nothing qualifies
            for mask in range(1, 1 << n):
                if mask & ~A:
                    continue
                if not is_principal(order, mask, t):
                    continue
                two_e = sum((G.adj[v] & mask).bit_count() for v in iter_bits(mask))
                assert two_e < d * mask.bit_count()


def test_existence_when_heavy_and_independents_light():
    # whenever w(V) = t, w(A) > 2d+4, and every independent subset of A has
    # weight at most 1, a principal dense subset must exist
    from dicolor.families import maximal_independent_sets

    instances = [
        (complete_graph(6), Weighting.uniform(6), Fraction(6), Fraction(1, 2)),
        (complete_graph(7), Weighting.uniform(7), Fraction(7), Fraction(1)),
        (
            complete_graph(8),
            Weighting(tuple([Fraction(1)] * 4 + [Fraction(3, 4)] * 4)),
            Fraction(7),
            Fraction(1, 2),
        ),
    ]
    for G, w, t, d in instances:
        A = G.full_mask
        assert w.total == t
        assert w.of(A) > 2 * d + 4
        assert max(w.of(m) for m in maximal_independent_sets(G, within=A)) <= 1
        assert t >= 2 * (d + 1)
        assert find_principal_dense(G, A, w, t, d) is not None


def test_split_weight_chain_exact():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        w = Weighting(tuple(Fraction(rng.randint(0, 7), rng.randint(1, 2)) for _ in range(n)))
        A = rng.getrandbits(n) or 1
        try:
            split = sparse_split(G, A, w, Fraction(3), Fraction(2))
        except ClassificationGapError:
            continue
        assert w.of(split.rest) >= w.of(A) - w.of(split.l1) - w.of(split.l2)


def test_degeneracy_coloring_examples():
    for G, want_degen in [(path_graph(5), 1), (complete_graph(4), 3), (cycle_graph(4), 2)]:
        degen, colors = degeneracy_coloring(G)
        assert degen == want_degen
        used = {c for c in colors if c is not None}
        assert len(used) <= degen + 1
        for u, v in G.edges:
            assert colors[u] != colors[v]


def test_degeneracy_coloring_on_subset():
    G = complete_graph(5)
    degen, colors = degeneracy_coloring(G, within=0b00111)
    assert degen == 2
    assert colors[3] is None and colors[4] is None
    assert len({colors[0], colors[1], colors[2]}) == 3


def test_degeneracy_coloring_matches_the_scan_oracle():
    # the chromatic number's ceiling, the orientation search's stop and the
    # acceptance checks read this colouring, so it must not move
    rng = random.Random(67)
    for _ in range(600):
        n = rng.randint(0, 30)
        p = rng.choice((0.05, 0.2, 0.5, 0.8, 1.0))
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for within in (None, rng.randrange(1 << n), rng.randrange(1 << n) & rng.randrange(1 << n)):
            assert degeneracy_coloring(G, within) == scan_degeneracy_coloring(G, within)
