"""Orientation certification, union-bound arithmetic, certificate pipeline."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dicolor.certify import (
    CertifiedOrientation,
    certify_orientation,
    check_binomial_bound,
    cover_bound_certificate,
    enumerate_principal_dense,
    find_good_orientation,
    hypothesis_strict_scale,
    hypothesis_t_vs_density,
    union_bound_report,
)
from dicolor.errors import (
    BudgetExceededError,
    HypothesesNotMetError,
    InputError,
    TriesExhaustedError,
)
from dicolor.families import maximal_acyclic_sets
from dicolor.graphs import (
    Digraph,
    Graph,
    bit_list,
    complete_graph,
    cycle_graph,
    is_acyclic,
    iter_bits,
    path_graph,
    random_orientation,
)
from dicolor.sparse import Weighting, is_principal, ranked_order


def uniform_order(n):
    return ranked_order(Weighting.uniform(n))


def test_enumerate_candidates_examples():
    K4 = complete_graph(4)
    got = [bit_list(m) for m in enumerate_principal_dense(K4, uniform_order(4), 1, 2)]
    assert got == [[0, 1, 2], [0, 1, 2, 3]]
    got2 = [bit_list(m) for m in enumerate_principal_dense(K4, uniform_order(4), 2, 3)]
    assert got2 == [[0, 1, 2, 3]]
    assert list(enumerate_principal_dense(path_graph(5), uniform_order(5), 2, 2)) == []


def test_enumerate_candidates_are_principal_and_dense():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        G = Graph(n, edges)
        w = Weighting(tuple(Fraction(rng.randint(0, 5)) for _ in range(n)))
        order = ranked_order(w)
        t = rng.choice([Fraction(3, 2), Fraction(2)])
        d = rng.choice([Fraction(1), Fraction(2)])
        seen = set()
        for W in enumerate_principal_dense(G, order, t, d):
            assert is_principal(order, W, t)
            two_e = sum((G.adj[v] & W).bit_count() for v in iter_bits(W))
            assert two_e >= d * W.bit_count()
            seen.add(W)
        # completeness: nothing principal and dense was missed
        for mask in range(1, 1 << n):
            if is_principal(order, mask, t):
                two_e = sum((G.adj[v] & mask).bit_count() for v in iter_bits(mask))
                if two_e >= d * mask.bit_count():
                    assert mask in seen


def test_enumerate_order_under_nonuniform_weights():
    # by size, then lexicographic in rank positions; certify_orientation
    # reports the first acyclic set in this order as its violating set
    rng = random.Random(31)
    reordered = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        G = Graph(n, edges)
        w = Weighting(tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)))
        t = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2)])
        d = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
        ranked = sorted(range(n), key=lambda v: (-w.values[v], v))
        want = []
        for k in range(1, n + 1):
            for positions in combinations(range(n), k):
                if max(positions) >= math.floor(t * k):
                    continue
                W = sum(1 << ranked[p] for p in positions)
                inside = sum(1 for u, v in edges if (W >> u) & 1 and (W >> v) & 1)
                if 2 * inside >= d * k:
                    want.append(W)
        got = list(enumerate_principal_dense(G, ranked_order(w), t, d))
        assert got == want
        reordered += got != sorted(got, key=lambda W: (W.bit_count(), bit_list(W)))
    assert reordered


def test_enumerate_budget_gate():
    G = complete_graph(16)
    with pytest.raises(BudgetExceededError):
        enumerate_principal_dense(G, uniform_order(16), 2, 1, cap=10)


def test_certify_triangle_census():
    K3 = complete_graph(3)
    order = uniform_order(3)
    verdicts = [certify_orientation(Digraph(K3, code), order, 1, 2) for code in range(8)]
    assert sum(c.certified for c in verdicts) == 2
    # certified exactly when the triangle is a directed cycle
    for c in verdicts:
        assert c.certified == (not is_acyclic(c.digraph))
        assert c.sets_checked >= 1


def test_certify_vacuous_on_forest():
    D = random_orientation(path_graph(6), 3)
    cert = certify_orientation(D, uniform_order(6), 2, 2)
    assert cert.certified and cert.sets_checked == 0


def test_certified_verdict_stable_under_reversed_recheck():
    rng = random.Random(50)
    for _ in range(30):
        n = rng.randint(3, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        G = Graph(n, edges)
        order = uniform_order(n)
        D = random_orientation(G, rng.randrange(2**32))
        cert = certify_orientation(D, order, Fraction(3, 2), 2)
        if cert.certified:
            candidates = list(enumerate_principal_dense(G, order, Fraction(3, 2), 2))
            assert all(not is_acyclic(D, W) for W in reversed(candidates))


def test_find_good_orientation_examples():
    K3 = complete_graph(3)
    cert = find_good_orientation(K3, uniform_order(3), 1, 2, max_tries=8, seed=7)
    assert cert.certified and cert.tries <= 8
    tree = path_graph(5)
    cert2 = find_good_orientation(tree, uniform_order(5), 1, 2, max_tries=4, seed=0)
    assert cert2.certified and cert2.tries == 1 and cert2.sets_checked == 0
    K4 = complete_graph(4)
    cert3 = find_good_orientation(K4, uniform_order(4), 2, 3, max_tries=16, seed=3)
    assert cert3.certified


def test_find_good_orientation_exhaustion():
    # every 4-vertex tournament has a transitive triangle, so demanding all
    # triangles cyclic (t = 4 makes every triangle principal) cannot succeed
    K4 = complete_graph(4)
    with pytest.raises(TriesExhaustedError) as err:
        find_good_orientation(K4, uniform_order(4), 4, 2, max_tries=20, seed=0)
    assert err.value.tries == 20
    assert isinstance(err.value.best, CertifiedOrientation)
    assert not err.value.best.certified


def test_certification_rate_matches_census():
    # exact census fraction vs seeded Monte Carlo at 3 sigma, small cases
    cases = [
        (complete_graph(3), Fraction(1), Fraction(2)),
        (cycle_graph(4), Fraction(1), Fraction(2)),
    ]
    for G, t, d in cases:
        order = uniform_order(G.n)
        m = len(G.edges)
        census = sum(
            1 for code in range(1 << m) if certify_orientation(Digraph(G, code), order, t, d).certified
        )
        p = census / (1 << m)
        n_samples = 10_000
        rng = random.Random(900 + G.n)
        hits = sum(
            1
            for _ in range(n_samples)
            if certify_orientation(random_orientation(G, rng.randrange(2**60)), order, t, d).certified
        )
        sigma = math.sqrt(n_samples * p * (1 - p))
        assert abs(hits - n_samples * p) <= 3 * sigma


def test_union_bound_report_values():
    rep = union_bound_report(60)
    assert rep.hypothesis_ok
    assert abs(rep.d - 2 * math.log2(math.e * 3600)) < 1e-12
    assert rep.total < 1
    assert all(row.within_geometric for row in rep.terms)
    assert abs(rep.refined_tail - math.e**-2 * 60.0**-4) < 1e-15
    rep8 = union_bound_report(8)
    assert not rep8.hypothesis_ok
    with pytest.raises(InputError):
        union_bound_report(0)
    # log2(d + 1) needs d = 2 log2(e t^2) > -1, i.e. t > 0.510029...
    with pytest.raises(InputError):
        union_bound_report(Fraction(51, 100))
    assert -1 < union_bound_report(Fraction(52, 100)).d < 0
    # past the float range a term or its geometric bound reads inf
    rep = union_bound_report(Fraction(3, 2))
    assert rep.terms[-1].geometric == math.inf and rep.k_stop == 512


def test_union_bound_with_vertex_count():
    G = complete_graph(10)
    rep = union_bound_report(60, G)
    assert rep.n == 10 and len(rep.terms) == 10
    assert rep.tail_bound is None
    # n^2 bitlen(t n) / 2 estimates the bits of the exact counts
    assert len(union_bound_report(60, 1404).terms) == 1404
    with pytest.raises(BudgetExceededError):
        union_bound_report(60, 1405)


def test_binomial_bound_gate():
    # (e t)^k is refused before it is built once its bits pass 2^21
    assert check_binomial_bound(3, 1000)
    with pytest.raises(BudgetExceededError):
        check_binomial_bound(3, 61681)


def test_hypothesis_brackets():
    assert hypothesis_t_vs_density(Fraction(60))
    assert not hypothesis_t_vs_density(Fraction(8))
    assert hypothesis_strict_scale(Fraction(60))
    assert not hypothesis_strict_scale(Fraction(56))
    assert not hypothesis_strict_scale(Fraction(5, 2))


def test_binomial_bound_examples():
    assert check_binomial_bound(2, 1)  # C(2,1)=2 < 2e
    assert check_binomial_bound(1, 5)  # C(5,5)=1 < e^5
    assert check_binomial_bound(Fraction(3, 2), 4)
    with pytest.raises(InputError):
        check_binomial_bound(0, 1)


def test_certificate_relaxed_pipeline():
    G = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    w = Weighting((Fraction(1), Fraction(1), Fraction(1),
                   Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    rep = cover_bound_certificate(G, t=Fraction(9, 2), d=2, weighting=w, max_tries=64, seed=11)
    assert rep.certified
    assert rep.ratio == Fraction(9, 16)
    assert rep.max_acyclic_weight == Fraction(7, 2)
    assert dict(rep.hypotheses)["weight total equals t"]
    # pipeline soundness: the witness re-certifies and the weight bound
    # re-verifies against every maximal acyclic set
    order = ranked_order(w)
    recheck = certify_orientation(rep.orientation, order, rep.t, rep.d)
    assert recheck.certified
    assert all(w.of(m) <= 2 * rep.d + 4 for m in maximal_acyclic_sets(rep.orientation))


def test_certificate_uses_dual_weighting_by_default():
    G = complete_graph(3)
    rep = cover_bound_certificate(G, t=1, d=2, max_tries=32, seed=2)
    assert rep.fractional_value == 3
    assert rep.weight_total == 3  # the optimal clique weighting of K_3


def test_certificate_strict_gates_out():
    with pytest.raises(HypothesesNotMetError) as err:
        cover_bound_certificate(cycle_graph(5), strict=True, max_tries=2, seed=0)
    assert any("t > 4*log2" in name for name in err.value.failed)


def test_certificate_edgeless_reported_honestly():
    G = Graph(4, [])
    w = Weighting.uniform(4, 3)  # total 12 > 2d+4 = 8
    rep = cover_bound_certificate(G, t=12, d=2, weighting=w, max_tries=4, seed=0)
    assert rep.sets_checked == 0  # vacuous certification
    assert rep.max_acyclic_weight == 12
    assert not rep.certified  # the weight bound fails and is reported
    small = cover_bound_certificate(G, t=2, d=2, weighting=Weighting.uniform(4, Fraction(1, 2)),
                                    max_tries=4, seed=0)
    assert small.certified  # weight total 2 <= 8


def test_certificate_tries_exhausted_propagates():
    K4 = complete_graph(4)
    with pytest.raises(TriesExhaustedError):
        cover_bound_certificate(K4, t=4, d=2, weighting=Weighting.uniform(4), max_tries=8, seed=0)
