"""Kneser graphs, blow-ups, embeddings, and bound evaluators."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from dicolor.coloring import (
    chromatic_number,
    digraph_chromatic_number,
    fractional_chromatic_with_dual,
)
from dicolor.constructions import (
    _comb_capped,
    _four_m_squared_within,
    KNESER_INEQ_K_BUDGET,
    BlowUpMap,
    biclique_condition,
    biclique_failure_bound,
    bicliques_all_cyclic,
    blow_up,
    complete_blowup_lower_bound,
    complete_graph_lower_bound,
    detect_complete_blowup,
    kneser_blowup_embedding,
    kneser_graph,
    kneser_lower_bound,
    kneser_recursion_inequalities,
    kneser_vertex_sets,
    orient_blowup_bicliques,
    orient_complete_blowup,
    verify_embedding,
)
from dicolor.errors import BudgetExceededError, InputError, TriesExhaustedError
from dicolor.graphs import (
    complete_graph,
    cycle_graph,
    is_acyclic,
    mask_of,
    path_graph,
    random_orientation,
)


def test_kneser_small_census():
    pet = kneser_graph(5, 2)
    assert pet.n == 10 and len(pet.edges) == 15
    assert all(pet.degree(v) == 3 for v in range(10))
    k42 = kneser_graph(4, 2)
    assert k42.n == 6 and len(k42.edges) == 3
    assert kneser_graph(6, 1).edges == complete_graph(6).edges
    with pytest.raises(BudgetExceededError):
        kneser_graph(30, 10)
    with pytest.raises(InputError):
        kneser_graph(3, 4)


def test_kneser_vertex_order_is_colex():
    verts = kneser_vertex_sets(5, 2)
    assert verts[0] == (1, 2)
    assert verts[1] == (1, 3)
    assert verts[2] == (2, 3)
    assert len(verts) == 10


def test_kneser_identities_small():
    # chromatic n-2k+2 and fractional n/k on every instance with <= 16 vertices
    pairs = [
        (n, k)
        for k in range(1, 4)
        for n in range(2 * k, 20)
        if math.comb(n, k) <= 16
    ]
    assert (6, 2) in pairs and (16, 1) in pairs
    for n, k in pairs:
        G = kneser_graph(n, k)
        assert chromatic_number(G) == n - 2 * k + 2
        assert fractional_chromatic_with_dual(G)[0] == Fraction(n, k)


def test_blow_up_arithmetic():
    C5 = cycle_graph(5)
    B, bm = blow_up(C5, 2)
    assert B.n == 10 and len(B.edges) == 20
    assert bm.vertex(3, 1) == 7 and bm.origin(7) == (3, 1)
    K22, _ = blow_up(complete_graph(2), 2)
    assert len(K22.edges) == 4
    H1, _ = blow_up(C5, 1)
    assert H1.n == C5.n and H1.edges == C5.edges
    with pytest.raises(BudgetExceededError):
        blow_up(complete_graph(100), 100)


def test_blow_up_preserves_fractional_chromatic():
    for H in (cycle_graph(5), complete_graph(3)):
        B, _ = blow_up(H, 2)
        assert fractional_chromatic_with_dual(B)[0] == fractional_chromatic_with_dual(H)[0]


def test_embedding_cases_and_powers():
    wit = kneser_blowup_embedding(5, 2, 2, 1)
    assert wit.case == "x<t" and wit.power == 4 and wit.host_n == 10 and wit.host_k == 3
    assert verify_embedding(wit) == (True, None)
    wit2 = kneser_blowup_embedding(5, 2, 2, 2)
    assert wit2.case == "x=t" and wit2.power == math.comb(4, 2) - 2 == 4
    assert verify_embedding(wit2)[0]
    wit3 = kneser_blowup_embedding(5, 2, 3, 2, case="general")
    assert wit3.power == 6
    assert verify_embedding(wit3)[0]
    wit4 = kneser_blowup_embedding(3, 1, 3, 1, case="general")
    assert wit4.power == 2
    assert verify_embedding(wit4)[0]


def test_embedding_parameter_validation():
    with pytest.raises(InputError):
        kneser_blowup_embedding(5, 2, 2, 4)  # x >= kt
    with pytest.raises(InputError):
        kneser_blowup_embedding(2, 2, 2, 1)  # k = n
    with pytest.raises(InputError):
        kneser_blowup_embedding(5, 2, 2, 2, case="x<t")  # needs x < t
    with pytest.raises(InputError):
        kneser_blowup_embedding(5, 2, 2, 3, case="general")  # x > k(t-1)


def test_embedding_is_gated_before_any_subset_is_listed():
    # C(n, k) * power images: KG(5, 2) has 10 vertices of power 4
    assert len(kneser_blowup_embedding(5, 2, 2, 1, vertex_budget=40).images) == 40
    with pytest.raises(BudgetExceededError) as err:
        kneser_blowup_embedding(5, 2, 2, 1, vertex_budget=39)
    assert err.value.needed == 40
    with pytest.raises(BudgetExceededError) as err:
        kneser_blowup_embedding(1000, 3, 2, 1)
    assert err.value.needed == math.comb(1000, 3) * 6
    # power 0 (x = t = 1) still lists the C(n, k) vertex sets
    assert kneser_blowup_embedding(5, 2, 1, 1).power == 0
    with pytest.raises(BudgetExceededError) as err:
        kneser_blowup_embedding(100, 2, 1, 1)
    assert err.value.needed == 4950
    # binomials with millions of digits are not computed: a lower bound past
    # 2^64 times the budget is refused at once
    for args in ((10**6, 5 * 10**5, 2, 1), (5, 2, 10**6, 5 * 10**5), (5, 2, 10**6, 10**6)):
        with pytest.raises(BudgetExceededError) as err:
            kneser_blowup_embedding(*args)
        assert err.value.needed > 4096 << 64


def test_comb_capped_is_exact_below_the_cap_and_a_lower_bound_above():
    for n in range(0, 30):
        for k in range(n + 1):
            for cap in (0, 1, 7, 100, 10**6):
                got = _comb_capped(n, k, cap)
                exact = math.comb(n, k)
                assert got == exact if exact <= cap else cap < got <= exact


def test_embedding_rejects_perturbation():
    wit = kneser_blowup_embedding(5, 2, 2, 1)
    H = kneser_graph(5, 2)
    nbr = next(v for v in range(10) if H.is_edge(0, v))
    images = list(wit.images)
    images[1] = wit.images[nbr * wit.power]
    bad = dataclasses.replace(wit, images=tuple(images))
    ok, pair = verify_embedding(bad)
    assert not ok and pair is not None


def test_biclique_scan_counts_and_r1():
    K2 = complete_graph(2)
    B, bm = blow_up(K2, 4)
    D = random_orientation(B, 5)
    # r = 2 on one edge means exactly C(4,2)^2 = 36 copies: a cap of 35 trips
    with pytest.raises(BudgetExceededError):
        bicliques_all_cyclic(D, bm, 2, cap=35)
    bicliques_all_cyclic(D, bm, 2, cap=36)
    # r = 1 is always refuted by the first arc (a lone arc is acyclic)
    bad, counter1 = bicliques_all_cyclic(D, bm, 4)
    assert not bad and counter1 is not None


def test_biclique_all_rr_impossible_for_m4_r2():
    # with 4 copies a side, three rows cannot be pairwise complementary, so
    # some 2x2 biclique is always acyclic
    K2 = complete_graph(2)
    B, bm = blow_up(K2, 4)
    with pytest.raises(TriesExhaustedError):
        orient_blowup_bicliques(complete_graph(2), 4, 2, max_tries=64, seed=0)


def test_blowup_orientation_transfer():
    # locked regression: K_3 blown up by 2, k = 1, seed 0 certifies at try 823
    rep = orient_blowup_bicliques(complete_graph(3), 2, 1, max_tries=1024, seed=0)
    assert rep.tries == 823
    assert rep.r == 2 and not rep.condition_ok
    ok, _ = bicliques_all_cyclic(rep.digraph, rep.bmap, 1)
    assert ok
    # chromatic transfer: chi(K_3) = 3 > 1, so the oriented blow-up needs > 1
    assert chromatic_number(complete_graph(3)) == 3
    assert digraph_chromatic_number(rep.digraph) > 1


def test_biclique_condition_and_bound():
    assert biclique_condition(16, 1)
    assert not biclique_condition(4, 2)
    # the bit-length test agrees with building 2^r
    for m in range(1, 300):
        for k in range(1, 20):
            assert biclique_condition(m, k) == (4 * m * m <= 1 << -(-m // k))
        for r in range(0, 40):
            assert _four_m_squared_within(m, r) == (4 * m * m <= 1 << r)
    assert biclique_failure_bound(8, 2) == 2.0**16  # r = 4, vacuous and reported
    # past r > max(2 bitlen(m) + 3, 1075) the bound is 0.0 without building r^2
    for m in (1076, 5000, 10**5, 10**6 + 7):
        for k in (1, 2, 3):
            r = -(-m // k)
            direct = 2.0 ** (-r * r + 2 * r + 2 * r * math.log2(m))
            assert biclique_failure_bound(m, k) == direct
    assert biclique_failure_bound(10**400, 1) == 0.0


def test_detect_complete_blowup():
    G, _ = blow_up(complete_graph(5), 2)
    assert detect_complete_blowup(G) == (5, 2)
    assert detect_complete_blowup(path_graph(4)) is None
    assert detect_complete_blowup(cycle_graph(4)) == (2, 2)
    assert detect_complete_blowup(complete_graph(4)) == (4, 1)


def test_orient_complete_blowup_vacuous():
    rep = orient_complete_blowup(4, 2, max_tries=4, seed=0)
    assert rep.default_t == 12 and rep.t == 12
    assert rep.vacuous and rep.digraph is None


def test_orient_complete_blowup_regression():
    rep = orient_complete_blowup(5, 2, t_override=6, max_tries=512, seed=1)
    assert rep.tries == 6 and rep.subsets_checked == 210
    assert rep.coloring_bound == Fraction(10, 5)
    # independent re-verification over every 6-subset
    from itertools import combinations

    for combo in combinations(range(10), 6):
        assert not is_acyclic(rep.digraph, mask_of(combo))


def test_orient_complete_blowup_validates_graph():
    with pytest.raises(InputError):
        orient_complete_blowup(3, 2, graph=path_graph(6))
    G, _ = blow_up(complete_graph(3), 2)
    rep = orient_complete_blowup(3, 2, t_override=5, max_tries=64, seed=0, graph=G)
    assert rep.t == 5


def test_bound_evaluators():
    assert abs(complete_graph_lower_bound(1024) - 51.2) < 1e-12
    assert abs(complete_blowup_lower_bound(4, 2) - 2 / 3) < 1e-12
    assert kneser_lower_bound(200, 2) == 3
    assert kneser_lower_bound(48, 2) == 1
    assert kneser_lower_bound(4, 2) == 0
    # a huge n with a small n - 2k + 2 stays inside the integer-size gate
    assert kneser_lower_bound(10**400, 5 * 10**399 - 3) == 0
    with pytest.raises(InputError):
        kneser_lower_bound(3, 2)
    with pytest.raises(InputError):
        complete_graph_lower_bound(1)
    # the float bounds take integers below 2^1023, not N = 10^400
    assert complete_graph_lower_bound(2**1022) == 2.0**1022 / 2044
    with pytest.raises(BudgetExceededError):
        complete_graph_lower_bound(2**1023)
    with pytest.raises(BudgetExceededError):
        complete_blowup_lower_bound(2**1022, 2)


def test_kneser_lower_bound_monotone_in_n():
    for k in (2, 3, 4):
        values = [kneser_lower_bound(n, k) for n in range(2 * k, 2 * k + 120)]
        assert values == sorted(values)


def test_kneser_lower_bound_floor_certified():
    # the returned z must satisfy z <= (n-2k+2)/(8 log2(n/k)) < z+1 exactly
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 6)
        n = rng.randint(2 * k, 2 * k + 300)
        z = kneser_lower_bound(n, k)
        num = n - 2 * k + 2
        if z > 0:
            assert n ** (8 * z) <= k ** (8 * z) << num
        assert n ** (8 * (z + 1)) > k ** (8 * (z + 1)) << num


def test_kneser_recursion_inequalities():
    for k in [8] + list(range(10, 41)):
        got = kneser_recursion_inequalities(k)
        assert got["blowup_power"], f"first family fails at k={k}"
        assert got["small_power"], f"second family fails at k={k}"
    with pytest.raises(InputError):
        kneser_recursion_inequalities(7)
    with pytest.raises(BudgetExceededError):
        kneser_recursion_inequalities(KNESER_INEQ_K_BUDGET + 1)
