"""Exact simplex on small packing programs."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from dicolor.coloring import fractional_chromatic_with_dual
from dicolor.constructions import kneser_graph
from dicolor import simplex
from dicolor.errors import DicolorError, InputError
from dicolor.families import maximal_acyclic_sets, maximal_independent_sets
from dicolor.graphs import Graph, random_orientation
from dicolor.simplex import UnboundedError, simplex_max

from oracles import fraction_simplex_max, packing_lp_value


def test_single_constraint():
    value, x, y = simplex_max(
        [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(1)]],
        [Fraction(1)],
    )
    assert value == 1
    assert sum(x) == 1
    assert y == [Fraction(1)]


def test_known_small_lp():
    # max x0 + x1 s.t. 2x0 + x1 <= 4, x0 + 3x1 <= 6
    value, x, y = simplex_max(
        [Fraction(1), Fraction(1)],
        [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
        [Fraction(4), Fraction(6)],
    )
    assert value == Fraction(14, 5)
    assert x == [Fraction(6, 5), Fraction(8, 5)]
    # dual feasibility and strong duality
    assert 2 * y[0] + y[1] >= 1 and y[0] + 3 * y[1] >= 1
    assert 4 * y[0] + 6 * y[1] == value


def test_negative_rhs_rejected():
    with pytest.raises(InputError):
        simplex_max([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([1, 1], [[1, 1, 1]], [1]),  # a longer row: its extra entry was dropped
        ([1, 1], [[1, 1], [1]], [1, 1]),  # a shorter row: a bare IndexError
        ([1], [[1], [1]], [1]),  # b shorter than A: a bare IndexError
    ],
    ids=["long-row", "short-row", "short-rhs"],
)
def test_shape_mismatch_rejected(c, A, b):
    with pytest.raises(InputError):
        simplex_max(c, A, b)


def test_random_packing_vs_vertex_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        # ensure every variable is bounded so the program is not unbounded
        for j in range(n):
            if not any(row[j] for row in rows):
                rows[rng.randrange(m)][j] = 1
        value, x, y = simplex_max(
            [Fraction(1)] * n,
            [[Fraction(v) for v in row] for row in rows],
            [Fraction(1)] * m,
        )
        assert value == packing_lp_value(rows, n)
        # primal feasibility
        for row in rows:
            assert sum(c * xi for c, xi in zip(row, x)) <= 1
        # strong duality with the packing rhs of ones
        assert sum(y, Fraction(0)) == value


def test_deterministic_result():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    a = simplex_max([Fraction(1)] * 3, [[Fraction(v) for v in r] for r in rows], [Fraction(1)] * 3)
    b = simplex_max([Fraction(1)] * 3, [[Fraction(v) for v in r] for r in rows], [Fraction(1)] * 3)
    assert a == b


def _random_rational(rng, lo, hi):
    return Fraction(rng.randint(lo * 6, hi * 6), rng.choice((1, 2, 3, 4, 5, 6, 7)))


def test_integer_pivoting_matches_fraction_tableau():
    # the integer tableau must take the Fraction tableau's pivot path, so
    # value, x and y agree exactly, unbounded programs included; zero
    # right-hand sides make degenerate ratio ties for Bland's leaving rule
    rng = random.Random(20261018)
    bounded = 0
    for _ in range(2700):
        n = rng.randint(1, 7)
        m = rng.randint(1, 8)
        A = [
            [Fraction(0) if rng.random() < 0.3 else _random_rational(rng, -1, 3) for _ in range(n)]
            for _ in range(m)
        ]
        b = [Fraction(0) if rng.random() < 0.25 else _random_rational(rng, 0, 4) for _ in range(m)]
        c = [_random_rational(rng, -2, 3) for _ in range(n)]
        try:
            expected = fraction_simplex_max(c, A, b)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                simplex_max(c, A, b)
            continue
        got = simplex_max(c, A, b)
        assert got == expected
        assert all(type(v) is Fraction for v in (got[0], *got[1], *got[2]))
        bounded += 1
    assert bounded >= 2000


def _union(*parts):
    """Disjoint union of cliques "K<k>" and cycles "C<k>"."""
    edges = []
    base = 0
    for part in parts:
        k = int(part[1:])
        if part[0] == "K":
            edges += [(base + i, base + j) for i, j in combinations(range(k), 2)]
        else:
            edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return Graph(base, edges)


# the fixed covering LPs of the benchmark's fractional workload
COVER_LPS = {
    "1xK3+C5": ("K3", "C5"),
    "2xK3+C5": ("K3", "K3", "C5"),
    "3xK3+C5": ("K3", "K3", "K3", "C5"),
    "KG(5,2)": (5, 2),
    "KG(6,2)": (6, 2),
    "K3+C5+C5": ("K3", "C5", "C5"),
    "K4+K4+C5": ("K4", "K4", "C5"),
    "K4+C5+C5": ("K4", "C5", "C5"),
}


@pytest.mark.parametrize("name", COVER_LPS)
def test_cover_lp_matches_fraction_tableau(name):
    spec = COVER_LPS[name]
    G = kneser_graph(*spec) if name.startswith("KG") else _union(*spec)
    columns = list(maximal_independent_sets(G))
    A = [[(col >> v) & 1 for v in range(G.n)] for col in columns]
    expected = fraction_simplex_max([1] * G.n, A, [1] * len(columns))
    assert simplex_max([1] * G.n, A, [1] * len(columns)) == expected
    value, cover, weighting = fractional_chromatic_with_dual(G)
    assert value == expected[0]
    assert cover.parts == tuple((col, y) for col, y in zip(columns, expected[2]) if y > 0)
    assert weighting.values == tuple(expected[1])


def _pivot_kinds(pivots):
    """The update branch each pivot of ``simplex_max`` takes on integer data.

    ``pivots`` are the Fraction tableau's pivot elements.  With integer data
    the integer tableau is D times the rational one, so its pivot is p = a D
    for the rational pivot a, and D becomes p: p == D exactly when a == 1.
    """
    kinds = Counter()
    D = 1
    for a in pivots:
        kinds["p == D > 1" if a == 1 and D > 1 else "p == D == 1" if a == 1 else "p != D"] += 1
        D *= a
    return kinds


def _solve_cover_lp(n, columns):
    """simplex_max against the Fraction tableau on the covering LP's dual
    over ``columns``, as ``_solve_cover_lp`` poses it; the pivot kinds."""
    c, A, b = [1] * n, [[(col >> v) & 1 for v in range(n)] for col in columns], [1] * len(columns)
    pivots = []
    expected = fraction_simplex_max(c, A, b, pivots)
    assert simplex_max(c, A, b) == expected
    return _pivot_kinds(pivots)


def _random_graph(rng, n):
    p = rng.uniform(0.1, 0.9)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def test_integer_pivoting_matches_fraction_tableau_on_independent_set_lps():
    # the chif LPs: both update branches, and p == D > 1 among them
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(150):
        G = _random_graph(rng, rng.randint(1, 16))
        kinds += _solve_cover_lp(G.n, list(maximal_independent_sets(G)))
    assert kinds["p == D == 1"] >= 900
    assert kinds["p == D > 1"] >= 50
    assert kinds["p != D"] >= 40


def test_integer_pivoting_matches_fraction_tableau_on_acyclic_set_lps():
    # the dichif LPs, over the maximal acyclic sets of random orientations
    rng = random.Random(20261020)
    kinds = Counter()
    for _ in range(300):
        G = _random_graph(rng, rng.randint(2, 8))
        kinds += _solve_cover_lp(G.n, maximal_acyclic_sets(random_orientation(G, rng)))
    assert kinds["p == D == 1"] >= 450
    assert kinds["p == D > 1"] >= 100
    assert kinds["p != D"] >= 150


@pytest.mark.parametrize("name", ["KG(5,2)", "C5+C5"])
def test_cover_lp_with_pivot_equal_to_a_denominator_above_one(name):
    G = kneser_graph(5, 2) if name == "KG(5,2)" else _union("C5", "C5")
    kinds = _solve_cover_lp(G.n, list(maximal_independent_sets(G)))
    assert kinds["p == D > 1"] >= 2


def test_a_broken_tableau_update_raises_instead_of_pivoting_forever(monkeypatch):
    # an update that leaves the tableau as it was keeps the entering column's
    # reduced cost negative, so the same columns enter again and again; Bland's
    # rule never repeats a basis, so past C(n + m, m) pivots simplex_max
    # raises instead of hanging
    pivots = []
    monkeypatch.setattr(simplex, "_pivot", lambda rows, leave, enter, D: pivots.append(enter))
    with pytest.raises(DicolorError, match="pivots"):
        simplex_max([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert len(pivots) == comb(5, 3)
