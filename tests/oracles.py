"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's algorithms: LP values
come from basic-solution enumeration instead of simplex, cycle detection
is DFS-based instead of source peeling, and maximal families come from
direct subset scans.  Slow and only meant for tiny instances, except
``milp_chromatic``, an integer program that scipy's HiGHS solves at the
24-vertex budget.  Some references copy replaced library code instead:
``fraction_simplex_max``, the dense Fraction tableau that the library's
integer-pivoting simplex must match pivot for pivot,
``generator_maximal_independent_sets``, the ``yield from`` Bron-Kerbosch
whose order the list-built one must keep set for set,
``combinations_principal_dense_sets``, the subset scan whose sets, order
and cap refusals the depth-first principal-dense search must keep,
``fraction_check_certificate``, the Fraction certificate check whose
verdicts and messages the integer one must keep, ``min_cover``, the
minimum over subsets that the cover decision search replaced, whose work
bounds the search's, and ``min_cover_chromatic`` on top of it,
``scan_degeneracy_coloring``, the live-set scan whose degeneracy and colours
the degree-mask elimination must keep, and ``uncached_pooled_search``, the
orientation search that calls ``is_acyclic`` on every pooled set it checks
and finds the orbit skip's automorphisms by trying every vertex permutation,
whose pool and orbit decisions the library's search must keep.  ``orbit_minimal_codes`` tests
every code against every given automorphism, the code-by-code skip whose
codes the pruned depth-first search must yield.
``per_candidate_maximal_acyclic_sets``,
``per_candidate_maximal_induced_forests`` and
``per_candidate_max_acyclic_weight`` are the include/exclude searches with
one extension test per candidate at each include step, whose sets, order,
values and cap refusals the reachability closures must keep.
``clique_fractional_floor`` is the ``dichif`` lower bound that read
dichif(K_m) for a clique K_m of the graph, whose decisions the girth floor
must keep.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, lcm
from typing import Iterator

from dicolor.coloring import _fractional_floor, _has_clique
from dicolor.errors import BudgetExceededError, DicolorError, InputError
from dicolor.families import COLUMN_CAP, _extends, _joins_forest, maximal_independent_sets
from dicolor.graphs import Digraph, Graph, is_acyclic, iter_bits, mask_of
from dicolor.simplex import UnboundedError


def solve_square(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Fraction Gaussian elimination; None when the system is singular."""
    n = len(M)
    A = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = A[col][col]
        A[col] = [x / inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def packing_lp_value(rows: list[list[int]], n: int) -> Fraction:
    """max sum(w) s.t. rows . w <= 1, w >= 0 by basic-solution enumeration.

    Every vertex of the polytope makes n of the constraints (rows plus
    nonnegativity) tight; enumerate all bases, keep feasible points, take
    the best objective.
    """
    constraints = [[Fraction(x) for x in row] for row in rows]
    constraints += [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    rhs_all = [Fraction(1)] * len(rows) + [Fraction(0)] * n
    best = Fraction(0)  # w = 0 is always feasible
    for picks in combinations(range(len(constraints)), n):
        M = [constraints[i] for i in picks]
        rhs = [rhs_all[i] for i in picks]
        point = solve_square(M, rhs)
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if any(sum(c * x for c, x in zip(row, point)) > 1 for row in rows):
            continue
        value = sum(point, Fraction(0))
        if value > best:
            best = value
    return best


def brute_maximal_independent_sets(n: int, edges: list[tuple[int, int]]) -> set[int]:
    def independent(mask: int) -> bool:
        return all(not ((mask >> u) & 1 and (mask >> v) & 1) for u, v in edges)

    ind = [m for m in range(1 << n) if independent(m)]
    ind_set = set(ind)
    out = set()
    for m in ind:
        if not any((m | (1 << v)) in ind_set for v in range(n) if not (m >> v) & 1):
            out.add(m)
    return out


def is_independent(G: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if G.adj[v] & mask:
            return False
    return True


def generator_maximal_independent_sets(
    G: Graph, within: int | None = None, containing: int | None = None
) -> Iterator[int]:
    """Bron-Kerbosch with pivoting as a chain of ``yield from`` generators:
    the order ``maximal_independent_sets`` must keep."""
    S = G.full_mask if within is None else within
    if S == 0:
        yield 0
        return
    compat = [~G.adj[v] & S & ~(1 << v) for v in range(G.n)]

    def bk(R: int, P: int, X: int) -> Iterator[int]:
        if not P and not X:
            yield R
            return
        pivot = -1
        best = -1
        for u in iter_bits(P | X):
            c = (P & compat[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        for v in iter_bits(P & ~compat[pivot]):
            vm = 1 << v
            yield from bk(R | vm, P & compat[v], X & compat[v])
            P &= ~vm
            X |= vm

    if containing is None:
        yield from bk(0, S, 0)
    else:
        if not (S >> containing) & 1:
            raise InputError(f"anchor vertex {containing} is outside the ground set")
        yield from bk(1 << containing, compat[containing], 0)


def combinations_principal_dense_sets(
    G: Graph, order, t: Fraction, d: Fraction, within: int, k_max: int, cap: int
) -> Iterator[int]:
    """Every k-subset of prefix(t*k) & within (k <= k_max) scored with
    ``combinations`` against d*k: the order ``_principal_dense_sets`` must
    keep, with the same cap check before each size."""
    total = 0
    for k in range(1, k_max + 1):
        P = order.prefix(t * k) & within
        verts = [v for v in order.order if (P >> v) & 1]
        if len(verts) < k:
            continue
        total += comb(len(verts), k)
        if total > cap:
            raise BudgetExceededError("principal-dense search", total, cap)
        need = d * k  # average degree >= d  <=>  2 e(G[W]) >= d |W|
        for combo in combinations(verts, k):
            W = mask_of(combo)
            if sum((G.adj[v] & W).bit_count() for v in combo) >= need:
                yield W


def dfs_has_cycle(n: int, arcs: list[tuple[int, int]], within: int) -> bool:
    """Directed-cycle detection by colored DFS (independent of peeling)."""
    nbrs = {v: [] for v in range(n)}
    for a, b in arcs:
        if (within >> a) & 1 and (within >> b) & 1:
            nbrs[a].append(b)
    color = {v: 0 for v in range(n) if (within >> v) & 1}
    for start in color:
        if color[start]:
            continue
        stack = [(start, iter(nbrs[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if color[u] == 1:
                    return True
                if color[u] == 0:
                    color[u] = 1
                    stack.append((u, iter(nbrs[u])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return False


def brute_maximal_acyclic_sets(
    n: int, arcs: list[tuple[int, int]], within: int | None = None
) -> set[int]:
    """Maximal acyclic subsets of ``within`` (default: all n vertices)."""
    full = (1 << n) - 1 if within is None else within
    acyc = [m for m in range(1 << n) if not m & ~full and not dfs_has_cycle(n, arcs, m)]
    acyc_set = set(acyc)
    out = set()
    for m in acyc:
        if not any((m | (1 << v)) in acyc_set for v in range(n) if not (m >> v) & 1 and (full >> v) & 1):
            out.add(m)
    return out


def brute_max_acyclic_weight(
    n: int, arcs: list[tuple[int, int]], weights: list[Fraction]
) -> Fraction:
    """Largest total weight of an acyclic vertex set, by scanning all 2^n subsets."""
    return max(
        sum((weights[v] for v in range(n) if (m >> v) & 1), Fraction(0))
        for m in range(1 << n)
        if not dfs_has_cycle(n, arcs, m)
    )


def brute_chromatic(n: int, edges: list[tuple[int, int]]) -> int:
    """Smallest k admitting a proper coloring, by direct assignment search."""
    if n == 0:
        return 0
    if not edges:
        return 1
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = -1
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def milp_chromatic(n: int, edges: list[tuple[int, int]]) -> int:
    """Chromatic number from a colouring integer program solved by HiGHS.

    Binary x[v, c] puts v in class c and y[c] opens class c, for c below
    the size k of a greedy colouring; minimise the open classes subject to
    one class per vertex, x[u, c] + x[v, c] <= y[c] on every edge and
    x[v, c] <= y[c].  Classes open in order (y[c] >= y[c + 1]) and the
    vertices of one maximum clique are fixed to distinct classes, which
    keeps every optimum and cuts the symmetric copies.
    """
    import networkx as nx
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    if n == 0:
        return 0
    if not edges:
        return 1
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    k = max(nx.greedy_color(H, strategy="largest_first").values()) + 1
    size = n * k + k

    def x(v: int, c: int) -> int:
        return v * k + c

    def y(c: int) -> int:
        return n * k + c

    rows: list[dict[int, int]] = []
    lower: list[float] = []
    for v in range(n):
        rows.append({x(v, c): 1 for c in range(k)})
        lower.append(1)
    for c in range(k):
        for u, v in edges:
            rows.append({x(u, c): 1, x(v, c): 1, y(c): -1})
        for v in range(n):
            rows.append({x(v, c): 1, y(c): -1})
        if c + 1 < k:
            rows.append({y(c + 1): 1, y(c): -1})
    lower += [-np.inf] * (len(rows) - n)
    upper = [1] * n + [0] * (len(rows) - n)
    entries = [(i, j, a) for i, row in enumerate(rows) for j, a in row.items()]
    i, j, a = zip(*entries)
    A = coo_matrix((a, (i, j)), shape=(len(rows), size)).tocsr()
    fixed = np.zeros(size)
    for c, v in enumerate(max(nx.find_cliques(H), key=len)):
        fixed[x(v, c)] = 1
    cost = np.zeros(size)
    cost[n * k:] = 1
    res = milp(
        cost,
        constraints=LinearConstraint(A, lower, upper),
        integrality=np.ones(size),
        bounds=Bounds(fixed, np.ones(size)),
    )
    if not res.success:
        raise RuntimeError(f"colouring ILP not solved: {res.message}")
    return round(res.fun)


def min_cover(full: int, parts_for) -> tuple[int, list[int]]:
    """Minimum number of admissible parts covering ``full``, with such parts:
    the minimum over subsets (Lawler 1976) that ``chromatic_number`` and
    ``_acyclic_cover`` computed before their decision search.

    ``parts_for(S)`` must yield the maximal admissible subsets of ``S``
    that contain one vertex of ``S`` it picks, the same vertex and the same
    order on every call with that ``S``; correctness only needs every
    admissible set to be contained in a maximal one.  The memo keeps counts
    only; the parts are recovered afterwards by walking down from ``full``
    along the first part that attains each count.
    """
    memo: dict[int, float] = {0: 0}

    def rec(S: int) -> float:
        cached = memo.get(S)
        if cached is not None:
            return cached
        best = float("inf")
        for M in parts_for(S):
            if M == S:
                best = 1
                break
            best = min(best, rec(S & ~M) + 1)
        memo[S] = best
        return best

    count = rec(full)
    # rec(S) recursed on S & ~M for every part M up to the first one
    # attaining memo[S], so each lookup below hits the memo
    parts = []
    S = full
    while S:
        need = memo[S] - 1
        M = next(M for M in parts_for(S) if memo[S & ~M] == need)
        parts.append(M)
        S &= ~M
    return int(count), parts


def min_cover_chromatic(G: Graph) -> int:
    """The chromatic number as ``chromatic_number`` computed it before the
    decision search: the minimum over subsets of ``min_cover``, branching
    on the maximal independent sets through a vertex of largest degree in
    G[S], the lowest on ties."""
    adj = G.adj

    def parts_for(S: int):
        v = max(iter_bits(S), key=lambda u: (adj[u] & S).bit_count())
        return maximal_independent_sets(G, within=S, containing=v)

    return min_cover(G.full_mask, parts_for)[0]


def scan_degeneracy_coloring(G: Graph, within: int | None = None) -> tuple[int, list[int | None]]:
    """``degeneracy_coloring`` as the library computed it before its degree
    masks: each step scans the live set for a vertex of least degree (the
    lowest on ties), and each vertex, in reverse elimination order, takes
    the least colour missing from its coloured neighbours."""
    S = G.full_mask if within is None else within
    live = S
    elim: list[int] = []
    degeneracy = 0
    while live:
        best_v = -1
        best_d = -1
        for v in iter_bits(live):
            dv = (G.adj[v] & live).bit_count()
            if best_v < 0 or dv < best_d:
                best_v = v
                best_d = dv
        degeneracy = max(degeneracy, best_d)
        elim.append(best_v)
        live &= ~(1 << best_v)
    colors: list[int | None] = [None] * G.n
    for v in reversed(elim):
        used = {colors[u] for u in iter_bits(G.adj[v] & S) if colors[u] is not None}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return degeneracy, colors


def fractional_chromatic_bruteforce(n: int, edges: list[tuple[int, int]]) -> Fraction:
    """Exact fractional chromatic number via the dual packing LP solved by
    basic-solution enumeration over maximal independent sets."""
    if n == 0:
        return Fraction(0)
    columns = sorted(brute_maximal_independent_sets(n, edges))
    rows = [[1 if (col >> v) & 1 else 0 for v in range(n)] for col in columns]
    return packing_lp_value(rows, n)


def digraph_fractional_bruteforce(n: int, arcs: list[tuple[int, int]]) -> Fraction:
    if n == 0:
        return Fraction(0)
    columns = sorted(brute_maximal_acyclic_sets(n, arcs))
    rows = [[1 if (col >> v) & 1 else 0 for v in range(n)] for col in columns]
    return packing_lp_value(rows, n)


def brute_digraph_chromatic(n: int, arcs: list[tuple[int, int]]) -> int:
    """Fewest acyclic classes covering the vertices, by direct assignment search."""
    if n == 0:
        return 0
    c = 1
    while not any(
        all(not dfs_has_cycle(n, arcs, sum(1 << v for v in range(n) if colors[v] == k))
            for k in range(c))
        for colors in product(range(c), repeat=n)
    ):
        c += 1
    return c


def _succ_has_cycle(succ: list[int], within: int) -> bool:
    """Directed-cycle detection by colored DFS over successor masks: a
    successor on the current path closes a cycle.  The masks are built once
    per orientation, where :func:`dfs_has_cycle` builds its lists on every
    call, which made :func:`brute_dichromatic` twice as slow."""
    done = 0
    for start in iter_bits(within):
        if (done >> start) & 1:
            continue
        on_path = 1 << start
        stack = [(start, succ[start] & within)]
        while stack:
            v, rest = stack[-1]
            if rest & on_path:
                return True
            rest &= ~done
            if rest:
                low = rest & -rest
                stack[-1] = (v, rest ^ low)
                on_path |= low
                u = low.bit_length() - 1
                stack.append((u, succ[u] & within))
            else:
                stack.pop()
                on_path ^= 1 << v
                done |= 1 << v
    return False


def brute_dichromatic(G: Graph) -> int:
    """Largest digraph chromatic number over the orientations of G, each by
    direct search: 1 when the whole orientation is acyclic, 2 when some
    split into two sets is acyclic on both sides, and otherwise
    :func:`brute_digraph_chromatic`.  Only the codes below 2^(e-1) are
    tried, since reversing every arc keeps the acyclic sets."""
    n, m = G.n, len(G.edges)
    full = (1 << n) - 1
    best = 0
    for code in range(1 << max(m - 1, 0)):
        succ = [0] * n
        for i, (u, v) in enumerate(G.edges):
            if (code >> i) & 1:
                succ[u] |= 1 << v
            else:
                succ[v] |= 1 << u
        if not _succ_has_cycle(succ, full):
            c = 1
        elif any(not _succ_has_cycle(succ, S) and not _succ_has_cycle(succ, full ^ S)
                 for S in range(1, full + 1, 2)):
            c = 2
        else:
            arcs = [(u, v) for u in range(n) for v in iter_bits(succ[u])]
            c = brute_digraph_chromatic(n, arcs)
        best = max(best, c)
    return best


def brute_tournament_dichromatic(m: int) -> int:
    """Largest digraph chromatic number over all 2^C(m, 2) tournaments on
    m vertices, labelled or not."""
    pairs = list(combinations(range(m), 2))
    return max(
        brute_digraph_chromatic(m, [(u, v) if (code >> i) & 1 else (v, u)
                                    for i, (u, v) in enumerate(pairs)])
        for code in range(1 << len(pairs))
    )


def fraction_simplex_max(
    c: list[Fraction],
    A: list[list[Fraction]],
    b: list[Fraction],
    pivots: list[Fraction] | None = None,
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """The dense Fraction tableau with Bland's rule that ``simplex_max``
    replaced: same entering and leaving rules, same ``(value, x, y)``,
    every entry a Fraction.  The reference for the integer-pivoting one.
    Each pivot element is appended to ``pivots`` when one is given."""
    m = len(A)
    n = len(c)
    for i, bi in enumerate(b):
        if bi < 0:
            raise InputError(f"rhs {i} is negative; slack start needs b >= 0")
    # tableau: n structural columns, m slack columns, rhs
    rows = [
        [Fraction(A[i][j]) for j in range(n)]
        + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(cj) for cj in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    while True:
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        piv = rows[leave][enter]
        if pivots is not None:
            pivots.append(piv)
        rows[leave] = [v / piv for v in rows[leave]]
        prow = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [v - f * pv for v, pv in zip(rows[i], prow)]
        if obj[enter]:
            f = obj[enter]
            for j in range(n + m + 1):
                obj[j] -= f * prow[j]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = rows[i][-1]
    y = [obj[n + i] for i in range(m)]
    return obj[-1], x, y


def fraction_check_certificate(n, columns, cover, weighting, value) -> None:
    """The Fraction certificate check that ``coloring._check_certificate``
    replaced: the same four checks and messages, in Fraction sums."""
    for v in range(n):
        if cover.coverage(v) < 1:
            raise DicolorError(f"cover certificate violates coverage at vertex {v}")
    if sum((wgt for _, wgt in cover.parts), Fraction(0)) != value:
        raise DicolorError("cover objective mismatch")
    for col in columns:
        if weighting.of(col) > 1:
            raise DicolorError("dual weighting exceeds 1 on an admissible set")
    if weighting.total != value:
        raise DicolorError("dual objective mismatch")


def brute_automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation of G that maps its edge set onto itself."""
    edges = set(G.edges)
    return [p for p in permutations(range(G.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in G.edges)]


def permuted_code(G: Graph, perm, code: int) -> int:
    """Code of the orientation whose arcs are perm's images of the arcs of
    the orientation ``code`` (bit i set: edge (u, v), u < v, is u -> v)."""
    index = {e: i for i, e in enumerate(G.edges)}
    out = 0
    for i, (u, v) in enumerate(G.edges):
        a, b = (perm[u], perm[v]) if (code >> i) & 1 else (perm[v], perm[u])
        if a < b:
            out |= 1 << index[(a, b)]
    return out


def orbit_minimal_codes(G: Graph, perms) -> list[int]:
    """The codes c below 2^(e-1), in increasing order, that no permutation
    in ``perms`` maps to a code c' with min(c', c' ^ (2^e - 1)) < c."""
    m = len(G.edges)
    full = (1 << m) - 1
    return [c for c in range(1 << (m - 1))
            if all(min(x, x ^ full) >= c for x in (permuted_code(G, p, c) for p in perms))]


def uncached_pooled_search(digraphs, value, bound: int, pool_size: int, G: Graph | None = None,
                           integer: bool = False):
    """The pooled orientation search with no cached verdicts: every pooled
    set is tested with ``is_acyclic`` each time its cover is checked.
    Returns the best value, the first digraph reaching it and the codes of
    the digraphs that ``value`` was called on.

    With ``G`` (exact mode, the codes in counter order) it also replays the
    orbit skip: from the first ``value`` that does not raise the best on, a
    code c is skipped before the pool is checked when some automorphism of
    G maps it to a code c' with min(c', c' ^ (2^e - 1)) < c.  With
    ``integer`` and a ``bound`` of 2, a digraph the pool does not skip once
    the best is 1 is returned with the value 2 and no ``value`` call."""
    best, witness, evaluated = 0, None, []
    pool: list[list[int]] = []
    autos = None
    for D in digraphs:
        if autos:
            full = (1 << len(G.edges)) - 1
            images = (permuted_code(G, p, D.bits) for p in autos)
            if any(min(x, x ^ full) < D.bits for x in images):
                continue
        for i, cover in enumerate(pool):
            if all(is_acyclic(D, S) for S in cover):
                pool.insert(0, pool.pop(i))
                break
        else:
            if integer and bound == 2 and best == 1:
                return 2, D, evaluated
            evaluated.append(D.bits)
            c, cover = value(D)
            pool.insert(0, cover)
            del pool[pool_size:]
            if c > best:
                best, witness = c, D
                if best >= bound:
                    break
            elif G is not None and autos is None:
                autos = brute_automorphisms(G)
    return best, witness, evaluated


def per_candidate_maximal_acyclic_sets(
    D: Digraph, within: int | None = None, containing: int | None = None, cap: int = COLUMN_CAP
) -> list[int]:
    """The include/exclude tree of ``maximal_acyclic_sets`` with one
    ``_extends`` test per remaining candidate and per excluded vertex at an
    include step, and every excluded vertex re-tested at a leaf: the sets,
    order and cap refusal the reachability closure must keep."""
    S = D.graph.full_mask if within is None else within
    if S == 0:
        return [0]
    out: list[int] = []
    in_masks = D.in_masks
    adj = D.graph.adj

    def rec(A: int, cand: int, excl: int) -> None:
        if not cand:
            if not any(_extends(in_masks, adj, A, v) for v in iter_bits(excl)):
                if len(out) >= cap:
                    raise BudgetExceededError("maximal acyclic sets", len(out) + 1, cap)
                out.append(A)
            return
        low = cand & -cand
        u = low.bit_length() - 1
        with_u = A | low
        new_cand = sum(1 << v for v in iter_bits(cand ^ low) if _extends(in_masks, adj, with_u, v))
        new_excl = sum(1 << v for v in iter_bits(excl) if _extends(in_masks, adj, with_u, v))
        rec(with_u, new_cand, new_excl)
        rest = cand ^ low
        if not _extends(in_masks, adj, A | rest, u):
            rec(A, rest, excl | low)

    if containing is None:
        rec(0, S, 0)
    else:
        anchor = 1 << containing
        if not S & anchor:
            raise InputError(f"anchor vertex {containing} is outside the ground set")
        rec(anchor, S ^ anchor, 0)
    return out


def per_candidate_maximal_induced_forests(G: Graph) -> list[int]:
    """``_maximal_induced_forests`` with one ``_joins_forest`` test per
    remaining candidate and per excluded vertex at an include step: the
    sets and order the component test must keep."""
    adj = G.adj
    out: list[int] = []

    def rec(F: int, cand: int, excl: int) -> None:
        if not cand:
            if not any(_joins_forest(adj, F, v) for v in iter_bits(excl)):
                out.append(F)
            return
        low = cand & -cand
        u = low.bit_length() - 1
        with_u = F | low
        new_cand = sum(1 << v for v in iter_bits(cand ^ low) if _joins_forest(adj, with_u, v))
        new_excl = sum(1 << v for v in iter_bits(excl) if _joins_forest(adj, with_u, v))
        rec(with_u, new_cand, new_excl)
        rest = cand ^ low
        if not _joins_forest(adj, F | rest, u):
            rec(F, rest, excl | low)

    rec(0, G.full_mask, 0)
    return out


def per_candidate_max_acyclic_weight(
    D: Digraph, weights: list[Fraction], cap: int = COLUMN_CAP
) -> Fraction:
    """The branch and bound of ``max_acyclic_weight`` with one ``_extends``
    test per remaining candidate at an include step: the value and the node
    count at which the cap refuses that the reachability closure must keep."""
    n = D.graph.n
    weights = [Fraction(x) for x in weights]
    L = lcm(*(x.denominator for x in weights))
    scaled = [x.numerator * (L // x.denominator) for x in weights]
    order = sorted((v for v in range(n) if scaled[v]), key=lambda v: (-scaled[v], v))
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    in_masks = [sum(bit[u] for u in iter_bits(D.in_masks[v])) for v in order]
    adj = [sum(bit[u] for u in iter_bits(D.graph.adj[v])) for v in order]
    w = [scaled[v] for v in order]
    best = nodes = 0
    stack = [(0, 0, (1 << len(order)) - 1, sum(w))]
    while stack:
        A, w_A, cand, w_cand = stack.pop()
        if w_A + w_cand <= best:
            continue
        if not cand:
            best = w_A
            continue
        nodes += 1
        if nodes > cap:
            raise BudgetExceededError("acyclic-set weight search (nodes)", nodes, cap)
        low = cand & -cand
        u = low.bit_length() - 1
        with_u = A | low
        kept = [v for v in iter_bits(cand ^ low) if _extends(in_masks, adj, with_u, v)]
        stack.append((A, w_A, cand ^ low, w_cand - w[u]))
        stack.append((with_u, w_A + w[u], sum(1 << v for v in kept), sum(w[v] for v in kept)))
    return Fraction(best, L)


# dichif(K_m) for 3 <= m <= 6, the entries of the block table for K_m
COMPLETE_DICHIF = {3: Fraction(3, 2), 4: Fraction(3, 2), 5: Fraction(7, 4), 6: Fraction(2)}


def clique_fractional_floor(G: Graph, stop, known):
    """The lower bound on the largest chi_f(D) that ``_fractional_floor``
    used to be: ``known`` if it meets ``stop``; when stop >= 3/2,
    dichif(K_m) when G holds a clique on m vertices, m <= 6 the smallest
    with dichif(K_m) >= stop, and ``known`` when that clique is missing or
    no such m exists; below 3/2 the girth bound, which is unchanged."""
    if known >= stop:
        return known
    if stop < Fraction(3, 2):
        return _fractional_floor(G, stop, known)
    for m, value in COMPLETE_DICHIF.items():
        if value >= stop:
            return value if _has_clique(G.adj, G.full_mask, m) else known
    return known
