"""Answer checks that do not reuse the library's algorithms.

Each check validates a CLI report against the query's own graph: cover
and dual feasibility instead of equality with a stored optimum (another
optimal cover or dual is accepted), closed forms or a backtracking
colourer for chi, a DFS for directed cycles, and, for every subset at
once, numpy tables of induced edge counts and of acyclicity (a sink is
removed and the rest looked up, with pointer jumping).  ``dichif`` is
compared with a float reference from ``scipy.optimize.linprog`` over the
maximal acyclic sets of every orientation.  The checks run after the
timed region; a check returns ``None`` or a one-line failure message.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import Instance, Query, adjacency, degeneracy

DICHIF_TOL = 1e-7


def _frac(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------- tables


def _popcounts(n: int) -> np.ndarray:
    S = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        pc += (S >> v) & 1
    return pc


def acyclic_table(n: int, outs: np.ndarray) -> np.ndarray:
    """``ok[b, S]``: is vertex set S acyclic in digraph b?

    ``outs[b, v]`` is the out-neighbour mask of v in digraph b.  A nonempty
    set is acyclic iff it has a sink whose removal leaves an acyclic set;
    the lowest-index sink is followed, and pointer jumping resolves the
    chains of removals in log n gathers.
    """
    N = 1 << n
    S = np.arange(N, dtype=np.int64)
    nxt = np.zeros(outs.shape[:1] + (N,), dtype=np.int64)
    found = np.zeros(nxt.shape, dtype=bool)
    for v in range(n - 1, -1, -1):
        sink = ((S >> v) & 1).astype(bool)[None, :] & ((outs[:, v : v + 1] & S[None, :]) == 0)
        nxt = np.where(sink, S[None, :] ^ (1 << v), nxt)
        found |= sink
    ok = found
    ok[:, 0] = True
    for _ in range(n.bit_length() + 1):
        ok = ok & np.take_along_axis(ok, nxt, axis=1)
        nxt = np.take_along_axis(nxt, nxt, axis=1)
    return ok


def _out_masks(n: int, arcs) -> list[int]:
    out = [0] * n
    for a, b in arcs:
        out[a] |= 1 << b
    return out


def _orientation_error(inst: Instance, arcs) -> str | None:
    if arcs is None:
        return "no orientation returned"
    seen = sorted(tuple(sorted(a)) for a in arcs)
    if seen != sorted(inst.edges) or len(set(seen)) != len(seen):
        return "orientation does not orient every edge exactly once"
    return None


def dfs_has_cycle(n: int, arcs, within: int | None = None) -> bool:
    """Directed-cycle test by three-colour DFS."""
    within = (1 << n) - 1 if within is None else within
    nbrs = [[] for _ in range(n)]
    for a, b in arcs:
        if (within >> a) & 1 and (within >> b) & 1:
            nbrs[a].append(b)
    colour = [0] * n
    for start in range(n):
        if not (within >> start) & 1 or colour[start]:
            continue
        colour[start] = 1
        stack = [(start, iter(nbrs[start]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if colour[u] == 1:
                    return True
                if colour[u] == 0:
                    colour[u] = 1
                    stack.append((u, iter(nbrs[u])))
                    break
            else:
                colour[v] = 2
                stack.pop()
    return False


# ---------------------------------------------------------------- chi / chif


def maximal_independent_sets(inst: Instance) -> list[int]:
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(inst.n))
    G.add_edges_from(inst.edges)
    return [sum(1 << v for v in c) for c in nx.find_cliques(nx.complement(G))]


def colourable(n: int, adj: list[int], k: int) -> bool:
    """Backtracking k-colouring, most-constrained vertex first."""
    colours = [-1] * n

    def go(done: int, used: int) -> bool:
        if done == n:
            return True
        best, best_sat = -1, -1
        for v in range(n):
            if colours[v] < 0:
                sat = len({colours[u] for u in range(n) if (adj[v] >> u) & 1 and colours[u] >= 0})
                if sat > best_sat:
                    best, best_sat = v, sat
        v = best
        taken = {colours[u] for u in range(n) if (adj[v] >> u) & 1}
        for c in range(min(k, used + 1)):
            if c not in taken:
                colours[v] = c
                if go(done + 1, max(used, c + 1)):
                    return True
                colours[v] = -1
        return False

    return go(0, 0)


def expected_chi(inst: Instance) -> int:
    if inst.family.startswith("KG("):
        n, k = (int(x) for x in inst.family[3:-1].split(","))
        return n - 2 * k + 2
    if inst.family.endswith("xK3+C5"):
        return 3  # a disjoint union takes the max over its parts
    adj = adjacency(inst.n, inst.edges)
    k = 1 if not inst.edges else 2
    while not colourable(inst.n, adj, k):
        k += 1
    return k


def check_chi(inst: Instance, results: dict) -> str | None:
    want = expected_chi(inst)
    return None if results.get("chi") == want else f"chi {results.get('chi')} != {want}"


def check_chif(inst: Instance, results: dict, verdicts: dict, mis: list[int]) -> str | None:
    value = _frac(results["chif"])
    adj = adjacency(inst.n, inst.edges)
    coverage = [Fraction(0)] * inst.n
    total = Fraction(0)
    for part in results["cover"]:
        w = _frac(part["weight"])
        if w < 0:
            return "negative cover weight"
        mask = sum(1 << v for v in part["set"])
        if any(adj[v] & mask for v in part["set"]):
            return f"cover set {part['set']} is not independent"
        for v in part["set"]:
            coverage[v] += w
        total += w
    if any(c < 1 for c in coverage):
        return "cover leaves a vertex with weight below 1"
    if total != value:
        return f"cover total {total} != chif {value}"
    dual = [_frac(x) for x in results["dual_weighting"]]
    if len(dual) != inst.n or any(x < 0 for x in dual):
        return "dual weighting has the wrong length or a negative entry"
    for mask in mis:
        if sum((dual[v] for v in range(inst.n) if (mask >> v) & 1), Fraction(0)) > 1:
            return "dual weighting exceeds 1 on a maximal independent set"
    if sum(dual, Fraction(0)) != value or _frac(results["dual_total"]) != value:
        return "dual total differs from chif"
    if verdicts.get("strong_duality") is not True:
        return "strong_duality verdict is not true"
    return None


# ---------------------------------------------------------------- dichi / dichif


def check_dichi(inst: Instance, results: dict) -> str | None:
    arcs = results.get("witness_arcs")
    bad = _orientation_error(inst, arcs)
    if bad:
        return bad
    if not dfs_has_cycle(inst.n, arcs):
        return "witness orientation is acyclic, so it does not show dichi >= 2"
    # floor(k/2)+1 bounds every orientation of a k-degenerate graph, and no
    # tournament on at most 6 vertices is 3-dichromatic
    upper = 2 if inst.n <= 6 else degeneracy(inst.n, inst.edges) // 2 + 1
    value = results.get("dichi")
    if not (isinstance(value, int) and 2 <= value <= upper):
        return f"dichi {value} outside [2, {upper}]"
    if upper != 2:
        return f"dichi is not pinned (upper bound {upper})"
    return None


def dichif_reference(inst: Instance) -> float:
    from scipy.optimize import linprog

    n, m = inst.n, len(inst.edges)
    codes = np.arange(1 << m, dtype=np.int64)
    outs = np.zeros((1 << m, n), dtype=np.int64)
    for i, (u, v) in enumerate(inst.edges):
        fwd = ((codes >> i) & 1).astype(bool)
        outs[:, u] |= np.where(fwd, 1 << v, 0)
        outs[:, v] |= np.where(fwd, 0, 1 << u)
    ok = acyclic_table(n, outs)
    S = np.arange(1 << n)
    maximal = ok.copy()
    for v in range(n):
        grown = S | (1 << v)
        maximal &= ~(ok[:, grown] & (grown != S)[None, :])
    best = 0.0
    for family in {tuple(np.flatnonzero(row).tolist()) for row in maximal}:
        A = [[(s >> v) & 1 for v in range(n)] for s in family]
        res = linprog(-np.ones(n), A_ub=A, b_ub=np.ones(len(family)), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        best = max(best, -res.fun)
    return best


def check_dichif(results: dict, reference: float) -> str | None:
    value = _frac(results["dichif"])
    if abs(float(value) - reference) > DICHIF_TOL:
        return f"dichif {value} differs from reference {reference:.9f}"
    return None


# ---------------------------------------------------------------- certify


def ranked(weights: list[Fraction]) -> list[int]:
    """Vertices by non-increasing weight, ties by index."""
    return sorted(range(len(weights)), key=lambda v: (-weights[v], v))


def principal_dense_acyclic(
    inst: Instance, arcs, weights: list[Fraction], t: Fraction, d: Fraction
) -> int | None:
    """A t-principal set of average degree >= d that is acyclic, or None.

    Enumerates every vertex subset.  Vertices are renamed by rank, so a
    k-set is t-principal iff its mask is below 2^floor(t k).
    """
    n = inst.n
    pos = [0] * n
    order = ranked(weights)
    for r, v in enumerate(order):
        pos[v] = r
    adj = adjacency(n, [(pos[u], pos[v]) for u, v in inst.edges])
    outs = np.array([_out_masks(n, [(pos[a], pos[b]) for a, b in arcs])], dtype=np.int64)
    S = np.arange(1 << n, dtype=np.int64)
    pc = _popcounts(n)
    twice_edges = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        twice_edges += ((S >> v) & 1) * pc[S & adj[v]]
    limit = np.array([1 << min(math.floor(t * k), n) for k in range(n + 1)], dtype=np.int64)
    principal = S < limit[pc]
    dense = twice_edges * d.denominator >= d.numerator * pc
    bad = principal & dense & acyclic_table(n, outs)[0] & (S != 0)
    hits = np.flatnonzero(bad)
    if not len(hits):
        return None
    return sum(1 << order[r] for r in range(n) if (int(hits[0]) >> r) & 1)


def max_acyclic_weight(inst: Instance, arcs, weights: list[Fraction]) -> Fraction:
    n = inst.n
    scale = math.lcm(*(w.denominator for w in weights))
    S = np.arange(1 << n, dtype=np.int64)
    total = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        total += ((S >> v) & 1) * int(weights[v] * scale)
    ok = acyclic_table(n, np.array([_out_masks(n, arcs)], dtype=np.int64))[0]
    return Fraction(int(total[ok].max()), scale)


def check_certify(
    query: Query, results: dict, weights: list[Fraction], max_tries: int = 64
) -> str | None:
    inst = query.instance
    opts = dict(zip(query.options[::2], query.options[1::2]))
    t, d = _frac(opts["--t"]), _frac(opts["--d"])
    arcs = results.get("orientation_arcs")
    bad = _orientation_error(inst, arcs)
    if bad:
        return bad
    if results.get("certified") is not True:
        return "not certified"
    tries = results.get("tries")
    if not (isinstance(tries, int) and 1 <= tries <= max_tries):
        return f"tries {tries} outside [1, {max_tries}]"
    W = principal_dense_acyclic(inst, arcs, weights, t, d)
    if W is not None:
        return f"principal dense set {W:#x} is acyclic in the returned orientation"
    if query.kind == "certify":
        return None
    bound = 2 * d + 4
    if _frac(results["t"]) != t or _frac(results["d"]) != d:
        return "certificate echoes other t or d"
    if _frac(results["weight_bound"]) != bound or _frac(results["ratio"]) != t / bound:
        return "weight bound or ratio is not 2d+4, t/(2d+4)"
    if _frac(results["weight_total"]) != sum(weights, Fraction(0)):
        return "weight total differs from the weighting"
    heaviest = max_acyclic_weight(inst, arcs, weights)
    if _frac(results["max_acyclic_weight"]) != heaviest:
        return f"max acyclic weight {results['max_acyclic_weight']} != {heaviest}"
    if heaviest > bound:
        return "an acyclic set is heavier than 2d+4"
    return None
