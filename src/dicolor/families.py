"""Enumeration of maximal independent and maximal acyclic vertex sets.

Independent sets are enumerated as maximal cliques of the complement via
Bron-Kerbosch with pivoting.  Acyclic sets of a digraph are hereditary but
not pairwise-defined, so they use an include/exclude expansion tree with a
maximality check at the leaves.  The heaviest acyclic set is found by a
branch and bound search over the same include/exclude tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceededError, InputError
from .graphs import Digraph, Graph, iter_bits
from .graphs import is_acyclic  # noqa: F401  (still bound here; perfbench's tracer test looks it up)

COLUMN_CAP = 1 << 20


def maximal_independent_sets(
    G: Graph, within: int | None = None, containing: int | None = None
) -> Iterator[int]:
    """Yield all maximal independent sets of G[within] as bit masks.

    With ``containing=v`` only the maximal sets through vertex ``v`` are
    produced.  Enumeration order is deterministic.  The sets are collected
    by a plain recursion before the first one is yielded, so stopping early
    saves no enumeration work.
    """
    S = G.full_mask if within is None else within
    if S == 0:
        yield 0
        return
    # "compatible" = non-adjacent; maximal independent sets are the maximal
    # cliques of this relation
    compat = [~G.adj[v] & S & ~(1 << v) for v in range(G.n)]

    out: list[int] = []

    def bk(R: int, P: int, X: int) -> None:
        if not P and not X:
            out.append(R)
            return
        pivot = -1
        best = -1
        rest = P | X
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            c = (P & compat[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        branch = P & ~compat[pivot]
        while branch:
            vm = branch & -branch
            branch ^= vm
            v = vm.bit_length() - 1
            bk(R | vm, P & compat[v], X & compat[v])
            P &= ~vm
            X |= vm

    try:
        if containing is None:
            bk(0, S, 0)
        else:
            if not (S >> containing) & 1:
                raise InputError(f"anchor vertex {containing} is outside the ground set")
            bk(1 << containing, compat[containing], 0)
    finally:
        del bk  # bk refers to itself: drop the cycle so reference counting frees it
    yield from out


def _extends(in_masks: Sequence[int], adj: Sequence[int], T: int, v: int) -> bool:
    """True iff no directed cycle of T + v passes through v.

    That is, no out-neighbour of v in T reaches an in-neighbour of v inside
    T; for an acyclic T it is exactly T + v being acyclic.
    """
    outs = adj[v] & T & ~in_masks[v]
    reach = frontier = in_masks[v] & T
    while frontier and not reach & outs:
        preds = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            preds |= in_masks[low.bit_length() - 1]
        frontier = preds & T & ~reach
        reach |= frontier
    return not reach & outs


def maximal_acyclic_sets(
    D: Digraph,
    within: int | None = None,
    containing: int | None = None,
    cap: int = COLUMN_CAP,
) -> list[int]:
    """All maximal acyclic vertex sets of D[within], as bit masks.

    ``cap`` bounds the number of sets produced; exceeding it raises
    :class:`BudgetExceededError` rather than silently truncating.
    """
    S = D.graph.full_mask if within is None else within
    if S == 0:
        return [0]
    out: list[int] = []
    in_masks = D.in_masks
    adj = D.graph.adj

    def rec(A: int, cand: int, excl: int) -> None:
        # invariants: A is acyclic and every vertex of cand individually
        # extends A; excl may hold stale non-extenders (staleness is
        # monotone, so a final check at the leaf suffices)
        if not cand:
            if not any(_extends(in_masks, adj, A, v) for v in iter_bits(excl)):
                if len(out) >= cap:
                    raise BudgetExceededError("maximal acyclic sets", len(out) + 1, cap)
                out.append(A)
            return
        low = cand & -cand
        u = low.bit_length() - 1
        with_u = A | low
        new_cand = 0
        for v in iter_bits(cand ^ low):
            if _extends(in_masks, adj, with_u, v):
                new_cand |= 1 << v
        new_excl = 0
        for v in iter_bits(excl):
            if _extends(in_masks, adj, with_u, v):
                new_excl |= 1 << v
        rec(with_u, new_cand, new_excl)
        # a u that closes no cycle with A and every remaining candidate
        # extends every leaf of the exclude branch, so no leaf there is maximal
        rest = cand ^ low
        if not _extends(in_masks, adj, A | rest, u):
            rec(A, rest, excl | low)

    try:
        if containing is None:
            rec(0, S, 0)
        else:
            anchor = 1 << containing
            if not S & anchor:
                raise InputError(f"anchor vertex {containing} is outside the ground set")
            rec(anchor, S ^ anchor, 0)
    finally:
        del rec  # as bk above
    return out


def max_acyclic_weight(D: Digraph, weights: Sequence[Fraction], cap: int = COLUMN_CAP) -> Fraction:
    """The largest total weight of an acyclic vertex set of D, exactly.

    ``weights`` holds one nonnegative rational per vertex.  The complement
    of a heaviest acyclic set is a lightest feedback vertex set, an NP-hard
    problem (Karp 1972), so this is a branch and bound search over the
    include/exclude tree of :func:`maximal_acyclic_sets`, in integers: the
    weights are scaled by the lcm L of their denominators.  Each node holds
    an acyclic A and the candidates that each extend A.  It branches on the
    heaviest candidate u, first on A + u, keeping only the candidates that
    still extend A + u, then on A without u, and it drops a node whose
    w(A) + w(candidates) is at most the best weight found.  A vertex of
    weight zero changes no sum, so it is never a candidate.  The result is
    0 with no vertices or no positive weight.  ``cap`` bounds the nodes
    expanded; past it :class:`BudgetExceededError` is raised.
    """
    n = D.graph.n
    if len(weights) != n:
        raise InputError(f"need one weight per vertex: {len(weights)} weights for {n} vertices")
    weights = [Fraction(x) for x in weights]
    if any(x < 0 for x in weights):
        raise InputError("weights must be nonnegative")
    L = math.lcm(*(x.denominator for x in weights))
    scaled = [x.numerator * (L // x.denominator) for x in weights]
    # relabel the positive-weight vertices heaviest first (ties by index), so
    # that the lowest candidate bit is always the heaviest candidate
    order = sorted((v for v in range(n) if scaled[v]), key=lambda v: (-scaled[v], v))
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i

    def relabel(mask: int) -> int:
        return sum(bit[u] for u in iter_bits(mask))

    in_masks = [relabel(D.in_masks[v]) for v in order]
    adj = [relabel(D.graph.adj[v]) for v in order]
    w = [scaled[v] for v in order]
    best = 0
    nodes = 0
    # depth first with an explicit stack, so that no recursion limit applies
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
        kept = w_kept = 0
        for v in iter_bits(cand ^ low):
            if _extends(in_masks, adj, with_u, v):
                kept |= 1 << v
                w_kept += w[v]
        stack.append((A, w_A, cand ^ low, w_cand - w[u]))
        stack.append((with_u, w_A + w[u], kept, w_kept))
    return Fraction(best, L)
