"""Enumeration of maximal independent, maximal acyclic and maximal
induced-forest vertex sets.

Independent sets are enumerated as maximal cliques of the complement via
Bron-Kerbosch with pivoting.  Acyclic sets of a digraph are hereditary but
not pairwise-defined, so they use an include/exclude expansion tree with a
maximality check at the leaves, and so do the induced forests of a graph.
The heaviest acyclic set is found by a branch and bound search over the
same include/exclude tree.

A node of the tree keeps the vertices that each extend its set A.  When
the include step adds u, the ones that no longer extend A + u are found by
one closure from u instead of one test per vertex: for a digraph, the
vertices with an arc from a descendant and an arc into an ancestor of u in
A + u (:func:`_cycle_closers`); for a graph, the vertices with two
neighbours in the component of u (:func:`_cycle_joiners`).  Both tests are
exact, so the tree, its sets and their order are those of a test per
vertex.  The exclude branch keeps its single test of u against A plus the
remaining candidates (:func:`_extends`, :func:`_joins_forest`).
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


def _cycle_closers(in_masks: Sequence[int], out_masks: Sequence[int], T: int, u: int) -> int:
    """The vertices with an arc from a descendant of u and an arc into an
    ancestor of u, both taken in D[T + u], u included.

    Let T + u be acyclic and let v, outside T + u, extend T.  Then T + u + v
    is acyclic exactly when v is not returned.  A directed cycle of
    T + u + v passes through v, since T + u is acyclic, and through u, since
    T + v is.  So it is v -> a -> ... -> u -> ... -> d -> v with the middle
    part inside T + u: v has an arc into the ancestor a of u and an arc
    from the descendant d of u.  Conversely, for such a and d the paths
    a -> ... -> u and u -> ... -> d of D[T + u] meet only at u, since a
    second common vertex would close a cycle in T + u, so with the arcs
    d -> v and v -> a they form a directed cycle of T + u + v.
    """
    into = in_masks[u]
    reach = frontier = into & T
    while frontier:
        preds = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            preds |= in_masks[low.bit_length() - 1]
        into |= preds
        frontier = preds & T & ~reach
        reach |= frontier
    from_ = out_masks[u]
    reach = frontier = from_ & T
    while frontier:
        succs = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            succs |= out_masks[low.bit_length() - 1]
        from_ |= succs
        frontier = succs & T & ~reach
        reach |= frontier
    return into & from_


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
    out_masks = [adj[v] & ~in_masks[v] for v in range(D.graph.n)]

    def rec(A: int, cand: int, excl: int) -> None:
        # invariants: A is acyclic, and cand and excl split the vertices of
        # S outside A that each extend A, so a leaf A is maximal exactly
        # when excl is empty
        if not cand:
            if not excl:
                if len(out) >= cap:
                    raise BudgetExceededError("maximal acyclic sets", len(out) + 1, cap)
                out.append(A)
            return
        low = cand & -cand
        u = low.bit_length() - 1
        rest = cand ^ low
        closers = _cycle_closers(in_masks, out_masks, A, u)
        rec(A | low, rest & ~closers, excl & ~closers)
        # a u that closes no cycle with A and every remaining candidate
        # extends every leaf of the exclude branch, so no leaf there is maximal
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


def _joins_forest(adj: Sequence[int], F: int, v: int) -> bool:
    """True iff no cycle of G[F + v] passes through v.

    That is, no two neighbours of v in F lie in one component of G[F]; for
    a forest G[F] it is exactly G[F + v] being a forest.
    """
    nbrs = adj[v] & F
    while nbrs:
        low = nbrs & -nbrs
        comp = frontier = low
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= adj[bit.bit_length() - 1]
            frontier = reach & F & ~comp
            comp |= frontier
        if comp & nbrs != low:
            return False
        nbrs &= ~comp
    return True


def _cycle_joiners(adj: Sequence[int], F: int, u: int) -> int:
    """The vertices with two neighbours in C, the component of u in G[F + u].

    Let G[F + u] be a forest and let v, outside F + u, join F.  Then
    G[F + u + v] is a forest exactly when v is not returned.  A cycle of
    G[F + u + v] passes through v, since G[F + u] is a forest, and through
    u, since G[F + v] is.  Less v it is a path through u inside F + u, so
    both its ends, neighbours of v, lie in C.  Conversely two neighbours of
    v in C are joined by a path of C, which v closes to a cycle.
    """
    once = adj[u]
    twice = 0
    comp = frontier = once & F
    while frontier:
        nbrs = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nb = adj[low.bit_length() - 1]
            twice |= once & nb
            once |= nb
            nbrs |= nb
        frontier = nbrs & F & ~comp
        comp |= frontier
    return twice


def _maximal_induced_forests(G: Graph) -> list[int]:
    """All maximal vertex sets of G that induce a forest, as bit masks.

    Induced forests are hereditary, so this is the include/exclude tree of
    :func:`maximal_acyclic_sets` with :func:`_cycle_joiners` as the
    include step's filter and :func:`_joins_forest` as the exclude
    branch's test.  A set inducing a forest is acyclic in every
    orientation of G.  Their complements are the minimal feedback vertex
    sets, of which a graph on n vertices has at most 1.8638^n (Fomin,
    Gaspers, Pyatkin and Razgon, Algorithmica 52, 2008), under 2^18 at the
    20 vertices of the LP gate, so no cap is needed there.
    """
    adj = G.adj
    out: list[int] = []

    def rec(F: int, cand: int, excl: int) -> None:
        # the invariants of maximal_acyclic_sets' rec, with forests
        if not cand:
            if not excl:
                out.append(F)
            return
        low = cand & -cand
        u = low.bit_length() - 1
        rest = cand ^ low
        joiners = _cycle_joiners(adj, F, u)
        rec(F | low, rest & ~joiners, excl & ~joiners)
        if not _joins_forest(adj, F | rest, u):
            rec(F, rest, excl | low)

    try:
        rec(0, G.full_mask, 0)
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
    still extend A + u (all but :func:`_cycle_closers` of u), then on A
    without u, and it drops a node whose w(A) + w(candidates) is at most
    the best weight found.  A vertex of weight zero changes no sum, so it
    is never a candidate.  The result is 0 with no vertices or no positive
    weight.  ``cap`` bounds the nodes expanded; past it
    :class:`BudgetExceededError` is raised.
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
    out_masks = [relabel(D.graph.adj[v] & ~D.in_masks[v]) for v in order]
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
        rest = cand ^ low
        dropped = rest & _cycle_closers(in_masks, out_masks, A, u)
        w_kept = w_cand - w[u] - sum(w[v] for v in iter_bits(dropped))
        stack.append((A, w_A, rest, w_cand - w[u]))
        stack.append((A | low, w_A + w[u], rest ^ dropped, w_kept))
    return Fraction(best, L)
