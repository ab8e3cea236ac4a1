"""Weight-ranked vertex orders, principal/sparse predicates, and the
dense-layer decomposition.

Vertices are ranked by non-increasing weight with ties broken by
ascending index.  A nonempty X inside an ordered host Y is s-principal
when X sits inside the first floor(s*|X|) elements of Y; X is s-sparse
when it contains no s-principal subset, equivalently |Y_k cut X| < k/s
for every prefix length k.  All comparisons in this module are exact
rationals; no floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import BudgetExceededError, ClassificationGapError, InputError
from .graphs import Graph, average_degree, iter_bits

SEARCH_CAP = 1 << 20


@dataclass(frozen=True)
class Weighting:
    """Nonnegative rational weight per vertex."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        for i, v in enumerate(self.values):
            if v < 0:
                raise InputError(f"weight of vertex {i} is negative")

    @classmethod
    def uniform(cls, n: int, value=1) -> "Weighting":
        return cls(tuple(Fraction(value) for _ in range(n)))

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def of(self, mask: int) -> Fraction:
        return sum((self.values[v] for v in iter_bits(mask)), Fraction(0))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RankedOrder:
    """Fixed vertex listing by non-increasing weight, ties by index."""

    order: tuple[int, ...]
    rank: tuple[int, ...]
    prefix_masks: tuple[int, ...]  # prefix_masks[k] = first k vertices

    @property
    def n(self) -> int:
        return len(self.order)

    def prefix(self, s) -> int:
        """Mask of the first floor(s) vertices (clamped to [0, n])."""
        k = _floor_count(s, self.n)
        return self.prefix_masks[k]

    def prefix_of(self, X: int, s) -> int:
        """Mask of the first floor(s) elements of X under this order."""
        k = _floor_count(s, X.bit_count())
        if k == 0:
            return 0
        out = 0
        taken = 0
        for v in self.order:
            if (X >> v) & 1:
                out |= 1 << v
                taken += 1
                if taken == k:
                    break
        return out

    def earlier_mask(self, v: int) -> int:
        """Vertices strictly before v in the order."""
        return self.prefix_masks[self.rank[v]]


def _floor_count(s, limit: int) -> int:
    if s < 0:
        raise InputError(f"prefix length must be nonnegative, got {s}")
    return min(math.floor(s), limit)


def ranked_order(w: Weighting) -> RankedOrder:
    order = tuple(sorted(range(len(w)), key=lambda v: (-w.values[v], v)))
    rank = [0] * len(w)
    prefixes = [0]
    acc = 0
    for i, v in enumerate(order):
        rank[v] = i
        acc |= 1 << v
        prefixes.append(acc)
    return RankedOrder(order=order, rank=tuple(rank), prefix_masks=tuple(prefixes))


def is_principal(order: RankedOrder, X: int, s, Y: int | None = None) -> bool:
    """True iff nonempty X lies within the first floor(s*|X|) elements of Y."""
    host = order.prefix_masks[-1] if Y is None else Y
    if X == 0:
        raise InputError("principality is defined for nonempty sets only")
    if X & ~host:
        raise InputError("X must be a subset of the host set")
    threshold = Fraction(s) * X.bit_count()
    return not (X & ~order.prefix_of(host, threshold))


def is_sparse(order: RankedOrder, X: int, s, Y: int | None = None) -> bool:
    """True iff |Y_k cut X| < k/s for every 1 <= k <= |Y| (exact)."""
    host = order.prefix_masks[-1] if Y is None else Y
    if X & ~host:
        raise InputError("X must be a subset of the host set")
    s = Fraction(s)
    hits = 0
    k = 0
    for v in order.order:
        if not (host >> v) & 1:
            continue
        k += 1
        if (X >> v) & 1:
            hits += 1
            if hits * s >= k:
                return False
    return True


@dataclass(frozen=True)
class SparseSplit:
    """Split of a vertex set A into sparse layers and a low-back-degree rest.

    ``l1`` is 2-sparse inside A, ``l2`` is t-sparse inside V (the two may
    overlap), and every vertex of ``rest`` has back degree below d, so
    G[rest] is floor(d)-degenerate.
    """

    l1: int
    l2: int
    rest: int
    back_degree: dict[int, int]
    t: Fraction
    d: Fraction
    order: RankedOrder

    @property
    def layer(self) -> int:
        return self.l1 | self.l2


def _back_degrees(G: Graph, A: int, order: RankedOrder) -> dict[int, int]:
    # neighbors inside G[A] that appear strictly earlier in the global order
    return {v: (G.adj[v] & A & order.earlier_mask(v)).bit_count() for v in iter_bits(A)}


def sparse_split(G: Graph, A: int, w: Weighting, t, d) -> SparseSplit:
    """Decompose A into L1, L2 and a rest of back degree below d.

    Walks the vertices of A with back degree >= d in rank order; the j-th
    such vertex v must satisfy |V_i cut A| > 2j (goes to L1) or
    |V_i| >= t * |V_i cut A| (goes to L2), where i is v's 1-based rank.
    When neither holds the prefix intersection V_i cut A is a t-principal
    set of average degree >= d, which contradicts the caller's hypothesis;
    it is raised as :class:`ClassificationGapError` with that witness.
    """
    t = Fraction(t)
    d = Fraction(d)
    order = ranked_order(w)
    if A & ~order.prefix_masks[-1]:
        raise InputError("A must be a subset of the vertex set")
    back = _back_degrees(G, A, order)
    layer = [v for v in order.order if (A >> v) & 1 and back[v] >= d]
    l1 = 0
    l2 = 0
    for j, v in enumerate(layer, start=1):
        i = order.rank[v] + 1
        inter = (order.prefix_masks[i] & A).bit_count()
        in_l1 = inter > 2 * j
        in_l2 = i >= t * inter
        if not (in_l1 or in_l2):
            raise ClassificationGapError(order.prefix_masks[i] & A, j, v)
        if in_l1:
            l1 |= 1 << v
        if in_l2:
            l2 |= 1 << v
    rest = A & ~(l1 | l2)
    assert w.of(rest) >= w.of(A) - w.of(l1) - w.of(l2)
    return SparseSplit(l1=l1, l2=l2, rest=rest, back_degree=back, t=t, d=d, order=order)


def find_principal_dense(
    G: Graph, A: int, w: Weighting, t, d, cap: int = SEARCH_CAP
) -> int | None:
    """Some t-principal subset of A with average degree >= d, or None.

    Scans the split's candidate prefix intersections first, then returns
    the first principal dense subset of A in enumeration order; that
    search stops once its running candidate count passes ``cap``.
    """
    t = Fraction(t)
    d = Fraction(d)
    order = ranked_order(w)
    if A & ~order.prefix_masks[-1]:
        raise InputError("A must be a subset of the vertex set")
    back = _back_degrees(G, A, order)
    for v in order.order:
        if not ((A >> v) & 1) or back[v] < d:
            continue
        cand = order.prefix_masks[order.rank[v] + 1] & A
        if average_degree(G, cand) >= d and is_principal(order, cand, t):
            return cand
    return next(_principal_dense_sets(G, order, t, d, A, A.bit_count(), cap), None)


def _principal_dense_sets(
    G: Graph, order: RankedOrder, t: Fraction, d: Fraction, within: int, k_max: int, cap: int
) -> Iterator[int]:
    """Yield the k-subsets of prefix(t*k) & within (k <= k_max) of average
    degree >= d, by size and then lexicographically in rank order.

    A k-set W is dense exactly when 2 e(G[W]) >= ceil(d*k), that is when
    twice its non-edges stay within slack = k(k-1) - ceil(d*k).  Each size
    is a depth-first search over the prefix that carries twice the
    non-edges of the partial set; adding v raises it by
    2(|W| - |adj(v) & W|), and since it never falls, a branch is cut as
    soon as it passes the slack.  The running candidate count
    sum C(|prefix|, k) is checked against ``cap`` before each size is
    scanned, so a set found earlier is still yielded.
    """
    adj = G.adj
    total = 0
    for k in range(1, k_max + 1):
        P = order.prefix(t * k) & within
        verts = [v for v in order.order if (P >> v) & 1]
        m = len(verts)
        if m < k:
            continue
        total += comb(m, k)
        if total > cap:
            raise BudgetExceededError("principal-dense search", total, cap)
        slack = k * (k - 1) - math.ceil(d * k)
        if slack < 0:
            continue
        # level j holds the first j chosen vertices: their mask, twice their
        # non-edges, and the index of the next vertex to try at level j
        masks = [0] * k
        non = [0] * k
        nxt = [0] * k
        last = k - 1
        j = 0
        while j >= 0:
            i = nxt[j]
            if i > m - k + j:
                j -= 1
                continue
            nxt[j] = i + 1
            v = verts[i]
            W = masks[j]
            c = non[j] + 2 * (j - (adj[v] & W).bit_count())
            if c > slack:
                continue
            if j == last:
                yield W | (1 << v)
            else:
                j += 1
                masks[j] = W | (1 << v)
                non[j] = c
                nxt[j] = i + 1


def degeneracy_coloring(G: Graph, within: int | None = None) -> tuple[int, list[int | None]]:
    """Degeneracy of G[within] and a greedy coloring with at most k+1 colors.

    Repeatedly removes a minimum-degree vertex (ties by index); coloring
    runs along the reverse elimination order, each vertex taking the
    lowest color whose class holds none of its neighbours.  The live
    vertices sit in one mask per degree, and removing v moves each live
    neighbour down one; the minimum degree then drops by at most one, so
    the scan for the next nonempty mask starts there.
    """
    S = G.full_mask if within is None else within
    adj = G.adj
    deg = [0] * G.n
    by_deg = [0] * (G.n + 1)
    rest = S
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & S).bit_count()
        deg[v] = d
        by_deg[d] |= low
    live = S
    elim: list[int] = []
    degeneracy = 0
    d = 0
    while live:
        while not by_deg[d]:
            d += 1
        low = by_deg[d] & -by_deg[d]
        by_deg[d] ^= low
        live ^= low
        v = low.bit_length() - 1
        elim.append(v)
        if d > degeneracy:
            degeneracy = d
        nbrs = adj[v] & live
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            u = bit.bit_length() - 1
            e = deg[u]
            deg[u] = e - 1
            by_deg[e] ^= bit
            by_deg[e - 1] |= bit
        if d:
            d -= 1
    colors: list[int | None] = [None] * G.n
    classes: list[int] = []
    for v in reversed(elim):
        a = adj[v]
        c = 0
        for cls in classes:
            if not cls & a:
                break
            c += 1
        else:
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c
    return degeneracy, colors
