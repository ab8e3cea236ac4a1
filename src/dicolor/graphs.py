"""Bitmask graphs, orientations, and acyclic-orientation bounds.

Vertex sets throughout the package are plain Python integers used as bit
masks (bit ``v`` set means vertex ``v`` is in the set), so graphs larger
than one machine word get multi-word masks for free.  All counting is done
in exact integer/rational arithmetic; only the transcendental probability
bound uses floats (compared with a documented 1e-12 tolerance).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BudgetExceededError, InputError

ENUM_EDGE_BUDGET = 24
ACYCLIC_COUNT_VERTEX_BUDGET = 16

_MASK64 = (1 << 64) - 1


def mask_of(vertices: Iterable[int]) -> int:
    """Bit mask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_list(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mix64(x: int) -> int:
    # splitmix64 finalizer; spreads seed/index pairs into independent streams
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_rng(seed: int, index: int) -> random.Random:
    """Deterministic substream ``index`` of master ``seed``."""
    return random.Random(_mix64((seed & _MASK64) ^ _mix64(index & _MASK64)))


def _as_rng(rng) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


class Graph:
    """Simple undirected graph with per-vertex adjacency bit masks."""

    __slots__ = ("n", "edges", "adj", "labels", "full_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels=None):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        norm = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InputError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            norm.append(e)
        norm.sort()
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.edges = tuple(norm)
        self.adj = tuple(adj)
        self.labels = labels
        self.full_mask = (1 << n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self, within: int | None = None) -> int:
        """Number of edges of the subgraph induced on ``within``."""
        if within is None:
            return len(self.edges)
        total = 0
        for v in iter_bits(within):
            total += (self.adj[v] & within).bit_count()
        return total // 2

    def is_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def is_forest(G: Graph) -> bool:
    """True when the graph has no (undirected) cycle."""
    seen = 0
    for root in range(G.n):
        if (seen >> root) & 1:
            continue
        stack = [(root, -1)]
        seen |= 1 << root
        while stack:
            v, parent = stack.pop()
            skipped_parent = False
            for u in iter_bits(G.adj[v]):
                if u == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if (seen >> u) & 1:
                    return False
                seen |= 1 << u
                stack.append((u, v))
    return True


def blocks(G: Graph) -> list[int]:
    """Vertex masks of the blocks of G that hold an edge.

    A block is a maximal 2-connected subgraph or a bridge with its two
    ends; every cycle of G lies inside one block, and isolated vertices
    lie in none.  Hopcroft-Tarjan on an explicit stack: ``low[v]`` is the
    smallest DFS number reached from v's subtree by one back edge, and a
    tree edge (u, w) closes a block when ``low[w] >= disc[u]``, which is
    then the vertices above w on the vertex stack plus u.  No recursion,
    so a path of thousands of vertices needs no deep call stack.
    """
    adj = G.adj
    disc = [0] * G.n  # DFS numbers from 1; 0 marks an unvisited vertex
    low = [0] * G.n
    out: list[int] = []
    count = 0
    for root in range(G.n):
        if disc[root] or not adj[root]:
            continue
        count += 1
        disc[root] = low[root] = count
        visited = [root]
        # each vertex on the path from the root, with its neighbours not yet
        # looked at; the tree parent is left out, since edges are simple
        path = [(root, adj[root])]
        while path:
            v, rest = path[-1]
            if rest:
                bit = rest & -rest
                path[-1] = (v, rest ^ bit)
                w = bit.bit_length() - 1
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    count += 1
                    disc[w] = low[w] = count
                    visited.append(w)
                    path.append((w, adj[w] & ~(1 << v)))
                continue
            path.pop()
            if not path:
                break
            u = path[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                block = 1 << u
                while True:
                    x = visited.pop()
                    block |= 1 << x
                    if x == v:
                        break
                out.append(block)
    return out


class Digraph:
    """An orientation of a :class:`Graph`: one directed arc per base edge.

    ``bits`` encodes the orientation against the lexicographically sorted
    edge list: bit ``i`` set means edge ``(u, v)`` with ``u < v`` is
    oriented ``u -> v``, otherwise ``v -> u``.
    """

    __slots__ = ("graph", "bits", "in_masks")

    def __init__(self, graph: Graph, bits: int):
        m = len(graph.edges)
        if not (0 <= bits < (1 << m) if m else bits == 0):
            raise InputError(f"orientation code {bits} out of range for {m} edges")
        inc = [0] * graph.n
        for i, (u, v) in enumerate(graph.edges):
            if (bits >> i) & 1:
                inc[v] |= 1 << u
            else:
                inc[u] |= 1 << v
        self.graph = graph
        self.bits = bits
        self.in_masks = tuple(inc)

    @classmethod
    def from_arcs(cls, graph: Graph, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        index = {e: i for i, e in enumerate(graph.edges)}
        bits = 0
        assigned = set()
        for a, b in arcs:
            e = (a, b) if a < b else (b, a)
            if e not in index:
                raise InputError(f"arc ({a},{b}) is not an edge of the base graph")
            if e in assigned:
                raise InputError(f"edge ({e[0]},{e[1]}) oriented twice")
            assigned.add(e)
            if a < b:
                bits |= 1 << index[e]
        if len(assigned) != len(graph.edges):
            raise InputError("every base edge needs exactly one direction")
        return cls(graph, bits)

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for i, (u, v) in enumerate(self.graph.edges):
            out.append((u, v) if (self.bits >> i) & 1 else (v, u))
        return out

    def out_degree(self, v: int) -> int:
        # each edge at v is either an in-arc or an out-arc
        return self.graph.degree(v) - self.in_masks[v].bit_count()

    def reverse(self) -> "Digraph":
        m = len(self.graph.edges)
        return Digraph(self.graph, self.bits ^ ((1 << m) - 1) if m else 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.graph == other.graph and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.graph, self.bits))

    def __repr__(self) -> str:
        return f"Digraph(n={self.graph.n}, m={len(self.graph.edges)}, bits={self.bits:#x})"


def average_degree(G: Graph, within: int | None = None) -> Fraction:
    """Exact average degree 2e/|S| of the subgraph induced on ``within``."""
    S = G.full_mask if within is None else within
    size = S.bit_count()
    if size == 0:
        raise InputError("average degree of the empty vertex set is undefined")
    return Fraction(2 * G.edge_count(S), size)


def is_acyclic(D: Digraph, within: int | None = None) -> bool:
    """True iff the sub-digraph induced on ``within`` has no directed cycle.

    Peels vertices of in-degree zero until the set is empty (acyclic) or
    no source remains (a directed cycle survives).
    """
    live = D.graph.full_mask if within is None else within
    in_masks = D.in_masks
    while live:
        removable = 0
        m = live
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if not (in_masks[v] & live):
                removable |= low
        if not removable:
            return False
        live &= ~removable
    return True


def random_orientation(G: Graph, rng) -> Digraph:
    """Orientation with every edge directed by an independent fair coin.

    ``rng`` is a ``random.Random`` or an integer seed; the result is a
    deterministic function of the seed.
    """
    r = _as_rng(rng)
    m = len(G.edges)
    return Digraph(G, r.getrandbits(m) if m else 0)


def orientations(G: Graph) -> Iterator[Digraph]:
    """All orientations, enumerated as binary counters over the edge list.

    Each yielded digraph equals ``Digraph(G, code)`` for code = 0, 1, ...,
    2^e - 1, but the in-neighbour masks are carried from one code to the
    next instead of rebuilt from all e edges: going from c - 1 to c
    reverses exactly the edges in ``c ^ (c - 1)``, the lowest set bit of c
    and the bits below it, two edges on average.  Reversing edge (u, v)
    moves one bit from one endpoint's in-mask to the other's, whichever way
    it pointed, so it toggles both.  Every counter code is in range, so the
    digraphs skip the constructor's range check.
    """
    toggles = [(u, 1 << v, v, 1 << u) for u, v in G.edges]
    # carries[j]: the edges reversed when the lowest set bit of the code is j - 1
    carries = [toggles[:j] for j in range(len(toggles) + 1)]
    inc = [0] * G.n
    for u, bv, _, _ in toggles:
        inc[u] |= bv  # code 0 orients every edge (u, v) as v -> u
    new = Digraph.__new__
    for code in range(1 << len(toggles)):
        if code:
            for u, bv, v, bu in carries[(code ^ (code - 1)).bit_length()]:
                inc[u] ^= bv
                inc[v] ^= bu
        D = new(Digraph)
        D.graph = G
        D.bits = code
        D.in_masks = tuple(inc)
        yield D


def count_acyclic_orientations(G: Graph) -> int:
    """Exact number of acyclic orientations by full enumeration."""
    m = len(G.edges)
    if m > ENUM_EDGE_BUDGET:
        raise BudgetExceededError("orientation enumeration", 2**m, 2**ENUM_EDGE_BUDGET)
    count = 0
    for D in orientations(G):
        if is_acyclic(D):
            count += 1
    return count


def count_acyclic_orientations_fast(G: Graph) -> int:
    """Exact acyclic-orientation count via source-set inclusion-exclusion.

    Every acyclic orientation of G[S] with all vertices of an independent
    set U as sources restricts to an acyclic orientation of G[S - U], which
    gives a(S) = sum over nonempty independent U of (-1)^(|U|+1) a(S - U).
    Cross-checked against :func:`count_acyclic_orientations` in the tests.
    """
    n = G.n
    if n > ACYCLIC_COUNT_VERTEX_BUDGET:
        raise BudgetExceededError("acyclic-count DP", 2**n, 2**ACYCLIC_COUNT_VERTEX_BUDGET)
    if n == 0:
        return 1
    adj = G.adj
    size = 1 << n
    ind = bytearray(size)
    ind[0] = 1
    for m in range(1, size):
        low = m & -m
        rest = m ^ low
        v = low.bit_length() - 1
        ind[m] = 1 if (ind[rest] and not (adj[v] & rest)) else 0
    g = [0] * size
    g[0] = 1
    for S in range(1, size):
        total = 0
        U = S
        while U:
            if ind[U]:
                if U.bit_count() & 1:
                    total += g[S ^ U]
                else:
                    total -= g[S ^ U]
            U = (U - 1) & S
        g[S] = total
    return g[size - 1]


def acyclic_orientation_bound(G: Graph) -> int:
    """Upper bound prod(d(v)+1) on the number of acyclic orientations."""
    return math.prod(G.degree(v) + 1 for v in range(G.n))


def acyclic_probability_bound(G: Graph) -> float:
    """Bound 2^(-e(1-2a)) with a = log2(avg_deg+1)/avg_deg on the chance a
    random orientation is acyclic.

    Float-valued (the exponent is transcendental); callers should compare
    with a 1e-12 relative tolerance.  Values >= 1 are vacuous but returned
    as-is.
    """
    m = len(G.edges)
    if m < 1:
        raise InputError("the bound needs at least one edge")
    dbar = float(average_degree(G))
    alpha = math.log2(dbar + 1.0) / dbar
    return 2.0 ** (-m * (1.0 - 2.0 * alpha))
