"""Exact coloring invariants for graphs and digraphs.

The chromatic number and the digraph chromatic number are one decision
search (see :func:`_cover_search`): between a floor and a greedy cover, can
the uncovered vertices be covered by b admissible sets, branching on the
maximal admissible sets through one uncovered vertex, with failures
memoised.  Graphs branch on a vertex of largest degree among the uncovered
ones, cut by a clique, and answer b = 2 by a bipartiteness test (see
:func:`chromatic_number`); digraphs branch on the lowest uncovered vertex,
which keeps the covers the orientation search pools (see
:func:`_acyclic_cover`).

Fractional invariants solve the covering linear program in exact rational
arithmetic; a single simplex run yields both an optimal cover and an
optimal dual weighting with identical objectives, which is the
strong-duality certificate.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, compress, islice
from math import ceil, lcm
from operator import eq, ne, or_

from .errors import BudgetExceededError, DicolorError, InputError
from .families import (
    _extends,
    _maximal_induced_forests,
    maximal_acyclic_sets,
    maximal_independent_sets,
)
from .graphs import (
    Digraph,
    Graph,
    blocks,
    derive_rng,
    is_acyclic,
    is_forest,
    iter_bits,
    orientations,
    random_orientation,
)
from .simplex import simplex_max
from .sparse import Weighting, degeneracy_coloring

DP_VERTEX_BUDGET = 24
LP_VERTEX_BUDGET = 20
ORIENT_EDGE_BUDGET = 20
# the stage a sampled search (--mode mc) past 2^ORIENT_EDGE_BUDGET orientations names
_SAMPLE_STAGE = "sampled orientation search (--mode mc / trials=N)"
COVER_POOL = 8  # covers kept by the orientation search, see _best_orientation
AUT_MAPS = 1024  # automorphism actions it collects, see _automorphism_maps


@dataclass(frozen=True)
class CoverSolution:
    """Fractional cover: weighted admissible sets covering every vertex."""

    parts: tuple[tuple[int, Fraction], ...]
    objective: Fraction

    def coverage(self, v: int) -> Fraction:
        return sum((w for mask, w in self.parts if (mask >> v) & 1), Fraction(0))


def _cover_search(full: int, cover: list[int], floor: int, parts) -> list[int]:
    """The parts of a minimum cover of ``full`` by admissible sets.

    ``cover`` covers ``full``, and no cover has fewer than ``floor`` parts.
    For b = len(cover) - 1 down to ``floor``, ``search(full, b)`` looks for
    a cover by at most b sets; the one it finds replaces ``cover``, and the
    first b without one ends the search.  ``search(S, b)`` branches on the
    parts M that ``parts(S, b)`` returns, and covers S - M by b - 1 sets.
    That is exact when every cover of S by b sets has a class inside some
    part, as the maximal admissible sets through one vertex of S are for a
    hereditary family; ``parts`` may leave out a part whose remainder b - 1
    sets cannot cover.  A remainder R is also cut when ``fail[R]``, the
    largest count proven too small for R, is at least b - 1: a count too
    small stays too small for every smaller one.  Every nonempty R fails
    with 0 sets, the default.

    With hi the ceiling, a subset searched with counts from a window of
    hi - ``floor`` is expanded at most 2 (hi - ``floor``) times: it fails
    with each count at most once, and a success ends its decision, of which
    there are at most hi - ``floor``.  ``full`` is searched with counts
    ``floor`` .. hi - 1, and a subset that d >= 1 parts reach, d the
    fewest, with counts 1 .. hi - 1 - d, so a floor of 2 gives that window,
    and :func:`chromatic_number` narrows it by its clique.  The minimum over
    subsets (Lawler 1976) that this search replaced expands every subset
    the parts reach once (``min_cover`` in the test oracles).

    :func:`_acyclic_cover` answers an acyclic D with [V], so its D has a
    directed cycle, which no single acyclic set covers: the floor is 2.
    Its ceiling peels acyclic sets, each grown from the empty set by every
    remaining vertex, in vertex order, that closes no directed cycle with
    the set so far (``families._extends``); the lowest remaining vertex
    always joins, so the peeling ends.  For b >= 2 its parts are the
    maximal acyclic sets of D[S] through the lowest vertex of S; they make
    the covers the orientation search pools, so another branch vertex would
    change which orientations that search evaluates.  For b = 1 the one
    part is S when D[S] is acyclic, the one set the enumeration would give,
    found by ``is_acyclic``, which expands nothing.
    """
    fail: dict[int, int] = {}

    def search(S: int, b: int) -> list[int] | None:
        # S is nonempty and has not failed with b sets
        for M in parts(S, b):
            R = S & ~M
            if not R:
                return [M]
            if fail.get(R, 0) >= b - 1:
                continue
            rest = search(R, b - 1)
            if rest is not None:
                return [M, *rest]
        fail[S] = b
        return None

    try:
        while len(cover) > floor:
            found = search(full, len(cover) - 1)
            if found is None:
                break
            cover = found
    finally:
        # search refers to itself through its closure; emptying that cell
        # frees the memo now instead of at the next full garbage collection
        del search
    return cover


def _bipartite(adj: tuple[int, ...], S: int) -> list[int] | None:
    """The two classes of a 2-colouring of the subgraph induced on S, the
    first holding the lowest vertex of each component, or None when there
    is none (see :func:`chromatic_number`)."""
    sides = [0, 0]
    while S:
        layer = S & -S
        S ^= layer
        side = 0
        while layer:
            sides[side] |= layer
            reach = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = adj[low.bit_length() - 1]
                if nbrs & layer:
                    return None
                reach |= nbrs
            layer = reach & S
            S ^= layer
            side ^= 1
    return sides


def chromatic_number(G: Graph, vertex_budget: int = DP_VERTEX_BUDGET) -> int:
    """Exact chromatic number: minimum independent sets covering V.

    A :func:`_cover_search` from the hi colour classes of
    :func:`degeneracy_coloring` down to the clique number.  A branch and
    bound over the adjacency masks finds a maximum clique K, colouring the
    candidates greedily at each node so that a candidate of colour c can
    add at most c vertices; it stops once K has hi vertices, and then
    nothing is searched.  For b >= 3 the parts of S are the maximal
    independent sets of G[S] through a vertex v of largest degree in G[S]
    (the lowest on ties), so the remainders are the smallest.  A part whose
    remainder holds more than b - 1 vertices of K is left out, since an
    independent set holds at most one.  So a subset that d parts reach, d
    the fewest, keeps |K| - d vertices of K and is searched with counts
    |K| - d .. hi - 1 - d, and is expanded at most 2 (hi - |K|) times.

    For b <= 2 the one part is the first class of :func:`_bipartite`, a
    breadth-first 2-colouring over the adjacency masks, one component at a
    time.  An edge of G[S] joins two vertices in the same or in adjacent
    layers.  If no edge lies inside a layer, the layer parities colour G[S]
    with two colours.  If an edge uv lies inside layer i, the paths from u
    and from v back to the root, with uv, form a closed walk of length
    2i + 1, which holds an odd cycle, and no two independent sets cover
    that (König).  At b = 2 the remainder is the other class, whose own
    first class is all of it; at b = 1 the first class is S exactly when S
    is independent.  The test expands nothing.
    """
    if G.n > vertex_budget:
        raise BudgetExceededError("chromatic-number search", G.n, vertex_budget)
    if G.n == 0:
        return 0
    adj = G.adj
    full = G.full_mask
    colors = degeneracy_coloring(G)[1]
    hi = max(colors) + 1
    clique = 0  # the largest clique found so far

    def grow(R: int, P: int) -> bool:
        # R is a clique and P its common neighbours; False once a clique of
        # hi vertices is found, which no clique exceeds
        nonlocal clique
        size = R.bit_count()
        if size > clique.bit_count():
            clique = R
            if size == hi:
                return False
        # colour P greedily, class by class, lowest vertex first
        order = []
        rest = P
        c = 0
        while rest:
            c += 1
            free = rest
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~(adj[v] | low)
                rest ^= low
                order.append((c, v, low))
        # the vertices of P coloured at most c hold a clique of at most c
        for c, v, low in reversed(order):
            if size + c <= clique.bit_count():
                return True
            if not grow(R | low, P & adj[v]):
                return False
            P ^= low
        return True

    def parts(S: int, b: int):
        if b <= 2:
            sides = _bipartite(adj, S)
            return () if sides is None else sides[:1]
        v = max(iter_bits(S), key=lambda u: (adj[u] & S).bit_count())
        return (M for M in maximal_independent_sets(G, within=S, containing=v)
                if (clique & S & ~M).bit_count() < b)

    try:
        grow(0, full)
    finally:
        del grow  # it refers to itself, as search does in _cover_search
    # no colouring has fewer colours than the clique, so the decisions stop
    # there, and none is asked when the clique meets hi
    floor = clique.bit_count()
    if floor == hi:
        return hi
    classes = [0] * hi
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    return len(_cover_search(full, classes, floor, parts))


def digraph_chromatic_number(D: Digraph, vertex_budget: int = DP_VERTEX_BUDGET) -> int:
    """Exact chromatic number of a digraph: minimum acyclic cover of V."""
    return _acyclic_cover(D, vertex_budget)[0]


def _acyclic_cover(D: Digraph, vertex_budget: int = DP_VERTEX_BUDGET) -> tuple[int, list[int]]:
    """Size and parts of a minimum cover of V by acyclic sets of D, by
    :func:`_cover_search` (the floor, ceiling and parts are proven there)."""
    n = D.graph.n
    if n > vertex_budget:
        raise BudgetExceededError("digraph-chromatic search", n, vertex_budget)
    full = D.graph.full_mask
    if is_acyclic(D):
        return (1, [full]) if full else (0, [])
    in_masks, adj = D.in_masks, D.graph.adj
    cover = []
    rest = full
    while rest:
        part = 0
        for v in iter_bits(rest):
            if _extends(in_masks, adj, part, v):
                part |= 1 << v
        cover.append(part)
        rest ^= part

    def parts(S: int, b: int):
        if b == 1:
            return (S,) if is_acyclic(D, S) else ()
        return maximal_acyclic_sets(D, within=S, containing=(S & -S).bit_length() - 1)

    cover = _cover_search(full, cover, 2, parts)
    return len(cover), cover


def _automorphism_maps(G: Graph) -> list[tuple[list[int], int]]:
    """Actions on orientation codes of automorphisms of G, without the identity.

    An automorphism s sends the orientation with code c to the one with
    code P(c) ^ F.  P moves the bit of edge {u, v} to the bit of edge
    {s(u), s(v)}.  F marks the image edges whose ends s puts in the other
    order, s(u) > s(v), since a set bit stands for the arc leaving the lower
    end.  An action is a flat list of 16 entries per 4 bits of the code:
    entry 16 t + x is P of the value x in bits 4t..4t+3, and F is folded
    into the first 16 entries, so s(c) is the XOR of one entry per 4 bits.
    Each action comes paired with its stabilised levels, for the pruning
    of :func:`_orderly_orientations`: bit j is set when P maps the code
    positions j..e-1 onto themselves, for j = 0 and for 1 <= j <= e-2 up to
    the highest position that s moves or flips.  They are read off P as the
    action is built.

    The backtracking maps the non-isolated vertices in a connected order,
    each to an unused vertex with the same degree and the same neighbour
    degrees that is adjacent to exactly the images of its earlier
    neighbours; isolated vertices stay fixed.  The action on the edges
    determines s on every non-isolated vertex, so distinct automorphisms
    found give distinct actions, and only the identity acts as the
    identity.  The collection stops after ``AUT_MAPS`` actions; the orbit
    skip of :func:`_best_orientation` is exact with any subset of them.
    A code the skip keeps is tested against every action not dropped on
    the way down, and the actions found first only permute the vertices
    mapped last, so past the cap more actions cost more than they skip:
    on K_{2,10} (2 * 10! automorphisms) the search keeps the same codes
    with 1,024 actions as with 4,096, and ``dichif`` takes 1.1-1.4 s
    instead of 2.4-2.7 s (2-core VM, README "Budgets").
    """
    n, edges, adj = G.n, G.edges, G.adj
    # edge_bit[a][b] is the bit of edge {a, b}, negated when a > b: an edge
    # (u, v), u < v, with s(u) = a and s(v) = b has its image bit in F
    edge_bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        edge_bit[u][v] = 1 << i
        edge_bit[v][u] = -1 << i
    deg = [a.bit_count() for a in adj]
    key = [(deg[v], sorted(deg[u] for u in iter_bits(adj[v]))) for v in range(n)]
    # each vertex next has the most neighbours among the earlier ones, so
    # the adjacency test prunes from the second level on
    order: list[int] = []
    earlier: list[list[int]] = []  # the earlier neighbours of each
    placed = 0
    rest = [v for v in range(n) if deg[v]]
    while rest:
        v = max(rest, key=lambda u: ((adj[u] & placed).bit_count(), deg[u]))
        rest.remove(v)
        earlier.append([u for u in order if (adj[v] >> u) & 1])
        order.append(v)
        placed |= 1 << v
    candidates = [[(w, 1 << w, adj[w]) for w in order if key[w] == key[v]] for v in order]
    identity = list(range(n))
    image = list(range(n))
    image_bit = [1 << v for v in range(n)]
    chunks = range(0, len(edges), 4)
    padding = [0] * (-len(edges) % 4)
    full = (1 << len(edges)) - 1
    units = [1 << i for i in range(len(edges))]
    below = [(2 << j) - 1 for j in range(len(edges) - 2)]
    level_bits = [2 << j for j in range(len(edges) - 2)]
    maps: list[tuple[list[int], int]] = []

    def add_action() -> None:
        signed = [edge_bit[image[u]][image[v]] for u, v in edges]
        moved = list(map(abs, signed))
        # P permutes the bits, so their sum is 2^e - 1, and negating the
        # bits of F takes 2F off it
        flip = (full - sum(signed)) >> 1
        # P stabilises level j + 1 when the OR of the images of positions
        # 0..j is below[j]; levels above the highest position s moves or
        # flips are dropped, since s is the identity there
        changed = flip | sum(compress(units, map(ne, moved, units)))
        levels = 1 | sum(compress(level_bits, map(eq, accumulate(moved, or_), below)))
        levels &= (1 << changed.bit_length()) - 1
        moved += padding
        action: list[int] = []
        for t in chunks:
            a, b, c, d = moved[t:t + 4]
            ab = a | b
            cd = c | d
            action += [0, a, b, ab, c, a | c, b | c, ab | c,
                       d, a | d, b | d, ab | d, cd, a | cd, b | cd, ab | cd]
        action[:16] = map(flip.__xor__, action[:16])
        maps.append((action, levels))

    def extend(d: int, used: int) -> bool:
        # order[:d] is mapped onto the vertices in used; the isolated
        # vertices stay fixed.  False once AUT_MAPS actions are collected
        if d == len(order):
            if image != identity:
                add_action()
            return len(maps) < AUT_MAPS
        want = 0
        for u in earlier[d]:
            want |= image_bit[u]
        v = order[d]
        for w, bit, nbrs in candidates[d]:
            if not used & bit and nbrs & used == want:
                image[v] = w
                image_bit[v] = bit
                if not extend(d + 1, used | bit):
                    return False
        return True

    try:
        extend(0, 0)
    finally:
        # extend refers to itself through its closure, as search does in
        # _cover_search
        del extend
    return maps


def _orderly_orientations(
    G: Graph,
) -> Generator[Digraph | None, list[tuple[list[int], int]] | None, None]:
    """The orientations of G with codes below 2^(e-1), in increasing code
    order, less those that a collected automorphism action maps lower.

    A code c is left out when an action s of :func:`_automorphism_maps`
    gives min(s(c), s(c) ^ (2^e - 1)) < c.  The (action, levels) pairs are
    sent once, after any yield, with ``send(maps)``, which returns None;
    the codes after the one just yielded are then tested.  Until some
    action exists nothing is left out, and the codes come from
    ``graphs.orientations``, which carries the in-masks from code to code.
    From then on they come from a depth-first search that fixes the bits
    from e-2 down to 0, 0 before 1, and prunes a prefix whose every
    completion would be left out (the proof is in
    :func:`_best_orientation`); the in-masks go from one yielded code to
    the next by reversing the edges whose bits differ.
    """
    m = len(G.edges)
    half = 1 << (m - 1)
    full = (1 << m) - 1
    for D in islice(orientations(G), half):
        maps = yield D
        if maps is not None:
            yield
            if maps:
                break
    else:
        return
    code = D.bits
    inc = list(D.in_masks)
    toggles = [(u, 1 << v, v, 1 << u) for u, v in G.edges]
    new = Digraph.__new__

    # where each 4-bit chunk of a code sits and where its 16 entries start in
    # an action
    chunks = [(s, 4 * s) for s in range(0, m, 4)]
    # actions that stabilise a level above 0 are tested down the tree, as
    # bits of an int per node; the others only at the leaves, the one that
    # last left a code out first
    deep: list[list[int]] = []
    flat: list[list[int]] = []
    at_level = [0] * (m - 1)  # bit i: deep[i] stabilises the level
    for action, levels in maps:
        if levels == 1:
            flat.append(action)
        else:
            for j in iter_bits(levels):
                at_level[j] |= 1 << len(deep)
            deep.append(action)

    def narrow(j: int, prefix: int, live: int) -> int | None:
        # the live actions that stabilise level j fix bits j..e-1 of every
        # completion's image; None when one maps them lower, and otherwise
        # live less the ones that map them higher
        test = live & at_level[j]
        if not test:
            return live
        at = [((prefix >> s) & 15) + start for s, start in chunks]
        fixed = prefix >> j
        while test:
            low = test & -test
            test ^= low
            action = deep[low.bit_length() - 1]
            image = 0
            for x in at:
                image ^= action[x]
            if image >= half:
                image ^= full
            image >>= j
            if image < fixed:
                return None
            if image > fixed:
                live ^= low
        return live

    # the pending subtrees after code, the largest on the bottom: the 1
    # branches off its path, each with the actions live at its parent
    stack = []
    live = (1 << len(deep)) - 1
    prefix = 0
    for j in range(m - 2, -1, -1):
        bit = 1 << j
        if code & bit:
            prefix |= bit
        else:
            stack.append((j, prefix | bit, live))
        if j:
            live = narrow(j, prefix, live)
            if live is None:
                break
    while stack:
        j, prefix, live = stack.pop()
        while True:
            live = narrow(j, prefix, live)
            if live is None or not j:
                break
            j -= 1
            stack.append((j, prefix | 1 << j, live))
        if live is None:
            continue
        at = [((prefix >> s) & 15) + start for s, start in chunks]
        for i, action in enumerate(flat):
            image = 0
            for x in at:
                image ^= action[x]
            if image < prefix or image ^ full < prefix:
                if i:
                    flat.insert(0, flat.pop(i))
                break
        else:
            diff = prefix ^ code
            while diff:
                low = diff & -diff
                diff ^= low
                u, bv, v, bu = toggles[low.bit_length() - 1]
                inc[u] ^= bv
                inc[v] ^= bu
            code = prefix
            D = new(Digraph)
            D.graph = G
            D.bits = code
            D.in_masks = tuple(inc)
            yield D


def _tournament_bound(m: int) -> int:
    """Colours that peeling transitive sets leaves on any tournament on m
    vertices: t(0) = 0 and t(m) = 1 + t(m - (1 + floor(log2 m))).

    Every tournament on m >= 1 vertices has a transitive set of
    1 + floor(log2 m) = ``m.bit_length()`` vertices (Erdos and Moser 1964):
    one of the out- and in-neighbourhoods of a vertex holds at least
    ceil((m - 1) / 2) of the others, and the vertex joins a transitive set
    found there.  A transitive set is acyclic, so colouring one and
    recursing on the rest colours the tournament with t(m) acyclic sets.
    """
    colors = 0
    while m:
        m -= m.bit_length()
        colors += 1
    return colors


# dichif of the 70 two-connected graphs on 3-6 vertices, as computed by this
# search with its stops off (tests/test_coloring.py recomputes them): groups
# "value:graph graph ...", a graph written as its vertex count n and the hex
# mask of its edges, bit i for the i-th pair of combinations(range(n), 2).
# A string, parsed on first use, costs less to import than a literal table
_BLOCK_DICHIF = (
    "6/5:65231;5/4:5299;4/3:42d 57e 65235 63239 63d98 65ab1;3/2:37 42f 43f 529d 53ec 52f9"
    " 517e 65272 61a3b 65e31 650f3 61a3d 67329 65731 61b39 67d98 61a3f 650fb 651f3 6333d"
    " 6527e 65676 61b3b 63d9a 67a39 61b3d 65e35 65b87 65ab5 67b39 65773 65776 678f3;5/3:53ed"
    " 53dd 53fd 67d99 673e9 6567e 65e76 653f9 63b3d 61bbb 66fc3 62fe7 656fd 666ef 679f3"
    " 65fda 655f7 63f9b 65fb5 6fff 657f7 6777b;7/4:53ff 676ef 67f9b 657ff 6777f;9/5:67ffb;"
    "2:67fff"
)


def _block_key(adj: tuple[int, ...] | list[int], B: int) -> tuple:
    """A label-free invariant of the subgraph induced on B: for each vertex
    its degree, twice the edges among its neighbours and its neighbours'
    degrees, sorted.  It tells the 70 graphs of ``_BLOCK_DICHIF`` apart."""
    nbrs = [(adj[v] & B, v) for v in iter_bits(B)]
    key = []
    for N, v in nbrs:
        degrees = []
        pairs = 0
        for M, u in nbrs:
            if (N >> u) & 1:
                degrees.append(M.bit_count())
                pairs += (M & N).bit_count()
        degrees.sort()
        key.append((len(degrees), pairs, *degrees))
    key.sort()
    return tuple(key)


@cache
def _block_table() -> dict[tuple, Fraction]:
    """``_BLOCK_DICHIF`` by :func:`_block_key`."""
    table = {}
    for group in _BLOCK_DICHIF.split(";"):
        value, codes = group.split(":")
        for code in codes.split():
            n, mask = int(code[0]), int(code[1:], 16)
            adj = [0] * n
            for i, (u, v) in enumerate(combinations(range(n), 2)):
                if (mask >> i) & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            table[_block_key(adj, (1 << n) - 1)] = Fraction(value)
    return table


def _orientation_stop(G: Graph) -> int:
    """The value at which the ``dichi`` search of a non-forest G stops: an
    upper bound on chi(D) for every orientation D of G, the smallest of
    k // 2 + 1 for a k-degenerate G, the colours of the greedy colouring
    along a degeneracy order, and the largest bound over the blocks B of G,
    2 for |B| <= 6 and t(|B|) of :func:`_tournament_bound` above.  The
    proofs are in :func:`_best_orientation`.
    """
    k, colors = degeneracy_coloring(G)
    stop = min(k // 2 + 1, max(colors) + 1)
    if stop > 2:
        # a non-forest has a block with a cycle, of at least 3 vertices, and
        # the block bound is at least 2 there, so the blocks can only lower a
        # stop above 2
        stop = min(stop, max(2 if s <= 6 else _tournament_bound(s)
                             for s in map(int.bit_count, blocks(G))))
    return stop


def _has_clique(adj: tuple[int, ...], P: int, q: int) -> bool:
    """True when the vertices of P hold a clique on q >= 1 vertices."""
    if q == 1:
        return bool(P)
    while P.bit_count() >= q:
        low = P & -P
        P ^= low
        if _has_clique(adj, P & adj[low.bit_length() - 1], q - 1):
            return True
    return False


def _block_bounds(G: Graph) -> tuple[int | Fraction, int | Fraction]:
    """Bounds on the ``dichif`` of a non-forest G from its blocks with a
    cycle: the largest upper bound over them, the ``_BLOCK_DICHIF`` value
    or t(|B|) of :func:`_tournament_bound` past 6 vertices, and the largest
    table value among them (1 for none), a lower bound.  The two are equal,
    and the answer, when every block with a cycle is in the table.  The
    proofs are in :func:`_best_orientation`.
    """
    adj = G.adj
    table = _block_table()
    known = top = 1
    for B in blocks(G):
        size = B.bit_count()
        if size < 3:
            continue  # a bridge lies on no cycle
        value = table.get(_block_key(adj, B)) if size <= 6 else None
        if value is None:
            value = _tournament_bound(size)
        else:
            known = max(known, value)
        top = max(top, value)
    return top, known


def _fractional_stop(G: Graph, top: int | Fraction) -> int | Fraction:
    """The value at which the ``dichif`` search of a non-forest G stops when
    the table leaves a block unanswered, an upper bound on chi_f(D) for
    every orientation D of G: the smallest of :func:`_orientation_stop`,
    ``top`` of :func:`_block_bounds`, and va_f(G), the covering LP over the
    maximal induced forests of G (:func:`families._maximal_induced_forests`).
    va_f is not computed past the LP gate, nor when G holds a clique on
    ceil(2 stop) vertices, where it cannot lower the stop.  The proofs are
    in :func:`_best_orientation`.
    """
    stop = min(_orientation_stop(G), top)
    if G.n <= LP_VERTEX_BUDGET and not _has_clique(G.adj, G.full_mask, ceil(2 * stop)):
        stop = min(stop, _solve_cover_lp(G.n, _maximal_induced_forests(G))[0])
    return stop


def _fractional_floor(G: Graph, stop: int | Fraction, known: int | Fraction) -> int | Fraction:
    """A lower bound on chi_f(D) for some orientation D of a non-forest G,
    chosen to meet ``stop``: ``known``, the largest table value over the
    blocks of G, if it does or if stop > 3/2; otherwise the larger of
    ``known`` and g / (g - 1) for the length g of a shortest cycle of G,
    found by a breadth-first search over the adjacency masks from every
    vertex.  A clique of G would meet no stop that this misses: past the
    table, a K_m of G keeps the stop above dichif(K_m) unless m = 3 and
    the stop is 3/2.  The proofs are in :func:`_best_orientation`.
    """
    if known >= stop or stop > Fraction(3, 2):
        return known
    adj = G.adj
    # the breadth-first layers from a root close a cycle of at most 2 d + 1
    # edges when two vertices of layer d are adjacent, and of at most
    # 2 d + 2 when two of them share a neighbour in no earlier layer: the
    # tree paths back to where they meet, with those edges.  From a vertex
    # of a shortest cycle the first closure has its length
    girth = G.n + 1
    for root in range(G.n):
        seen = layer = 1 << root
        length = 1  # 2 d + 1
        while layer and length < girth:
            if any(adj[v] & layer for v in iter_bits(layer)):
                girth = length
                break
            reach = 0
            for v in iter_bits(layer):
                new = adj[v] & ~seen
                if new & reach:
                    girth = min(girth, length + 1)
                reach |= new
            seen |= reach
            layer = reach
            length += 2
    return max(known, Fraction(girth, girth - 1))


def _best_orientation(
    G: Graph, value, trials: int | None, seed: int, edge_budget: int, integer: bool = False
) -> tuple:
    """Largest value over orientations D of G, with the first D reaching it,
    or None when an exact fractional search answers from its lower bound.

    ``value(D)`` returns the value of D and an optimal cover attaining it,
    as a list of vertex sets that are acyclic in D.  With ``trials`` None
    the orientations are enumerated as binary counters; only the codes
    below 2^(e-1) are visited, since reversing every arc keeps the value,
    and more than 2^``edge_budget`` of them are refused before the first.
    Otherwise the orientations are the seeded samples
    ``derive_rng(seed, i)`` for ``i < trials``, gated before the first by
    2^``ORIENT_EDGE_BUDGET`` samples.  The empty graph gives 0, and every
    orientation of a forest is acyclic, so forests short-circuit to 1.

    The search stops as soon as the best value reaches ``k // 2 + 1``,
    where k is the degeneracy of G, because no orientation D exceeds it:
    colour D greedily along a degeneracy order, where every vertex v has at
    most k earlier neighbours.  A colour is barred at v only if v has both
    an in-neighbour and an out-neighbour of that colour among them, since
    otherwise v closes no directed cycle in its class; barring all
    ``k // 2 + 1`` colours would take ``2 (k // 2 + 1) > k`` earlier
    neighbours.  So chi(D) <= k // 2 + 1, and chi_f(D) <= chi(D).  Every
    value seen before the stop is below the bound, so the witness is still
    the first orientation reaching the maximum.  The stop is lowered to the
    number of colours of the greedy colouring along that order, with the
    same witness argument: independent sets are acyclic, so chi_f(D) <=
    chi(D) <= chi(G).  It colours a complete bipartite graph with 2, so
    K_{4,5} stops at 2 where the degeneracy bound is 3.

    The stop is lowered again to the largest bound over the blocks B of G
    (:func:`graphs.blocks`).  A directed cycle of D is a cycle of G, so it
    lies inside one block, and chi(D) is the largest chi(D[B]): colour each
    block with its own acyclic sets, and add the blocks one at a time along
    the block-cut tree, each meeting the ones coloured before in one cut
    vertex, permuting its colours to agree there; a class then holds a
    directed cycle only if one block's class does.  Adding an arc between
    every non-adjacent pair of B turns D[B] into a tournament T, and adding
    arcs only removes acyclic sets, so chi(D[B]) <= chi(T) <= dichi(K_|B|),
    the largest chi over the tournaments on |B| vertices.  That is at most
    2 for |B| <= 6, since the smallest tournament that two acyclic sets do
    not cover has 7 vertices (Neumann-Lara 1994; a test recomputes it with
    the search).  A larger block is bounded by t(|B|) of
    :func:`_tournament_bound`, and t(7) = t(8) = 3 are the dichromatic
    numbers of K7 and K8.

    Fractional values (``dichif``) stop at the ``top`` bound of
    :func:`_block_bounds` when every block with a cycle is in the table, and
    at :func:`_fractional_stop` otherwise, with the same witness argument.
    chi_f(D) is the largest chi_f(D[B]) over the blocks B.  It is at most
    that largest value x.  Lay an optimal fractional cover of each D[B] out
    on [0, x) as acyclic sets A_B(s): its sets on intervals as long as their
    weights, then empty sets.  Trim each so that every vertex of B lies in
    A_B(s) for s in a set of length exactly 1; subsets of acyclic sets are
    acyclic.  Add the blocks along the block-cut tree, each meeting the
    union H of the ones placed before in one cut vertex c: move B's
    intervals around [0, x), cutting them where needed but never stretching
    them, so that c lies in A_B(s) exactly where it lies in the sets placed
    for H; both are sets of length 1.  At each s the union of all A_B(s) is
    then acyclic, since a directed cycle lies in one block B, where the
    other sets add at most a cut vertex that A_B(s) already holds.  So D has
    a fractional cover of weight x.  It is at least x, since restricting a
    fractional cover of D to a set Q gives one of D[Q] (a subset of an
    acyclic set is acyclic), and a block is an induced subgraph.  Distinct
    blocks share no edge, so their orientations are independent, and the
    largest chi_f(D) is the largest dichif(G[B]).  ``_BLOCK_DICHIF`` holds
    that for every block with a cycle on at most 6 vertices, and a bridge
    gives 1.  A larger block is bounded by t(|B|) as above, since
    chi_f(D[B]) <= chi(D[B]).  Every bound of :func:`_orientation_stop`
    holds, since chi_f(D) <= chi(D).  And a set inducing a forest of G holds
    no cycle of G, so it is acyclic in every D, and chi_f(D) <= va_f(G), the
    covering LP over the maximal induced forests of G.  A clique Q of G
    meets an induced forest in at most 2 vertices, so a cover by induced
    forests weighs at least |Q| / 2.  With s the smaller of the other
    bounds, a clique on ceil(2 s) vertices gives va_f(G) >= s, so the LP is
    skipped when G holds one.

    An exact fractional search (``trials`` None) returns a stop that a
    lower bound on the largest chi_f(D) meets, with None for the witness:
    no orientation, family or LP is evaluated.  A lower bound of at least
    the stop is the stop itself, and the answer.  The bound is chi_f(D[Q])
    <= chi_f(D) for a set Q and an orientation of G[Q] extended to some
    D.  A block in the table, oriented to attain its value, gives the
    largest table value: when every block with a cycle is in the table,
    that is both the stop and the bound, and it is returned before the
    edge gate, which only an evaluated orientation needs.  Otherwise the
    stop is compared with :func:`_fractional_floor`.  A shortest cycle C of G,
    of length g, has no chord, since a chord would close a shorter cycle,
    so orienting C as a directed cycle makes D[V(C)] the directed g-cycle.
    Its acyclic sets are the proper subsets of V(C): the g sets missing one
    vertex each, weighted 1 / (g - 1), cover every vertex, and the weight
    1 / (g - 1) on each vertex puts at most 1 on every acyclic set, so both
    LP sides give chi_f = g / (g - 1).  That is at most 3/2, so the
    shortest cycle is only looked for when the stop is at most 3/2.  A
    clique K_m of G, 3 <= m <= 6, oriented to attain dichif(K_m) (3/2,
    3/2, 7/4, 2), adds nothing: past the table some block has 7 or more
    vertices, and the K_m gives a degeneracy stop of at least
    floor((m - 1) / 2) + 1, at least m colours, a block bound of at least
    t(7) = 3 and va_f(G) >= m / 2, so the stop is at least 3/2 for K3, 2
    for K4, 5/2 for K5 and 3 for K6.  Only a triangle meets a stop, of
    3/2, and a triangle is a shortest cycle with g / (g - 1) = 3/2.
    Sampled searches never take this path: their answer is the best
    sampled value, which may lie below the stop.

    With integer values (``integer``, the ``dichi`` searches) and a stop
    of 2, an orientation is returned as the witness with value 2 without
    calling ``value`` once the best value is 1 and no pooled cover bounds
    it.  While the best value is 1, every cover ``value`` returned has one
    part, V, since a second part would make the value 2 or more; so the
    pool leaves D only if V is cyclic in D, and then 2 <= chi(D) <= 2.
    The search would have evaluated D and stopped there with the same
    value and witness.  Fractional values may lie strictly between 1 and
    2, so ``dichif`` never takes this stop.

    In exact enumeration an orientation D with code c is skipped, before the
    pool below is checked, when an automorphism s of G maps c to a code c'
    with min(c', c' ^ (2^e - 1)) < c.  That smaller code is s(D) or its
    reverse, which have the value of D, and it lies below c < 2^(e-1), so
    it was visited before D.  Every visited orientation, evaluated or
    skipped, has a value at most the best value so far, so value(D) is too.
    So D cannot be the first orientation to reach the maximum, and skipping it
    changes neither the value nor the witness.  The argument holds for any
    set of automorphisms, so :func:`_automorphism_maps` may stop
    collecting them at a fixed count.  They are collected at the first
    ``value`` call that does not raise the best value.  Until then every
    evaluated orientation raised it, and such an orientation is the least
    code of its class under Aut(G) and reversal, which the skip keeps.  And a
    search that stops at the bound before such a call never pays for the
    automorphisms: exact ``dichi`` with a stop of 2 evaluates code 0 only,
    which is acyclic, and stops at its first orientation with a directed
    cycle.  Sampled orientations come in no code order and are never
    skipped this way.

    The skip is applied to whole code prefixes by
    :func:`_orderly_orientations`.  Once the actions exist it takes the
    codes from a depth-first search that fixes bit e-2, then e-3, down to
    bit 0 (bit e-1 is 0), trying 0 before 1, so the codes still come in
    increasing order.  At a node of level j the bits j..e-1 of the code are
    fixed: call that prefix p, with zeros below j.  Let an action send c to
    P(c) ^ F, and let it stabilise level j: P maps the positions j..e-1
    onto themselves.  Then, for every completion c of p, the bits j..e-1
    of P(c) ^ F are those of P(p) ^ F, since P moves the free bits below
    j only among themselves.  Bit e-1 is one of them, so it is fixed which
    of the image and its complement lies below 2^(e-1), and with it the
    bits j..e-1 of c' = min(s(c), s(c) ^ (2^e - 1)).  If they are below
    those of p, then c' < c for every completion, the skip drops every
    code of the subtree, and the search prunes it.  If they are above,
    then c' > c for every completion: the action skips no code of the
    subtree, so it is dropped there and never tested again below the node.
    If they are equal it stays live.  At a leaf, every action stabilises
    level 0, and the live actions and those that stabilise no other level
    get the code-by-code test; an action only tested there is kept in a
    list where the one that last skipped a code moves to the front.  A leaf
    is thus yielded exactly when no collected action skips its code, and
    the search evaluates the codes the skip alone would: values, witnesses
    and pool decisions are unchanged.  When the actions arrive after code
    c0 is evaluated, the nodes on the path to c0 are tested from the top,
    and the search goes on with the subtrees to their right.

    Orientations an earlier cover already bounds are also skipped without
    calling ``value``.  The last ``COVER_POOL`` covers returned by
    ``value`` are pooled, most recently used first.  Each came from an
    orientation already evaluated, so its objective is at most the best
    value so far, and the best value never falls.  If every set of a pooled
    cover is acyclic in D, that cover is a feasible integer or fractional
    cover of D: each acyclic set lies in a maximal acyclic set of D, over
    which both covering problems range.  So value(D) is at most the cover's
    objective, hence at most the best value.  Only an orientation with a
    strictly larger value replaces the best one and the witness, so skipping
    D changes neither the maximum nor the first orientation reaching it.

    The acyclicity of a pooled set S is cached.  It depends only on the arcs
    inside S, that is, on ``D.bits & E_S``, where E_S marks the edges with
    both ends in S.  Each pooled set keeps E_S, computed once when its cover
    enters the pool, with the sub-code and verdict of its last test, and
    ``is_acyclic`` runs only when ``D.bits & E_S`` has changed.  A cover
    enters with the verdict True for the D it came from, whose acyclic sets
    they are.  So every pool decision is the one a fresh test of every set
    would make, at three more integers per pooled set.  Exact enumeration
    carries the in-neighbour masks from one yielded code to the next,
    reversing only the edges whose bits differ.
    """
    if trials is not None and trials < 1:
        raise InputError("need at least one trial")
    if G.n == 0:
        return 0, Digraph(G, 0)
    if is_forest(G):
        return 1, Digraph(G, 0)
    if not integer:
        bound, known = _block_bounds(G)
        if trials is None and known >= bound:
            # the table answers every block with a cycle, so no orientation
            # is evaluated and the edge gate below, which counts them, does
            # not apply
            return bound, None
    if trials is None:
        m = len(G.edges)
        # the walk visits the 2^(e-1) codes below the top bit, the count the
        # exhaustive --mode mc gate of dichromatic_lower_bound_mc also takes
        if m - 1 > edge_budget:
            raise BudgetExceededError(
                "orientation enumeration (or sample: --mode mc / trials=N)",
                2 ** (m - 1),
                2**edge_budget,
            )
        # D and its reverse have the same acyclic sets, so the same value,
        # and of the codes c and c ^ (2^e - 1) the one below 2^(e-1) comes
        # first: the first maximum lies in the lower half of the codes
        digraphs = _orderly_orientations(G)
    else:
        if trials > 1 << ORIENT_EDGE_BUDGET:
            raise BudgetExceededError(_SAMPLE_STAGE, trials, 2**ORIENT_EDGE_BUDGET)
        digraphs = (random_orientation(G, derive_rng(seed, i)) for i in range(trials))
    # the automorphisms are collected at the first value that does not raise
    # the best; samples come in no code order, so they are never skipped
    collect = trials is None
    if integer:
        bound = _orientation_stop(G)
    elif known < bound:
        bound = _fractional_stop(G, bound)
        if trials is None and _fractional_floor(G, bound, known) >= bound:
            # some orientation has value at least the stop, which none exceeds
            return bound, None
    # while the best is 1 an orientation the pool does not skip has value 2
    # when the values are integers and the stop is 2
    cycle_stop = integer and bound == 2
    best = 0
    witness = None
    # end masks of the edges, to find the edges with both ends in a set
    ends = [(1 << u) | (1 << v) for u, v in G.edges]
    # a pooled cover is a list of entries [S, E_S, sub-code, verdict]: E_S
    # has bit i set when edge i has both ends in S, and the verdict is
    # is_acyclic on S for orientations whose code agrees with sub-code on E_S
    pool: list[list[list]] = []
    for D in digraphs:
        bits = D.bits
        for i, cover in enumerate(pool):
            for entry in cover:
                S, E, last, acyclic = entry
                sub = bits & E
                if sub != last:
                    entry[2] = sub
                    entry[3] = acyclic = is_acyclic(D, S)
                if not acyclic:
                    break
            else:
                if i:
                    pool.insert(0, pool.pop(i))
                break
        else:
            if cycle_stop and best == 1:
                return 2, D
            c, cover = value(D)
            entries = []
            for S in cover:
                E = sum(1 << j for j, e in enumerate(ends) if S & e == e)
                # every set of a cover value returns for D is acyclic in D
                entries.append([S, E, bits & E, True])
            pool.insert(0, entries)
            del pool[COVER_POOL:]
            if c > best:
                best = c
                witness = D
                if best >= bound:
                    break
            elif collect:
                collect = False
                digraphs.send(_automorphism_maps(G))
    return best, witness


def dichromatic_number_exact(G: Graph, edge_budget: int = ORIENT_EDGE_BUDGET) -> tuple[int, Digraph]:
    """Exact dichromatic number with a maximizing orientation.

    Orientations are enumerated as binary counters (the codes below
    2^(e-1) suffice, by reversal symmetry, and codes an automorphism of G
    maps lower are skipped); raise the budget or fall back to
    :func:`dichromatic_lower_bound_mc` beyond ``edge_budget`` + 1 edges,
    that is, past 2^``edge_budget`` codes.
    """
    return _best_orientation(G, _acyclic_cover, None, 0, edge_budget, integer=True)


def dichromatic_lower_bound_mc(G: Graph, trials: int, seed: int = 0) -> tuple[int, Digraph]:
    """Best digraph chromatic number over sampled orientations.

    The result is a certified lower bound on the dichromatic number.  If
    2^e <= trials the search is exhaustive and the bound is exact.  Either
    way a non-forest is refused before the first orientation when the
    search could evaluate more than 2^``ORIENT_EDGE_BUDGET`` of them: the
    trials, or the 2^(e-1) codes of the exhaustive search.
    """
    m = len(G.edges)
    exhaustive = trials >= 1 and m < trials.bit_length()
    if exhaustive and m - 1 > ORIENT_EDGE_BUDGET and not is_forest(G):
        raise BudgetExceededError(_SAMPLE_STAGE, 2 ** (m - 1), 2**ORIENT_EDGE_BUDGET)
    return _best_orientation(G, _acyclic_cover, None if exhaustive else trials, seed, m, integer=True)


def _solve_cover_lp(
    n: int, columns: list[int]
) -> tuple[Fraction, CoverSolution, Weighting]:
    """Covering LP over the given column sets, solved through its dual.

    Variables of the simplex call are the vertex weights (the packing
    side); the cover weights fall out as the duals of the packing rows.
    """
    covered = 0
    for col in columns:
        covered |= col
    if covered != (1 << n) - 1:
        raise DicolorError("columns do not cover every vertex")
    A = [[(col >> v) & 1 for v in range(n)] for col in columns]
    value, w, y = simplex_max([1] * n, A, [1] * len(columns))
    cover = CoverSolution(
        parts=tuple((col, yv) for col, yv in zip(columns, y) if yv > 0), objective=value
    )
    weighting = Weighting(tuple(w))
    _check_certificate(n, columns, cover, weighting, value)
    return value, cover, weighting


def _check_certificate(
    n: int,
    columns: list[int],
    cover: CoverSolution,
    weighting: Weighting,
    value: Fraction,
) -> None:
    # exact feasibility of both sides plus equal objectives; any failure
    # here is an internal solver bug, never a property of the input.  Every
    # number is scaled by the lcm L of all their denominators, so the checks
    # compare integers: 1 becomes L and the value becomes value * L
    L = lcm(
        value.denominator,
        *(wgt.denominator for _, wgt in cover.parts),
        *(wv.denominator for wv in weighting.values),
    )
    target = value.numerator * (L // value.denominator)
    parts = [(mask, wgt.numerator * (L // wgt.denominator)) for mask, wgt in cover.parts]
    dual = [wv.numerator * (L // wv.denominator) for wv in weighting.values]
    coverage = [0] * n
    for mask, wgt in parts:
        for v in iter_bits(mask):
            coverage[v] += wgt
    for v, total in enumerate(coverage):
        if total < L:
            raise DicolorError(f"cover certificate violates coverage at vertex {v}")
    if sum(wgt for _, wgt in parts) != target:
        raise DicolorError("cover objective mismatch")
    for col in columns:
        if sum(dual[v] for v in iter_bits(col)) > L:
            raise DicolorError("dual weighting exceeds 1 on an admissible set")
    if sum(dual) != target:
        raise DicolorError("dual objective mismatch")


def fractional_chromatic_with_dual(
    G: Graph, vertex_budget: int = LP_VERTEX_BUDGET
) -> tuple[Fraction, CoverSolution, Weighting]:
    """Exact fractional chromatic number with primal and dual certificates."""
    if G.n > vertex_budget:
        raise BudgetExceededError("fractional-chromatic LP", G.n, vertex_budget)
    if G.n == 0:
        return Fraction(0), CoverSolution((), Fraction(0)), Weighting(())
    columns = list(maximal_independent_sets(G))
    return _solve_cover_lp(G.n, columns)


def digraph_fractional_chromatic(D: Digraph, vertex_budget: int = LP_VERTEX_BUDGET) -> Fraction:
    """Exact fractional chromatic number of a digraph (acyclic columns)."""
    n = D.graph.n
    if n > vertex_budget:
        raise BudgetExceededError("digraph fractional LP", n, vertex_budget)
    if n == 0:
        return Fraction(0)
    value, _, _ = _solve_cover_lp(n, maximal_acyclic_sets(D))
    return value


def fractional_dichromatic(
    G: Graph,
    trials: int | None = None,
    seed: int = 0,
    edge_budget: int = ORIENT_EDGE_BUDGET,
) -> Fraction:
    """Fractional dichromatic number.

    Without ``trials`` it maximizes over all orientations (edge budget
    applies); with ``trials`` it maximizes over that many seeded random
    orientations and returns a certified lower bound.  The LP value depends
    only on the family of maximal acyclic sets, and many orientations share
    one, so each distinct family is solved once; the positive-weight sets of
    its optimal cover are what the search pools.  The search stops at an
    upper bound over every orientation, from :func:`_block_bounds` and
    :func:`_fractional_stop`.
    Without ``trials`` the stop is the answer, and no orientation is
    evaluated, when a lower bound meets it: when every block has at most 6
    vertices, the answer is the largest ``_BLOCK_DICHIF`` value over the
    blocks, and otherwise :func:`_fractional_floor` may meet the stop.  Only
    an evaluated orientation needs an LP or passes the edge gate, so neither
    gate then refuses anything: C4 plus 17 isolated vertices gives 4/3, and
    three K5s at one vertex (30 edges) give 7/4.
    """
    covers: dict[tuple[int, ...], tuple[Fraction, list[int]]] = {}

    def value(D: Digraph) -> tuple[Fraction, list[int]]:
        # forests and searches that the lower bound ends never get here, so
        # the LP gate refuses neither
        if G.n > LP_VERTEX_BUDGET:
            raise BudgetExceededError("digraph fractional LP", G.n, LP_VERTEX_BUDGET)
        columns = tuple(sorted(maximal_acyclic_sets(D)))
        if columns not in covers:
            _, cover, _ = _solve_cover_lp(G.n, list(columns))
            covers[columns] = cover.objective, [mask for mask, _ in cover.parts]
        return covers[columns]

    best, _ = _best_orientation(G, value, trials, seed, edge_budget)
    return Fraction(best)


def fractional_independence(
    G: Graph, vertex_budget: int = LP_VERTEX_BUDGET
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact fractional independence number with a minimizing weighting.

    Minimizes the largest independent-set weight over weightings of total
    n.  Rescaling an optimal clique weighting w* (total t, w*(I) <= 1) by
    n/t is optimal for this program, so the value is exactly n/t.
    """
    n = G.n
    if n == 0:
        return Fraction(0), ()
    t, _, weighting = fractional_chromatic_with_dual(G, vertex_budget)
    scale = Fraction(n) / t
    return scale, tuple(wv * scale for wv in weighting.values)
