"""Kneser graphs, blow-ups, subset embeddings, and closed-form bounds.

Kneser vertices are the k-subsets of {1..n} in colexicographic order
(stable ids across runs); two vertices are adjacent when the subsets are
disjoint.  The blow-up of H with power m replaces each vertex by an
independent m-set and each edge by a complete bipartite K_{m,m}.  The
embedding builder realizes blow-ups of KG(n,k) inside KG(nt, kt-x) by
assigning the copies of each k-set X to (kt-x)-subsets of the cell grid
X x [t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .errors import BudgetExceededError, InputError, TriesExhaustedError
from .graphs import (
    Digraph,
    Graph,
    complete_graph,
    derive_rng,
    is_acyclic,
    iter_bits,
    mask_of,
    random_orientation,
)

CONSTRUCT_VERTEX_BUDGET = 4096
SUBSET_CAP = 1 << 24
KNESER_BOUND_BITS = 1 << 21
KNESER_INEQ_K_BUDGET = 1 << 18
FLOAT_BOUND_BITS = 1023


def kneser_vertex_sets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of {1..n} in colexicographic order."""
    return tuple(sorted(combinations(range(1, n + 1), k), key=lambda c: c[::-1]))


def kneser_graph(n: int, k: int, vertex_budget: int = CONSTRUCT_VERTEX_BUDGET) -> Graph:
    """Kneser graph KG(n, k): k-subsets adjacent when disjoint."""
    if k < 1 or n < 1 or k > n:
        raise InputError(f"KG({n},{k}) needs 1 <= k <= n")
    # exact up to 2^64 times the budget, past that a lower bound, so the gate
    # takes bounded time where math.comb(10^6, 5 * 10^5) alone takes seconds
    count = _comb_capped(n, k, vertex_budget << 64)
    if count > vertex_budget:
        raise BudgetExceededError("Kneser construction", count, vertex_budget)
    verts = kneser_vertex_sets(n, k)
    masks = [mask_of(e - 1 for e in s) for s in verts]
    edges = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if not masks[i] & masks[j]
    ]
    labels = ["{" + ",".join(str(e) for e in s) + "}" for s in verts]
    return Graph(count, edges, labels=labels)


@dataclass(frozen=True)
class BlowUpMap:
    """Index bookkeeping for a blow-up: copy c of base vertex v is v*m+c."""

    base_n: int
    m: int

    def vertex(self, orig: int, copy: int) -> int:
        if not (0 <= orig < self.base_n and 0 <= copy < self.m):
            raise InputError(f"no copy ({orig},{copy}) in a {self.base_n}x{self.m} blow-up")
        return orig * self.m + copy

    def origin(self, blown: int) -> tuple[int, int]:
        if not (0 <= blown < self.base_n * self.m):
            raise InputError(f"vertex {blown} outside the blow-up")
        return divmod(blown, self.m)

    def copies_mask(self, orig: int) -> int:
        return ((1 << self.m) - 1) << (orig * self.m)


def blow_up(
    H: Graph, m: int, vertex_budget: int = CONSTRUCT_VERTEX_BUDGET
) -> tuple[Graph, BlowUpMap]:
    """Blow-up of H with power m: n*m vertices and e(H)*m^2 edges."""
    if m < 1:
        raise InputError("blow-up power must be at least 1")
    if H.n * m > vertex_budget:
        raise BudgetExceededError("blow-up construction", H.n * m, vertex_budget)
    edges = [
        (u * m + a, v * m + b)
        for (u, v) in H.edges
        for a in range(m)
        for b in range(m)
    ]
    return Graph(H.n * m, edges), BlowUpMap(base_n=H.n, m=m)


@dataclass(frozen=True)
class EmbeddingWitness:
    """Explicit blow-up of KG(n,k) inside KG(nt, kt-x).

    ``images[i]`` is the host vertex (a sorted (kt-x)-subset of {1..nt})
    assigned to blow-up vertex i; copies of base vertex X occupy the ids
    X_index*power .. X_index*power+power-1.
    """

    n: int
    k: int
    t: int
    x: int
    case: str
    power: int
    host_n: int
    host_k: int
    images: tuple[tuple[int, ...], ...]


def _encode_cell(a: int, b: int, t: int) -> int:
    # (a, b) in [n] x [t]  ->  1..n*t
    return (a - 1) * t + b


def _comb_capped(n: int, k: int, cap: int) -> int:
    """C(n, k) for 0 <= k <= n when it is at most ``cap``, else a lower
    bound on it above ``cap``.

    C(n, j) grows with j up to n / 2 and is at least 2^j there, so the
    product stops after about log2(cap) steps whatever n and k are.
    """
    k = min(k, n - k)
    c = 1
    for j in range(k):
        c = c * (n - j) // (j + 1)
        if c > cap:
            break
    return c


def kneser_blowup_embedding(
    n: int, k: int, t: int, x: int, case: str = "auto",
    vertex_budget: int = CONSTRUCT_VERTEX_BUDGET,
) -> EmbeddingWitness:
    """Embed a blow-up of KG(n,k) into KG(nt, kt-x).

    Three constructions are available; ``auto`` picks by comparing x and t:

    - ``"x<t"``   (needs x < t): all (kt-x)-subsets of X x [t]; power C(kt, x).
    - ``"x=t"``   (needs x = t): the subsets whose projection is all of X;
      power C(kt, x) - k.
    - ``"general"`` (needs x <= k(t-1)): subsets containing X x {1};
      power C(k(t-1), x).

    The witness has C(n, k) * power images, and it is refused against
    ``vertex_budget`` before any subset is listed.  Both binomials are
    computed only up to just past 2^64 times the budget, so the gate takes
    bounded time, and a refusal past 2^64 reports a lower bound.
    """
    if not (0 < k < n):
        raise InputError(f"need 0 < k < n, got k={k}, n={n}")
    if t < 1 or x < 0 or x >= k * t:
        raise InputError(f"need t >= 1 and 0 <= x < k*t, got t={t}, x={x}")
    if case == "auto":
        case = "x<t" if x < t else ("x=t" if x == t else "general")
    if case == "x<t":
        if not x < t:
            raise InputError(f"case 'x<t' needs x < t, got x={x}, t={t}")
        top, minus = k * t, 0
    elif case == "x=t":
        if x != t:
            raise InputError(f"case 'x=t' needs x = t, got x={x}, t={t}")
        top, minus = k * t, k
    elif case == "general":
        if x > k * (t - 1):
            raise InputError(f"case 'general' needs x <= k*(t-1), got x={x}")
        top, minus = k * (t - 1), 0
    else:
        raise InputError(f"unknown embedding case {case!r}")
    cap = vertex_budget << 64
    power = _comb_capped(top, x, cap + minus) - minus
    # listing the C(n, k) vertex sets costs that much even when power is 0
    images_needed = _comb_capped(n, k, cap) * max(power, 1)
    if images_needed > vertex_budget:
        raise BudgetExceededError("blow-up embedding", images_needed, vertex_budget)
    size = k * t - x
    images: list[tuple[int, ...]] = []
    for X in kneser_vertex_sets(n, k):
        cells = sorted(_encode_cell(a, b, t) for a in X for b in range(1, t + 1))
        if case == "x<t":
            copies = [tuple(c) for c in combinations(cells, size)]
        elif case == "x=t":
            column_of = {c: (c - 1) // t + 1 for c in cells}
            copies = [
                tuple(c)
                for c in combinations(cells, size)
                if len({column_of[e] for e in c}) == k
            ]
        else:
            base = [_encode_cell(a, 1, t) for a in X]
            others = [c for c in cells if c not in base]
            copies = [tuple(sorted(base + list(extra))) for extra in combinations(others, size - k)]
        if len(copies) != power:
            raise InputError(
                f"case {case!r} produced {len(copies)} copies of {X}, expected {power}"
            )
        images.extend(copies)
    return EmbeddingWitness(
        n=n,
        k=k,
        t=t,
        x=x,
        case=case,
        power=power,
        host_n=n * t,
        host_k=size,
        images=tuple(images),
    )


def verify_embedding(
    wit: EmbeddingWitness, vertex_budget: int = CONSTRUCT_VERTEX_BUDGET
) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustively check a witness; returns (ok, offending vertex pair).

    Valid means: every image is a host vertex, images are pairwise
    distinct, and adjacent blow-up vertices map to disjoint (hence
    adjacent) host vertices.  KG(n, k) is built under ``vertex_budget``,
    the budget the witness was built under.
    """
    H = kneser_graph(wit.n, wit.k, vertex_budget)
    m = wit.power
    if len(wit.images) != H.n * m:
        return False, None
    masks = []
    for i, img in enumerate(wit.images):
        if len(img) != wit.host_k or any(not (1 <= e <= wit.host_n) for e in img):
            return False, (i, i)
        if tuple(sorted(set(img))) != img:
            return False, (i, i)
        masks.append(mask_of(e - 1 for e in img))
    seen: dict[tuple[int, ...], int] = {}
    for i, img in enumerate(wit.images):
        if img in seen:
            return False, (seen[img], i)
        seen[img] = i
    for (u, v) in H.edges:
        for a in range(u * m, (u + 1) * m):
            for b in range(v * m, (v + 1) * m):
                if masks[a] & masks[b]:
                    return False, (a, b)
    return True, None


def _base_edges_of_blowup(D: Digraph, bmap: BlowUpMap) -> list[tuple[int, int]]:
    m = bmap.m
    out = []
    for u in range(bmap.base_n):
        for v in range(u + 1, bmap.base_n):
            if D.graph.is_edge(u * m, v * m):
                out.append((u, v))
    return out


def bicliques_all_cyclic(
    D: Digraph, bmap: BlowUpMap, k: int, cap: int = SUBSET_CAP
) -> tuple[bool, tuple | None]:
    """Check that no r x r biclique inside any edge blow-up is acyclic,
    where r = ceil(m/k).

    Returns (ok, counterexample); the counterexample is (base edge, left
    copy tuple, right copy tuple) for the first acyclic biclique found.
    """
    if k < 1:
        raise InputError("k must be positive")
    m = bmap.m
    r = -(-m // k)
    base_edges = _base_edges_of_blowup(D, bmap)
    per_edge = comb(m, r) ** 2
    if per_edge * max(len(base_edges), 1) > cap:
        raise BudgetExceededError("biclique scan", per_edge * len(base_edges), cap)
    for (u, v) in base_edges:
        u_side = [u * m + c for c in range(m)]
        v_side = [v * m + c for c in range(m)]
        for P in combinations(u_side, r):
            pmask = mask_of(P)
            for Q in combinations(v_side, r):
                if is_acyclic(D, pmask | mask_of(Q)):
                    return False, ((u, v), P, Q)
    return True, None


def _four_m_squared_within(m: int, r: int) -> bool:
    """Exact 4 m^2 <= 2^r for m >= 1, without building 2^r."""
    return (4 * m * m - 1).bit_length() <= r


def biclique_condition(m: int, k: int) -> bool:
    """Exact check of 2 + 2 log2(m) <= ceil(m/k) (as 4 m^2 <= 2^r)."""
    if m < 1 or k < 1:
        raise InputError("m and k must be positive")
    return _four_m_squared_within(m, -(-m // k))


def biclique_failure_bound(m: int, k: int) -> float:
    """Per-edge failure bound 2^(-r^2 + 2r) * m^(2r); may be vacuous (>= 1)."""
    if m < 1 or k < 1:
        raise InputError("m and k must be positive")
    r = -(-m // k)
    if r > max(2 * m.bit_length() + 3, 1075):
        # the exponent r (2 - r + 2 log2 m) is below -r <= -1075, and r^2
        # may be past the float range
        return 0.0
    log2v = -r * r + 2 * r + 2 * r * math.log2(m)
    return math.inf if log2v > 1024 else 2.0**log2v


@dataclass(frozen=True)
class BlowupOrientationReport:
    digraph: Digraph
    bmap: BlowUpMap
    m: int
    k: int
    r: int
    tries: int
    condition_ok: bool
    per_edge_bound: float


def orient_blowup_bicliques(
    H: Graph,
    m: int,
    k: int,
    max_tries: int = 256,
    seed: int = 0,
) -> BlowupOrientationReport:
    """Find an orientation of the blow-up with every r x r biclique cyclic.

    The sufficient condition 2 + 2 log2(m) <= ceil(m/k) and the per-edge
    failure bound are reported, not enforced; rejection sampling is
    attempted regardless.
    """
    G, bmap = blow_up(H, m)
    r = -(-m // k)
    cond = biclique_condition(m, k)
    bound = biclique_failure_bound(m, k)
    best = None
    for i in range(1, max_tries + 1):
        D = random_orientation(G, derive_rng(seed, i))
        ok, counter = bicliques_all_cyclic(D, bmap, k)
        if ok:
            return BlowupOrientationReport(
                digraph=D, bmap=bmap, m=m, k=k, r=r, tries=i,
                condition_ok=cond, per_edge_bound=bound,
            )
        best = counter
    raise TriesExhaustedError(max_tries, best)


def detect_complete_blowup(G: Graph) -> tuple[int, int] | None:
    """Recover (n, k) if G is a balanced complete n-partite graph with
    parts of size k; None otherwise."""
    if G.n == 0:
        return None
    seen = 0
    parts = []
    for root in range(G.n):
        if (seen >> root) & 1:
            continue
        # the part of `root` is its non-neighborhood (including itself)
        part = G.full_mask & ~G.adj[root]
        if part & seen:
            return None
        for v in iter_bits(part):
            if (G.full_mask & ~G.adj[v]) != part:
                return None
        parts.append(part)
        seen |= part
    sizes = {p.bit_count() for p in parts}
    if len(sizes) != 1:
        return None
    return len(parts), sizes.pop()


@dataclass(frozen=True)
class CompleteBlowupReport:
    n: int
    k: int
    t: int
    default_t: int
    vacuous: bool
    digraph: Digraph | None
    tries: int
    subsets_checked: int
    coloring_bound: Fraction | None


def _ceil_log2_pow4(x: int) -> int:
    """ceil(4*log2(x)) exactly: the least c with 2^c >= x^4."""
    return (x**4 - 1).bit_length()


def orient_complete_blowup(
    n: int,
    k: int,
    t_override: int | None = None,
    max_tries: int = 256,
    seed: int = 0,
    graph: Graph | None = None,
) -> CompleteBlowupReport:
    """Orient the blow-up of K_n with power k so every t-subset is cyclic.

    The default t is max(ceil(4 log2(nk)), 2k).  When t exceeds nk there
    are no t-subsets and the report is a vacuous success.  On success the
    implied bound is chi(D) >= nk/(t-1), hence the dichromatic number of
    the blow-up is at least that.  A supplied ``graph`` must actually be
    this blow-up (validated via :func:`detect_complete_blowup`).
    """
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    if graph is not None:
        found = detect_complete_blowup(graph)
        if found is None or found != (n, k):
            raise InputError(
                f"supplied graph is not the blow-up of K_{n} with power {k}"
            )
        G = graph
    else:
        G, _ = blow_up(complete_graph(n), k)
    nk = n * k
    default_t = max(_ceil_log2_pow4(nk), 2 * k) if nk > 1 else 2 * k
    t = default_t if t_override is None else t_override
    if t < 2:
        raise InputError("t must be at least 2")
    if t > nk:
        return CompleteBlowupReport(
            n=n, k=k, t=t, default_t=default_t, vacuous=True, digraph=None,
            tries=0, subsets_checked=0, coloring_bound=Fraction(nk, t - 1),
        )
    total = comb(nk, t)
    if total > SUBSET_CAP:
        raise BudgetExceededError("t-subset scan", total, SUBSET_CAP)
    masks = [mask_of(c) for c in combinations(range(nk), t)]
    for i in range(1, max_tries + 1):
        D = random_orientation(G, derive_rng(seed, i))
        if all(not is_acyclic(D, mk) for mk in masks):
            return CompleteBlowupReport(
                n=n, k=k, t=t, default_t=default_t, vacuous=False, digraph=D,
                tries=i, subsets_checked=total, coloring_bound=Fraction(nk, t - 1),
            )
    raise TriesExhaustedError(max_tries)


def _check_float_range(x: int) -> None:
    # the float bounds divide x as a float, which is finite below 2^1023
    if x.bit_length() > FLOAT_BOUND_BITS:
        raise BudgetExceededError("float bound argument (bits)", x.bit_length(), FLOAT_BOUND_BITS)


def complete_graph_lower_bound(n: int) -> float:
    """n / (2 log2 n), the classical dichromatic bound for K_n."""
    if n < 2:
        raise InputError("needs n >= 2")
    _check_float_range(n)
    return n / (2.0 * math.log2(n))


def complete_blowup_lower_bound(n: int, k: int) -> float:
    """min(nk / (4 log2(nk)), n/2) for the blow-up of K_n with power k."""
    if n < 1 or k < 1 or n * k < 2:
        raise InputError("needs n*k >= 2")
    nk = n * k
    _check_float_range(nk)
    return min(nk / (4.0 * math.log2(nk)), n / 2.0)


def kneser_lower_bound(n: int, k: int) -> int:
    """floor((n-2k+2) / (8 log2(n/k))) with the floor certified exactly.

    The float estimate z is confirmed by the equivalent integer
    comparisons n^(8z) <= k^(8z) 2^(n-2k+2) < n^(8(z+1)).
    """
    if k < 1 or n < 2 * k:
        raise InputError("needs n >= 2k >= 2")
    num = n - 2 * k + 2
    # n^(8(z+1)) is the largest integer below; k^(8z) << num alone has more
    # than num bits, so a large num is refused before it reaches a float
    bits = num
    if num <= KNESER_BOUND_BITS:
        z = math.floor(num / (8.0 * math.log2(n / k)))
        bits = 8 * (z + 1) * n.bit_length()
    if bits > KNESER_BOUND_BITS:
        raise BudgetExceededError("Kneser bound integers (bits)", bits, KNESER_BOUND_BITS)

    def le_floor(zz: int) -> bool:
        # zz <= num / (8 log2(n/k))  <=>  n^(8 zz) <= k^(8 zz) * 2^num
        if zz <= 0:
            return True
        return n ** (8 * zz) <= k ** (8 * zz) << num

    while not le_floor(z):
        z -= 1
    while le_floor(z + 1):
        z += 1
    return z


def kneser_recursion_inequalities(k: int) -> dict[str, bool]:
    """The two exact inequality families behind the Kneser recursion.

    ``blowup_power``: 2 + 2 log2(m) <= ceil(m / floor(2^(k/2-2))) with
    m = C(2r, x), r = floor(k/2), x = r for even k and r-1 for odd k.
    ``small_power``: the same shape with m = C(r+2, 4) against
    floor((k+1)/8).  Both are decided as 4 m^2 <= 2^ceil(...).
    """
    if k < 8:
        raise InputError("the inequality families are stated for k >= 8")
    if k > KNESER_INEQ_K_BUDGET:
        # C(2r, x) and 2^((k-4)/2) have about k bits
        raise BudgetExceededError("Kneser recursion inequalities (k)", k, KNESER_INEQ_K_BUDGET)
    r = k // 2
    x = r if k % 2 == 0 else r - 1
    m1 = comb(2 * r, x)
    q1 = isqrt(1 << (k - 4))  # floor(2^((k-4)/2)) for either parity
    fam1 = _four_m_squared_within(m1, -(-m1 // q1))
    m2 = comb(r + 2, 4)
    q2 = (k + 1) // 8
    fam2 = _four_m_squared_within(m2, -(-m2 // q2))
    return {"blowup_power": fam1, "small_power": fam2}
