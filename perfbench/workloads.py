"""Seeded query lists for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round of a workload
has the same composition (the same query kinds on the same instance
classes, in a seeded order), so any whole number of rounds has exact class
proportions and the run-to-run spread comes only from the random graphs
inside each class.  Round ``r`` of seed ``s`` is generated from its own
``random.Random`` stream, so a prefix never depends on how many rounds a
run goes on to use, and nothing here calls the library: for one seed the
inputs are a function of this file alone and stay byte-identical across
commits of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("dichromatic", "fractional", "certify")


@dataclass(frozen=True)
class Instance:
    """A graph as written to its JSON file; ``weights`` are "p/q" strings."""

    family: str
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    def file_name(self) -> str:
        text = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16] + ".json"


@dataclass(frozen=True)
class Query:
    """One CLI invocation: ``dicolor <argv with FILE>``."""

    qid: str
    kind: str  # dichi | dichif | chi | chif | certify | certificate
    instance: Instance
    options: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        if self.kind in ("certify", "certificate"):
            return [self.kind, path, *self.options]
        return ["compute", self.kind, path, *self.options]

    def canonical(self) -> dict:
        return {
            "qid": self.qid,
            "kind": self.kind,
            "graph": self.instance.to_json(),
            "options": list(self.options),
        }


def digest(queries: list[Query]) -> str:
    text = json.dumps([q.canonical() for q in queries], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- graphs


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def degeneracy(n: int, edges) -> int:
    adj = adjacency(n, edges)
    live = (1 << n) - 1
    k = 0
    while live:
        v = min((u for u in range(n) if (live >> u) & 1), key=lambda u: (adj[u] & live).bit_count())
        k = max(k, (adj[v] & live).bit_count())
        live &= ~(1 << v)
    return k


def has_cycle(n: int, edges) -> bool:
    """True when the undirected graph is not a forest (union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return True
        parent[a] = b
    return False


def count_maximal_independent_sets(n: int, edges) -> int:
    """Bron-Kerbosch on the complement, without pivoting (benchmark-owned)."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    compat = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    count = 0
    stack = [(full, 0)]  # (P, X)
    while stack:
        P, X = stack.pop()
        if not P:
            if not X:
                count += 1
            continue
        v = (P & -P).bit_length() - 1
        stack.append((P & ~(1 << v), X | (1 << v)))
        stack.append((P & compat[v], X & compat[v]))
    return count


def gnm(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = list(combinations(range(n), 2))
    return tuple(sorted(rng.sample(pairs, m)))


def gnp(rng: random.Random, n: int, p: float) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u, v in combinations(range(n), 2) if rng.random() < p)


def complete(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def relabel(rng: random.Random, n: int, edges) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def triangles_plus_c5(j: int) -> Instance:
    """j disjoint triangles and one 5-cycle (chi = 3, chif = 3)."""
    edges = []
    for i in range(j):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    b = 3 * j
    edges += [tuple(sorted((b + i, b + (i + 1) % 5))) for i in range(5)]
    return Instance(f"{j}xK3+C5", 3 * j + 5, tuple(sorted(edges)))


def union_of(*parts: str) -> Instance:
    """Disjoint union of cliques "K<k>" and cycles "C<k>" (chif is the
    largest of k for a clique and 2 + 1/((k-1)/2) for an odd cycle)."""
    edges: list[tuple[int, int]] = []
    b = 0
    for part in parts:
        k = int(part[1:])
        if part[0] == "K":
            edges += [(b + i, b + j) for i, j in combinations(range(k), 2)]
        else:
            edges += [tuple(sorted((b + i, b + (i + 1) % k))) for i in range(k)]
        b += k
    return Instance("+".join(parts), b, tuple(sorted(edges)))


def kneser(n: int, k: int) -> Instance:
    verts = list(combinations(range(n), k))
    edges = tuple(
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if not set(verts[i]) & set(verts[j])
    )
    return Instance(f"KG({n},{k})", len(verts), edges)


# ---------------------------------------------------------------- rounds

# dichromatic: random non-forest G(n, m) per (n, m) class, plus graphs of
# degeneracy >= 4 on at most 6 vertices, where the degeneracy bound
# floor(k/2)+1 = 3 does not pin the answer below the search.
DICHI_CLASSES = (
    (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9), (6, 10),
    (7, 8), (7, 9), (7, 10), (8, 9),
)
DICHIF_CLASSES = ((5, 7), (5, 8), (6, 8))


def _k5_pendant(rng: random.Random) -> Instance:
    edges = complete(5) + ((rng.randrange(5), 5),)
    return Instance("K5+pendant", 6, relabel(rng, 6, edges))


def _random_dichromatic(rng: random.Random, n: int, m: int) -> Instance:
    # the answer check pins dichi <= 2 by n <= 6 or by degeneracy <= 3
    while True:
        edges = gnm(rng, n, m)
        if has_cycle(n, edges) and (n <= 6 or degeneracy(n, edges) <= 3):
            return Instance(f"G({n},{m})", n, edges)


def _dichromatic_round(rng: random.Random) -> list[tuple[str, Instance, tuple[str, ...]]]:
    out = [("dichi", _random_dichromatic(rng, n, m), ()) for n, m in DICHI_CLASSES]
    out.append(("dichi", Instance("K5", 5, complete(5)), ()))
    out.append(("dichi", _k5_pendant(rng), ()))
    out += [("dichif", _random_dichromatic(rng, n, m), ()) for n, m in DICHIF_CLASSES]
    out.append(("dichif", Instance("K5", 5, complete(5)), ()))
    return out


# fractional: random G(n, p) in fixed slots of vertex count and number of
# maximal independent sets (the covering LP's row count), plus fixed
# instances whose LP size is known: j x K3 + C5 and Kneser graphs.  chi also
# runs on KG(7,2) and G(24, p), which are above the LP's 20-vertex budget.
# A 20-vertex chif slot (61-100 sets, 0.1-1.0 s) made latency_p90_s swing
# by about 30% between seeds; the large-LP case is 3 x K3 + C5 instead.
# Three fixed medium LPs (K3+C5+C5, K4+K4+C5, K4+C5+C5: 0.3-0.4 s, above
# nearly every random query) fill the rest of the top tenth of a round, so
# that latency_p90_s is the time of a fixed LP and not the tail of the
# random graphs, which moved it by 12-17% between seeds.  chi runs on them
# too, and twice on each random size up to 18: with chi queries a little
# over half of a round, latency_p50_s lies among the cheap chi queries and
# fixed instances of 5-7 ms, not in the gap between the chi and the chif
# times, where it moved by 14-22% between seeds.
CHIF_SLOTS = ((12, 10, 30), (13, 10, 30), (14, 20, 40), (15, 20, 40),
              (16, 31, 60), (18, 31, 60))  # (n, lo, hi) maximal independent sets
CHI_SIZES = (12, 13, 14, 15, 16, 18, 20)
MEDIUM_LPS = (("K3", "C5", "C5"), ("K4", "K4", "C5"), ("K4", "C5", "C5"))


def _random_by_mis(rng: random.Random, n: int, lo: int, hi: int) -> Instance:
    while True:
        edges = gnp(rng, n, rng.uniform(0.2, 0.35))
        if lo <= count_maximal_independent_sets(n, edges) <= hi:
            return Instance(f"G({n},p)", n, edges)


def _fractional_round(rng: random.Random, r: int) -> list[tuple[str, Instance, tuple[str, ...]]]:
    out = [("chif", _random_by_mis(rng, *slot), ()) for slot in CHIF_SLOTS]
    fixed = [triangles_plus_c5(j) for j in (1, 2, 3)] + [kneser(5, 2), kneser(6, 2)]
    out += [("chif", inst, ()) for inst in fixed]
    medium = [union_of(*parts) for parts in MEDIUM_LPS]
    out += [(kind, inst, ()) for inst in medium for kind in ("chif", "chi")]
    for n in CHI_SIZES:
        for _ in range(1 if n == 20 else 2):
            out.append(("chi", Instance(f"G({n},p)", n, gnp(rng, n, rng.uniform(0.2, 0.35))), ()))
    for _ in range(2):
        out.append(("chi", Instance("G(24,p)", 24, gnp(rng, 24, rng.uniform(0.2, 0.3))), ()))
    out.append(("chi", kneser(7, 2), ()))
    out.append(("chi", fixed[r % len(fixed)], ()))
    return out


# certify: dense random graphs; half `certify`, half relaxed `certificate`,
# and within each half, half with weights in the file and half with the
# default weighting (uniform for certify, the LP dual for certificate).
# Every (command, weights, t) slot has its own vertex count: the final,
# certified try enumerates about sum_k C(floor(t k), k) candidates, so large
# graphs get small t and a round's cost does not hinge on which slot drew
# n = 18.  d >= 0.42 n: at 0.35-0.45 n about 1% of queries exhausted their
# 64 tries (4 of 400 probe queries); at 0.42-0.45 n none of 2,500
# needed more than 8.  Relaxed `certificate` with the default weighting and
# t = 3/2 takes 17 vertices, not 18: at 18 that one slot took a third of the
# query time (0.3-1.8 s a query) and moved throughput_qps by about 6%
# between seeds.
CERTIFY_SLOTS = {  # (command, weights in file) -> vertex count for t = 3/2, 2, 5/2, 3
    ("certify", False): (18, 16, 14, 12),
    ("certify", True): (17, 15, 13, 12),
    ("certificate", False): (17, 15, 14, 13),
    ("certificate", True): (16, 14, 13, 12),
}
CERTIFY_T = ("3/2", "2", "5/2", "3")


def _certify_round(rng: random.Random) -> list[tuple[str, Instance, tuple[str, ...]]]:
    out = []
    for (kind, weighted), sizes in CERTIFY_SLOTS.items():
        for t, n in zip(CERTIFY_T, sizes):
            edges = gnp(rng, n, rng.uniform(0.6, 0.8))
            weights = tuple(f"{rng.randint(1, 8)}/8" for _ in range(n)) if weighted else None
            d = Fraction(math.ceil(rng.uniform(0.42, 0.45) * n * 4), 4)
            opts = ("--t", t, "--d", f"{d.numerator}/{d.denominator}",
                    "--seed", str(rng.getrandbits(32)))
            out.append((kind, Instance(f"G({n},p)", n, edges, weights), opts))
    return out


def make_round(workload: str, seed: int, r: int) -> list[Query]:
    """Queries of round ``r`` for ``seed``, in their seeded order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "dichromatic":
        items = _dichromatic_round(rng)
    elif workload == "fractional":
        items = _fractional_round(rng, r)
    elif workload == "certify":
        items = _certify_round(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return [Query(f"{workload}-{seed}-{r}-{i}", kind, inst, opts)
            for i, (kind, inst, opts) in enumerate(items)]
