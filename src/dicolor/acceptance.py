"""Acceptance suite: one check per headline property, desk scale.

Each criterion returns a :class:`CheckRow` with a pass/fail verdict, a
short detail string, and its runtime against the stated limit.  Locked
regression values (seeds, try counts, the minimal subset size found by
the pre-build search) are frozen here on purpose; changing them is a
behavioural change, not a tuning knob.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import coloring
from .certify import (
    certify_orientation,
    check_binomial_bound,
    cover_bound_certificate,
    find_good_orientation,
    union_bound_report,
)
from .constructions import (
    biclique_condition,
    complete_graph_lower_bound,
    kneser_blowup_embedding,
    kneser_graph,
    kneser_lower_bound,
    orient_complete_blowup,
    verify_embedding,
)
from .errors import ClassificationGapError, TriesExhaustedError
from .graphs import (
    Digraph,
    Graph,
    acyclic_orientation_bound,
    complete_graph,
    count_acyclic_orientations,
    count_acyclic_orientations_fast,
    cycle_graph,
    derive_rng,
    is_acyclic,
    iter_bits,
    mask_of,
    path_graph,
    random_orientation,
)
from .sparse import (
    Weighting,
    degeneracy_coloring,
    is_principal,
    is_sparse,
    ranked_order,
    sparse_split,
)

SUITES = {
    "core": (1, 2, 3, 4, 5, 9),
    "sparse": (6, 7, 8),
    "orient": (11, 12, 13, 14),
    "kneser": (10, 15, 16),
    "all": tuple(range(1, 17)),
}


@dataclass
class CheckRow:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float


def _row(number: int, name: str, limit: float, fn) -> CheckRow:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"exception: {exc!r}"
    elapsed = time.perf_counter() - start
    if elapsed > limit:
        passed = False
        detail += f" [exceeded {limit:.0f}s limit]"
    return CheckRow(number, name, passed, detail, elapsed, limit)


def check_kneser_chromatic(seed: int = 0) -> CheckRow:
    def run():
        a = coloring.chromatic_number(kneser_graph(5, 2))
        b = coloring.chromatic_number(kneser_graph(6, 2))
        ok = a == 3 and b == 4
        return ok, f"chi(KG(5,2))={a} (want 3), chi(KG(6,2))={b} (want 4)"

    return _row(1, "kneser chromatic identity", 10.0, run)


def check_kneser_fractional(seed: int = 0) -> CheckRow:
    def run():
        value, cover, dual = coloring.fractional_chromatic_with_dual(kneser_graph(5, 2))
        ok = value == Fraction(5, 2) and dual.total == value and cover.objective == value
        return ok, f"chif={value} dual={dual.total} (want 5/2 exactly)"

    return _row(2, "kneser fractional identity", 5.0, run)


def check_duality_sweep(seed: int = 0) -> CheckRow:
    def run():
        rng = random.Random(seed * 7919 + 3)
        for i in range(200):
            n = rng.randint(1, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            G = Graph(n, edges)
            value, cover, dual = coloring.fractional_chromatic_with_dual(G)
            if cover.objective != value or dual.total != value:
                return False, f"duality gap on instance {i} (n={n})"
            for v in range(n):
                if cover.coverage(v) < 1:
                    return False, f"cover infeasible on instance {i}"
        return True, "200 random graphs: primal == dual exactly"

    return _row(3, "duality sweep", 60.0, run)


def check_count_bound_sweep(seed: int = 0) -> CheckRow:
    def run():
        all_edges = list(combinations(range(6), 2))
        checked = 0
        for emask in range(1 << 15):
            edges = [all_edges[i] for i in range(15) if (emask >> i) & 1]
            G = Graph(6, edges)
            count = count_acyclic_orientations_fast(G)
            if count > acyclic_orientation_bound(G):
                return False, f"bound violated at edge mask {emask:#x}"
            if emask % 1024 == 7:  # spot-check the DP against raw enumeration
                if count != count_acyclic_orientations(G):
                    return False, f"DP/enumeration mismatch at edge mask {emask:#x}"
            checked += 1
        return True, f"count <= prod(d(v)+1) on all {checked} subgraphs of K_6"

    return _row(4, "acyclic-count bound sweep", 120.0, run)


def check_acyclic_probability(seed: int = 0) -> CheckRow:
    def run():
        K8 = complete_graph(8)
        count = count_acyclic_orientations_fast(K8)
        if count != math.factorial(8):
            return False, f"K_8 acyclic count {count} != 8!"
        exact = Fraction(count, 2 ** len(K8.edges))
        if exact > Fraction(1, 16):
            return False, f"exact fraction {exact} exceeds 2^-4"
        n_samples = 100_000
        rng = derive_rng(0, 0)
        hits = sum(1 for _ in range(n_samples) if is_acyclic(random_orientation(K8, rng)))
        p = float(exact)
        sigma = math.sqrt(n_samples * p * (1 - p))
        ok = abs(hits - n_samples * p) <= 3 * sigma
        return ok, (
            f"exact={exact} <= 1/16; MC hits={hits} expected={n_samples * p:.1f} "
            f"(3 sigma = {3 * sigma:.1f})"
        )

    return _row(5, "acyclic probability bound (K_8)", 300.0, run)


def _positions_in_host(order, host_list, mask) -> list[int]:
    # 1-based positions within the host for each member of mask
    pos = []
    for idx, v in enumerate(host_list, start=1):
        if (mask >> v) & 1:
            pos.append(idx)
    return pos


def check_sparse_characterization(seed: int = 0) -> CheckRow:
    def run():
        n = 12
        w = Weighting(tuple(Fraction(n - i, 3) for i in range(n)))
        order = ranked_order(w)
        scatter = [0, 2, 3, 5, 6, 7, 8, 9, 10, 11]  # distinct, not a pure prefix
        for r in range(1, 11):
            host_list = [order.order[p] for p in scatter[:r]]
            host_list.sort(key=lambda v: order.rank[v])
            host = mask_of(host_list)
            for s in (Fraction(3, 2), Fraction(2), Fraction(3)):
                for sub_bits in range(1 << r):
                    X = mask_of(host_list[i] for i in range(r) if (sub_bits >> i) & 1)
                    by_scan = is_sparse(order, X, s, host)
                    # direct definition: no nonempty subset is s-principal,
                    # tested straight from positions within the host
                    positions = _positions_in_host(order, host_list, X)
                    direct = True
                    for pick in range(1, 1 << len(positions)):
                        chosen = [positions[i] for i in range(len(positions)) if (pick >> i) & 1]
                        if max(chosen) <= math.floor(s * len(chosen)):
                            direct = False
                            break
                    if by_scan != direct:
                        return False, f"mismatch at |Y|={r}, s={s}, X mask {X:#x}"
        return True, "scan characterization == no-principal-subset on all |Y| <= 10"

    return _row(6, "sparse characterization equivalence", 60.0, run)


def check_sparse_weight_bound(seed: int = 0) -> CheckRow:
    def run():
        rng = random.Random(seed * 104729 + 11)
        s_pool = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        for i in range(10_000):
            n = rng.randint(2, 12)
            w = Weighting(tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)))
            order = ranked_order(w)
            host = rng.getrandbits(n)
            if host == 0:
                host = 1
            s = rng.choice(s_pool)
            members = [v for v in order.order if (host >> v) & 1]
            rng.shuffle(members)
            X = 0
            for v in members:
                if is_sparse(order, X | (1 << v), s, host):
                    X |= 1 << v
            X = mask_of(v for v in iter_bits(X) if rng.random() < 0.7)
            if not is_sparse(order, X, s, host):
                return False, f"greedy sample not sparse at instance {i}"
            if w.of(X) * s > w.of(host):
                return False, f"weight bound failed at instance {i}"
        return True, "10^4 sparse instances: w(X) <= w(Y)/s exactly"

    return _row(7, "sparse weight bound", 30.0, run)


def check_split_decomposition(seed: int = 0) -> CheckRow:
    def run():
        rng = random.Random(seed * 15485863 + 19)
        gaps = 0
        for i in range(1000):
            n = rng.randint(4, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
            G = Graph(n, edges)
            w = Weighting(tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(n)))
            A = rng.getrandbits(n) or 1
            t = rng.choice([Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)])
            d = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
            order = ranked_order(w)
            try:
                split = sparse_split(G, A, w, t, d)
            except ClassificationGapError as exc:
                gaps += 1
                W = exc.witness
                if not is_principal(order, W, t):
                    return False, f"gap witness not principal at instance {i}"
                two_e = sum((G.adj[v] & W).bit_count() for v in iter_bits(W))
                if two_e < d * W.bit_count():
                    return False, f"gap witness too sparse at instance {i}"
                continue
            if not is_sparse(order, split.l1, Fraction(2), A):
                return False, f"L1 not 2-sparse in A at instance {i}"
            if not is_sparse(order, split.l2, t):
                return False, f"L2 not t-sparse in V at instance {i}"
            degen, _ = degeneracy_coloring(G, split.rest)
            if degen > math.floor(d):
                return False, f"rest degeneracy {degen} > floor(d) at instance {i}"
            if w.of(split.rest) < w.of(A) - w.of(split.l1) - w.of(split.l2):
                return False, f"weight chain failed at instance {i}"
        return True, f"1000 instances: split sound ({gaps} honest classification gaps)"

    return _row(8, "dense-layer decomposition", 120.0, run)


def check_dichromatic_ground_truths(seed: int = 0) -> CheckRow:
    def run():
        # raw orientation enumeration, bypassing the forest shortcut
        def by_enumeration(G):
            return max(
                coloring.digraph_chromatic_number(Digraph(G, code))
                for code in range(1 << len(G.edges))
            )

        tree = by_enumeration(path_graph(7))
        k3 = by_enumeration(complete_graph(3))
        c4 = by_enumeration(cycle_graph(4))
        if (tree, k3, c4) != (
            coloring.dichromatic_number_exact(path_graph(7))[0],
            coloring.dichromatic_number_exact(complete_graph(3))[0],
            coloring.dichromatic_number_exact(cycle_graph(4))[0],
        ):
            return False, "library values disagree with raw enumeration"
        arcs = [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 4)]
        paley = Digraph.from_arcs(complete_graph(7), arcs)
        p7 = coloring.digraph_chromatic_number(paley)
        # the smallest 3-dichromatic tournament has 7 vertices and the
        # smallest 4-dichromatic one 11 (Neumann-Lara 1994), so dichi(K_7) =
        # dichi(K_8) = 3; both stay above the n / (2 log2 n) lower bound
        k7, k8 = (
            coloring.dichromatic_number_exact(complete_graph(n), n * (n - 1) // 2)[0]
            for n in (7, 8)
        )
        above = k7 >= complete_graph_lower_bound(7) and k8 >= complete_graph_lower_bound(8)
        ok = (tree, k3, c4, p7, k7, k8) == (1, 2, 2, 3, 3, 3) and above
        return ok, (
            f"tree={tree} K_3={k3} C_4={c4} Paley-7={p7} K_7={k7} K_8={k8} "
            f"(want 1,2,2,3,3,3; K_n at least n/(2 log2 n): {above})"
        )

    return _row(9, "dichromatic ground truths", 60.0, run)


def check_embeddings(seed: int = 0) -> CheckRow:
    def run():
        cases = [
            (5, 2, 2, 1, "auto", 4),
            (5, 2, 2, 2, "auto", 4),
            (5, 2, 3, 2, "general", 6),
            (3, 1, 3, 1, "general", 2),
        ]
        for n, k, t, x, case, want in cases:
            wit = kneser_blowup_embedding(n, k, t, x, case=case)
            ok, counter = verify_embedding(wit)
            if not ok or wit.power != want:
                return False, f"({n},{k},{t},{x}): power={wit.power} want={want} ok={ok}"
        return True, "witnesses verified with powers 4, 4, 6, 2"

    return _row(10, "blow-up embeddings", 60.0, run)


def check_certifier_census(seed: int = 0) -> CheckRow:
    def run():
        K3 = complete_graph(3)
        o3 = ranked_order(Weighting.uniform(3))
        census3 = sum(
            1 for code in range(8)
            if certify_orientation(Digraph(K3, code), o3, 1, 2).certified
        )
        if census3 != 2:
            return False, f"K_3 census {census3}/8, want 2/8"
        cert = find_good_orientation(K3, o3, 1, 2, max_tries=8, seed=7)
        if not cert.certified:
            return False, "seeded search failed on K_3"
        K4 = complete_graph(4)
        o4 = ranked_order(Weighting.uniform(4))
        census4 = sum(
            1 for code in range(64)
            if certify_orientation(Digraph(K4, code), o4, 2, 3).certified
        )
        exact_p = census4 / 64.0
        n_samples = 10_000
        rng = derive_rng(0, 1)
        hits = sum(
            1 for _ in range(n_samples)
            if certify_orientation(random_orientation(K4, rng), o4, 2, 3).certified
        )
        sigma = math.sqrt(n_samples * exact_p * (1 - exact_p))
        ok = abs(hits - n_samples * exact_p) <= 3 * sigma
        return ok, (
            f"K_3 census 2/8 (tries={cert.tries}); K_4 census {census4}/64, "
            f"MC hits={hits} expected={n_samples * exact_p:.0f} (3 sigma={3 * sigma:.0f})"
        )

    return _row(11, "principal-dense certifier census", 60.0, run)


def check_binomial_sweep(seed: int = 0) -> CheckRow:
    def run():
        for t in range(2, 101):
            for k in range(1, 21):
                if not check_binomial_bound(t, k):
                    return False, f"C(floor(tk),k) >= (e t)^k at t={t}, k={k}"
        return True, "C(floor(tk),k) < (e_lo t)^k for all t in 2..100, k in 1..20"

    return _row(12, "binomial growth sweep", 10.0, run)


def check_union_bound(seed: int = 0) -> CheckRow:
    def run():
        rep60 = union_bound_report(60)
        if not rep60.hypothesis_ok:
            return False, "t=60: hypothesis t >= 2(d+1) should hold"
        if not rep60.total < 1.0:
            return False, f"t=60: total {rep60.total} not below 1"
        if not all(row.within_geometric for row in rep60.terms):
            return False, "t=60: some term exceeds its geometric bound"
        rep8 = union_bound_report(8)
        if rep8.hypothesis_ok:
            return False, "t=8: hypothesis should fail"
        return True, f"t=60: d={rep60.d:.3f}, total={rep60.total:.4f} < 1; t=8: hypothesis fails"

    return _row(13, "union-bound report", 1.0, run)


def check_certificate_pipeline(seed: int = 0) -> CheckRow:
    def run():
        # locked regression: heavy triangle with a light path tail
        G = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
        w = Weighting((Fraction(1), Fraction(1), Fraction(1),
                       Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        rep = cover_bound_certificate(
            G, t=Fraction(9, 2), d=Fraction(2), weighting=w, max_tries=64, seed=11
        )
        if not rep.certified or rep.tries != 4:
            return False, f"regression drift: certified={rep.certified} tries={rep.tries} (want 4)"
        if rep.max_acyclic_weight != Fraction(7, 2) or rep.ratio != Fraction(9, 16):
            return False, f"w_max={rep.max_acyclic_weight} ratio={rep.ratio} (want 7/2, 9/16)"
        # independent weight check over every subset, not just maximal sets
        D = rep.orientation
        w_max = Fraction(0)
        for S in range(1, 1 << 6):
            if is_acyclic(D, S):
                w_max = max(w_max, w.of(S))
        if w_max > 2 * rep.d + 4:
            return False, f"brute-force acyclic weight {w_max} exceeds 2d+4"
        # strict mode must gate out at desk scale
        try:
            cover_bound_certificate(kneser_graph(5, 2), strict=True, max_tries=4, seed=0)
            return False, "strict mode unexpectedly proceeded"
        except Exception as exc:
            from .errors import HypothesesNotMetError

            if not isinstance(exc, HypothesesNotMetError):
                raise
        return True, (
            f"relaxed pipeline: tries=4, max weight {w_max} <= {2 * rep.d + 4}, "
            f"ratio {rep.ratio}; strict mode gated"
        )

    return _row(14, "certificate pipeline", 120.0, run)


def check_complete_blowup_orientation(seed: int = 0) -> CheckRow:
    def run():
        # pre-build search oracle: t=4, 5 fail sampling; t=6 is the smallest
        # that succeeds (locked)
        try:
            orient_complete_blowup(5, 2, t_override=5, max_tries=128, seed=1)
            return False, "t=5 unexpectedly succeeded; locked minimum was 6"
        except TriesExhaustedError:
            pass
        rep = orient_complete_blowup(5, 2, t_override=6, max_tries=512, seed=1)
        if rep.tries != 6:
            return False, f"regression drift: success at try {rep.tries} (locked 6)"
        # re-verify by a fresh full enumeration of all C(10,6) subsets
        D = rep.digraph
        for combo in combinations(range(10), 6):
            if is_acyclic(D, mask_of(combo)):
                return False, f"subset {combo} is acyclic after certification"
        if rep.coloring_bound != Fraction(2):
            return False, f"bound {rep.coloring_bound} != 10/5"
        return True, "K_5^(2): every 6-subset cyclic, re-verified over all 210 subsets"

    return _row(15, "complete blow-up orientation", 300.0, run)


def check_bound_evaluators(seed: int = 0) -> CheckRow:
    def run():
        enl = complete_graph_lower_bound(1024)
        if abs(enl - 51.2) > 1e-12:
            return False, f"complete-graph bound {enl} != 51.2"
        z1 = kneser_lower_bound(200, 2)
        z2 = kneser_lower_bound(48, 2)
        c1 = biclique_condition(16, 1)
        c2 = biclique_condition(4, 2)
        ok = z1 == 3 and z2 == 1 and c1 and not c2
        return ok, f"z(200,2)={z1} z(48,2)={z2} cond(16,1)={c1} cond(4,2)={c2}"

    return _row(16, "bound evaluators", 1.0, run)


CHECKS = {
    1: check_kneser_chromatic,
    2: check_kneser_fractional,
    3: check_duality_sweep,
    4: check_count_bound_sweep,
    5: check_acyclic_probability,
    6: check_sparse_characterization,
    7: check_sparse_weight_bound,
    8: check_split_decomposition,
    9: check_dichromatic_ground_truths,
    10: check_embeddings,
    11: check_certifier_census,
    12: check_binomial_sweep,
    13: check_union_bound,
    14: check_certificate_pipeline,
    15: check_complete_blowup_orientation,
    16: check_bound_evaluators,
}


def run_suite(suite: str = "all", seed: int = 0) -> list[CheckRow]:
    numbers = SUITES.get(suite)
    if numbers is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [CHECKS[i](seed) for i in numbers]


def format_table(rows: list[CheckRow]) -> str:
    lines = [f"{'#':>2}  {'check':<36} {'verdict':<7} {'time':>8}  detail"]
    for r in rows:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.number:>2}  {r.name:<36} {verdict:<7} {r.seconds:>7.2f}s  {r.detail}")
    passed = sum(1 for r in rows if r.passed)
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines)


def format_csv(rows: list[CheckRow]) -> str:
    out = ["number,name,passed,seconds,limit,detail"]
    for r in rows:
        detail = r.detail.replace('"', "'")
        out.append(f'{r.number},"{r.name}",{str(r.passed).lower()},{r.seconds:.3f},{r.limit:.0f},"{detail}"')
    return "\n".join(out) + "\n"
