"""Randomized certification that principal dense sets are all cyclic.

An orientation is *certified* for parameters (t, d) when every t-principal
vertex set with average degree at least d contains a directed cycle.  The
union-bound arithmetic predicting that random orientations succeed, the
exact binomial growth check behind it, and the end-to-end certificate
(dual weighting -> certified orientation -> acyclic-set weight bound ->
fractional cover ratio) live here as well.

Transcendental quantities (the derived density d, per-term probabilities)
are floats compared at 1e-12; everything countable is exact.  Where a
verdict depends on the constant e, a rational bracket
2.718281828 < e < 2.718281829 decides it, never float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Iterator

from .coloring import fractional_chromatic_with_dual
from .errors import (
    BudgetExceededError,
    HypothesesNotMetError,
    InputError,
    TriesExhaustedError,
)
from .families import max_acyclic_weight
from .graphs import Digraph, Graph, derive_rng, is_acyclic, random_orientation
from .sparse import RankedOrder, Weighting, _principal_dense_sets, ranked_order

CANDIDATE_CAP = 1 << 24
BINOM_BOUND_BITS = 1 << 21
UNION_BOUND_BITS = 1 << 24
FLOAT_TOL = 1e-12

E_LO = Fraction(2718281828, 10**9)
E_HI = Fraction(2718281829, 10**9)


@dataclass(frozen=True)
class CertifiedOrientation:
    """Outcome of checking one orientation against parameters (t, d)."""

    digraph: Digraph
    t: Fraction
    d: Fraction
    sets_checked: int
    certified: bool
    violating_set: int | None = None
    tries: int | None = None


def _candidate_total(n: int, t: Fraction) -> int:
    total = 0
    for k in range(1, n + 1):
        p = min(math.floor(t * k), n)
        if p >= k:
            total += comb(p, k)
    return total


def enumerate_principal_dense(
    G: Graph, order: RankedOrder, t, d, cap: int = CANDIDATE_CAP
) -> Iterator[int]:
    """Yield every t-principal vertex set of average degree >= d.

    The k-element candidates are exactly the k-subsets of the first
    floor(t*k) vertices; a k-set needs ceil(d*k/2) induced edges, checked
    exactly.  The candidate count is gated by ``cap`` up front.
    """
    t = Fraction(t)
    d = Fraction(d)
    total = _candidate_total(G.n, t)
    if total > cap:
        raise BudgetExceededError("principal-dense enumeration", total, cap)
    return _principal_dense_sets(G, order, t, d, G.full_mask, G.n, cap)


def certify_orientation(D: Digraph, order: RankedOrder, t, d) -> CertifiedOrientation:
    """Check that every principal dense set contains a directed cycle."""
    t = Fraction(t)
    d = Fraction(d)
    checked = 0
    for W in enumerate_principal_dense(D.graph, order, t, d):
        checked += 1
        if is_acyclic(D, W):
            return CertifiedOrientation(
                digraph=D, t=t, d=d, sets_checked=checked, certified=False, violating_set=W
            )
    return CertifiedOrientation(digraph=D, t=t, d=d, sets_checked=checked, certified=True)


def find_good_orientation(
    G: Graph,
    order: RankedOrder,
    t,
    d,
    max_tries: int = 64,
    seed: int = 0,
) -> CertifiedOrientation:
    """Rejection-sample random orientations until one certifies.

    Each try uses an independent substream of ``seed``, so the result does
    not depend on how tries would be distributed over workers.  Raises
    :class:`TriesExhaustedError` carrying the best failed attempt.  The
    candidates of all tries together, ``max_tries`` times the count of one
    try, are gated by ``CANDIDATE_CAP`` before the first try.
    """
    if max_tries < 1:
        raise InputError("need at least one try")
    total = max_tries * _candidate_total(G.n, Fraction(t))
    if total > CANDIDATE_CAP:
        raise BudgetExceededError("principal-dense candidates over all tries", total, CANDIDATE_CAP)
    best: CertifiedOrientation | None = None
    for i in range(1, max_tries + 1):
        D = random_orientation(G, derive_rng(seed, i))
        cert = replace(certify_orientation(D, order, t, d), tries=i)
        if cert.certified:
            return cert
        if best is None or cert.sets_checked > best.sets_checked:
            best = cert
    raise TriesExhaustedError(max_tries, best)


@dataclass(frozen=True)
class UnionBoundTerm:
    k: int
    count_bound: int  # C(floor(t k), k)
    log2_prob: float  # log2 of the per-set acyclicity bound
    term: float  # count_bound * 2**log2_prob
    geometric: float  # ((d+1)/t)**k
    within_geometric: bool | None


@dataclass(frozen=True)
class BoundReport:
    t: Fraction
    d: float
    hypothesis_ok: bool
    terms: tuple[UnionBoundTerm, ...]
    total: float
    tail_bound: float | None
    refined_tail: float  # 2^-d = e^-2 t^-4
    k_stop: int
    n: int | None


def _bracket_compare(lhs_exp: int, e_power: int, t: Fraction, t_power: int, strict: bool):
    """Certified comparison 2**lhs_exp (>= or >) e**e_power * t**t_power.

    Returns True/False when the rational bracket for e decides it, else
    None.  Exponent guards keep the big integers reasonable; t**t_power is
    built only after them.
    """
    if abs(lhs_exp) > 4096 or e_power > 512:
        return None
    rest = t**t_power
    lhs = Fraction(2) ** lhs_exp
    hi = E_HI**e_power * rest
    lo = E_LO**e_power * rest
    if (lhs > hi) or (not strict and lhs >= hi):
        return True
    if (lhs < lo) or (strict and lhs <= lo):
        return False
    return None


def hypothesis_t_vs_density(t: Fraction) -> bool:
    """Certified check of t >= 2*(d+1) with d = 2 log2(e t^2).

    Equivalent to 2^(q(t-2)) >= e^(4q) t^(8q) for t = p/q, decided by the
    rational bracket for e; falls back to floats only if the bracket is
    inconclusive.
    """
    t = Fraction(t)
    if t <= 0:
        raise InputError("t must be positive")
    p, q = t.numerator, t.denominator
    got = _bracket_compare(p - 2 * q, 4 * q, t, 8 * q, strict=False)
    if got is not None:
        return got
    d = 2.0 * math.log2(math.e * float(t) ** 2)
    return float(t) >= 2.0 * (d + 1.0) - FLOAT_TOL


def hypothesis_strict_scale(t: Fraction) -> bool:
    """Certified check of t > 2d+4 = 4 log2(2 e t^2) (the strict-mode gate)."""
    t = Fraction(t)
    if t <= 0:
        raise InputError("t must be positive")
    # t > 4 log2(2 e t^2)  <=>  2^p > (2 e t^2)^(4q)  <=>  2^(p-4q) > e^(4q) t^(8q)
    p, q = t.numerator, t.denominator
    got = _bracket_compare(p - 4 * q, 4 * q, t, 8 * q, strict=True)
    if got is not None:
        return got
    return float(t) > 4.0 * math.log2(2.0 * math.e * float(t) ** 2) + FLOAT_TOL


def _float_pow(base: float, exponent: float) -> float:
    """base ** exponent, or inf past the float range (base > 0)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def union_bound_report(t, n: int | Graph | None = None) -> BoundReport:
    """Union-bound table for the chance some principal dense set is acyclic.

    Computes d = 2 log2(e t^2) and, per cardinality k, the exact candidate
    count C(floor(t k), k) times the acyclicity bound
    2^(-k d/2 + k log2(d+1)); under the hypothesis t >= 2(d+1) each term is
    at most ((d+1)/t)^k <= 2^-k and the series stays below 1.  Without a
    vertex count, terms are accumulated until negligible and a geometric
    tail bound is added.
    """
    t = Fraction(t)
    if t <= 0:
        raise InputError("t must be positive")
    # the table is in floats: t^2 must be a finite float, and the
    # acyclicity exponent log2(d + 1) needs d > -1, i.e. e t^2 > 2^(-1/2)
    if t >= 2**511:
        raise InputError("t must be below 2^511")
    if isinstance(n, Graph):
        n = n.n
    tf = float(t)
    e_t2 = math.e * tf * tf
    d = 2.0 * math.log2(e_t2) if e_t2 > 0 else -math.inf
    if not d > -1.0:
        t_min = (math.e * math.sqrt(2.0)) ** -0.5
        raise InputError(f"t must exceed (e sqrt 2)^(-1/2) = {t_min:.6f}, so that d = 2 log2(e t^2) > -1")
    if n is not None:
        # the exact counts C(floor(t k), k) for k <= n have about k bitlen(t n) bits each
        bits = n * n * max(1, math.floor(t * n).bit_length()) // 2
        if bits > UNION_BOUND_BITS:
            raise BudgetExceededError("union-bound exact counts (bits)", bits, UNION_BOUND_BITS)
    hyp = hypothesis_t_vs_density(t)
    q = (d + 1.0) / tf
    terms: list[UnionBoundTerm] = []
    total = 0.0
    k = 0
    k_limit = n if n is not None else 512
    while k < k_limit:
        k += 1
        count = comb(math.floor(t * k), k)
        log2_prob = -k * d / 2.0 + k * math.log2(d + 1.0)
        if count:
            log2_term = math.log2(count) + log2_prob
            term = _float_pow(2.0, log2_term) if log2_term > -1074 else 0.0
        else:
            term = 0.0
        geo = _float_pow(q, k)
        within = (term <= geo * (1.0 + 1e-9) + FLOAT_TOL) if hyp else None
        terms.append(
            UnionBoundTerm(
                k=k, count_bound=count, log2_prob=log2_prob, term=term, geometric=geo,
                within_geometric=within,
            )
        )
        total += term
        if n is None and (term < 1e-18 or k >= 512):
            break
    tail = None
    if n is None and q < 1.0:
        # every further term is below geo^k, so a geometric tail is rigorous
        tail = q ** (k + 1) / (1.0 - q)
        total += tail
    return BoundReport(
        t=t,
        d=d,
        hypothesis_ok=hyp,
        terms=tuple(terms),
        total=total,
        tail_bound=tail,
        refined_tail=2.0**-d,
        k_stop=k,
        n=n,
    )


def check_binomial_bound(t, k: int) -> bool:
    """Certified C(floor(t k), k) < (e t)^k using the rational lower bracket
    for e (a strict win against the bracket implies the real inequality)."""
    t = Fraction(t)
    if t <= 0 or k < 1:
        raise InputError("need t > 0 and k >= 1")
    top = math.floor(t * k)
    base = E_LO * t
    # (E_LO t)^k has k times the bits of E_LO t on each side, and the
    # comparison multiplies C(top, k) <= min(2^top, top^k) by its denominator
    bits = k * max(base.numerator.bit_length(), base.denominator.bit_length())
    bits += min(top, k * top.bit_length())
    if bits > BINOM_BOUND_BITS:
        raise BudgetExceededError("binomial bound integers (bits)", bits, BINOM_BOUND_BITS)
    return comb(top, k) < base**k


@dataclass(frozen=True)
class CertificateReport:
    """End-to-end certificate for a fractional cover lower bound."""

    strict: bool
    t: Fraction
    d: Fraction
    weight_total: Fraction
    fractional_value: Fraction | None
    hypotheses: tuple[tuple[str, bool], ...]
    certified: bool
    orientation: Digraph | None
    tries: int | None
    sets_checked: int | None
    max_acyclic_weight: Fraction | None
    weight_bound: Fraction
    ratio: Fraction
    notes: tuple[str, ...]


def cover_bound_certificate(
    G: Graph,
    t=None,
    d=None,
    strict: bool = False,
    weighting: Weighting | None = None,
    max_tries: int = 64,
    seed: int = 0,
) -> CertificateReport:
    """Certify a fractional cover lower bound t/(2d+4) for some orientation.

    Pipeline: take a vertex weighting (the optimal clique weighting unless
    one is supplied), find an orientation in which every t-principal set
    of average degree >= d is cyclic, then find the exact weight of its
    heaviest acyclic set by the branch and bound search of
    :func:`~dicolor.families.max_acyclic_weight` and check that it is at
    most 2d+4.  In strict mode t is the exact fractional chromatic number,
    d is derived as 2 log2(e t^2), and the scale hypotheses are hard
    gates; they fail for every small instance, and the failure is
    reported rather than hidden.  In relaxed mode the caller chooses t and
    d and every hypothesis is reported alongside what was still certified.
    """
    notes: list[str] = []
    fractional_value = None
    if strict:
        if weighting is not None or t is not None or d is not None:
            raise InputError("strict mode derives t, d, and the weighting itself")
        fractional_value, _, weighting = fractional_chromatic_with_dual(G)
        t_eff = fractional_value
        if t_eff <= 0:
            raise InputError("strict mode needs a graph with at least one vertex")
        d_float = 2.0 * math.log2(math.e * float(t_eff) ** 2)
        failed = []
        gates = [
            ("t > 4*log2(2*e*t^2)", hypothesis_strict_scale(t_eff)),
            ("t >= 2*(d+1)", hypothesis_t_vs_density(t_eff)),
        ]
        for name, ok in gates:
            if not ok:
                failed.append(name)
        if failed:
            raise HypothesesNotMetError(
                failed,
                report={
                    "t": t_eff,
                    "d": d_float,
                    "hypotheses": tuple(gates),
                },
            )
        # conservative rational stand-in below the true transcendental d:
        # certifying against a smaller d only strengthens the conclusion
        d_eff = Fraction(math.floor(d_float * 10**9), 10**9)
        notes.append("strict d rounded down to a rational at 1e-9 resolution")
        hyps = tuple(gates)
    else:
        if t is None or d is None:
            raise InputError("relaxed mode needs explicit t and d")
        t_eff = Fraction(t)
        d_eff = Fraction(d)
        if weighting is None:
            fractional_value, _, weighting = fractional_chromatic_with_dual(G)
            notes.append("weighting taken from the optimal clique weighting")
        hyps = (
            ("t >= 2*(d+1)", t_eff >= 2 * (d_eff + 1)),
            ("t > 2*d+4", t_eff > 2 * d_eff + 4),
            ("weight total equals t", weighting.total == t_eff),
        )
    order = ranked_order(weighting)
    cert = find_good_orientation(G, order, t_eff, d_eff, max_tries=max_tries, seed=seed)
    w_max = max_acyclic_weight(cert.digraph, weighting.values)
    bound = 2 * d_eff + 4
    weight_ok = w_max <= bound
    if not weight_ok:
        notes.append("an acyclic set exceeds weight 2d+4; conclusion not certified")
    return CertificateReport(
        strict=strict,
        t=t_eff,
        d=d_eff,
        weight_total=weighting.total,
        fractional_value=fractional_value,
        hypotheses=hyps,
        certified=cert.certified and weight_ok,
        orientation=cert.digraph,
        tries=cert.tries,
        sets_checked=cert.sets_checked,
        max_acyclic_weight=w_max,
        weight_bound=bound,
        ratio=t_eff / bound,
        notes=tuple(notes),
    )
