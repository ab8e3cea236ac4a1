"""Exact-arithmetic primal simplex for packing programs.

Solves  max c.x  subject to  A x <= b,  x >= 0  with all data rational and
b >= 0, so the slack basis is feasible from the start.  Bland's smallest-
index rule is used for both the entering and the leaving variable, which
makes the pivot path deterministic and rules out cycling: no basis
repeats, so there are fewer than C(n + m, m) pivots, and a run past that
count raises ``DicolorError`` instead of pivoting forever.  The optimal
duals are read off the reduced costs of the slack columns, so one solve
yields a primal/dual pair with exactly equal objectives.

The arithmetic is integer pivoting over one common denominator (Edmonds;
Bareiss).  The rows of A and b are scaled once by the lcm L of their
denominators (the slacks become L times the original ones) and c by the
lcm K of its own, and the tableau T holds integers with the true tableau
equal to T / D.  A pivot on p = T[r][e] replaces every other row by
(p T[i] - T[i][e] T[r]) / D, a division that is always exact because every
entry is a minor of the scaled data, and then sets D = p > 0.  The signs
the entering rule reads and the ratios the leaving rule compares are
therefore those of the rational tableau, so the pivot path is the one a
Fraction tableau takes and the results, read back as Fractions, are equal;
no entry update pays for a gcd.  Only the nonbasic columns are stored
(Tucker's condensed tableau): a basic column is D times a unit vector,
and the column of the variable that leaves is the one a full tableau
would compute for it, so a pivot costs (m + 1)(n + 1) updates, not
(m + 1)(n + m + 1).

When the pivot equals the common denominator, p = D (the rational pivot
is 1, as most pivots of a 0/1 cover LP are), a pivot costs far less.
The new entry is then (D v - f pv) / D = v - f pv / D, where f is the
row's entry in the entering column and pv the pivot row's entry in the
same column as v.  So a row with f = 0 keeps every entry, and a column
where pv = 0 keeps its value in every row.  The other entries change by
f pv / D, which is an integer: it is the difference of v and the new
entry, both integers by the exactness argument above, so ``f * pv // D``
divides exactly.  The pivot therefore touches only the rows with f != 0,
and in each only the pivot row's nonzero columns (plus the entering
column, which becomes -f as in the general case).  When p != D every row
is rewritten as above, the rows with f = 0 rescaled to p v / D.  Both
branches give the same integers, so the pivot path and every result are
those of the general update.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import DicolorError, InputError

Rational = Fraction | int


class UnboundedError(DicolorError):
    """The packing program is unbounded (cannot happen for 0/1 columns)."""


def _integer_rows(rows: list[list[Rational]]) -> tuple[int, list[list[int]]]:
    """The lcm L of all denominators, and the rows times L as ints.

    The rows are the caller's fresh lists; all-int rows come back as they are.
    """
    if all(type(v) is int for row in rows for v in row):
        return 1, rows
    rows = [[v if type(v) is int else Fraction(v) for v in row] for row in rows]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def _pivot(rows: list[list[int]], leave: int, enter: int, D: int) -> None:
    """Pivot the condensed tableau ``rows`` over the common denominator D on
    the entry of row ``leave`` in column ``enter``, in place; the new
    common denominator is that entry."""
    prow = rows[leave]
    p = prow[enter]
    if p == D:
        # only the pivot row's nonzero columns change, by f * pv / D
        support = [(j, pv) for j, pv in enumerate(prow) if pv and j != enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                for j, pv in support:
                    row[j] -= f * pv // D
                row[enter] = -f  # the leaving variable's column
    else:
        for i, row in enumerate(rows):
            if i == leave:
                continue
            f = row[enter]
            if f:
                row = [(p * v - f * pv) // D for v, pv in zip(row, prow)]
                row[enter] = -f  # the leaving variable's column
                rows[i] = row
            else:
                rows[i] = [p * v // D for v in row]
    prow[enter] = D


def simplex_max(
    c: list[Rational], A: list[list[Rational]], b: list[Rational]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Return ``(value, x, y)`` with x primal-optimal and y dual-optimal.

    ``y`` solves  min b.y  s.t.  A^T y >= c,  y >= 0; strong duality gives
    ``sum(c*x) == sum(b*y) == value`` exactly.
    """
    m = len(A)
    n = len(c)
    if len(b) != m:
        raise InputError(f"{len(b)} right-hand sides for {m} rows")
    for i, row in enumerate(A):
        if len(row) != n:
            raise InputError(f"row {i} has {len(row)} entries for {n} variables")
    for i, bi in enumerate(b):
        if bi < 0:
            raise InputError(f"rhs {i} is negative; slack start needs b >= 0")
    # variables: x_0..x_{n-1}, then the slack of row i as n + i; the rows
    # are the basic variables, the first n columns the nonbasic ones and
    # the last column the rhs; the objective row comes last
    L, rows = _integer_rows([[*row, bi] for row, bi in zip(A, b)])
    K, (cost,) = _integer_rows([list(c)])
    obj = [-cj for cj in cost] + [0]
    rows.append(obj)
    basis = [n + i for i in range(m)]
    nonbasic = list(range(n))
    D = 1
    # Bland's rule never repeats a basis, and there are at most C(n + m, m),
    # so a pivot past that count is a broken tableau update, not a slow LP
    cap = comb(n + m, m)
    pivots = 0

    while True:
        enter = -1
        for j in range(n):
            if obj[j] < 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rows[i][-1] / a against the best ratio so far, both over D
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        if pivots == cap:
            raise DicolorError(
                f"simplex passed C({n + m}, {m}) pivots, which Bland's rule never does: "
                "the tableau update is broken")
        pivots += 1
        p = rows[leave][enter]
        _pivot(rows, leave, enter, D)
        obj = rows[m]
        D = p
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][-1], D)
    # a basic slack has reduced cost 0; a nonbasic one is in the objective
    # row, per slack s' = L s
    y = [Fraction(0)] * m
    for j, var in enumerate(nonbasic):
        if var >= n:
            y[var - n] = Fraction(obj[j] * L, D * K)
    return Fraction(obj[-1], D * K), x, y
