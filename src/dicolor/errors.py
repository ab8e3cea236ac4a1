"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: invalid input is 3, an exceeded
enumeration budget is 2, and a failed certification or exhausted search
is 1.
"""

from __future__ import annotations


class DicolorError(Exception):
    """Base class for all toolkit errors."""


class InputError(DicolorError, ValueError):
    """A caller violated a documented precondition or data invariant."""


class GraphFormatError(InputError):
    """A graph file could not be parsed; carries line/position context."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def format_count(x: int) -> str:
    """Decimal up to 2^64; beyond it ``2^k`` for a power of two, else ``>2^k``.

    Budget sizes such as 2^e or C(n, k) can pass Python's limit on the
    digits of an int-to-str conversion, so they are never printed in full.
    """
    if x <= 1 << 64:
        return str(x)
    k = x.bit_length() - 1
    return f"2^{k}" if x & (x - 1) == 0 else f">2^{k}"


class BudgetExceededError(DicolorError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, what: str, needed: int, limit: int):
        super().__init__(f"{what}: needs {format_count(needed)}, budget is {format_count(limit)}")
        self.what = what
        self.needed = needed
        self.limit = limit


class TriesExhaustedError(DicolorError):
    """Rejection sampling failed within the allowed number of tries.

    ``best`` carries the most promising failed attempt for diagnosis.
    """

    def __init__(self, tries: int, best=None):
        super().__init__(f"no orientation certified within {tries} tries")
        self.tries = tries
        self.best = best


class ClassificationGapError(DicolorError):
    """The sparse-split dichotomy failed for some layer vertex.

    This can only happen when the split's hypothesis is false, in which
    case ``witness`` is a principal vertex set whose average degree meets
    the density threshold.
    """

    def __init__(self, witness: int, position: int, vertex: int):
        super().__init__(
            f"vertex {vertex} (layer position {position}) fits neither sparse layer; "
            f"witness set mask {witness:#x}"
        )
        self.witness = witness
        self.position = position
        self.vertex = vertex


class HypothesesNotMetError(DicolorError):
    """A strict-mode certificate was requested outside its valid regime."""

    def __init__(self, failed: list[str], report=None):
        super().__init__("hypotheses not met: " + "; ".join(failed))
        self.failed = tuple(failed)
        self.report = report
