"""Graph file parsing and serialization.

Two input formats are accepted:

* JSON object: ``{"n": 3, "edges": [[0,1],[1,2]], "weights": ["1/2", ...],
  "labels": [...]}`` with weights optional rationals written as "p/q".
* Plain edge list: first line ``n m``, then m lines ``u v`` (0-based).

Rationals are always serialized as "p/q" strings, never as decimals, so
round trips are exact.  A file may declare at most
``graphs.CONSTRUCT_VERTEX_BUDGET`` vertices, checked as soon as n is read,
so no list of n entries is built for a larger one.  The constant lives in
``graphs``, not ``constructions``, so reading a file loads no construction
code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, GraphFormatError, InputError
from .graphs import CONSTRUCT_VERTEX_BUDGET, Digraph, Graph
from .sparse import Weighting


@dataclass(frozen=True)
class GraphFileData:
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...] | None
    labels: tuple[str, ...] | None


def format_fraction(fr) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


# the most digits Python reads into an int, and so the most a numerator or
# denominator written with an exponent may reach: Fraction builds 10^e in
# full, which ran past 20 s for e = 10^8
RATIONAL_DIGITS = 4300


def parse_fraction(text: str) -> Fraction:
    body = str(text).strip()
    mantissa, e, exponent = body.upper().partition("E")
    try:
        # the digits of the numerator or denominator an exponent makes
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent)) if e else 0
        if digits <= RATIONAL_DIGITS:
            return Fraction(body)
    except ZeroDivisionError:
        raise GraphFormatError(f"zero denominator in rational {text!r}")
    except ValueError:
        raise GraphFormatError(f"malformed rational {text!r}")
    raise GraphFormatError(f"rational {text!r} needs more than {RATIONAL_DIGITS} digits")


def _check_vertex_count(n: int) -> None:
    if n > CONSTRUCT_VERTEX_BUDGET:
        raise BudgetExceededError("graph file vertex count", n, CONSTRUCT_VERTEX_BUDGET)


def parse_graph_text(text: str) -> GraphFileData:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return _parse_json(text)
        except RecursionError:
            # nesting past the recursion limit, met by json.loads or by the
            # repr of a nested value in an error message
            raise GraphFormatError("invalid JSON: arrays or objects nested too deeply")
    return _parse_edge_list(text)


def _is_int(x) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(obj: dict, key: str) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise GraphFormatError(f"'{key}' must be a list, got {value!r}")
    return value


def _parse_json(text: str) -> GraphFileData:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except ValueError:
        # json.loads raises a bare ValueError for an integer literal past
        # Python's limit on the digits of an int (4,300 by default)
        raise GraphFormatError("invalid JSON: an integer has too many digits")
    if not isinstance(obj, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError("graph object needs 'n' and 'edges'")
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise GraphFormatError(f"'n' must be a nonnegative integer, got {n!r}")
    _check_vertex_count(n)
    edges = []
    for i, pair in enumerate(_list_field(obj, "edges")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphFormatError(f"edge {i} must be a pair, got {pair!r}")
        u, v = pair
        if not (_is_int(u) and _is_int(v)):
            raise GraphFormatError(f"edge {i} has non-integer endpoints {pair!r}")
        edges.append((u, v))
    weights = None
    if obj.get("weights") is not None:
        weights = tuple(parse_fraction(s) for s in _list_field(obj, "weights"))
        if len(weights) != n:
            raise GraphFormatError(f"expected {n} weights, got {len(weights)}")
    labels = None
    if obj.get("labels") is not None:
        labels = tuple(str(s) for s in _list_field(obj, "labels"))
        if len(labels) != n:
            raise GraphFormatError(f"expected {n} labels, got {len(labels)}")
    return GraphFileData(n=n, edges=tuple(edges), weights=weights, labels=labels)


def _parse_edge_list(text: str) -> GraphFileData:
    lines = text.splitlines()
    header = None
    edges = []
    expect_m = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two integers, got {line!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer token in {line!r}", line=lineno)
        if header is None:
            _check_vertex_count(a)
            header = (a, b)
            expect_m = b
        else:
            edges.append((a, b))
    if header is None:
        raise GraphFormatError("empty graph file")
    if expect_m != len(edges):
        raise GraphFormatError(f"header promises {expect_m} edges, found {len(edges)}")
    return GraphFileData(n=header[0], edges=tuple(edges), weights=None, labels=None)


def load_graph_file(path: str) -> GraphFileData:
    """Reads the file as UTF-8 with its line ends made ``\\n``, as a text-mode
    read would, so JSON error positions count lines the same way.  A missing
    file raises ``FileNotFoundError``; any other unreadable path, say a
    directory, raises ``InputError``."""
    try:
        # one unbuffered read and a decode: a text-mode read, with its buffer,
        # decoder and newline translation, took about twice as long on the
        # small files of a query
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InputError(str(exc))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"graph file is not UTF-8: {exc.reason} at byte {exc.start}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_graph_text(text)


def build_graph(data: GraphFileData) -> tuple[Graph, Weighting | None]:
    G = Graph(data.n, data.edges, labels=data.labels)
    w = Weighting(data.weights) if data.weights is not None else None
    return G, w


def build_digraph(data: GraphFileData) -> tuple[Digraph, Weighting | None]:
    """Interpret the edge pairs as arcs (tail, head) of an orientation."""
    base = Graph(data.n, data.edges, labels=data.labels)
    try:
        D = Digraph.from_arcs(base, data.edges)
    except InputError as exc:
        raise GraphFormatError(str(exc))
    w = Weighting(data.weights) if data.weights is not None else None
    return D, w


def graph_to_dict(G: Graph, weights: Weighting | None = None) -> dict:
    out: dict = {"n": G.n, "edges": [list(e) for e in G.edges]}
    if weights is not None:
        out["weights"] = [format_fraction(v) for v in weights.values]
    if G.labels is not None:
        out["labels"] = list(G.labels)
    return out
