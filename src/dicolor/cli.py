"""Command-line front end.

Subcommands map one-to-one onto library operations; every run prints a
strict JSON report on one line (rationals as "p/q" strings, non-finite
floats as "inf", "-inf" or "nan") to stdout, errors go to stderr.
Exit codes: 0 success, 1 property/certification failure, 2 budget
exceeded (running out of memory included), 3 invalid input (usage errors
included).  Identical invocations with the same seed reproduce identical
result fields; only timings vary.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import coloring, constructions, certify
from .errors import (
    BudgetExceededError,
    DicolorError,
    GraphFormatError,
    HypothesesNotMetError,
    InputError,
    TriesExhaustedError,
    format_count,
)
from .graphs import Graph, bit_list, complete_graph
from .io import build_digraph, build_graph, format_fraction, graph_to_dict, load_graph_file, parse_fraction
from .sparse import Weighting, ranked_order

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
# reports print as one line without blanks: a certify report is about
# 0.9 KB, against 3.2 KB with indent=2, which matters to callers that keep
# many of them
_COMPACT = (",", ":")


def _ser(value):
    """JSON-friendly rendering; Fractions become 'p/q' strings and
    non-finite floats 'inf', '-inf' or 'nan', which strict JSON lacks."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ser(v) for v in value]
    return value


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as invalid input instead of exiting with 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call;
    ``parse_args`` fills a fresh namespace on every call."""
    p = _Parser(prog="dicolor", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized runs")
    common.add_argument("--budget", type=int, default=None,
                        help="override the main budget of the operation")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    c = add("compute", "coloring invariants of a graph or digraph file")
    c.add_argument("invariant", choices=[
        "chi", "dichi", "chif", "dichif", "alphaf", "digraph-chi", "digraph-chif",
    ])
    c.add_argument("file")
    c.add_argument("--mode", choices=["exact", "mc"], default="exact")
    c.add_argument("--trials", type=int, default=256)

    ce = add("certify", "find an orientation whose principal dense sets are all cyclic")
    ce.add_argument("file")
    ce.add_argument("--t", required=True, help="principality parameter (rational p/q)")
    ce.add_argument("--d", required=True, help="average-degree threshold (rational p/q)")
    ce.add_argument("--max-tries", type=int, default=64)

    th = add("certificate", "fractional cover lower-bound certificate pipeline")
    th.add_argument("file")
    th.add_argument("--strict", action="store_true")
    th.add_argument("--t", default=None)
    th.add_argument("--d", default=None)
    th.add_argument("--max-tries", type=int, default=64)

    co = add("construct", "build and export a graph or embedding")
    co.add_argument("what", choices=["kneser", "complete", "blowup", "embed"])
    co.add_argument("args", nargs="*")
    co.add_argument("--case", default="auto", help="embedding case: auto, x<t, x=t, general")
    co.add_argument("--out", default=None)

    bo = add("bounds", "closed-form bound evaluators")
    bo.add_argument("which", choices=[
        "complete", "blowup-complete", "kneser-z", "union-bound", "binom", "biclique-cond",
        "kneser-ineq",
    ])
    bo.add_argument("args", nargs="*")

    ve = add("verify", "run the acceptance suite")
    ve.add_argument("--suite", choices=["all", "core", "sparse", "orient", "kneser"], default="all")
    ve.add_argument("--out", default=None, help="write the CSV table to this path")
    return p


def _load_graph(path: str) -> tuple[Graph, Weighting | None]:
    return build_graph(load_graph_file(path))


def _run_compute(args) -> tuple[dict, int]:
    results: dict = {}
    verdicts: dict = {}
    vertex_kw = {"vertex_budget": args.budget} if args.budget is not None else {}
    edge_kw = {"edge_budget": args.budget} if args.budget is not None else {}
    if args.invariant in ("digraph-chi", "digraph-chif"):
        D, _ = build_digraph(load_graph_file(args.file))
        if args.invariant == "digraph-chi":
            results["digraph_chi"] = coloring.digraph_chromatic_number(D, **vertex_kw)
        else:
            results["digraph_chif"] = coloring.digraph_fractional_chromatic(D, **vertex_kw)
        return {"results": results, "verdicts": verdicts}, EXIT_OK
    G, _ = _load_graph(args.file)
    if args.invariant == "chi":
        results["chi"] = coloring.chromatic_number(G, **vertex_kw)
    elif args.invariant == "chif":
        value, cover, dual = coloring.fractional_chromatic_with_dual(G, **vertex_kw)
        results["chif"] = value
        results["cover"] = [
            {"set": bit_list(mask), "weight": w} for mask, w in cover.parts
        ]
        results["dual_weighting"] = list(dual.values)
        results["dual_total"] = dual.total
        verdicts["strong_duality"] = dual.total == value
    elif args.invariant == "alphaf":
        value, weighting = coloring.fractional_independence(G, **vertex_kw)
        results["alphaf"] = value
        results["weighting"] = list(weighting)
    elif args.invariant == "dichi":
        if args.mode == "exact":
            value, witness = coloring.dichromatic_number_exact(G, **edge_kw)
            results["dichi"] = value
        else:
            value, witness = coloring.dichromatic_lower_bound_mc(G, trials=args.trials, seed=args.seed)
            results["dichi_lower_bound"] = value
        results["witness_arcs"] = witness.arcs() if witness is not None else None
    elif args.invariant == "dichif":
        trials = args.trials if args.mode == "mc" else None
        results["dichif"] = coloring.fractional_dichromatic(
            G, trials=trials, seed=args.seed, **edge_kw
        )
    return {"results": results, "verdicts": verdicts}, EXIT_OK


def _run_certify(args) -> tuple[dict, int]:
    G, w = _load_graph(args.file)
    if w is None:
        w = Weighting.uniform(G.n)
    order = ranked_order(w)
    cert = certify.find_good_orientation(
        G, order, parse_fraction(args.t), parse_fraction(args.d),
        max_tries=args.max_tries, seed=args.seed,
    )
    results = {
        "certified": cert.certified,
        "tries": cert.tries,
        "sets_checked": cert.sets_checked,
        "orientation_arcs": cert.digraph.arcs(),
    }
    return {"results": results, "verdicts": {"certified": cert.certified}}, EXIT_OK


def _run_certificate(args) -> tuple[dict, int]:
    G, w = _load_graph(args.file)
    if args.strict:
        report = certify.cover_bound_certificate(
            G, strict=True, max_tries=args.max_tries, seed=args.seed
        )
    else:
        if args.t is None or args.d is None:
            raise InputError("relaxed mode needs --t and --d")
        report = certify.cover_bound_certificate(
            G,
            t=parse_fraction(args.t),
            d=parse_fraction(args.d),
            weighting=w,
            max_tries=args.max_tries,
            seed=args.seed,
        )
    results = {
        "strict": report.strict,
        "t": report.t,
        "d": report.d,
        "weight_total": report.weight_total,
        "fractional_value": report.fractional_value,
        "hypotheses": {name: ok for name, ok in report.hypotheses},
        "certified": report.certified,
        "tries": report.tries,
        "sets_checked": report.sets_checked,
        "max_acyclic_weight": report.max_acyclic_weight,
        "weight_bound": report.weight_bound,
        "ratio": report.ratio,
        "orientation_arcs": report.orientation.arcs() if report.orientation else None,
        "notes": list(report.notes),
    }
    code = EXIT_OK if report.certified else EXIT_FAILURE
    return {"results": results, "verdicts": {"certified": report.certified}}, code


def _int_args(args: list[str], want: int, what: str) -> list[int]:
    if len(args) != want:
        raise InputError(f"{what} expects {want} integer arguments, got {len(args)}")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise InputError(f"{what} expects integer arguments, got {args!r}")


def _run_construct(args) -> tuple[dict, int]:
    vertex_kw = {"vertex_budget": args.budget} if args.budget is not None else {}
    if args.what == "kneser":
        n, k = _int_args(args.args, 2, "construct kneser")
        G = constructions.kneser_graph(n, k, **vertex_kw)
        payload = graph_to_dict(G)
    elif args.what == "complete":
        (n,) = _int_args(args.args, 1, "construct complete")
        limit = constructions.CONSTRUCT_VERTEX_BUDGET if args.budget is None else args.budget
        if n > limit:
            raise BudgetExceededError("complete graph construction", n, limit)
        payload = graph_to_dict(complete_graph(n))
    elif args.what == "blowup":
        if len(args.args) != 2:
            raise InputError("construct blowup expects FILE m")
        G, _ = _load_graph(args.args[0])
        (m,) = _int_args(args.args[1:], 1, "construct blowup power")
        blown, _ = constructions.blow_up(G, m, **vertex_kw)
        payload = graph_to_dict(blown)
    else:
        n, k, t, x = _int_args(args.args, 4, "construct embed")
        wit = constructions.kneser_blowup_embedding(n, k, t, x, case=args.case, **vertex_kw)
        ok, counter = constructions.verify_embedding(wit, **vertex_kw)
        payload = {
            "params": {"n": n, "k": k, "t": t, "x": x},
            "case": wit.case,
            "power": wit.power,
            "host": {"n": wit.host_n, "k": wit.host_k},
            "verified": ok,
            "counterexample": counter,
            "images": [list(img) for img in wit.images],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return {"results": {"written": args.out}}, EXIT_OK
    return {"results": payload}, EXIT_OK


def _run_bounds(args) -> tuple[dict, int]:
    which = args.which
    if which == "complete":
        (n,) = _int_args(args.args, 1, "bounds complete")
        return {"results": {"bound": constructions.complete_graph_lower_bound(n)}}, EXIT_OK
    if which == "blowup-complete":
        n, k = _int_args(args.args, 2, "bounds blowup-complete")
        return {"results": {"bound": constructions.complete_blowup_lower_bound(n, k)}}, EXIT_OK
    if which == "kneser-z":
        n, k = _int_args(args.args, 2, "bounds kneser-z")
        return {"results": {"bound": constructions.kneser_lower_bound(n, k)}}, EXIT_OK
    if which == "binom":
        if len(args.args) != 2:
            raise InputError("bounds binom expects T K")
        t = parse_fraction(args.args[0])
        (k,) = _int_args(args.args[1:], 1, "bounds binom K")
        return {"results": {"holds": certify.check_binomial_bound(t, k)}}, EXIT_OK
    if which == "biclique-cond":
        m, k = _int_args(args.args, 2, "bounds biclique-cond")
        return {
            "results": {
                "holds": constructions.biclique_condition(m, k),
                "failure_bound": constructions.biclique_failure_bound(m, k),
            }
        }, EXIT_OK
    if which == "kneser-ineq":
        (k,) = _int_args(args.args, 1, "bounds kneser-ineq")
        return {"results": constructions.kneser_recursion_inequalities(k)}, EXIT_OK
    # union-bound
    if len(args.args) not in (1, 2):
        raise InputError("bounds union-bound expects T [N]")
    t = parse_fraction(args.args[0])
    n = _int_args(args.args[1:], 1, "bounds union-bound N")[0] if len(args.args) == 2 else None
    rep = certify.union_bound_report(t, n)
    results = {
        "t": rep.t,
        "d": rep.d,
        "hypothesis_ok": rep.hypothesis_ok,
        "total": rep.total,
        "tail_bound": rep.tail_bound,
        "refined_tail": rep.refined_tail,
        "terms": [
            {"k": row.k, "count_bound": row.count_bound, "term": row.term,
             "geometric": row.geometric, "within_geometric": row.within_geometric}
            for row in rep.terms[:40]
        ],
    }
    verdict = rep.hypothesis_ok and rep.total < 1.0
    return {"results": results, "verdicts": {"bounded_below_one": verdict}}, EXIT_OK


def _run_verify(args) -> tuple[dict, int]:
    from .acceptance import format_csv, format_table, run_suite

    rows = run_suite(args.suite, seed=args.seed)
    print(format_table(rows))
    csv_text = format_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text)
    ok = all(r.passed for r in rows)
    return None, (EXIT_OK if ok else EXIT_FAILURE)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
        if args.budget is not None and args.budget < 0:
            raise InputError(f"--budget must be nonnegative, got {args.budget}")
        if args.command == "compute":
            body, code = _run_compute(args)
        elif args.command == "certify":
            body, code = _run_certify(args)
        elif args.command == "certificate":
            body, code = _run_certificate(args)
        elif args.command == "construct":
            body, code = _run_construct(args)
        elif args.command == "bounds":
            body, code = _run_bounds(args)
        else:
            body, code = _run_verify(args)
    except HypothesesNotMetError as exc:
        _emit_error("hypotheses-not-met", str(exc), {"failed": list(exc.failed)})
        return EXIT_FAILURE
    except TriesExhaustedError as exc:
        _emit_error("tries-exhausted", str(exc), {"tries": exc.tries})
        return EXIT_FAILURE
    except BudgetExceededError as exc:
        sizes = {"needed": format_count(exc.needed), "limit": format_count(exc.limit)}
        _emit_error("budget-exceeded", str(exc), sizes)
        return EXIT_BUDGET
    except MemoryError:
        # an input that passes every gate can still outgrow the machine
        _emit_error("budget-exceeded", "out of memory", {})
        return EXIT_BUDGET
    except (GraphFormatError, InputError, FileNotFoundError) as exc:
        _emit_error("invalid-input", str(exc), {})
        return EXIT_INPUT
    except DicolorError as exc:
        _emit_error("error", str(exc), {})
        return EXIT_FAILURE
    if body is not None:
        report = {
            "command": " ".join(["dicolor"] + argv),
            "seed": args.seed,
            "params": {"budget": args.budget},
            "results": _ser(body.get("results", {})),
            "verdicts": _ser(body.get("verdicts", {})),
            "timings": {"seconds": round(time.perf_counter() - started, 6)},
        }
        print(json.dumps(report, separators=_COMPACT, allow_nan=False))
    return code


def _emit_error(kind: str, message: str, extra: dict) -> None:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    print(json.dumps(payload, separators=_COMPACT, allow_nan=False), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
