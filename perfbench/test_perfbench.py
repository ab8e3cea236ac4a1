"""The benchmark's own tests: tracing changes no answer and leaves no
wrapper behind, the answer checks reject wrong answers, and inputs are a
function of the seed.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import random

import numpy as np
import pytest

import checks
import workloads
from run import Judge, _answer, run_query, write_round
from tracer import Tracer
from workloads import Instance, Query

K4 = Instance("K4", 4, workloads.complete(4))
C5 = Instance("C5", 5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
SMALL = [
    Query("q-dichi", "dichi", K4),
    Query("q-dichif", "dichif", Instance("C4+chord", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))),
    Query("q-chi", "chi", workloads.kneser(5, 2)),
    Query("q-chif", "chif", C5),
    Query("q-certify", "certify", Instance("K5", 5, workloads.complete(5)),
          ("--t", "1", "--d", "2", "--seed", "7")),
    Query("q-certificate", "certificate",
          Instance("K5w", 5, workloads.complete(5), ("1/1", "1/2", "1/2", "1/4", "1/8")),
          ("--t", "1", "--d", "2", "--seed", "3")),
]
OVER_BUDGET = Query("q-budget", "chi", K4, ("--budget", "1"))


@pytest.fixture()
def cli(tmp_path):
    from dicolor import cli

    write_round(SMALL, tmp_path)
    return cli


def test_traced_answers_match_and_no_wrapper_remains(cli, tmp_path):
    import dicolor.families
    import dicolor.graphs

    original = dicolor.graphs.is_acyclic
    plain = [run_query(cli, q, tmp_path) for q in SMALL]
    tracer = Tracer()
    tracer.install()
    try:
        assert dicolor.families.is_acyclic is dicolor.graphs.is_acyclic is not original
        traced = []
        for q in SMALL + [OVER_BUDGET]:
            tracer.begin_query(q.qid)
            traced.append(run_query(cli, q, tmp_path))
            tracer.end_query()
    finally:
        tracer.uninstall()
    over = traced.pop()
    assert over.code == 2 and over.error is None
    assert tracer._stack == []  # the exception unwound every wrapper frame
    assert tracer.leftover_wrappers() == []
    assert dicolor.families.is_acyclic is dicolor.graphs.is_acyclic is original
    assert [_answer(o) for o in plain] == [_answer(o) for o in traced]
    assert all(o.code == 0 for o in plain)

    judge = Judge(cli, tmp_path)
    assert [judge.failure(o) for o in plain + traced] == [None] * (2 * len(SMALL))
    assert judge.failure(over) == "exit 2 budget-exceeded"

    totals = tracer.totals()
    assert totals["cli.main"].calls == len(SMALL) + 1
    assert totals["cli.main"].extra["exit_nonzero"] == 1
    # copies made by `from .graphs import is_acyclic` were patched too
    assert totals["graphs.is_acyclic"].calls > 0
    assert totals["families.maximal_independent_sets"].yielded > 0
    assert totals["certify.enumerate_principal_dense"].yielded > 0
    # self time never exceeds busy time, and nests inside the query spans
    assert all(s.self <= s.busy + 1e-9 for s in totals.values())
    roots = [s for s in tracer.spans if s[3] == "query"]
    assert len(roots) == len(SMALL) + 1
    children = [s for s in tracer.spans if s[3] != "query"]
    assert children and all(s[1] is not None and s[4] <= s[5] for s in children)


def test_checks_reject_wrong_answers(cli, tmp_path):
    judge = Judge(cli, tmp_path)
    for q in SMALL:
        report = json.loads(run_query(cli, q, tmp_path).stdout)
        results = report["results"]
        assert judge.check(q, results, report["verdicts"]) is None
        wrong = json.loads(json.dumps(results))
        if q.kind == "dichi":
            wrong["witness_arcs"] = [sorted(a) for a in results["witness_arcs"]]  # acyclic
        elif q.kind == "dichif":
            wrong["dichif"] = "2/1"
        elif q.kind == "chi":
            wrong["chi"] = 2
        elif q.kind == "chif":
            wrong["dual_weighting"] = ["1/1"] + results["dual_weighting"][1:]
        else:
            wrong["orientation_arcs"] = [sorted(a) for a in results["orientation_arcs"]]
        assert judge.check(q, wrong, report["verdicts"]) is not None, q.kind


def test_acyclic_table_matches_dfs():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 7)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        outs = np.array([[sum(1 << b for a, b in arcs if a == v) for v in range(n)]],
                        dtype=np.int64)
        table = checks.acyclic_table(n, outs)[0]
        for S in range(1 << n):
            assert bool(table[S]) == (not checks.dfs_has_cycle(n, arcs, S))


def test_rounds_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.digest(workloads.make_round(w, 5, 0))
        assert a == workloads.digest(workloads.make_round(w, 5, 0))
        assert a != workloads.digest(workloads.make_round(w, 6, 0))
