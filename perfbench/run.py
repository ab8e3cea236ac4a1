"""dicolor benchmark: seeded CLI workloads, answer checks and per-layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload dichromatic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client sends one query at a time through
``dicolor.cli.main`` in this process, with no threads.  A run sets up (the
package import, generating the first rounds of queries and writing their
graph files) several times and reports the median, then runs whole rounds
of queries until ``--seconds`` of query time have passed, then checks every
answer outside the timed region.  Query and set-up times are rescaled by a
fixed probe loop timed around each of them, so that the host's drifting
speed does not show (see ``probe``).  With ``--trace 1`` each round runs
twice, untraced and then traced, and the run reports per-layer metrics
instead of end-to-end ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in a fresh process and prints a
table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Query  # noqa: E402

SETUP_REPS = 7
SETUP_ROUNDS = 3
MIN_QUERIES = 100  # so that latency_p90_s has at least 10 samples beyond it
HARD_LIMIT_S = 110.0  # query time after which a run stops mid-round
MAX_TRIES = 64  # the CLI default for certify and certificate
# The host's speed drifts by 30-50% over seconds to minutes, for every
# process alike.  A fixed pure-Python probe runs before and after each
# query, and query times are rescaled to the speed at which the probe takes
# PROBE_REFERENCE_S (its time on a quiet 2-core host, Python 3.11.7).
PROBE_REPS = 3
PROBE_REFERENCE_S = 0.0022

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

# (function, statistic, unit); statistics are means per traced query unless
# the unit says otherwise
PER_LAYER = (
    ("graphs.is_acyclic", "calls", "1/query"),
    ("graphs.is_acyclic", "self_s", "s/query"),
    ("graphs.orientations", "yielded", "1/query"),
    ("graphs.orientations", "visited_frac", "ratio"),
    ("coloring.digraph_chromatic_number", "calls", "1/query"),
    ("coloring.digraph_chromatic_number", "self_s", "s/query"),
    ("coloring.dichromatic_number_exact", "self_s", "s/query"),
    ("families.maximal_acyclic_sets", "calls", "1/query"),
    ("families.maximal_acyclic_sets", "returned", "1/query"),
    ("families.maximal_acyclic_sets", "self_s", "s/query"),
    ("simplex.simplex_max", "calls", "1/query"),
    ("simplex.simplex_max", "rows", "1/call"),
    ("simplex.simplex_max", "self_s", "s/query"),
    ("coloring.fractional_chromatic_with_dual", "calls", "1/query"),
    ("coloring.fractional_chromatic_with_dual", "self_s", "s/query"),
    ("coloring.digraph_fractional_chromatic", "calls", "1/query"),
    ("coloring.digraph_fractional_chromatic", "self_s", "s/query"),
    ("coloring.fractional_dichromatic", "self_s", "s/query"),
    ("families.maximal_independent_sets", "calls", "1/query"),
    ("families.maximal_independent_sets", "yielded", "1/query"),
    ("families.maximal_independent_sets", "self_s", "s/query"),
    ("coloring.chromatic_number", "self_s", "s/query"),
    ("certify.enumerate_principal_dense", "yielded", "1/query"),
    ("certify.enumerate_principal_dense", "self_s", "s/query"),
    ("certify.certify_orientation", "calls", "1/query"),
    ("certify.certify_orientation", "self_s", "s/query"),
    ("certify.find_good_orientation", "tries", "1/query"),
    ("certify.find_good_orientation", "certified_ratio", "ratio"),
    ("certify.cover_bound_certificate", "self_s", "s/query"),
    ("graphs.random_orientation", "calls", "1/query"),
    ("sparse.ranked_order", "calls", "1/query"),
    ("sparse.ranked_order", "self_s", "s/query"),
    ("cli.main", "calls", "1/query"),
    ("cli.main", "self_s", "s/query"),
    ("cli.main", "exit_nonzero", "1/query"),
    ("io.load_graph_file", "self_s", "s/query"),
    ("io.build_graph", "self_s", "s/query"),
)

# predicted hot spots: functions whose summed self time should exceed half
# of all traced self time on the workload
HOT_SPOTS = {
    "dichromatic": ("graphs.is_acyclic", "families.maximal_acyclic_sets"),
    "fractional": ("simplex.simplex_max",),
    "certify": ("certify.enumerate_principal_dense", "graphs.is_acyclic"),
}
# per-layer metrics predicted to be zero on a workload
ZERO_ON = {
    "fractional": ("graphs.is_acyclic.calls", "graphs.orientations.yielded"),
    "certify": ("graphs.orientations.yielded",),
}


@dataclass
class Outcome:
    query: Query
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    error: str | None  # traceback of an exception that escaped cli.main
    probe: float = PROBE_REFERENCE_S  # probe time around the query, see run_round

    @property
    def scaled(self) -> float:
        """Query time at the machine speed where the probe takes PROBE_REFERENCE_S."""
        return self.seconds * PROBE_REFERENCE_S / self.probe


# ------------------------------------------------------------------ set-up


def _forget_package() -> None:
    for name in [n for n in sys.modules if n == "dicolor" or n.startswith("dicolor.")]:
        del sys.modules[name]


def write_round(queries: list[Query], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for q in queries:
        path = directory / q.instance.file_name()
        if not path.exists():
            path.write_text(json.dumps(q.instance.to_json()), encoding="utf-8")


def set_up(workload: str, seed: int, work: Path):
    """Import the package, generate and write the first rounds; repeated.

    Returns the median set-up time, scaled like query times, and the raw one."""
    times, raw = [], []
    before = probe()
    for rep in range(SETUP_REPS):
        _forget_package()
        directory = work / f"setup{rep}"
        start = time.perf_counter()
        cli = importlib.import_module("dicolor.cli")
        rounds = [workloads.make_round(workload, seed, r) for r in range(SETUP_ROUNDS)]
        for queries in rounds:
            write_round(queries, directory)
        raw.append(time.perf_counter() - start)
        after = probe()
        times.append(raw[-1] * PROBE_REFERENCE_S / ((before + after) / 2))
        before = after
        if rep < SETUP_REPS - 1:
            shutil.rmtree(directory)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported dicolor from {cli.__file__}, not from {SRC}")
    return statistics.median(times), statistics.median(raw), rounds, cli, directory


# ------------------------------------------------------------------ queries


def run_query(cli, query: Query, directory: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    argv = query.argv(str(directory / query.instance.file_name()))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # MemoryError included: record it and keep going
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return Outcome(query, seconds, code, out.getvalue(), err.getvalue(), error)


# a fixed digraph on 12 vertices for the probe, as in-neighbour masks
_PROBE_IN = [(v * 2654435761 >> 7) & 0xFFF & ~(1 << v) & ((1 << v) - 1) for v in range(12)]


def _peel(within: int) -> bool:
    live = within
    while live:
        removable, m = 0, live
        while m:
            low = m & -m
            m ^= low
            if not (_PROBE_IN[low.bit_length() - 1] & live):
                removable |= low
        if not removable:
            return False
        live &= ~removable
    return True


def probe() -> float:
    """Median time of a fixed loop of the kinds of work the library does:
    Fraction arithmetic, bit-mask peeling, and small lists and dicts.  It
    measures the machine, not the program, and never changes with it."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        x = Fraction(0)
        for i in range(1, 150):
            x += Fraction(i % 7, i)
        acyclic = sum(_peel(S) for S in range(1, 1 << 12, 7))
        seen: dict[int, int] = {}
        for i in range(600):
            key = (i * 7919) % 613
            seen[key] = seen.get(key, 0) + len([j for j in range(i % 9)])
        times.append(time.perf_counter() - start)
        assert acyclic > 0 and x > 0 and seen
    return statistics.median(times)


def run_round(cli, queries: list[Query], directory: Path, tracer=None, deadline=None):
    """Runs the queries in order, each between two probes, whose mean it keeps."""
    outcomes = []
    start = time.perf_counter()
    before = probe()
    for q in queries:
        if deadline is not None and time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.begin_query(q.qid)
        o = run_query(cli, q, directory)
        if tracer is not None:
            tracer.end_query()
        after = probe()
        o.probe = (before + after) / 2
        before = after
        outcomes.append(o)
    return outcomes, time.perf_counter() - start


def rounds_of(workload: str, seed: int, first: list[list[Query]], directory: Path):
    """Round r, generated and written outside the timed region when r is new."""
    r = 0
    while True:
        if r < len(first):
            yield first[r]
        else:
            queries = workloads.make_round(workload, seed, r)
            write_round(queries, directory)
            yield queries
        r += 1


# ------------------------------------------------------------------ checks


class Judge:
    """Classifies outcomes as passed or failed, with per-instance caches."""

    def __init__(self, cli, directory: Path):
        import checks  # numpy, scipy and networkx load only after peak_rss_mb is read

        self.checks = checks
        self.cli = cli
        self.directory = directory
        self.mis: dict = {}
        self.dichif: dict = {}
        self.duals: dict = {}
        self.judged: dict = {}

    def failure(self, o: Outcome) -> str | None:
        if o.error is not None:
            return "exception: " + o.error.strip().splitlines()[-1]
        if o.code != 0:
            kind = ""
            with contextlib.suppress(ValueError, KeyError, TypeError):
                kind = json.loads(o.stderr)["error"]["kind"]
            return f"exit {o.code} {kind}".strip()
        try:
            report = json.loads(o.stdout)
            results, verdicts = report["results"], report.get("verdicts", {})
            key = (o.query, json.dumps([results, verdicts], sort_keys=True))
            if key not in self.judged:  # a traced rerun with the same answer
                self.judged[key] = self.check(o.query, results, verdicts)
            return self.judged[key]
        except Exception as exc:  # a malformed report is a failed answer
            return f"check raised {type(exc).__name__}: {exc}"

    def check(self, q: Query, results: dict, verdicts: dict) -> str | None:
        c, inst = self.checks, q.instance
        if q.kind == "chi":
            return c.check_chi(inst, results)
        if q.kind == "chif":
            return c.check_chif(inst, results, verdicts, self.maximal_sets(inst))
        if q.kind == "dichi":
            return c.check_dichi(inst, results)
        if q.kind == "dichif":
            if inst not in self.dichif:
                self.dichif[inst] = c.dichif_reference(inst)
            return c.check_dichif(results, self.dichif[inst])
        return c.check_certify(q, results, self.weights(q), MAX_TRIES)

    def maximal_sets(self, inst) -> list[int]:
        if inst not in self.mis:
            self.mis[inst] = self.checks.maximal_independent_sets(inst)
        return self.mis[inst]

    def weights(self, q: Query) -> list[Fraction]:
        inst = q.instance
        if inst.weights is not None:
            return [Fraction(w) for w in inst.weights]
        if q.kind == "certify":
            return [Fraction(1)] * inst.n
        # certificate's default weighting is the optimal clique weighting that
        # `compute chif` reports; it is checked here before it is used
        if inst not in self.duals:
            chif = run_query(self.cli, Query("dual", "chif", inst), self.directory)
            report = json.loads(chif.stdout)
            bad = self.checks.check_chif(inst, report["results"], report["verdicts"],
                                         self.maximal_sets(inst))
            if bad:
                raise ValueError(f"default weighting: {bad}")
            self.duals[inst] = [Fraction(x) for x in report["results"]["dual_weighting"]]
        return self.duals[inst]


def workload_property(workload: str, outcomes: list[Outcome], judge: Judge) -> tuple[str, float]:
    """The input property later changes must cite, measured on this run."""
    if workload == "dichromatic":
        low = [workloads.degeneracy(o.query.instance.n, o.query.instance.edges) <= 3
               for o in outcomes]
        return "share_le3_degenerate", sum(low) / len(low)
    if workload == "fractional":
        chif = [o for o in outcomes if o.query.kind == "chif"]
        big = [len(judge.maximal_sets(o.query.instance)) > 100 for o in chif]
        return "share_chif_over_100_mis", sum(big) / max(len(big), 1)
    tries = []
    for o in outcomes:
        with contextlib.suppress(ValueError, KeyError):
            tries.append(json.loads(o.stdout)["results"]["tries"])
    return "mean_tries", statistics.mean(tries) if tries else float("nan")


# ------------------------------------------------------------------ metrics


def latency_metrics(lat: list[float]) -> dict[str, float]:
    return {
        "throughput_qps": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def layer_metrics(tracer, traced: int, overhead: float) -> dict[str, float]:
    from tracer import Stat

    totals = tracer.totals()
    out = {}
    for fname, stat, _ in PER_LAYER:
        s = totals.get(fname) or Stat()
        if stat == "self_s":
            value = s.self / traced
        elif stat == "calls":
            value = s.calls / traced
        elif stat == "yielded":
            value = s.yielded / traced
        elif stat == "visited_frac":
            value = s.yielded / s.extra["space"] if s.extra["space"] else 0.0
        elif stat == "rows":
            value = s.extra["rows"] / s.calls if s.calls else 0.0
        elif stat == "certified_ratio":
            value = s.extra["certified"] / s.extra["tries"] if s.extra["tries"] else 0.0
        else:
            value = s.extra[stat] / traced
        out[f"{fname}.{stat}"] = value
    out["trace.overhead_frac"] = overhead
    return out


def layer_units() -> dict[str, str]:
    units = {f"{fname}.{stat}": unit for fname, stat, unit in PER_LAYER}
    units["trace.overhead_frac"] = "ratio"
    return units


def hot_spot_report(workload: str, tracer, values: dict[str, float]) -> list[str]:
    totals = tracer.totals()
    all_self = sum(s.self for s in totals.values())
    lines = ["self-time shares:"]
    for fname, s in sorted(totals.items(), key=lambda kv: -kv[1].self)[:8]:
        lines.append(f"  {fname:45s} {s.self / all_self:7.1%}  calls={s.calls}")
    hot = HOT_SPOTS[workload]
    share = sum(totals[f].self for f in hot if f in totals) / all_self
    lines.append(f"prediction {' + '.join(hot)} > 50% of self time: {share:.1%} "
                 f"({'held' if share > 0.5 else 'FAILED'})")
    for name in ZERO_ON.get(workload, ()):
        lines.append(f"prediction {name} = 0: {values[name]:g} "
                     f"({'held' if values[name] == 0 else 'FAILED'})")
    return lines


# ------------------------------------------------------------------ runs


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        return _run_in(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, setup_raw, first, cli, directory = set_up(workload, seed, work)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"inputs digest (rounds 0-{SETUP_ROUNDS - 1}): "
          f"{workloads.digest([q for r in first for q in r])}")
    tracer = None
    if trace:
        from tracer import Tracer  # not imported by untraced runs, whose RSS is measured

        tracer = Tracer()
    outcomes: list[Outcome] = []
    traced: list[Outcome] = []
    wall = traced_wall = last_round = 0.0
    deadline = time.perf_counter() + HARD_LIMIT_S
    rounds = 0
    for queries in rounds_of(workload, seed, first, directory):
        enough = len(outcomes) >= MIN_QUERIES or tracer is not None
        # stop at the round boundary nearest to --seconds
        if (wall + traced_wall + last_round / 2 >= seconds and enough) \
                or time.perf_counter() > deadline:
            break
        done, spent = run_round(cli, queries, directory, deadline=deadline)
        outcomes += done
        wall += spent
        last_round = spent
        if tracer is not None:
            tracer.install()
            try:
                done_t, spent_t = run_round(cli, queries[: len(done)], directory, tracer=tracer)
            finally:
                tracer.uninstall()
            traced += done_t
            traced_wall += spent_t
            last_round += spent_t
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    judge = Judge(cli, directory)
    failures = [(o, judge.failure(o)) for o in outcomes + traced]
    if tracer is not None:
        for u, t in zip(outcomes, traced):
            if _answer(u) != _answer(t):
                failures.append((t, "traced answer differs from untraced answer"))
    failed = [(o.query.qid, why) for o, why in failures if why is not None]
    attempted = len(outcomes) + len(traced)
    prop, prop_value = workload_property(workload, outcomes, judge)

    print(f"rounds {rounds}  queries {len(outcomes)}  query phase {wall:.3f} s")
    probes = [o.probe for o in outcomes]
    print(f"probe median {statistics.median(probes) * 1e3:.4f} ms  "
          f"min {min(probes) * 1e3:.4f} ms  max {max(probes) * 1e3:.4f} ms")
    if tracer is None:
        raw = latency_metrics([o.seconds for o in outcomes])
        print("unscaled: setup_s {:.6g}  throughput_qps {:.6g}  latency_p50_s {:.6g}  "
              "latency_p90_s {:.6g}".format(setup_raw, *raw.values()))
    print(f"{prop} {prop_value:.4f}")
    print(f"error_rate {len(failed) / attempted:.4f} ratio ({len(failed)} of {attempted})")
    for qid, why in failed[:20]:
        print(f"FAILED {qid}: {why}")
    if tracer is None:
        values = {"setup_s": setup_s, **latency_metrics([o.scaled for o in outcomes]),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        # query times only: the probes between queries are not traced
        overhead = (sum(t.seconds for t in traced)
                    / sum(u.seconds for u in outcomes[: len(traced)]) - 1.0)
        values = layer_metrics(tracer, len(traced), overhead)
        units = layer_units()
        for line in hot_spot_report(workload, tracer, values):
            print(line)
        if tracer.leftover_wrappers():
            raise RuntimeError(f"wrappers left installed: {tracer.leftover_wrappers()}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _answer(o: Outcome):
    try:
        report = json.loads(o.stdout)
    except ValueError:
        return (o.code, o.error is not None)
    return (o.code, report.get("results"), report.get("verdicts"))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; prints one table."""
    rows = {}
    status = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            print(f"[{w}] {line}")
        rows[w] = json.loads(lines[-1])
    for w, r in rows.items():
        print(f"\n{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        print(f"  {'error_rate':34s} {r['failed'] / r['attempted']:.6g} ratio")
        for name, m in r["metrics"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dicolor" / "cli.py").is_file():
        print(f"error: {SRC / 'dicolor'} not found; run from a dicolor checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
