"""CLI: parsing, exit codes, determinism, round trips."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import dicolor
from dicolor.cli import _parse_args, _parser, _ser, main
from dicolor.errors import BudgetExceededError, GraphFormatError, InputError, format_count
from dicolor.io import (
    build_digraph,
    build_graph,
    format_fraction,
    graph_to_dict,
    load_graph_file,
    parse_fraction,
    parse_graph_text,
)
from dicolor.graphs import Graph, complete_graph, path_graph
from dicolor.sparse import Weighting
from fractions import Fraction


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


K3_JSON = '{"n":3,"edges":[[0,1],[1,2],[0,2]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_json_graph():
    data = parse_graph_text(K3_JSON)
    G, w = build_graph(data)
    assert G.n == 3 and len(G.edges) == 3 and w is None


def test_parse_edge_list():
    data = parse_graph_text("3 2\n0 1\n1 2\n")
    G, _ = build_graph(data)
    assert G.edges == ((0, 1), (1, 2))
    with pytest.raises(GraphFormatError):
        parse_graph_text("3 2\n0 1\n")  # header promises two edges


def test_parse_weights():
    data = parse_graph_text('{"n":2,"edges":[[0,1]],"weights":["1/2","3"]}')
    _, w = build_graph(data)
    assert w.values == (Fraction(1, 2), Fraction(3))
    with pytest.raises(GraphFormatError):
        parse_graph_text('{"n":2,"edges":[[0,1]],"weights":["3/0","1"]}')
    # an exponent may not make more digits than Python reads into an int
    assert parse_fraction("-2.5e-3") == Fraction(-1, 400)
    assert parse_fraction("1e4299") == 10**4299
    for text in ("1e4300", "12e4299", "1e99999999", "1e-99999999", "1e" + "9" * 5000):
        with pytest.raises(GraphFormatError):
            parse_fraction(text)


def test_parse_errors_carry_position():
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text('{"n":2,"edges":[[0,1],]}')
    assert "line" in str(err.value)


def test_vertex_count_is_gated_when_the_file_is_read():
    for text in ("4097 0\n", '{"n": 4097, "edges": [], "weights": ["1"]}',
                 '{"n": 1' + "0" * 400 + ', "edges": []}'):
        with pytest.raises(BudgetExceededError):
            parse_graph_text(text)
    assert parse_graph_text("4096 0\n").n == 4096
    assert parse_graph_text('{"n": 4096, "edges": []}').n == 4096


def test_duplicate_edge_rejected():
    with pytest.raises(Exception):
        build_graph(parse_graph_text('{"n":3,"edges":[[0,1],[1,0]]}'))


def test_digraph_input_rejects_antiparallel():
    from dicolor.errors import InputError

    with pytest.raises(InputError):
        build_digraph(parse_graph_text('{"n":3,"edges":[[0,1],[1,0],[1,2]]}'))


def test_fraction_round_trip():
    assert format_fraction(Fraction(5, 2)) == "5/2"
    assert format_fraction(Fraction(4)) == "4/1"
    assert parse_fraction("5/2") == Fraction(5, 2)


def test_graph_round_trip(tmp_path):
    G = complete_graph(4)
    text = json.dumps(graph_to_dict(G, Weighting.uniform(4)))
    G2, w2 = build_graph(parse_graph_text(text))
    assert G2.n == G.n and G2.edges == G.edges
    assert w2.values == Weighting.uniform(4).values


def test_compute_chif_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, out, err = run_cli(capsys, "compute", "chif", path)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["chif"] == "3/1"
    assert report["verdicts"]["strong_duality"] is True


def test_compute_on_petersen_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "kneser", "5", "2",
                           "--out", str(tmp_path / "pet.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "compute", "chif", str(tmp_path / "pet.json"))
    assert code == 0
    assert json.loads(out)["results"]["chif"] == "5/2"


def test_exit_code_invalid_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"n":3,"edges":[[0,7]]}')
    code, out, err = run_cli(capsys, "compute", "chi", path)
    assert code == 3
    assert "invalid-input" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "compute", "chi", "/nonexistent/file.json")
    assert code == 3


def test_exit_code_budget(tmp_path, capsys):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, _, err = run_cli(capsys, "compute", "chi", path, "--budget", "2")
    assert code == 2
    assert "budget-exceeded" in err


@pytest.mark.parametrize("argv", [
    ["compute", "dichi", "K3"],
    ["compute", "chi", "K3"],
    ["construct", "complete", "3"],
    ["construct", "kneser", "5", "2"],
])
def test_budget_zero_is_a_budget_and_negative_is_invalid(tmp_path, capsys, argv):
    # --budget 0 is a budget, not the default: the triangle's 3 edges and 3
    # vertices and the 3 or 10 vertices to build all pass it
    path = write(tmp_path, "k3.json", K3_JSON)
    argv = [path if a == "K3" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "budget-exceeded"
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invalid-input" and "--budget" in error["message"]


def test_exit_code_certification_failure(tmp_path, capsys):
    # all four triangles of K_4 can never be simultaneously cyclic
    k4 = json.dumps(graph_to_dict(complete_graph(4)))
    path = write(tmp_path, "k4.json", k4)
    code, _, err = run_cli(capsys, "certify", path, "--t", "4", "--d", "2", "--max-tries", "8")
    assert code == 1
    assert "tries-exhausted" in err


def test_certify_success(tmp_path, capsys):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, out, _ = run_cli(capsys, "certify", path, "--t", "1", "--d", "2",
                           "--seed", "7", "--max-tries", "64")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["certified"] is True


def test_certificate_strict_gates(tmp_path, capsys):
    code, _, err = run_cli(capsys, "construct", "kneser", "5", "2",
                           "--out", str(tmp_path / "pet.json"))
    code, _, err = run_cli(capsys, "certificate", str(tmp_path / "pet.json"), "--strict")
    assert code == 1
    assert "hypotheses-not-met" in err


def test_certificate_relaxed(tmp_path, capsys):
    graph = {
        "n": 6,
        "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [4, 5]],
        "weights": ["1/1", "1/1", "1/1", "1/2", "1/2", "1/2"],
    }
    path = write(tmp_path, "g.json", json.dumps(graph))
    code, out, _ = run_cli(capsys, "certificate", path, "--t", "9/2", "--d", "2", "--seed", "11")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["ratio"] == "9/16"
    assert report["results"]["max_acyclic_weight"] == "7/2"


def test_bounds_subcommands(capsys):
    code, out, _ = run_cli(capsys, "bounds", "kneser-z", "200", "2")
    assert code == 0 and json.loads(out)["results"]["bound"] == 3
    code, out, _ = run_cli(capsys, "bounds", "complete", "1024")
    assert code == 0 and abs(json.loads(out)["results"]["bound"] - 51.2) < 1e-12
    code, out, _ = run_cli(capsys, "bounds", "union-bound", "60")
    rep = json.loads(out)
    assert code == 0 and rep["verdicts"]["bounded_below_one"] is True
    code, out, _ = run_cli(capsys, "bounds", "biclique-cond", "16", "1")
    assert code == 0 and json.loads(out)["results"]["holds"] is True
    code, out, _ = run_cli(capsys, "bounds", "binom", "2", "3")
    assert code == 0 and json.loads(out)["results"]["holds"] is True


def test_bounds_domain_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "kneser-z", "3", "2")
    assert code == 3


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_cli_process(*argv, timeout=30):
    """The CLI in a child process, under a 2 GB address-space limit and a
    timeout, so a hang, a MemoryError or a traceback fails the test fast."""
    src = os.path.dirname(os.path.dirname(dicolor.__file__))
    return subprocess.run(
        [sys.executable, "-m", "dicolor.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=timeout, preexec_fn=_limit_memory,
    )


def test_bounds_with_huge_powers_of_two():
    # 4 m^2 <= 2^r with r near 4e11 once built 2^r and died of MemoryError
    for argv in (["kneser-ineq", "80"], ["biclique-cond", "100000000000", "1"]):
        done = run_cli_process("bounds", *argv)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["results"]


def test_union_bound_with_large_denominator_ends():
    # t^(8q) with q = 10^7 was built before the bracket's exponent guard
    done = run_cli_process("bounds", "union-bound", "600000001/10000000", "3")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["hypothesis_ok"] is True


@pytest.mark.parametrize("argv", [
    ["bounds", "kneser-ineq", "100000000"],
    ["bounds", "kneser-z", "1000000000000000000000", "2"],
    ["bounds", "kneser-z", "1" + "0" * 400, "2"],
    ["construct", "kneser", "100000", "50000"],
    ["compute", "dichi", "K200"],
    ["compute", "dichif", "K200"],
    ["construct", "complete", "30000"],
    ["construct", "embed", "1000", "3", "2", "1"],
    ["construct", "embed", "100", "10", "5", "3"],
    ["compute", "dichi", "HUGE_N"],
    ["certify", "HUGE_N", "--t", "1", "--d", "2"],
])
def test_huge_sizes_are_budget_errors(tmp_path, argv):
    # 2^19900 and C(100000, 50000) pass Python's int-to-str digit limit, and
    # the Kneser bounds once built integers of about n bits before any guard;
    # K_30000's edge list passes no gate and fills the 2 GB limit instead.
    # The embeddings listed all C(n, k) subsets before any gate (MemoryError),
    # and a file declaring 10^8 vertices kept dichi busy past 60 s and made
    # certify die of MemoryError after 38 s
    files = {
        "K200": write(tmp_path, "k200.json", json.dumps(graph_to_dict(complete_graph(200)))),
        "HUGE_N": write(tmp_path, "huge.json", '{"n": 100000000, "edges": []}'),
    }
    done = run_cli_process(*[files.get(a, a) for a in argv])
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert json.loads(done.stderr)["error"]["kind"] == "budget-exceeded"


@pytest.mark.parametrize("body", [
    '{"n": 2, "edges": 5}',
    '{"n": 2, "edges": null}',
    '{"n": 2, "edges": "01"}',
    '{"n": 2, "edges": [[0, 1]], "weights": 5}',
    '{"n": 2, "edges": [[0, 1]], "weights": "12"}',
    '{"n": 2, "edges": [[0, 1]], "labels": 5}',
    '{"n": true, "edges": []}',
    '{"n": 2, "edges": [[0, true]]}',
    '{"n": 2, "edges": [[false, 1]]}',
])
def test_json_fields_of_the_wrong_type_are_format_errors(tmp_path, body):
    # a field that is not a list once ended in a TypeError traceback, and
    # JSON true passed as the integer 1: as n it gave a 1-vertex graph, and
    # as an endpoint it was printed back as a witness arc [true, 0]
    done = run_cli_process("compute", "dichi", write(tmp_path, "g.json", body))
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["error"]["kind"] == "invalid-input"


DEEP = "[" * 200000 + "]" * 200000
HUGE_INT = "1" + "0" * 5000


@pytest.mark.parametrize("body", [
    '{"n": 2, "edges": %s}' % DEEP,
    '{"n": 2, "edges": [], "labels": %s}' % DEEP,
    '{"n": %s, "edges": []}' % HUGE_INT,
    '{"n": 2, "edges": [[0, %s]]}' % HUGE_INT,
], ids=["deep-edges", "deep-labels", "long-n", "long-endpoint"])
def test_deep_or_long_json_values_are_format_errors(tmp_path, body):
    # json.loads raised RecursionError past the recursion limit, and a bare
    # ValueError for an integer past Python's 4,300-digit limit; cli.main
    # caught neither, so both ended in a traceback with exit 1
    done = run_cli_process("compute", "chi", write(tmp_path, "g.json", body))
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    error = json.loads(done.stderr)["error"]
    assert error["kind"] == "invalid-input" and error["message"].startswith("invalid JSON")


# JSON values as text, so that integers past Python's digit limit, NaN and
# infinities can be written: small, huge, negative, boolean and float
# numbers, strings, null, and empty or deeply nested arrays and objects
_JSON_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-2**80, 2**80).map(str),
    st.sampled_from([HUGE_INT, "-" + HUGE_INT, "true", "false", "null", "2.0", "2.5", "-0.0",
                     "1e400", "-1e400", "NaN", "Infinity", '"3"', '"1/2"', "{}", "[]", '{"n": 1}']),
    st.integers(1, 3000).map(lambda d: "[" * d + "]" * d),
    st.just(DEEP),
)
_PAIRS = st.one_of(
    st.tuples(_JSON_TOKENS, _JSON_TOKENS).map(lambda uv: "[%s, %s]" % uv),
    st.integers(0, 6).map(lambda v: "[%d, %d]" % (v, v + 1)),
    _JSON_TOKENS,
)
_JSON_LISTS = st.one_of(st.lists(_PAIRS, max_size=5).map(lambda xs: "[" + ", ".join(xs) + "]"),
                        _JSON_TOKENS)


@st.composite
def _graph_file_bodies(draw):
    if draw(st.booleans()):
        fields = {"n": draw(st.one_of(st.integers(0, 8).map(str), _JSON_TOKENS)),
                  "edges": draw(_JSON_LISTS)}
        for key in ("weights", "labels"):
            if draw(st.booleans()):
                fields[key] = draw(_JSON_LISTS)
        for key in draw(st.sets(st.sampled_from(["n", "edges"]), max_size=1)):
            del fields[key]
        return "{" + ", ".join('"%s": %s' % kv for kv in fields.items()) + "}"
    # edge list: a header "n m", then pairs, with any token in either place
    tokens = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(
        [HUGE_INT, "-" + HUGE_INT, str(2**70), "2.5", "1e3", "x", "", "1 2 3", "# note"]))
    lines = draw(st.lists(st.tuples(tokens, tokens).map(" ".join), min_size=0, max_size=6))
    return "\n".join(lines) + "\n"


@st.composite
def _raw_graph_file_bodies(draw):
    """A body as bytes, with \\r\\n or \\r line ends, a UTF-8 byte-order mark
    in front, or bytes that are not UTF-8 put in somewhere."""
    data = draw(_graph_file_bodies()).encode("utf-8")
    data = data.replace(b"\n", draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))
        data = data[:at] + bad + data[at:]
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(body=st.one_of(_graph_file_bodies(), _raw_graph_file_bodies()),
       argv=st.sampled_from([["compute", "chi"], ["compute", "dichif"], ["compute", "digraph-chi"],
                             ["certificate", "--t", "1", "--d", "1"]]))
@example(body='{"n": 2, "edges": %s}' % DEEP, argv=["compute", "chi"])
@example(body='{"n": 2, "edges": [], "labels": %s}' % DEEP, argv=["compute", "chi"])
@example(body='{"n": 1, "edges": [], "weights": ["1e99999999"]}', argv=["compute", "chi"])
@example(body='{"n": 1, "edges": [], "weights": ["1e-99999999"]}',
         argv=["certificate", "--t", "1", "--d", "1"])
@example(body=b'{"n": 1, "edges": [], "labels": ["\xff\xfe"]}', argv=["compute", "chi"])
@example(body=b'\xef\xbb\xbf{"n": 1, "edges": []}', argv=["compute", "chi"])
@example(body=b'{"n": 2,\r\n "edges": [[0, 1]],\r\n "labels": x}', argv=["compute", "chi"])
@example(body=b"2 1\r0 1\r", argv=["compute", "digraph-chi"])
@example(body=None, argv=["compute", "chi"])
@example(body=None, argv=["certificate", "--t", "1", "--d", "1"])
def test_adversarial_graph_files_end_in_one_json_line(tmp_path_factory, body, argv):
    # whatever the file holds, cli.main returns an exit code and prints one
    # strict JSON line, a report or an error, and no exception escapes it.
    # A weight of 1e99999999 or 1e-99999999 built 10^99999999 and ran past
    # 20 s; it is refused by its digits. A body of bytes is written as it is;
    # bytes that are not UTF-8 (UnicodeDecodeError) and a directory in place
    # of the file (body None, IsADirectoryError) ended in a traceback
    path = tmp_path_factory.getbasetemp() / "adversarial.json"
    if body is None:
        path = path.parent
    elif isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body, encoding="utf-8")
    path = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv[:2] + [path] + argv[2:])
    assert code in (0, 1, 2, 3)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1
    json.loads(lines[0], parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(body=_raw_graph_file_bodies())
@example(body=b'{"n": 2,\r\n "edges": [[0, 1]],\r "labels": x}')
@example(body=b'{"n": 1,\r\n "edges": [], "labels": ["a\r\nb"]}')
@example(body=b"2 1\r\n0 1\r\n# note\r\n1 2 3\r")
def test_graph_files_read_as_a_text_mode_read_would(tmp_path_factory, body):
    # load_graph_file reads bytes and decodes them; a text-mode read, which
    # it replaced, made \\r\\n and \\r into \\n, so the same data, error
    # messages and line and column numbers must come back. Bytes that are
    # not UTF-8 are a format error instead of a UnicodeDecodeError
    path = tmp_path_factory.getbasetemp() / "raw.json"
    path.write_bytes(body)

    def outcome(read):
        try:
            return None, read()
        except Exception as exc:
            return type(exc), str(exc)

    want = outcome(lambda: parse_graph_text(path.read_text(encoding="utf-8")))
    got = outcome(lambda: load_graph_file(str(path)))
    if want[0] is UnicodeDecodeError:
        assert got[0] is GraphFormatError and got[1].startswith("graph file is not UTF-8: ")
    else:
        assert got == want


@pytest.mark.parametrize("command", ["certify", "certificate"])
def test_max_tries_is_gated_before_the_first_try(tmp_path, command):
    # every edge of K4 is a principal set of average degree 1 at t = 3 and
    # always acyclic, so 10^20 tries never ended (a 20 s timeout stopped
    # them); the candidates of all tries together are now gated up front
    k4 = write(tmp_path, "k4.json", json.dumps(graph_to_dict(complete_graph(4))))
    done = run_cli_process(command, k4, "--t", "3", "--d", "1", "--max-tries", "1" + "0" * 20,
                           timeout=10)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    error = json.loads(done.stderr)["error"]
    assert error["kind"] == "budget-exceeded"
    assert error["message"].startswith("principal-dense candidates over all tries")


def test_certificate_weight_search_deeper_than_the_recursion_limit(tmp_path):
    # no set is principal at t = 1/2, and the heaviest acyclic set of an
    # edgeless graph is all of it: its search once recursed once per vertex
    # and died of RecursionError with a traceback
    graph = {"n": 1100, "edges": [], "weights": ["1/1"] * 1100}
    path = write(tmp_path, "edgeless.json", json.dumps(graph))
    done = run_cli_process("certificate", path, "--t", "1/2", "--d", "1")
    assert done.returncode == 1, done.stderr  # 1100 > 2d+4 = 6, reported as not certified
    assert json.loads(done.stdout)["results"]["max_acyclic_weight"] == "1100/1"


def test_kneser_construction_is_gated_before_the_binomial():
    # C(10^6, 5 * 10^5) was computed exactly before the vertex gate, which
    # took 8 s; the capped binomial stops once it passes 2^64 times the budget
    done = run_cli_process("construct", "kneser", "1000000", "500000", timeout=5)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    error = json.loads(done.stderr)["error"]
    assert error["kind"] == "budget-exceeded"
    assert error["needed"].startswith(">2^") and error["limit"] == "4096"


@pytest.mark.parametrize("argv, code", [
    # d = 2 log2(e t^2) <= -1 made log2(d + 1) a math domain error
    (["union-bound", "1/1000"], 3),
    (["union-bound", "1/2"], 3),
    # q^k and 2^log2_term overflowed the float range
    (["union-bound", "3/2"], 0),
    (["union-bound", "3", "1000"], 0),
    (["union-bound", "1" + "0" * 400], 3),
    (["union-bound", "60", "100000"], 2),
    # C(floor(t k), k) and (e t)^k were built with about 3 * 10^9 bits
    (["binom", "3", "100000000"], 2),
    # N = 10^400 was converted to a float
    (["complete", "1" + "0" * 400], 2),
    (["blowup-complete", "1" + "0" * 400, "2"], 2),
    (["biclique-cond", "1" + "0" * 400, "1"], 0),
])
def test_bounds_edge_inputs_end_with_json(argv, code):
    done = run_cli_process("bounds", *argv)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    payload = strict_json(done.stdout if code == 0 else done.stderr)
    assert ("results" in payload) if code == 0 else payload["error"]["kind"] in (
        "budget-exceeded", "invalid-input")


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, as jq does."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, field", [
    (["biclique-cond", "1" + "0" * 400, "1" + "0" * 399], "failure_bound"),
    (["union-bound", "3", "1000"], "total"),
])
def test_non_finite_floats_print_as_strings(capsys, argv, field):
    # both printed a bare Infinity, which strict JSON parsers reject
    code, out, _ = run_cli(capsys, "bounds", *argv)
    assert code == 0
    assert strict_json(out)["results"][field] == "inf"
    assert _ser([float("-inf"), float("nan"), 0.5]) == ["-inf", "nan", 0.5]


def test_format_count():
    assert format_count(0) == "0"
    assert format_count(2**64) == str(2**64)
    assert format_count(2**64 + 1) == ">2^64"
    assert format_count(2**19900) == "2^19900"
    assert format_count(3 * 2**20000) == ">2^20001"


def test_sampled_dichif_on_a_forest_needs_a_trial(tmp_path, capsys):
    # the forest shortcut used to answer "1/1" before the trials check
    path = write(tmp_path, "p4.json", json.dumps(graph_to_dict(path_graph(4))))
    code, out, err = run_cli(capsys, "compute", "dichif", path, "--mode", "mc", "--trials", "0")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "invalid-input"


def test_sampled_dichi_on_a_large_forest_is_one(tmp_path, capsys):
    # past the 24-vertex budget of the digraph-chromatic search a forest
    # still answers 1, as in exact mode
    path = write(tmp_path, "p30.json", json.dumps(graph_to_dict(path_graph(30))))
    for mode, key in (("exact", "dichi"), ("mc", "dichi_lower_bound")):
        code, out, _ = run_cli(capsys, "compute", "dichi", path, "--mode", mode)
        assert code == 0 and json.loads(out)["results"][key] == 1


@pytest.mark.parametrize("invariant, needed", [("dichif", 2**31 + 1), ("dichi", 2**29)])
def test_sampled_search_past_the_orientation_budget_is_refused(tmp_path, invariant, needed):
    # K_{5,6} has 30 edges, so 2^31 trials are a sampled dichif search and an
    # exhaustive dichi one over 2^29 codes; both ran past a 20 s timeout
    # with no gate
    k56 = Graph(11, [(a, 5 + b) for a in range(5) for b in range(6)])
    path = write(tmp_path, "k56.json", json.dumps(graph_to_dict(k56)))
    done = run_cli_process("compute", invariant, path, "--mode", "mc",
                           "--trials", str(2**31 + 1), timeout=20)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    error = json.loads(done.stderr)["error"]
    assert error["kind"] == "budget-exceeded"
    assert error["message"].startswith("sampled orientation search")
    assert (error["needed"], error["limit"]) == (str(needed), str(2**20))


def test_sampled_search_within_the_orientation_budget_runs(tmp_path):
    # 10^7 trials on K5 (10 edges) enumerate its 2^9 lower codes, and a
    # forest needs no orientation however many trials are asked for
    k5 = write(tmp_path, "k5.json", json.dumps(graph_to_dict(complete_graph(5))))
    done = run_cli_process("compute", "dichi", k5, "--mode", "mc", "--trials", "10000000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["dichi_lower_bound"] == 2
    p30 = write(tmp_path, "p30.json", json.dumps(graph_to_dict(path_graph(30))))
    for invariant, key, answer in (("dichi", "dichi_lower_bound", 1), ("dichif", "dichif", "1/1")):
        done = run_cli_process("compute", invariant, p30, "--mode", "mc", "--trials", str(2**40))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["results"][key] == answer


@pytest.mark.parametrize("argv", [
    ["bounds", "binom", "3", "notanint"],
    ["bounds", "union-bound", "2", "x"],
    ["construct", "blowup", "GRAPH", "x"],
    ["compute", "chi"],
    ["compute", "chi", "GRAPH", "--threads", "2"],
    ["compute", "chi", "GRAPH", "--seed", "abc"],
    ["bounds", "nosuchbound"],
])
def test_bad_arguments_are_invalid_input(tmp_path, capsys, argv):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, out, err = run_cli(capsys, *[path if a == "GRAPH" else a for a in argv])
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "invalid-input"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: dicolor" in capsys.readouterr().out


def test_parser_is_built_lazily_once_and_keeps_no_state(tmp_path, capsys):
    # importing the CLI builds no parser; the first main call builds the one
    # parser of the process, and no option or default of one call reaches
    # the next
    src = os.path.dirname(os.path.dirname(dicolor.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import dicolor.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30,
    )
    assert done.stdout.strip() == "0", done.stderr
    k3 = write(tmp_path, "k3.json", K3_JSON)
    k4 = write(tmp_path, "k4.json", json.dumps(graph_to_dict(complete_graph(4))))
    parser = _parser()

    code, out, _ = run_cli(capsys, "compute", "dichi", k4, "--mode", "mc", "--trials", "5",
                           "--seed", "9", "--budget", "30")
    rep = json.loads(out)
    assert code == 0 and rep["seed"] == 9 and rep["params"] == {"budget": 30}
    assert "dichi_lower_bound" in rep["results"]

    code, out, _ = run_cli(capsys, "compute", "dichi", k4)
    rep = json.loads(out)
    assert code == 0 and rep["seed"] == 0 and rep["params"] == {"budget": None}
    assert set(rep["results"]) == {"dichi", "witness_arcs"}

    code, _, err = run_cli(capsys, "certify", k4, "--t", "4", "--d", "2", "--max-tries", "2")
    assert code == 1 and json.loads(err)["error"]["tries"] == 2
    code, _, err = run_cli(capsys, "certify", k4, "--t", "4", "--d", "2")
    assert code == 1 and json.loads(err)["error"]["tries"] == 64

    code, out, _ = run_cli(capsys, "construct", "complete", "3", "--out", str(tmp_path / "k.json"))
    assert code == 0 and json.loads(out)["results"] == {"written": str(tmp_path / "k.json")}
    code, _, err = run_cli(capsys, "compute", "chi", k3, "--threads", "2")
    assert code == 3 and json.loads(err)["error"]["kind"] == "invalid-input"
    code, out, _ = run_cli(capsys, "construct", "complete", "3")
    assert code == 0 and json.loads(out)["results"]["n"] == 3

    code, out, _ = run_cli(capsys, "certificate", k3, "--t", "9/2", "--d", "2")
    rep = json.loads(out)
    assert rep["seed"] == 0 and rep["results"]["strict"] is False
    code, _, err = run_cli(capsys, "certificate", k3)
    assert code == 3 and "needs --t and --d" in json.loads(err)["error"]["message"]
    assert _parser() is parser


# argv for the parser oracle: every subcommand with and without options,
# help, the cases the top parser keeps, and malformed command lines
_ARGV_CORPUS = [
    ["compute", "chi", "g.json"],
    ["compute", "dichi", "g.json", "--mode", "mc", "--trials", "5", "--seed", "9", "--budget", "30"],
    ["compute", "dichif", "g.json", "--mode=mc", "--trials=7"],
    ["compute", "digraph-chif", "g.json", "--se", "3", "--bud", "4"],
    ["compute", "--seed", "2", "alphaf", "g.json"],
    ["certify", "g.json", "--t", "3/2", "--d", "31/4"],
    ["certify", "g.json", "--t", "1", "--d", "2", "--max-tries", "3", "--seed", "4", "--budget", "5"],
    ["certificate", "g.json"],
    ["certificate", "g.json", "--strict", "--max-tries", "2"],
    ["certificate", "g.json", "--t", "9/2", "--d", "2"],
    ["construct", "kneser", "5", "2"],
    ["construct", "complete", "-3"],
    ["construct", "blowup", "g.json", "2", "--out", "o.json"],
    ["construct", "embed", "5", "2", "2", "1", "--case", "x<t", "--budget", "40"],
    ["bounds", "union-bound", "3/2", "10"],
    ["bounds", "binom", "3", "4"],
    ["verify"],
    ["verify", "--suite", "core", "--out", "x.csv", "--seed", "1"],
    *([name, flag] for name in ("compute", "certify", "certificate", "construct", "bounds",
                                "verify") for flag in ("-h", "--help")),
    ["compute", "chi", "g.json", "-h"],
    [],
    ["-h"],
    ["--help"],
    ["nosuch"],
    ["Compute", "chi", "g.json"],
    ["comp", "chi", "g.json"],
    ["--seed", "1", "compute", "chi", "g.json"],
    ["--", "compute", "chi", "g.json"],
    ["-x"],
    ["compute", "--", "chi", "g.json"],
    ["compute", "chi", "--", "g.json"],
    ["compute", "chi", "g.json", "--", "--seed", "1"],
    ["compute", "chi", "g.json", "--"],
    ["compute", "chi", "g.json", "--threads", "2"],
    ["compute", "chi", "g.json", "-x", "extra", "more"],
    ["compute", "chi", "g.json", "extra"],
    ["compute", "chi", "g.json", "--seed"],
    ["compute", "chi", "g.json", "--seed", "abc"],
    ["compute", "chi", "g.json", "--budget", "1.5"],
    ["compute", "chi", "g.json", "--trials", "-1"],
    ["compute", "chi", "g.json", "--mode", "fast"],
    ["compute", "chi"],
    ["compute", "nosuch", "g.json"],
    ["compute"],
    ["certify", "g.json", "--t", "1"],
    ["certify", "g.json", "--t", "-1/2", "--d", "1"],
    ["certify", "g.json", "--t=-1/2", "--d", "1"],
    ["certify", "g.json", "--t", "-1e5", "--d", "-.5"],
    ["certificate", "g.json", "--t", "1", "--d", "-1/2"],
    ["certificate", "g.json", "--t", "1", "--d=-1/2"],
    ["bounds", "union-bound", "-1/2"],
    ["bounds", "union-bound", "--", "-1/2"],
    ["bounds", "union-bound", "-2"],
    ["bounds", "binom", "-3/2", "4"],
    ["bounds", "binom", "--", "-3/2", "4"],
    ["certify", "g.json", "--t", "1", "--d", "1", "--max-tries", "x"],
    ["certify"],
    ["certificate", "g.json", "--strict", "yes"],
    ["construct", "nosuch"],
    ["construct"],
    ["bounds"],
    ["bounds", "nosuch", "1"],
    ["verify", "--suite", "nosuch"],
    ["verify", "extra"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = "args", vars(parse(list(argv)))
    except InputError as exc:
        outcome = "error", str(exc)
    except SystemExit as exc:
        outcome = "exit", exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", _ARGV_CORPUS)
def test_direct_dispatch_parses_as_the_top_parser(capsys, argv):
    # main hands a known subcommand's arguments to that subcommand's parser
    # alone; the namespace, the usage error, the exit code and the help text
    # must be those of the one top-level parse it replaced
    assert _parse_outcome(_parse_args, argv, capsys) == \
        _parse_outcome(_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv, explicit", [
    (["certify", "K4", "--t", "-1/2", "--d", "1"], ["certify", "K4", "--t=-1/2", "--d", "1"]),
    (["certify", "K4", "--t", "1", "--d", "-1/2"], ["certify", "K4", "--t", "1", "--d=-1/2"]),
    (["certificate", "K4", "--t", "1", "--d", "-1/2"],
     ["certificate", "K4", "--t", "1", "--d=-1/2"]),
    (["certificate", "K4", "--t", "-1/2", "--d", "1"],
     ["certificate", "K4", "--t=-1/2", "--d", "1"]),
    (["bounds", "union-bound", "-1/2"], ["bounds", "union-bound", "--", "-1/2"]),
    (["bounds", "binom", "-3/2", "4"], ["bounds", "binom", "--", "-3/2", "4"]),
])
def test_negative_rationals_are_values(tmp_path, capsys, argv, explicit):
    # argparse's own pattern reads -1/2 as an option; after an option or as
    # a positional it must reach the library's message, as --t=-1/2 and
    # -- -1/2 do
    k4 = write(tmp_path, "k4.json", json.dumps(graph_to_dict(complete_graph(4))))
    runs = [run_cli(capsys, *[k4 if a == "K4" else a for a in args]) for args in (argv, explicit)]
    (code, out, err), (want_code, want_out, want_err) = runs
    assert (code, out) == (want_code, want_out) == (want_code, "")
    error, want = json.loads(err)["error"], json.loads(want_err)["error"]
    assert error == want
    assert "argument" not in error["message"]


_HUGE = "1" + "0" * 30
_TOO_LONG = "1" + "0" * 5000  # past Python's 4,300-digit limit for int()


@pytest.mark.parametrize("argv", [
    *(["certify", "K4", flag, value, *rest]
      for flag, rest in (("--t", ["--d", "1"]), ("--d", ["--t", "3"]))
      for value in (_HUGE, "-5", "-1/2", "x", "1e99999999")),
    ["certificate", "K4", "--t", _HUGE, "--d", "1"],
    ["certificate", "K4", "--t", "3/2", "--d", _HUGE],
    *(argv + [flag, value]
      for argv, flag in ((["compute", "chi", "K4"], "--budget"),
                         (["compute", "dichi", "K4"], "--budget"),
                         (["compute", "dichif", "K4", "--mode", "mc"], "--trials"),
                         (["compute", "dichi", "K4", "--mode", "mc"], "--trials"),
                         (["certify", "K4", "--t", "3", "--d", "1"], "--max-tries"),
                         (["certificate", "K4", "--strict"], "--max-tries"))
      for value in (_HUGE, _TOO_LONG, "-5", "x")),
    *(["construct", what, *(value if a == "N" else a for a in args)]
      for what, args in (("kneser", ["N", "2"]), ("kneser", ["5", "N"]), ("complete", ["N"]),
                         ("embed", ["N", "2", "1", "0"]), ("embed", ["5", "N", "1", "0"]),
                         ("embed", ["5", "2", "N", "0"]), ("embed", ["5", "2", "1", "N"]))
      for value in (_HUGE, "-5", "x")),
])
def test_subcommand_arguments_end_in_one_json_line(tmp_path, argv):
    # huge, too long, negative and malformed integers and rationals in every
    # option and construct argument end in bounded time with one strict JSON
    # line. construct embed 5 2 10^30 0 passed the image gate (power 1) and
    # listed cells until it filled the 2 GB limit, about 45 s, and exited 2
    # as out of memory; each of these runs takes well under a second
    k4 = write(tmp_path, "k4.json", json.dumps(graph_to_dict(complete_graph(4))))
    done = run_cli_process(*[k4 if a == "K4" else a for a in argv], timeout=10)
    assert done.returncode in (0, 1, 2, 3), done.stderr
    lines = (done.stdout + done.stderr).splitlines()
    assert len(lines) == 1, done.stdout + done.stderr
    strict_json(lines[0])


def test_cli_import_loads_only_the_front_end():
    # each subcommand imports the library modules it calls, so starting the
    # CLI compiles none of them
    src = os.path.dirname(os.path.dirname(dicolor.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dicolor.cli; print(' '.join(sorted(m for m in "
         "sys.modules if m == 'dicolor' or m.startswith('dicolor.'))))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30,
    )
    assert done.stdout.split() == ["dicolor", "dicolor.cli", "dicolor.errors", "dicolor.graphs",
                                   "dicolor.io", "dicolor.sparse"], done.stderr


@pytest.mark.parametrize("argv, code", [
    (["compute", "chi", "K3"], 0),
    (["certify", "K3", "--t", "1", "--d", "2"], 0),
    (["certificate", "K3", "--strict"], 1),
    (["construct", "complete", "4"], 0),
    (["bounds", "complete", "5"], 0),
    (["bounds", "binom", "3", "4"], 0),
])
def test_each_subcommand_imports_what_it_calls(tmp_path, argv, code):
    # each handler imports its library modules itself; one that lost an
    # import ends in a NameError traceback in a fresh interpreter
    k3 = write(tmp_path, "k3.json", K3_JSON)
    done = run_cli_process(*[k3 if a == "K3" else a for a in argv])
    assert done.returncode == code, done.stderr
    lines = (done.stdout + done.stderr).splitlines()
    assert len(lines) == 1, done.stdout + done.stderr
    strict_json(lines[0])


def test_verify_imports_what_it_calls(tmp_path):
    done = run_cli_process("verify", "--suite", "kneser", "--out", str(tmp_path / "v.csv"))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == "3/3 checks passed"
    assert (tmp_path / "v.csv").read_text().startswith("number,name,passed")


def test_reports_and_errors_are_one_json_line(tmp_path, capsys):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, out, _ = run_cli(capsys, "compute", "chif", path)
    assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["results"]["cover"] == [{"set": [0], "weight": "1/1"},
                                                   {"set": [1], "weight": "1/1"},
                                                   {"set": [2], "weight": "1/1"}]
    code, out, err = run_cli(capsys, "compute", "chi", path, "--budget", "2")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["kind"] == "budget-exceeded"


@pytest.mark.parametrize("argv", [
    ["construct", "complete", "4097"],
    ["construct", "complete", "10" + "0" * 30],
    ["construct", "complete", "6", "--budget", "5"],
])
def test_construct_complete_is_gated_before_it_builds(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "budget-exceeded" and error["needed"] == format_count(int(argv[2]))
    code, out, _ = run_cli(capsys, "construct", "complete", "5", "--budget", "5")
    assert code == 0 and json.loads(out)["results"]["n"] == 5


def test_memory_error_is_a_budget_error(monkeypatch, capsys):
    # an input that passes every gate can still fill the memory
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr("dicolor.cli._run_bounds", exhaust)
    code, out, err = run_cli(capsys, "bounds", "complete", "4")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"kind": "budget-exceeded", "message": "out of memory"}}


def test_construct_embed(capsys):
    code, out, _ = run_cli(capsys, "construct", "embed", "5", "2", "2", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["power"] == 4 and rep["results"]["verified"] is True


def test_construct_embed_verifies_under_the_budget_it_was_built_under():
    # KG(15, 6) has 5,005 vertices: the witness passed --budget 6000, and
    # the check then rebuilt KG(15, 6) under the default 4,096 and exited 2.
    # The child process takes about 1.3 s on a 2-core VM (Python 3.11)
    done = run_cli_process("construct", "embed", "15", "6", "1", "0", "--budget", "6000", timeout=60)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["verified"] is True and len(results["images"]) == 5005


def test_determinism_same_seed(tmp_path, capsys):
    k4 = json.dumps(graph_to_dict(complete_graph(4)))
    path = write(tmp_path, "k4.json", k4)
    argv = ["compute", "dichi", path, "--mode", "mc", "--trials", "40", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["verdicts"] == r2["verdicts"]


def test_compute_digraph_invariants(tmp_path, capsys):
    tri = '{"n":3,"edges":[[0,1],[1,2],[2,0]]}'
    path = write(tmp_path, "tri.json", tri)
    code, out, _ = run_cli(capsys, "compute", "digraph-chi", path)
    assert code == 0 and json.loads(out)["results"]["digraph_chi"] == 2
    code, out, _ = run_cli(capsys, "compute", "digraph-chif", path)
    assert code == 0 and json.loads(out)["results"]["digraph_chif"] == "3/2"


def test_compute_alphaf(tmp_path, capsys):
    path = write(tmp_path, "k3.json", K3_JSON)
    code, out, _ = run_cli(capsys, "compute", "alphaf", path)
    assert code == 0 and json.loads(out)["results"]["alphaf"] == "1/1"


def test_verify_subcommand_table_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "verify", "--suite", "kneser", "--out", str(out_csv))
    assert code == 0
    assert "PASS" in out and "checks passed" in out
    text = out_csv.read_text()
    assert text.startswith("number,name,passed")
    assert text.count("true") >= 3
