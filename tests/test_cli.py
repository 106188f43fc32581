"""The command-line front end: JSON payloads, exit codes, emitted files."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matwidth import algebra, verify
from matwidth.cli import main
from matwidth.codes import catalog_code, code_to_text
from matwidth.graph import complete_graph, cycle_graph, graph_from_text, graph_to_text
from matwidth.matroid import matroid_from_text, matroid_to_text

U24_TEXT = "3 2 4\n1 0 1 1\n0 1 1 2\n"
FREE3_TEXT = "2 3 3\n1 0 0\n0 1 0\n0 0 1\n"
REP4_TEXT = "2 1 4\n1 1 1 1\n"
EDGE_GRAPH = "2\n0 1 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out)
    return code, payload, out.err


@pytest.fixture
def u24_file(tmp_path):
    p = tmp_path / "u24.mat"
    p.write_text(U24_TEXT)
    return str(p)


def test_pathwidth_decide_no(capsys, u24_file):
    code, payload, _ = run(capsys, "pathwidth", u24_file, "--decide", "1")
    assert code == 0
    assert payload["decide"] == {"w": 1, "answer": "no"}


def test_pathwidth_decide_yes(capsys, u24_file):
    code, payload, _ = run(capsys, "pathwidth", u24_file, "--decide", "2")
    assert code == 0
    assert payload["decide"]["answer"] == "yes"


def test_pathwidth_identity_matrix(capsys, tmp_path):
    p = tmp_path / "free.mat"
    p.write_text(FREE3_TEXT)
    code, payload, _ = run(capsys, "pathwidth", str(p))
    assert code == 0
    assert payload["certificate"]["width"] == 0


def test_pathwidth_heuristic_flag(capsys, u24_file):
    code, payload, _ = run(capsys, "pathwidth", u24_file, "--heuristic")
    assert code == 0
    assert payload["exact"] is False
    assert payload["certificate"]["width"] == 2


def test_pathwidth_heuristic_decide_falls_back_to_exact(capsys, u24_file):
    # a greedy over-estimate cannot refute membership, so "no" answers are
    # always exact-backed
    code, payload, _ = run(capsys, "pathwidth", u24_file, "--heuristic", "--decide", "1")
    assert code == 0
    assert payload["decide"]["answer"] == "no"
    code, payload, _ = run(capsys, "pathwidth", u24_file, "--heuristic", "--decide", "2")
    assert payload["decide"]["answer"] == "yes"


def test_pathwidth_heuristic_decide_fallback_reports_the_exact_certificate(capsys, tmp_path):
    # an 8-element rank-5 GF(3) matroid of greedy width 3 and pathwidth 2
    p = tmp_path / "m8.mat"
    p.write_text("3 5 8\n1 2 1 2 2 1 1 0\n2 2 2 1 0 2 0 2\n0 0 0 1 0 0 0 2\n"
                 "0 0 1 0 2 2 1 1\n1 2 1 0 2 0 2 1\n")
    code, payload, err = run(capsys, "pathwidth", str(p), "--heuristic")
    assert payload["exact"] is False and payload["certificate"]["width"] == 3
    code, payload, err = run(capsys, "pathwidth", str(p), "--heuristic", "--decide", "2")
    assert code == 0
    assert payload["exact"] is True and payload["certificate"]["width"] == 2
    assert payload["decide"] == {"w": 2, "answer": "yes"}
    assert err.strip() == "width 2 on 8 elements; pathwidth <= 2: yes"


def test_tw_repetition(capsys, tmp_path):
    p = tmp_path / "rep.code"
    p.write_text(REP4_TEXT)
    code, payload, _ = run(capsys, "tw", str(p))
    assert code == 0
    assert payload["certificate"]["width"] == 1
    assert payload["dimension"] == 1


def test_tw_mds(capsys, tmp_path):
    p = tmp_path / "mds.code"
    p.write_text(code_to_text(catalog_code("MDS(4,2)", 3)))
    code, payload, _ = run(capsys, "tw", str(p))
    assert code == 0
    assert payload["certificate"]["width"] == 2


def test_reduce_verify_single_edge(capsys, tmp_path):
    p = tmp_path / "edge.graph"
    p.write_text(EDGE_GRAPH)
    code, payload, _ = run(capsys, "reduce", str(p), "--verify")
    assert code == 0
    assert payload["verify"] == {"pw_graph": 1, "pw_matroid": 2, "identity": True}


def test_reduce_verify_null_graph(capsys, tmp_path):
    # no vertices: pw(G) = -1 and the apex matroid is empty, pw(M) = 0
    p = tmp_path / "null.graph"
    p.write_text("0\n")
    code, payload, err = run(capsys, "reduce", str(p), "--verify")
    assert code == 0
    assert payload["verify"] == {"pw_graph": -1, "pw_matroid": 0, "identity": True}
    assert "pw 0 = -1 + 1" in err


def test_reduce_k3_verify_and_files(capsys, tmp_path):
    p = tmp_path / "k3.graph"
    p.write_text("3\n0 1 1\n1 2 2\n0 2 3\n")
    out_prefix = str(tmp_path / "out")
    code, payload, _ = run(capsys, "reduce", str(p), "--verify", "--out", out_prefix)
    assert code == 0
    assert payload["verify"]["pw_matroid"] == 3 == payload["verify"]["pw_graph"] + 1
    # emitted files round-trip to the in-memory objects
    mat, _ = algebra.matrix_from_lines((tmp_path / "out.mat").read_text().splitlines())
    assert algebra.matrix_to_text(mat) == payload["matrix"]
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar == payload["sidecar"]
    assert sidecar["apex"] == 3
    rebuilt = graph_from_text(sidecar["graph"])
    assert rebuilt.vertex_count == 4 and rebuilt.edge_count == mat.cols


def test_reduce_k5_verify_past_the_default_cap(capsys, tmp_path):
    # 30 elements in 15 parallel pairs: 3^15 class-count states, within the
    # exact solver's memory budget
    p = tmp_path / "k5.graph"
    p.write_text(graph_to_text(complete_graph(5)))
    code, payload, err = run(capsys, "reduce", str(p), "--verify")
    assert code == 0
    assert payload["verify"] == {"pw_graph": 4, "pw_matroid": 5, "identity": True}
    assert "pw 5 = 4 + 1" in err


def test_reduce_c7_verify(capsys, tmp_path):
    # 28 elements in 14 parallel pairs: 3^14 class-count states
    p = tmp_path / "c7.graph"
    p.write_text(graph_to_text(cycle_graph(7)))
    code, payload, err = run(capsys, "reduce", str(p), "--verify")
    assert code == 0
    assert payload["verify"] == {"pw_graph": 2, "pw_matroid": 3, "identity": True}
    assert "pw 3 = 2 + 1" in err


@pytest.mark.parametrize("seed", [1, 2])
def test_reduce_verify_runs_one_matroid_pass_at_most(capsys, monkeypatch, tmp_path, seed):
    # every graph of the benchmark's reduce-verify workload: the matroid DP
    # gets the reduction's ordering as its upper bound u = pw(G) + 1 and runs
    # one threshold pass, at u - 1, or none when the layer bound reaches u
    import random

    from matwidth import pathwidth

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "mwbench"))
    import workloads

    solves, inside = [], []
    real_dp, space = pathwidth.prefix_dp, pathwidth._StateSpace
    real_pass, real_bound = space.threshold_pass, space.lower_bound

    def dp(*args, **kwargs):
        solves.append({"upper": kwargs.get("upper"), "passes": []})
        inside.append(True)
        try:
            return real_dp(*args, **kwargs)
        finally:
            inside.pop()

    def counted_pass(self, w):
        if inside:
            solves[-1]["passes"].append(w)
        return real_pass(self, w)

    def counted_bound(self):
        bound = real_bound(self)
        if inside:
            solves[-1]["bound"] = bound
        return bound

    # graph pathwidth binds prefix_dp itself, so only the matroid's DP is
    # seen through the module attribute
    monkeypatch.setattr(pathwidth, "prefix_dp", dp)
    monkeypatch.setattr(space, "threshold_pass", counted_pass)
    monkeypatch.setattr(space, "lower_bound", counted_bound)
    wl = workloads.WORKLOADS["reduce-verify"](seed, tmp_path)
    wl.build(random.Random(seed))
    skipped = set()
    for op in wl.ops:
        del solves[:]
        code, payload, _ = run(capsys, *op.argv)
        assert code == 0 and payload["verify"]["identity"], op.name
        (solve,) = solves
        assert solve["upper"] == payload["verify"]["pw_matroid"] == payload["verify"]["pw_graph"] + 1
        skipped.add(solve["bound"] >= solve["upper"])
        assert solve["passes"] == ([] if solve["bound"] >= solve["upper"] else [solve["upper"] - 1]), op.name
    assert len(wl.ops) == 19 and skipped == {False, True}


def test_pathwidth_over_the_memory_budget_is_error(capsys, tmp_path):
    # a simple 30-element matroid: a 2^30-entry rank table
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, 31)]
    p = tmp_path / "big.mat"
    p.write_text("2 5 30\n" + "\n".join(" ".join(str(c[i]) for c in cols) for i in range(5)) + "\n")
    code, payload, _ = run(capsys, "pathwidth", str(p))
    assert code == 1
    assert "budget" in payload["error"]


def test_tw_over_the_memory_budget_is_error(capsys, tmp_path):
    # a simple length-25 code: 25 distinct nonzero coordinates of GF(2)^5
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, 26)]
    p = tmp_path / "big.code"
    p.write_text("2 5 25\n" + "\n".join(" ".join(str(c[i]) for c in cols) for i in range(5)) + "\n")
    code, payload, err = run(capsys, "tw", str(p))
    assert code == 1
    assert "budget" in payload["error"] and err.startswith("error: ")


def test_check_minor_named_pattern(capsys, tmp_path, u24_file):
    code, payload, _ = run(capsys, "check-minor", "--host", u24_file, "--pattern", "U24")
    assert code == 0
    assert payload["result"] == "present"
    assert payload["certificate"]["pattern"] == "U24"


def test_check_minor_pattern_file_absent(capsys, tmp_path):
    host = tmp_path / "host.mat"
    host.write_text(FREE3_TEXT)
    pattern = tmp_path / "pattern.mat"
    pattern.write_text("2 1 2\n1 1\n")
    code, payload, _ = run(capsys, "check-minor", "--host", str(host), "--pattern", str(pattern))
    assert code == 0
    assert payload["result"] == "absent"


def test_verify_excluded_pass(capsys, u24_file):
    code, payload, _ = run(capsys, "verify-excluded", "--w", "1", "--matroid", u24_file)
    assert code == 0
    assert payload["report"]["passed"] is True


def test_verify_excluded_fail_is_still_ok_status(capsys, tmp_path):
    p = tmp_path / "pad.mat"
    p.write_text("3 3 5\n1 0 1 1 0\n0 1 1 2 0\n0 0 0 0 1\n")  # U24 plus a coloop
    code, payload, _ = run(capsys, "verify-excluded", "--w", "1", "--matroid", str(p))
    assert code == 0
    assert payload["report"]["passed"] is False


def test_check_tw1(capsys, tmp_path):
    p = tmp_path / "mds.code"
    p.write_text(code_to_text(catalog_code("MDS(4,2)", 3)))
    code, payload, _ = run(capsys, "check-tw1", str(p))
    assert code == 0
    assert payload["tw_le_1"] is False
    assert payload["witness"]["pattern"] == "U24"


def test_verify_umbrella(capsys):
    code, payload, _ = run(capsys, "verify", "umbrella", "--m", "3", "--max-parallel", "1")
    assert code == 0
    assert payload["ok"] is True and payload["checked"] == 4 + 8  # m in {2, 3}


def test_verify_seeded_determinism(capsys):
    code1, payload1, _ = run(capsys, "verify", "duality", "--samples", "10", "--seed", "5")
    code2, payload2, _ = run(capsys, "verify", "duality", "--samples", "10", "--seed", "5")
    assert code1 == code2 == 0
    assert payload1 == payload2


def test_violation_exit_code(capsys, monkeypatch):
    # a suite reporting a counterexample must exit 2 with the payload intact
    from matwidth import verify

    def failing_suite(samples=1, seed=0):
        return {"check": "duality", "ok": False, "checked": samples,
                "violations": [{"sample": 0, "pw": 1, "pw_dual": 2}], "params": {}}

    monkeypatch.setitem(verify.THEOREMS, "duality", (failing_suite, "forced failure"))
    code, payload, err = run(capsys, "verify", "duality", "--samples", "1")
    assert code == 2
    assert payload["violations"][0]["pw_dual"] == 2
    assert "VIOLATED" in err


@pytest.mark.parametrize("suite", ["p1q", "tw1-codes"])
def test_a_disagreement_with_the_exact_solver_is_a_violation(capsys, monkeypatch, suite):
    # the exact side of minors.pw_le_1_by_minors forced to the wrong answer:
    # the suite records each disagreement as a violation and exits 2
    from matwidth import minors

    real = minors.pathwidth_at_most
    monkeypatch.setattr(minors, "pathwidth_at_most", lambda M, w: not real(M, w))
    code, payload, err = run(capsys, "verify", suite, "--samples", "3")
    assert code == 2 and "VIOLATED" in err
    assert len(payload["violations"]) == 3
    assert all("disagrees with the exact solver" in v["error"] for v in payload["violations"])


def test_unknown_theorem_is_error(capsys):
    code, payload, err = run(capsys, "verify", "fermat")
    assert code == 1
    assert "unknown theorem" in payload["error"]


@pytest.mark.parametrize("argv", [("excluded-w2", "--q", "5"), ("reduction", "--samples", "2")],
                         ids=["excluded-w2-q", "reduction-samples"])
def test_verify_refuses_a_flag_the_suite_does_not_take(capsys, argv):
    code, payload, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert payload["error"] == f"verify {argv[0]} does not take {argv[1]}"


def test_verify_refuses_negative_samples(capsys):
    code, payload, _ = run(capsys, "verify", "duality", "--samples", "-4")
    assert code == 1
    assert "--samples" in payload["error"]


def test_key_error_message_is_printed_unquoted(capsys):
    code, payload, err = run(capsys, "verify", "reorder", "--graph", "k9")
    assert code == 1
    assert payload["error"].startswith("unknown graph 'k9'")
    assert err.startswith("error: unknown graph")


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("3 2 2\n1 0\n9 0\n")
    code, payload, err = run(capsys, "pathwidth", str(p))
    assert code == 1
    assert "line 3" in payload["error"]


def test_missing_file_is_error(capsys):
    code, payload, _ = run(capsys, "pathwidth", "/nonexistent/file.mat")
    assert code == 1


def test_matroid_file_round_trip_via_cli_payload(capsys, u24_file):
    code, payload, _ = run(capsys, "pathwidth", u24_file)
    M = matroid_from_text(U24_TEXT)
    assert matroid_to_text(M) == U24_TEXT
    assert payload["certificate"]["width"] == 2


def test_verify_p1q_over_extension_field(capsys):
    code, payload, _ = run(capsys, "verify", "p1q", "--q", "4", "--n", "6", "--samples", "20")
    assert code == 0
    assert payload["ok"] is True and payload["params"]["q"] == 4


@pytest.mark.parametrize("q", [4, 9])
@pytest.mark.parametrize("suite,kwargs", [
    (verify.check_duality, {"samples": 4, "n_max": 6}),
    (verify.check_minor_monotonicity, {"samples": 3, "n_max": 5}),
    (verify.check_direct_sum, {"samples": 3, "n_max": 4}),
    (verify.check_caterpillar, {"samples": 4, "n_max": 6}),
    (verify.check_tw1_codes, {"samples": 4, "n_max": 6}),
    (verify.check_reduction, {"extra_samples": 2}),
    (verify.check_decomp_to_ordering, {"extra_samples": 2}),
    (verify.check_reorder, {"samples": 3}),
    (verify.check_umbrellas, {"m_max": 3, "max_parallel": 1}),
], ids=lambda v: getattr(v, "__name__", ""))
def test_verify_suites_build_the_field_of_each_order(suite, kwargs, q):
    # the suites take field orders: GF(4) and GF(9) are extension fields
    field = "qs" if "qs" in inspect.signature(suite).parameters else "field_q"
    report = suite(**kwargs, **{field: (q,) if field == "qs" else q})
    assert report["ok"] and report["checked"] > 0


@pytest.mark.parametrize("argv,param", [
    (("duality", "--q", "4", "--samples", "5"), "qs"),
    (("tw1-codes", "--q", "9", "--samples", "3"), "qs"),
    (("reduction", "--q", "3"), "field"),
], ids=["duality", "tw1-codes", "reduction"])
def test_verify_q_reaches_every_suite_that_takes_a_field(capsys, argv, param):
    # --q is qs = (q,) for the qs suites and field_q = q for the others;
    # duality over GF(4) runs the GF(4) word step of the rank table
    code, payload, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert payload["ok"] is True and payload["checked"] > 0
    q = int(argv[2])
    assert payload["params"][param] == ([q] if param == "qs" else q)


def test_verify_p1q_non_prime_power_is_error(capsys):
    code, payload, _ = run(capsys, "verify", "p1q", "--q", "6", "--n", "6", "--samples", "20")
    assert code == 1
    assert "not a prime power" in payload["error"]


def test_parser_built_once_answers_as_a_fresh_one(capsys, tmp_path, u24_file):
    from matwidth.cli import build_parser

    code_file = tmp_path / "mds.code"
    code_file.write_text(code_to_text(catalog_code("MDS(4,2)", 3)))
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text("3\n0 1 1\n1 2 2\n0 2 3\n")
    runs = [("tw", str(code_file)), ("reduce", str(graph_file), "--verify"),
            ("check-minor", "--host", u24_file, "--pattern", "U24"),
            ("pathwidth", u24_file, "--decide", "1"), ("tw", str(code_file))]

    def outputs(fresh):
        got = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            got.append((main(list(argv)), capsys.readouterr().out))
        return got

    fresh = outputs(True)
    parser = build_parser()
    assert outputs(False) == fresh
    assert build_parser() is parser


@pytest.mark.parametrize("command,text,parse,error", [
    ("pathwidth", "2 -1 3\n", matroid_from_text, algebra.MatrixFormatError),
    ("pathwidth", "2 0 -2\n", matroid_from_text, algebra.MatrixFormatError),
    ("reduce", "-1\n", graph_from_text, ValueError),
], ids=["rows", "columns", "vertices"])
def test_negative_counts_are_errors(capsys, tmp_path, command, text, parse, error):
    p = tmp_path / "negative.txt"
    p.write_text(text)
    code, payload, _ = run(capsys, command, str(p))
    assert code == 1 and "negative" in payload["error"]
    with pytest.raises(error, match="negative"):
        parse(text)


_GRAPH_TOKENS = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "1_0", "+2", "-0", "1e3", "\u0663", "lx:0", "l:0-1", "9" * 5000]),
    st.text(max_size=3),
)
# arbitrary text, and lines of tokens near the graph format
GRAPH_TEXTS = st.one_of(st.text(), st.lists(st.lists(_GRAPH_TOKENS, max_size=4).map(" ".join),
                                            max_size=8).map("\n".join))


@settings(max_examples=150, deadline=None)
@given(GRAPH_TEXTS)
def test_graph_files_parse_or_fail_with_the_error_contract(tmp_path_factory, text):
    # graph_from_text raises only ValueError, and `reduce` on the file
    # answers or exits 1 with a JSON error, exiting 1 whenever parsing fails
    try:
        graph_from_text(text)
        parsed = True
    except ValueError:
        parsed = False
    p = tmp_path_factory.getbasetemp() / "arbitrary.graph"
    p.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", str(p)])
    doc = json.loads(out.getvalue())
    if code == 1:
        assert list(doc) == ["error"] and err.getvalue().startswith("error: ")
    else:
        assert code == 0 and parsed and "matrix" in doc


_MATRIX_TOKENS = st.one_of(
    _GRAPH_TOKENS,
    st.sampled_from(["2^2", "3^2", "2^8", "2^9", "2^0", "0^3", "1^2", "-2^2", "2^-1", "2^", "^2", "2^2^2",
                     "256", "257", "131", "GF(4)"]),
)
# arbitrary text, and lines of tokens near the matrix format
MATRIX_TEXTS = st.one_of(st.text(), st.lists(st.lists(_MATRIX_TOKENS, max_size=5).map(" ".join),
                                             max_size=8).map("\n".join))


@settings(max_examples=150, deadline=None)
@given(MATRIX_TEXTS)
def test_matrix_files_parse_or_fail_with_the_error_contract(tmp_path_factory, text):
    # matrix_from_lines raises only MatrixFormatError, and `tw` on the file
    # answers or exits 1 with a JSON error, exiting 1 whenever parsing fails
    try:
        algebra.matrix_from_lines(text.splitlines())
        parsed = True
    except algebra.MatrixFormatError:
        parsed = False
    p = tmp_path_factory.getbasetemp() / "arbitrary.mat"
    p.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tw", str(p)])
    doc = json.loads(out.getvalue())
    if code == 1:
        assert list(doc) == ["error"] and err.getvalue().startswith("error: ")
    else:
        assert code == 0 and parsed and "certificate" in doc


def test_reduce_refuses_a_large_graph_before_building_it(capsys, tmp_path):
    # 1,000,000 vertices and no edges: the apex graph would have 2,000,000
    # edges, refused from the counts alone
    p = tmp_path / "big.txt"
    p.write_text("1000000\n")
    tracemalloc.start()
    try:
        code, payload, _ = run(capsys, "reduce", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert payload == {"error": "2000000 > 64 ground elements"}
    assert peak < 10 * 2**20


def _simple_gf2_matrix_text(n):
    """n distinct nonzero columns of GF(2)^5: a simple n-element matroid."""
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, n + 1)]
    return f"2 5 {n}\n" + "\n".join(" ".join(str(c[i]) for c in cols) for i in range(5)) + "\n"


@pytest.mark.parametrize("argv,text,message", [
    (["pathwidth"], _simple_gf2_matrix_text(25), "budget"),
    # 17 isolated vertices: the graph DP's 2^17 states fit, the apex
    # matroid's 3^17 class-count states do not
    (["reduce", "--verify"], "17\n", "budget"),
    (["check-minor", "--pattern", "MK4", "--host"], "2 1 13\n" + " ".join(["1"] * 13) + "\n",
     "13 > 12 elements for an exhaustive search"),
    (["check-tw1"], "2 1 13\n" + " ".join(["1"] * 13) + "\n", "13 > 12 elements for an exhaustive search"),
], ids=["pathwidth-25", "reduce-verify-17", "check-minor-13", "check-tw1-13"])
def test_each_refusal_is_one_json_error_line(capsys, tmp_path, argv, text, message):
    p = tmp_path / "input.txt"
    p.write_text(text)
    assert main([*argv, str(p)]) == 1
    out = capsys.readouterr()
    assert out.out.count("\n") == 1 and out.err.startswith("error: ")
    assert message in json.loads(out.out)["error"]


def test_check_tw1_answers_a_length_12_code(capsys, tmp_path):
    p = tmp_path / "rep12.code"
    p.write_text("2 1 12\n" + " ".join(["1"] * 12) + "\n")
    code, payload, _ = run(capsys, "check-tw1", str(p))
    assert code == 0 and payload == {"tw_le_1": True, "witness": None}


@pytest.mark.parametrize("argv,text", [
    (["pathwidth"], "1000000000039 1 1\n1\n"),
    (["reduce", "--field", "1000000000039"], EDGE_GRAPH),
    (["pathwidth"], "2^2000000000 1 1\n1\n"),
], ids=["prime-order", "reduce-field", "huge-degree"])
def test_an_oversized_field_is_refused_before_any_arithmetic(capsys, tmp_path, argv, text):
    # a child process with a timeout first, so that a regression (trial
    # division up to the order's smallest factor, or p**k computed before
    # the cap) fails instead of hanging the suite
    p = tmp_path / "input.txt"
    p.write_text(text)
    args = [*argv[:1], str(p), *argv[1:]]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    child = subprocess.run([sys.executable, "-m", "matwidth.cli", *args], env=env,
                           capture_output=True, text=True, timeout=10)
    assert child.returncode == 1
    assert "exceeds the cap of 256" in json.loads(child.stdout)["error"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, payload, _ = run(capsys, *args)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "exceeds the cap of 256" in payload["error"]
    assert seconds < 1 and peak < 2**20
