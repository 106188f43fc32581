"""The single-element minor widths of `pathwidth.pathwidth_and_minors`, from
batched DP calls on lambda read from the parent's table, against one
`pathwidth_exact` call on each minor built by `apply_minor`; the
elimination check that the batch cannot get round; and the memory a batch
takes against the parent's own DP."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matwidth.pathwidth as pathwidth
from matwidth.graph import complete_graph
from matwidth.matroid import MinorSpec, apply_minor
from matwidth.minors import verify_excluded_minor
from matwidth.pathwidth import parallel_classes, pathwidth_and_minors, pathwidth_exact
from matwidth.reduction import reduce_instance
from util import GF2, GF3, GF4, matroid, ref_field_ops


def _lone_certificates(M):
    """(label, operation, certificate) of one pathwidth_exact call per minor."""
    return [(lbl, op, pathwidth_exact(apply_minor(M, spec)))
            for lbl in M.labels
            for op, spec in (("delete", MinorSpec(frozenset(), frozenset([lbl]))),
                             ("contract", MinorSpec(frozenset([lbl]), frozenset())))]


@st.composite
def _matroids(draw):
    """Up to 9 columns over GF(2), GF(3) or GF(4), each random, a loop, a
    nonzero multiple of an earlier column, or a coloop (a unit vector in a
    row of its own)."""
    field = draw(st.sampled_from([GF2, GF3, GF4]))
    _, mul = ref_field_ops(field)
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    cols, coloops = [], []
    for j in range(n):
        kind = draw(st.sampled_from(["random", "loop", "parallel", "coloop"] if cols else ["random", "coloop"]))
        if kind == "random":
            cols.append(draw(st.lists(st.integers(0, field.q - 1), min_size=k, max_size=k)))
        elif kind == "loop":
            cols.append([0] * k)
        elif kind == "parallel":
            src = cols[draw(st.integers(0, len(cols) - 1))]
            c = draw(st.integers(1, field.q - 1))
            cols.append([mul(c, x) for x in src])
        else:
            cols.append([0] * k)
            coloops.append(j)
    rows = [[col[i] for col in cols] for i in range(k)]
    rows += [[int(j == c) for j in range(n)] for c in coloops]
    return matroid(field, rows)


@settings(max_examples=120)
@given(_matroids())
def test_batched_minor_widths_match_one_solve_per_minor(M):
    assert pathwidth_and_minors(M)[1] == _lone_certificates(M)


def test_batched_minor_widths_on_the_k4_apex_matroid():
    # 20 elements in 10 parallel pairs: each minor keeps the other pairs as
    # classes of two and its own class as one element
    M, _ = reduce_instance(complete_graph(4), GF2)
    assert M.size == 20 and [len(c) for c in parallel_classes(M)] == [2] * 10
    got = pathwidth_and_minors(M)[1]
    assert got == _lone_certificates(M)
    assert {cert.width for *_, cert in got} == {3}


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "lone"])
@pytest.mark.parametrize("tamper", ["lambda", "width"])
def test_a_tampered_dp_answer_fails_the_elimination_check(monkeypatch, batch, tamper):
    # raise one lambda the DP returns on its order's first prefix, or its
    # width, in the first member of a batch of minors or of M's own call, a
    # batch of one: the check re-derives the lambdas by elimination and
    # refuses either
    real = pathwidth.prefix_dp

    def tampered(cost, classes, tie_key, upper=None):
        answers = real(cost, classes, tie_key, upper)
        width, order = answers[0]
        if tamper == "width":
            answers[0] = width + 1, order
        else:
            strides, _ = pathwidth._strides(classes[0])
            cost[0][next(s for s, c in zip(strides, classes[0]) if order[0] in c)] += 1
        return answers

    monkeypatch.setattr(pathwidth, "prefix_dp", tampered)
    M = matroid(GF3, [(1, 0, 1, 1, 0, 1), (0, 1, 1, 2, 0, 0), (0, 0, 0, 0, 1, 1)])
    message = "rank table gives lambda" if tamper == "lambda" else "DP width"
    with pytest.raises(AssertionError, match=message):
        pathwidth_and_minors(M)[1] if batch else pathwidth_exact(M)


def _peak(fn, M):
    tracemalloc.start()
    try:
        fn(M)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_excluded_minor_check_memory_against_the_parent_dp():
    # a seeded simple 14-element matroid over GF(2): the batches of its 28
    # minors over 2^13 states each take little more than its own DP
    vals = np.random.default_rng(14).choice(np.arange(1, 1 << 7), 14, replace=False)
    rows = [[int(v >> i) & 1 for v in vals] for i in range(7)]

    def fresh():
        M = matroid(GF2, rows)
        M.rank_table()
        return M

    assert len(parallel_classes(fresh())) == 14
    verify_excluded_minor(fresh(), 2)  # caches filled before measuring
    parent = _peak(pathwidth_exact, fresh())
    batched = _peak(lambda M: verify_excluded_minor(M, 2), fresh())
    assert batched <= 1.5 * parent


def test_no_elements_and_one_element():
    assert pathwidth_and_minors(matroid(GF2, [[]]))[1] == []
    for rows in ([[0]], [[1]]):
        M = matroid(GF3, rows)
        assert pathwidth_and_minors(M)[1] == _lone_certificates(M)
