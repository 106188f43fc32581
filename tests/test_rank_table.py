"""The two rank-table backends: codeword-support counting and the span sweep.

Both are compared with per-subset elimination (`rank_of_columns`) and, for
n <= 8, with the reference ranks of `util`, on seeded matrices over every
field family; the selection rule is checked on both sides of its threshold.
"""

import tracemalloc

import numpy as np
import pytest

from matwidth import field_new
from matwidth.algebra import GfMatrix, identity_matrix, rank_of_columns
from matwidth.matroid import CHUNK_WORDS, VectorMatroid, table_backend
from matwidth.pathwidth import pathwidth_exact
from util import GF2, GF243, GF256, REF_FIELDS, matroid, ref_random_rows, ref_rank_table


def elimination_table(M) -> list:
    cols = M.matrix.columns()
    return [rank_of_columns(M.field, [cols[i] for i in range(M.size) if (S >> i) & 1])
            for S in range(1 << M.size)]


def check_both_backends(M, rows=None):
    expect = elimination_table(M)
    assert M._count_rank_table().tolist() == expect
    assert M._sweep_rank_table().tolist() == expect
    if rows is not None and M.size <= 8 and M.field.q ** M.rank_full <= 1 << 16:
        assert ref_rank_table(M.field, rows, M.size) == expect
    return expect


@pytest.mark.parametrize("field", [f for f, _ in REF_FIELDS], ids=str)
def test_both_backends_match_elimination(field):
    # (n, rows): the code itself is enumerated when r <= n/2, its dual
    # otherwise; rows may be dependent, so the rank can fall below the count
    if field.q < 16:
        sizes = [(4, 1), (6, 2), (7, 3), (8, 4), (8, 6), (9, 7), (6, 6), (9, 9)]
    else:
        sizes = [(4, 1), (5, 2), (6, 1), (5, 4), (6, 5), (4, 4)]
    rng = np.random.default_rng(500 + field.q)
    routes = set()
    for n, m in sizes:
        rows = ref_random_rows(field, m, n, rng)
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        check_both_backends(M, rows)
        routes.add(M.rank_full <= n - M.rank_full)
    assert routes == {True, False}


@pytest.mark.parametrize("field", [f for f, _ in REF_FIELDS], ids=str)
def test_backends_on_degenerate_matrices(field):
    n = 5
    empty = VectorMatroid(GfMatrix(field, [], cols=0))
    assert check_both_backends(empty) == [0]
    # rank 0: no rows, and rows that are all zero
    assert check_both_backends(VectorMatroid(GfMatrix(field, [], cols=n))) == [0] * (1 << n)
    zeros = [[0] * n, [0] * n]
    assert check_both_backends(matroid(field, zeros), zeros) == [0] * (1 << n)
    # rank n, the free matroid, with a repeated row
    free = list(identity_matrix(field, n).entries)
    table = check_both_backends(matroid(field, free + free[:1]), free + free[:1])
    assert table == [bin(S).count("1") for S in range(1 << n)]
    # dependent rows: a row repeated and a row that is a sum of two others
    rows = [[1, 2 % field.q, 0, 1, 1], [0, 1, 1, 0, 1]]
    rows += [rows[0], [field.add(x, y) for x, y in zip(*rows)]]
    assert matroid(field, rows).rank_full == 2
    check_both_backends(matroid(field, rows), rows)


def test_counting_across_several_chunks():
    # more words than one chunk holds, by the code itself and by its dual
    GF17 = field_new(17)
    rng = np.random.default_rng(17)
    for n, k in ((8, 4), (9, 5)):
        M = matroid(GF17, rank_k_rows(GF17, n, k, rng))
        assert GF17.q ** min(k, n - k) > CHUNK_WORDS
        check_both_backends(M)


def rank_k_rows(field, n, k, rng):
    """Seeded k x n rows of rank exactly k."""
    while True:
        rows = [[int(x) for x in rng.integers(0, field.q, n)] for _ in range(k)]
        if rank_of_columns(field, rows) == k:
            return rows


def test_rank_table_picks_the_documented_backend(monkeypatch):
    picked = []
    for name in ("_count_rank_table", "_sweep_rank_table"):
        real = getattr(VectorMatroid, name)
        monkeypatch.setattr(VectorMatroid, name,
                            lambda self, real=real, name=name: picked.append(name) or real(self))
    rng = np.random.default_rng(7)
    # (field, n, k, backend): q^min(k, n - k) against COUNT_RATIO * 2^n, on
    # both sides of the threshold and from either end of the rank range
    cases = [
        (GF256, 6, 1, "count"),  # 256 = 4 * 2^6, the threshold itself
        (GF256, 6, 2, "sweep"),  # 2^16 > 2^8
        (GF256, 6, 5, "count"),  # the dual has 256 words
        (GF256, 6, 4, "sweep"),
        (GF243, 6, 1, "count"),  # 243 < 256
        (GF243, 6, 2, "sweep"),  # 59049 > 256
        (GF2, 8, 4, "count"),  # 16 <= 1024: binary codes are always counted
    ]
    for field, n, k, backend in cases:
        rows = rank_k_rows(field, n, k, rng)
        M = matroid(field, rows)
        picked.clear()
        table = M.rank_table()
        assert table_backend(field.q, n, k) == backend
        assert picked == [f"_{backend}_rank_table"]
        assert not table.flags.writeable
        assert table.tolist() == check_both_backends(M, rows)
    # the MDS codes of the benchmark are swept; random [16, 8] over GF(4) and
    # the extended Golay code are counted
    assert table_backend(16, 16, 6) == "sweep" and table_backend(17, 16, 8) == "sweep"
    assert table_backend(4, 16, 8) == "count" and table_backend(2, 24, 12) == "count"


def test_counting_allocates_about_six_bytes_per_entry():
    # uint32 counts, a uint8 exponent and one boolean temporary: no int64
    # array of 2^n entries and no per-word 2^n array
    rng = np.random.default_rng(20)
    n = 20
    M = matroid(GF2, [[int(x) for x in row] for row in rng.integers(0, 2, (n // 2, n))])
    tracemalloc.start()
    try:
        table = M._count_rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 << n
    assert table.dtype == np.uint8 and table[-1] == M.rank_full


def test_pathwidth_refuses_a_forged_rank_table():
    # the cycle matroid of K4 (pw 2) with the table of three parallel pairs
    # (pw 1): the DP follows the forged table, the certificate's elimination
    # does not, and no ordering of K4 has width 1
    from matwidth.graph import complete_graph, cycle_matroid

    M = cycle_matroid(complete_graph(4), GF2)
    assert pathwidth_exact(M).width == 2
    forged = np.array([sum((S >> 2 * i) & 3 != 0 for i in range(3)) for S in range(1 << M.size)],
                      dtype=np.uint8)
    M._rank_table = forged
    with pytest.raises(AssertionError):
        pathwidth_exact(M)
