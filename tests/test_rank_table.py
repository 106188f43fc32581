"""The rank table: the residue sweep against per-subset elimination.

Every table is compared with per-subset elimination (`rank_of_columns`)
and, for n <= 8, with the reference ranks of `util`, on seeded matrices
over every field family, both encodings of a residue (word planes over
GF(2), GF(3) and GF(4), bytes otherwise) and both routes (the code itself
when k <= n - k, its dual otherwise).  Past 16 elements, where the sweep
runs one doubling per subset of the high elements, elimination is checked
on seeded masks of every block.  Each one-row step, on words and on
bytes (through each of the byte step's three sums), is checked against
`reduce_vector`, and the byte step's table of multipliers against the
field's arithmetic.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matwidth import field_new
from matwidth.algebra import GfMatrix, identity_matrix, rank_of_columns, reduce_vector
from matwidth.matroid import (CHUNK_WORDS, SLICE_ENTRIES, VectorMatroid, _byte_step, _encode,
                              _multipliers, _sweep_ranks, _word_step)
from matwidth.pathwidth import pathwidth_exact
from util import (GF2, GF3, GF4, GF5, GF256, REF_FIELDS, matroid, ref_random_rows,
                  ref_rank_table)

GF9 = field_new(3, 2)
GF16 = field_new(2, 4)
GF17 = field_new(17)
GF7, GF127, GF131, GF251 = (field_new(p) for p in (7, 127, 131, 251))


def elimination_table(M) -> list:
    cols = M.matrix.columns()
    return [rank_of_columns(M.field, [cols[i] for i in range(M.size) if (S >> i) & 1])
            for S in range(1 << M.size)]


def check_table(M, rows=None):
    """M's rank table, checked against elimination on every subset."""
    expect = elimination_table(M)
    table = M.rank_table()
    assert table.dtype == np.uint8 and not table.flags.writeable
    assert table.tolist() == expect
    if rows is not None and M.size <= 8 and M.field.q ** M.rank_full <= 1 << 16:
        assert ref_rank_table(M.field, rows, M.size) == expect
    return expect


@pytest.mark.parametrize("field", [f for f, _ in REF_FIELDS], ids=str)
def test_both_backends_match_elimination(field):
    # REF_FIELDS hold residues as word planes (GF(2), GF(3), GF(4)) and as
    # bytes (GF(5), GF(3^5), GF(2^8)); (n, rows): the code itself is swept
    # when r <= n/2, its dual otherwise; rows may be dependent, so the rank
    # can fall below the count
    if field.q < 16:
        sizes = [(4, 1), (6, 2), (7, 3), (8, 4), (8, 6), (9, 7), (6, 6), (9, 9), (12, 5), (12, 8)]
    else:
        sizes = [(4, 1), (5, 2), (6, 1), (5, 4), (6, 5), (4, 4), (12, 3), (12, 10)]
    rng = np.random.default_rng(500 + field.q)
    routes = set()
    for n, m in sizes:
        rows = ref_random_rows(field, m, n, rng)
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        check_table(M, rows)
        routes.add(M.rank_full <= n - M.rank_full)
    assert routes == {True, False}


@pytest.mark.parametrize("field", [f for f, _ in REF_FIELDS], ids=str)
def test_backends_on_degenerate_matrices(field):
    n = 5
    empty = VectorMatroid(GfMatrix(field, [], cols=0))
    assert check_table(empty) == [0]
    # rank 0: no rows, and rows that are all zero
    assert check_table(VectorMatroid(GfMatrix(field, [], cols=n))) == [0] * (1 << n)
    zeros = [[0] * n, [0] * n]
    assert check_table(matroid(field, zeros), zeros) == [0] * (1 << n)
    # rank n, the free matroid, with a repeated row
    free = list(identity_matrix(field, n).entries)
    table = check_table(matroid(field, free + free[:1]), free + free[:1])
    assert table == [bin(S).count("1") for S in range(1 << n)]
    # dependent rows: a row repeated and a row that is a sum of two others
    rows = [[1, 2 % field.q, 0, 1, 1], [0, 1, 1, 0, 1]]
    rows += [rows[0], [field.add(x, y) for x, y in zip(*rows)]]
    assert matroid(field, rows).rank_full == 2
    check_table(matroid(field, rows), rows)


def test_counting_across_several_chunks():
    # a byte field with far more than CHUNK_WORDS words in the code and in
    # its dual: the sweep never enumerates them
    rng = np.random.default_rng(17)
    for n, k in ((8, 4), (9, 5)):
        M = matroid(GF17, rank_k_rows(GF17, n, k, rng))
        assert GF17.q ** min(k, n - k) > CHUNK_WORDS
        check_table(M)


def rank_k_rows(field, n, k, rng):
    """Seeded k x n rows of rank exactly k."""
    while True:
        rows = [[int(x) for x in rng.integers(0, field.q, n)] for _ in range(k)]
        if rank_of_columns(field, rows) == k:
            return rows


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


# the byte step's three sums: XOR in characteristic 2; a uint8 sum less p
# over the primes below 128 (GF(5), GF(7), GF(17), GF(127)); the add table
# over odd prime powers and the primes from 131
BYTE_FIELDS = [f for f, _ in REF_FIELDS if f.q > 4] + [GF7, GF9, GF16, GF17, GF127, GF131, GF251]


@pytest.mark.parametrize("field", [f for f, _ in REF_FIELDS] + [GF131], ids=str)
def test_multipliers_cancel_each_entry(field):
    # g = table[c, e] / q makes c * g + e = 0 for every c != 0, and is 0
    # at c = 0, where the step must leave the residues unchanged
    q = field.q
    table = _multipliers(field)
    assert table.dtype == np.uint16 and table.shape == (q, q) and not table.flags.writeable
    assert not (table % q).any()
    g = table // q
    assert not g[0].any()
    c, e = np.arange(1, q)[:, None], np.arange(q)[None, :]
    assert not field.add_array[field.mul_array[c, g[1:]], e].any()


@pytest.mark.parametrize("field", BYTE_FIELDS, ids=str)
def test_byte_step_matches_reduce_vector(field):
    # N heads, zero heads and heads that lead with each nonzero value at
    # every position, each pivoted out of L residues at once (every fifth
    # residue a multiple of its head), in more than one slice, against the
    # scalar kernel with the head scaled to lead with 1 as basis; a zero
    # head changes nothing, and every residue is zero at its head's pivot
    m, N, L, Z = 6, 1800, 4, 200
    assert N - Z >= m * (field.q - 1) and N > SLICE_ENTRIES // (m * L)
    rng = np.random.default_rng(900 + field.q)
    heads = np.array(ref_random_rows(field, N, m, rng), dtype=np.uint8)
    for t in range(N):
        heads[t, : t % m] = 0
        heads[t, t % m] = 1 + t // m % (field.q - 1)
    heads[-Z:] = 0
    vs = np.array(ref_random_rows(field, N * L, m, rng), dtype=np.uint8).reshape(N, L, m)
    vs[::5, 0] = field.mul_array[1 + np.arange(0, N, 5)[:, None] % (field.q - 1), heads[::5]]
    vectors = np.concatenate([heads[:, None], vs], axis=1)  # (N, L + 1, m)
    res = np.stack([_encode(field, block) for block in vectors], axis=-1)
    assert res.dtype == np.uint8 and res.shape == (m, L + 1, N)
    out = np.empty_like(res[:, 1:])
    _byte_step(field, res, out)
    got = out.transpose(2, 1, 0)
    lead = (heads != 0).argmax(axis=1)
    for t in range(N):
        head = heads[t].tolist()
        c = head[lead[t]]
        basis = [tuple(field.mul(field.inv(c), x) for x in head)] if c else []
        assert got[t].tolist() == [reduce_vector(field, basis, v) for v in vs[t].tolist()], t
        if c:
            assert not got[t, :, lead[t]].any(), t
    assert (got[-Z:] == vs[-Z:]).all()
    assert not got[::5, 0].any()
    assert {(p, heads[t, p]) for t, p in enumerate(lead[:-Z])} == {
        (p, v) for p in range(m) for v in range(1, field.q)}


def decode(planes: np.ndarray, m: int) -> np.ndarray:
    """The entries of word planes (P, ...) of m bits, (..., m): entry j has
    bit k set where plane k has bit j."""
    bits = (planes[..., None] >> np.arange(m, dtype=np.uint16) & 1).astype(np.uint8)
    shifts = np.arange(len(planes), dtype=np.uint8).reshape((-1,) + (1,) * (bits.ndim - 1))
    return np.bitwise_or.reduce(bits << shifts)


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=str)
def test_word_step_matches_reduce_vector(field):
    # N heads, zero heads and heads that lead with each nonzero value at
    # every position, each pivoted out of L residues at once (every fifth
    # residue a multiple of its head), against the scalar kernel with the
    # head scaled to lead with 1 as basis; a zero head changes nothing
    m, N, L = 12, 80, 4
    rng = np.random.default_rng(950 + field.q)
    heads = np.array(ref_random_rows(field, N, m, rng), dtype=np.uint8)
    for t in range(N):
        heads[t, : t % m] = 0
        heads[t, t % m] = 1 + t // m % (field.q - 1)
    heads[::9] = 0
    vs = np.array(ref_random_rows(field, N * L, m, rng), dtype=np.uint8).reshape(N, L, m)
    vs[::5, 0] = field.mul_array[1 + np.arange(0, N, 5)[:, None] % (field.q - 1), heads[::5]]
    vectors = np.concatenate([heads[:, None], vs], axis=1)  # (N, L + 1, m)
    res = np.stack([_encode(field, block) for block in vectors], axis=-1)
    assert res.dtype == np.uint16 and res.shape == ((field.q - 1).bit_length(), L + 1, N)
    assert (decode(res, m) == vectors.transpose(1, 0, 2)).all()
    out = np.empty_like(res[:, 1:])
    _word_step(field, res, out)
    got = decode(out, m).transpose(1, 0, 2)
    for t in range(N):
        head = heads[t].tolist()
        lead = next((x for x in head if x), 0)
        basis = [tuple(field.mul(field.inv(lead), x) for x in head)] if lead else []
        assert got[t].tolist() == [reduce_vector(field, basis, v) for v in vs[t].tolist()], t
    assert not got[::5, 0].any()


@pytest.mark.parametrize(
    "field, n, k",
    [(GF2, 18, 5), (GF2, 17, 13), (GF3, 17, 4), (GF3, 18, 15), (GF5, 17, 3), (GF5, 17, 14),
     (GF256, 17, 2), (GF256, 18, 16)],
    ids=str,
)
def test_sweep_past_one_block_matches_counting(field, n, k):
    # n > 16: the high elements are enumerated and each seeds one doubling
    # of the low 16, on the code route (k <= n - k) and the dual route;
    # elimination is the reference on seeded masks from every block
    rng = np.random.default_rng(40 * n + k + field.q)
    rows = rank_k_rows(field, n, k, rng)
    for row in rows:
        row[-1] = row[0]  # a high element parallel to a low one
    M = matroid(field, rows)
    assert M.size > CHUNK_WORDS.bit_length() - 1
    assert (M.rank_full > n - M.rank_full) == (k > n - k)
    table = M.rank_table()
    cols = M.matrix.columns()
    masks = rng.integers(0, 1 << n, 300).tolist()
    masks += [H << 16 | low for H in range(1 << (n - 16)) for low in (0, 1, 0xFFFF)]
    for S in masks:
        assert table[S] == rank_of_columns(field, [cols[i] for i in range(n) if S >> i & 1]), S
    assert table[-1] == M.rank_full and table.dtype == np.uint8


def traced_peak(M) -> int:
    tracemalloc.start()
    try:
        M.rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sweep_allocates_the_table_and_one_block_of_bases():
    # a rank-3 code on 20 elements over GF(17): the uint8 table, plus the
    # byte residues of one block of 2^16 subsets (m bytes each, the old and
    # the new ones of a step) and the temporaries of the step; never an
    # array per table entry
    rng = np.random.default_rng(21)
    n, m = 20, 3
    M = matroid(GF17, rank_k_rows(GF17, n, m, rng))
    assert traced_peak(M) < (1 << n) + 8 * CHUNK_WORDS * m
    assert M.rank_table()[-1] == m


def test_sweep_memory_is_linear_in_m():
    # [20, 8] codes over GF(2) and GF(4): the uint8 table plus one block of
    # uint16 planes (a word a plane for each of the 2^16 subsets of a
    # block), held about four times over by the old and the new residues of
    # a step and the step's temporaries; never m bytes a residue
    rng = np.random.default_rng(22)
    n, m = 20, 8
    for field in (GF2, GF4):
        M = matroid(field, rank_k_rows(field, n, m, rng))
        planes = (field.q - 1).bit_length()
        assert traced_peak(M) < (1 << n) + 4 * planes * 2 * CHUNK_WORDS
        assert M.rank_table()[-1] == m


@pytest.mark.parametrize("field, n, m", [(GF5, 18, 2), (GF256, 17, 1), (GF3, 17, 4), (GF4, 18, 6)],
                         ids=str)
def test_sweep_matches_elimination_past_one_block(field, n, m):
    # the sweep on an m x n generator with a zero column (3), a low/low
    # parallel pair (1 and 5) and, where m <= n - 16, high columns 16..
    # that span F^m, so that their block is constant; elimination is the
    # reference on seeded masks from every block
    rng = np.random.default_rng(60 * n + m + field.q)
    gens = np.array(rank_k_rows(field, n, m, rng), dtype=np.uint8)
    gens[:, 3] = 0
    gens[:, 5] = field.mul_array[1 + field.q // 2, gens[:, 1]]
    if m <= n - 16:
        gens[:, 16 : 16 + m] = np.eye(m, dtype=np.uint8)
    assert rank_of_columns(field, gens.tolist()) == m
    table = _sweep_ranks(field, gens)
    cols = gens.T.tolist()
    masks = rng.integers(0, 1 << n, 3000).tolist()
    masks += [H << 16 | low for H in range(1 << (n - 16)) for low in (0, 1 << 3, 1 << 1 | 1 << 5, 0xFFFF)]
    for S in masks:
        assert table[S] == rank_of_columns(field, [cols[i] for i in range(n) if S >> i & 1]), S
    if m <= n - 16:
        H = (1 << m) - 1
        assert (table[H << 16 : (H + 1) << 16] == m).all()


@st.composite
def small_matrices(draw):
    field = draw(st.sampled_from([GF2, GF3, GF4, GF5, GF9, GF16, GF17, GF131, GF256]))
    n = draw(st.integers(0, 8))
    rows = draw(st.integers(0, n + 1))
    entries = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n),
                            min_size=rows, max_size=rows))
    return GfMatrix(field, entries, cols=n)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rank_table_equals_elimination_property(A):
    M = VectorMatroid(A)
    assert M.rank_table().tolist() == elimination_table(M)
