"""The isomorphism search against the per-subset walker it replaced, and
its key invariant against the layer profiles and circuit counts it
replaced.

`table_isomorphism` keeps its partial map as two index arrays (every subset
of the matched elements, and their images) and tests a candidate image with
one gather.  `_walker_isomorphism` below is the earlier search, kept as the
reference: the same element order, candidate order and invariants, but the
partial map is checked by walking every subset through the newest element
bit by bit.  Both must return the same first bijection, or both None.

The match order now comes from each element's counts of the keys
|S| * (n + 1) + r(S); `_layer_order` is the order the earlier element
invariants (rank, dependent pairs and triples through e) gave, and the two
must agree.
"""

import time

import numpy as np
import pytest

from matwidth.algebra import GfMatrix
from matwidth.graph import complete_bipartite, cycle_matroid
from matwidth.matroid import (
    VectorMatroid,
    _match_order,
    bits,
    iso_invariants,
    label_key,
    table_isomorphism,
)
from matwidth.minors import catalog_entry
from matwidth.pathwidth import parallel_classes
from util import GF2, GF3, GF4


def _walker_isomorphism(TM, labels_m, TN, labels_n):
    n = len(labels_m)
    keys_m, counts_m = iso_invariants(TM, n)
    keys_n, counts_n = iso_invariants(TN, n)
    inv_m = [row.tobytes() for row in counts_m]
    inv_n = [row.tobytes() for row in counts_n]
    if (keys_m != keys_n).any() or sorted(inv_m) != sorted(inv_n):
        return None

    order = _match_order(counts_m, labels_m)
    candidates = sorted(range(n), key=lambda j: label_key(labels_n[j]))
    image = [-1] * n
    used = [False] * n

    def masks_through(depth):
        fixed = order[depth]
        rest = order[:depth]
        for sub in range(1 << depth):
            m_mask = 1 << fixed
            for t, pos in enumerate(rest):
                if (sub >> t) & 1:
                    m_mask |= 1 << pos
            yield m_mask

    def translate(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << image[low.bit_length() - 1]
            mask ^= low
        return out

    def backtrack(depth):
        if depth == n:
            return True
        pos = order[depth]
        for cand in candidates:
            if used[cand] or inv_n[cand] != inv_m[pos]:
                continue
            image[pos] = cand
            used[cand] = True
            ok = all(TM[m_mask] == TN[translate(m_mask)] for m_mask in masks_through(depth))
            if ok and backtrack(depth + 1):
                return True
            used[cand] = False
            image[pos] = -1
        return False

    if not backtrack(0):
        return None
    return {labels_m[i]: labels_n[image[i]] for i in range(n)}


def _random_matroid(rng, field, n):
    """A random matrix on n columns with repeated and zero columns mixed in,
    so that elements share invariants and the search has to branch."""
    rows = n // 2 + int(rng.integers(0, 2))
    cols = [tuple(int(x) for x in rng.integers(0, field.q, rows)) for _ in range(n)]
    for j in range(1, n):
        if rng.random() < 0.15:
            cols[j] = cols[int(rng.integers(0, j))]
    entries = [[col[i] for col in cols] for i in range(rows)]
    return VectorMatroid(GfMatrix(field, entries, cols=n), tuple(range(n)))


def _relabelled(M, perm):
    """M with column perm[j] moved to position j and labelled "ej", so that
    the candidates' label order is not M's."""
    cols = M.columns
    entries = [[cols[p][i] for p in perm] for i in range(M.matrix.rows)]
    return VectorMatroid(GfMatrix(M.field, entries, cols=M.size), tuple(f"e{j}" for j in range(M.size)))


def _both(M, N):
    args = (M.rank_table(), M.labels, N.rank_table(), N.labels)
    return table_isomorphism(*args), _walker_isomorphism(*args)


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
@pytest.mark.parametrize("n", range(10))
def test_same_bijection_as_the_walker_on_relabelled_tables(field, n):
    rng = np.random.default_rng(1000 * field.q + n)
    for _ in range(3):
        M = _random_matroid(rng, field, n)
        N = _relabelled(M, [int(p) for p in rng.permutation(n)])
        new, old = _both(M, N)
        assert new is not None and new == old
        # the bijection carries every rank over
        assert all(M.rank_subset(S) == N.rank_subset([new[e] for e in S])
                   for S in ([M.labels[i] for i in range(n) if mask >> i & 1] for mask in range(1 << n)))


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_same_answer_as_the_walker_on_random_pairs(field):
    rng = np.random.default_rng(77 + field.q)
    for n in range(2, 9):
        for _ in range(4):
            M, N = _random_matroid(rng, field, n), _random_matroid(rng, field, n)
            if M.rank_full == N.rank_full:
                new, old = _both(M, N)
                assert new == old


@pytest.mark.parametrize("name", ["MK5", "MK5*", "MK33", "K25"])
def test_same_bijection_as_the_walker_on_relabelled_symmetric_matroids(name):
    if name == "K25":
        M = cycle_matroid(complete_bipartite(2, 5), GF3)
    else:
        M = catalog_entry(name, GF3).matroid
    rng = np.random.default_rng(5)
    N = _relabelled(M, [int(p) for p in rng.permutation(M.size)])
    new, old = _both(M, N)
    assert new is not None and new == old


def test_same_profile_non_isomorphic_pair():
    # MK5* and the cycle matroid of K2,5 agree on the 1-, 2- and 3-element
    # layers and the earlier element invariants, not on the key counts
    K25 = cycle_matroid(complete_bipartite(2, 5), GF3)
    MK5_dual = catalog_entry("MK5*", GF3).matroid
    assert _both(MK5_dual, K25) == (None, None)


@pytest.mark.parametrize("order", ["K25:MK5*", "MK5*:K25"])
def test_same_profile_pair_is_refused_fast(order):
    # 3.3 s and 0.23 s with the layer profiles and circuit counts
    named = {"K25": cycle_matroid(complete_bipartite(2, 5), GF3), "MK5*": catalog_entry("MK5*", GF3).matroid}
    M, N = (named[name] for name in order.split(":"))
    args = (M.rank_table(), M.labels, N.rank_table(), N.labels)
    start = time.perf_counter()
    assert table_isomorphism(*args) is None
    assert time.perf_counter() - start < 0.1


def _layer_order(table, labels):
    """The match order of the earlier invariants: the masks of the 1-, 2-
    and 3-element layers, (rank, dependent pairs, dependent triples) of
    each element, and the sort key (-pairs, -triples, rank, label)."""
    n = len(labels)
    pc = bits(n).sum(axis=0)
    layers = tuple(np.flatnonzero(pc == card) for card in range(1, min(3, n) + 1))
    counts = [table[1 << np.arange(n)], np.zeros(n, dtype=int), np.zeros(n, dtype=int)]
    for card in range(2, len(layers) + 1):
        idx = layers[card - 1]
        counts[card - 1] = bits(n)[:, idx[table[idx] < card]].sum(axis=1)
    inv = list(zip(*(c.tolist() for c in counts)))

    def circuit_degree_key(inv):
        single, dep_pairs, dep_triples = inv
        return (-dep_pairs, -dep_triples, single)

    return sorted(range(n), key=lambda i: (circuit_degree_key(inv[i]), label_key(labels[i])))


def _with_loops_and_parallels(rng, field, n):
    """A random matroid on n elements with loops and parallel (scalar
    multiple) pairs planted, and labels that are not in column order."""
    rows = int(rng.integers(1, max(n // 2, 1) + 2))
    cols = [[int(x) for x in rng.integers(0, field.q, rows)] for _ in range(n)]
    for j in range(1, n):
        pick = rng.random()
        if pick < 0.15:
            cols[j] = [0] * rows
        elif pick < 0.4:
            c = int(rng.integers(1, field.q))
            cols[j] = [field.mul(c, x) for x in cols[int(rng.integers(0, j))]]
    labels = [f"e{int(p)}" for p in rng.permutation(n)]
    entries = [[col[r] for col in cols] for r in range(rows)]
    return VectorMatroid(GfMatrix(field, entries, cols=n), labels)


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_match_order_is_the_layer_order(field):
    rng = np.random.default_rng(400 + field.q)
    loops = parallels = 0
    for n in range(13):
        for _ in range(4):
            M = _with_loops_and_parallels(rng, field, n)
            table = M.rank_table()
            _, counts = iso_invariants(table, n)
            assert _match_order(counts, M.labels) == _layer_order(table, M.labels)
            classes = parallel_classes(M)
            loops += any(not any(M.columns[c[0]]) for c in classes)
            parallels += any(len(c) > 1 and any(M.columns[c[0]]) for c in classes)
    assert loops and parallels


def test_bits_matrix():
    for n in range(5):
        B = bits(n)
        assert B.shape == (n, 1 << n) and not B.flags.writeable
        assert [int(m) for m in (1 << np.arange(n)) @ B] == list(range(1 << n))
        assert B.sum(axis=0).tolist() == [bin(m).count("1") for m in range(1 << n)]


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_sorted_keys_follow_from_the_count_rows(field):
    # table_isomorphism compares only the sorted count rows, because they
    # fix the sorted keys: the subsets of size s > 0 with key s * (n + 1) + r
    # number that key's column sum over the counts divided by s, and the
    # empty set has key 0
    rng = np.random.default_rng(600 + field.q)
    for n in range(11):
        for _ in range(3):
            M = _with_loops_and_parallels(rng, field, n)
            keys, counts = iso_invariants(M.rank_table(), n)
            sizes = np.arange((n + 1) ** 2) // (n + 1)
            hist = counts.sum(axis=0, dtype=np.intp) // np.maximum(sizes, 1)
            hist[0] = 1
            assert np.array_equal(np.repeat(np.arange((n + 1) ** 2), hist), keys)


class _LoggedTable(np.ndarray):
    """A rank table that logs (side, bit) for each index-array read whose
    first index is nonzero.  A table_isomorphism gather reads every subset
    of the matched elements plus one new bit, empty set first, so that
    first index is the new bit alone: the element on TM's side, the
    candidate on TN's."""

    def __getitem__(self, key):
        log = getattr(self, "log", None)
        if log is not None and isinstance(key, np.ndarray) and key.size and key.flat[0]:
            log.append((self.side, int(key.flat[0]).bit_length() - 1))
        return super().__getitem__(key)


def _gathered_pairs(M, N):
    """table_isomorphism(M, N) on logged tables: the bijection found, and
    the (element, candidate) pair of every gather on N's table."""
    log, tables = [], []
    for side, X in (("M", M), ("N", N)):
        T = X.rank_table().view(_LoggedTable)
        T.side, T.log = side, log
        tables.append(T)
    bij = table_isomorphism(tables[0], M.labels, tables[1], N.labels)
    pairs, pos = [], None
    for side, bit in log:
        if side == "M":
            pos = bit
        else:
            pairs.append((pos, bit))
    return bij, pairs


def test_candidate_filter_gathers_only_matching_count_rows():
    # a candidate whose key counts differ from its element's can never be
    # its image, so the filter keeps it out of the gathers: a loop beside a
    # parallel pair, then random matroids with loops and parallels planted
    loop_and_pair = VectorMatroid(GfMatrix(GF2, [(0, 1, 1)], cols=3))
    cases = [(loop_and_pair, [1, 2, 0]), (loop_and_pair, [0, 1, 2])]
    rng = np.random.default_rng(700)
    for field in (GF2, GF3):
        for n in range(2, 9):
            M = _with_loops_and_parallels(rng, field, n)
            cases.append((M, [int(p) for p in rng.permutation(n)]))
    differing = 0
    for M, perm in cases:
        N = _relabelled(M, perm)
        bij, pairs = _gathered_pairs(M, N)
        assert bij is not None and pairs
        counts_m = iso_invariants(M.rank_table(), M.size)[1]
        counts_n = iso_invariants(N.rank_table(), N.size)[1]
        for pos, cand in pairs:
            assert np.array_equal(counts_n[cand], counts_m[pos]), (pos, cand)
        differing += len({row.tobytes() for row in counts_m}) > 1
    assert differing >= len(cases) // 2
