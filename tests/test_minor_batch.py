"""The batched minor search against a pair-by-pair copy of the same search,
and the memory the batches take.

`_pairwise_minor_contains` is the search as it was before candidates were
batched: one (X, Y) pair at a time, each tested for rank
and then handed to `table_isomorphism`.  The batched `minor_contains` must
return the same certificate (the same X, Y and bijection) or None, and
must hand `table_isomorphism` exactly the candidates, in the same order,
that the pairwise loop passes both its rank test and the sorted keys
|S| * (n + 1) + r(S) that `table_isomorphism` tests first.  Its two
kernels are also checked alone: the cached expansion tables against the
kept-positions matrix product that built each pair's index before, and
the key-histogram filter against sorted keys.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matwidth.minors as minors
from matwidth.algebra import GfMatrix
from matwidth.graph import complete_bipartite, cycle_graph, cycle_matroid, mk_graph
from matwidth.matroid import (
    ISO_MAX_GROUND,
    MinorSpec,
    VectorMatroid,
    apply_minor,
    bits,
    iso_invariants,
    label_key,
    table_isomorphism,
)
from matwidth.minors import (
    MinorCertificate,
    _expansions,
    _key_filter,
    catalog_entry,
    excluded_minor_catalog,
    minor_contains,
    uniform_matroid,
)
from util import GF2, GF3, GF4, GF5, matroid, u24


def _pairwise_minor_contains(host, pattern, iso=table_isomorphism):
    """The one-candidate-at-a-time search (see the module docstring)."""
    n_host, n_pat = host.size, pattern.size
    if n_pat > n_host or pattern.rank_full > host.rank_full:
        return None
    T = host.rank_table()
    T_pat = pattern.rank_table()
    inv_pat = iso_invariants(T_pat, n_pat)
    bits = (np.arange(1 << n_pat)[:, None] >> np.arange(n_pat)) & 1
    full = host.full_mask
    removals = n_host - n_pat
    max_contract = host.rank_full - pattern.rank_full
    positions = sorted(range(n_host), key=lambda i: label_key(host.labels[i]))
    for c_size in range(min(max_contract, removals) + 1):
        d_size = removals - c_size
        for X_pos in itertools.combinations(positions, c_size):
            xmask = sum(1 << i for i in X_pos)
            if T[xmask] != c_size:
                continue
            rest = [i for i in positions if not (xmask >> i) & 1]
            for Y_pos in itertools.combinations(rest, d_size):
                ymask = sum(1 << i for i in Y_pos)
                if T[full ^ ymask] - c_size != pattern.rank_full:
                    continue
                kept = [i for i in range(n_host) if not ((xmask | ymask) >> i) & 1]
                table = T[bits @ (1 << np.array(kept, dtype=np.intp)) | xmask] - c_size
                bij = iso(T_pat, pattern.labels, table, [host.labels[i] for i in kept], inv_pat)
                if bij is not None:
                    X = frozenset(host.labels[i] for i in X_pos)
                    Y = frozenset(host.labels[i] for i in Y_pos)
                    return MinorCertificate(X, Y, bij)
    return None


def _recording(calls, keys_only):
    """table_isomorphism, recording (labels, table) of each call; with
    keys_only, only of the calls whose candidate has the pattern's sorted
    keys."""

    def iso(TM, labels_m, TN, labels_n, invariants_m):
        keys, _ = iso_invariants(TN, len(labels_n))
        if not keys_only or (keys == invariants_m[0]).all():
            calls.append((tuple(labels_n), TN.tobytes()))
        return table_isomorphism(TM, labels_m, TN, labels_n, invariants_m)

    return iso


def _assert_same_search(host, pattern, monkeypatch):
    """Same certificate as the pairwise loop, and the same candidates handed
    to table_isomorphism; returns whether a minor was found."""
    ref_calls, calls = [], []
    expect = _pairwise_minor_contains(host, pattern, _recording(ref_calls, keys_only=True))
    with monkeypatch.context() as m:
        m.setattr(minors, "table_isomorphism", _recording(calls, keys_only=False))
        got = minor_contains(host, pattern)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        assert (got.contract, got.delete, got.bijection) == (expect.contract, expect.delete, expect.bijection)
    assert calls == ref_calls
    return got is not None


def _random_labels(rng, n):
    """n distinct labels, ints and strings mixed, in random order."""
    pool = [int(i) for i in rng.permutation(np.arange(1, 3 * n + 1))[:n]]
    for j in rng.choice(n, size=n // 2, replace=False):
        pool[j] = f"e{pool[j]}"
    return pool


def _random_host(rng, field, n):
    """A seeded host over the field on n elements, with a loop and a pair of
    parallel (scalar-multiple) elements planted in most draws."""
    rows = int(rng.integers(2, min(n, 5) + 1))
    cols = [[int(x) for x in rng.integers(0, field.q, rows)] for _ in range(n)]
    if rng.integers(3):
        cols[int(rng.integers(n))] = [0] * rows
    if rng.integers(3):
        src, dst = (int(v) for v in rng.choice(n, size=2, replace=False))
        c = int(rng.integers(1, field.q))
        cols[dst] = [field.mul(c, x) for x in cols[src]]
    entries = [[col[r] for col in cols] for r in range(rows)]
    return matroid(field, entries, _random_labels(rng, n))


def _relabelled_minor(rng, host):
    """A random minor of the host, its columns permuted and scaled by nonzero
    scalars and its elements renamed: a pattern that occurs in the host."""
    n = host.size
    k = int(rng.integers(1, min(n, 7) + 1))
    removed = [host.labels[i] for i in rng.permutation(n)[: n - k]]
    cut = int(rng.integers(len(removed) + 1))
    N = apply_minor(host, MinorSpec(frozenset(removed[:cut]), frozenset(removed[cut:])))
    field = N.field
    order = rng.permutation(N.size)
    scale = [int(rng.integers(1, field.q)) for _ in order]
    entries = [[field.mul(s, row[j]) for s, j in zip(scale, order)] for row in N.matrix.entries]
    return VectorMatroid(GfMatrix(field, entries, cols=N.size), _random_labels(rng, N.size))


def _random_pattern(rng, field):
    n = int(rng.integers(2, 7))
    rows = int(rng.integers(1, n + 1))
    entries = [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))]
    return matroid(field, entries, _random_labels(rng, n))


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=str)
def test_batched_search_matches_pairwise_loop(field, monkeypatch):
    rng = np.random.default_rng(900 + field.q)
    catalog = [e.matroid for e in excluded_minor_catalog(1, field)]
    found = []
    for t in range(20):
        host = _random_host(rng, field, int(rng.integers(5, 11)))
        for pattern in (_relabelled_minor(rng, host), _random_pattern(rng, field), catalog[t % len(catalog)]):
            found.append(_assert_same_search(host, pattern, monkeypatch))
    assert any(found) and not all(found)


def test_batched_search_matches_pairwise_loop_on_graph_hosts(monkeypatch):
    # the check-minor queries of the benchmark: cycle matroids over GF(3)
    for G in _benchmark_graphs():
        host = cycle_matroid(G, GF3)
        for entry in excluded_minor_catalog(1, GF3):
            _assert_same_search(host, entry.matroid, monkeypatch)


@pytest.mark.parametrize("batch_bytes", [0, 1 << 30])
def test_slice_size_changes_nothing(batch_bytes, monkeypatch):
    # 0: one contract set per slice; 1 << 30: no cap, one slice for each
    # contract size
    monkeypatch.setattr(minors, "BATCH_BYTES", batch_bytes)
    for G in _benchmark_graphs():
        host = cycle_matroid(G, GF3)
        for entry in excluded_minor_catalog(1, GF3):
            _assert_same_search(host, entry.matroid, monkeypatch)
    rng = np.random.default_rng(31)
    found = []
    for field in (GF2, GF3, GF4):
        catalog = [e.matroid for e in excluded_minor_catalog(1, field)]
        for t in range(10):
            host = _random_host(rng, field, int(rng.integers(9, 12)))
            for pattern in (_relabelled_minor(rng, host), _random_pattern(rng, field), catalog[t % len(catalog)]):
                found.append(_assert_same_search(host, pattern, monkeypatch))
    assert any(found) and not all(found)


def test_one_slice_per_contract_size_without_a_cap(monkeypatch):
    # the slice width comes from the byte cap alone: with no cap, each
    # contract size is one slice, counted as one call of the key filter
    monkeypatch.setattr(minors, "BATCH_BYTES", 1 << 30)
    slices = []

    def counting(keys_pat):
        matching, bins = _key_filter(keys_pat)

        def counted(keys):
            slices.append(len(keys))
            return matching(keys)

        return counted, bins

    monkeypatch.setattr(minors, "_key_filter", counting)
    host = cycle_matroid(complete_bipartite(2, 5), GF3)
    mk4 = catalog_entry("MK4", GF3).matroid
    assert minor_contains(host, mk4) is None  # K25 is series-parallel
    contract_sizes = min(host.rank_full - mk4.rank_full, host.size - mk4.size) + 1
    assert 0 < len(slices) <= contract_sizes


def test_rank_filter_runs_before_the_layer_test(monkeypatch):
    # deleting any of e1, e2, e3 leaves a free 4-set of rank 4: the same
    # ranks as the 4-circuit on 1-, 2- and 3-sets; only the full set's rank
    # tells them apart, and the rank test drops it before any key is read
    host = matroid(GF2, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 0)])
    circuit = matroid(GF2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)], ["a", "b", "c", "d"])
    assert _assert_same_search(host, circuit, monkeypatch)


def test_edge_cases(monkeypatch):
    empty = VectorMatroid(GfMatrix(GF3, [], cols=0))
    with_loop = matroid(GF3, [(1, 0, 1, 0), (0, 1, 1, 0)], [1, 2, 3, "z"])
    cases = [
        (u24(), empty),  # an empty pattern: everything deleted or contracted
        (empty, empty),
        (matroid(GF3, [(1, 0, 1, 1, 0, 1), (0, 1, 1, 2, 0, 1)]), with_loop),  # a pattern with a loop
        (u24(), u24()),  # d_size = 0 and c_size = 0: the pattern is the host
        (u24(), matroid(GF3, [(1, 1, 1)])),  # U13 needs a contraction and no deletion
        (uniform_matroid(2, 5, GF5), uniform_matroid(2, 4, GF5)),  # equal ranks: c_size = 0 only
        (matroid(GF2, [(1, 1, 0, 1), (0, 0, 1, 1)]), matroid(GF2, [(1, 1, 1)])),
    ]
    found = [_assert_same_search(host, pattern, monkeypatch) for host, pattern in cases]
    assert found == [True, True, True, True, True, True, True]
    cert = minor_contains(u24(), empty)
    assert cert.contract == frozenset() and cert.delete == frozenset(u24().labels) and cert.bijection == {}
    assert minor_contains(u24(), matroid(GF3, [(1, 0, 0)])) is None  # a loop U24 lacks


# ---------------------------------------------------------------------------
# kernels


def test_expansions_match_the_kept_positions_construction():
    # every k-subset K of every ground set within ISO_MAX_GROUND: its row
    # sends each k-bit mask S to the host mask (1 << kept) @ bits(k), kept
    # the positions of K in order, as the search built it pair by pair
    for n in range(ISO_MAX_GROUND + 1):
        for k in range(n + 1):
            combos, ids, expand = _expansions.__wrapped__(n, k)  # not kept in the cache
            kept = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)
            masks = (1 << kept).sum(axis=1)
            assert (combos == kept).all() and (ids[masks] == np.arange(len(kept))).all()
            assert expand.dtype == np.uint16 and not expand.flags.writeable and not ids.flags.writeable
            assert (expand[ids[masks]] == (1 << kept) @ bits(k)).all()


@st.composite
def _keys_and_rows(draw):
    """A pattern's 2^n_pat keys below (n_pat + 1)^2, n_pat = 0 included, and
    rows to test: its keys permuted, permuted with one key changed (to one
    the pattern may lack), or drawn at random from every uint8."""
    n_pat = draw(st.integers(0, 4))
    size = 1 << n_pat
    pattern = draw(st.lists(st.integers(0, (n_pat + 1) ** 2 - 1), min_size=size, max_size=size))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["permuted", "changed", "random"]), max_size=12)):
        row = list(draw(st.permutations(pattern)))
        if kind == "changed":
            row[draw(st.integers(0, size - 1))] = draw(st.integers(0, 255))
        elif kind == "random":
            row = draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))
        rows.append(row)
    return pattern, rows


@settings(max_examples=300, deadline=None)
@given(_keys_and_rows())
def test_key_histograms_accept_exactly_the_rows_with_the_sorted_keys(case):
    pattern, rows = case
    matching, bins = _key_filter(np.array(pattern, dtype=np.uint8))
    assert bins == len(set(pattern)) + 1
    keys = np.array(rows, dtype=np.uint8).reshape(len(rows), len(pattern))
    assert matching(keys).tolist() == [r for r, row in enumerate(rows) if sorted(row) == sorted(pattern)]


# ---------------------------------------------------------------------------
# memory


def _benchmark_graphs():
    """The hosts of the benchmark's check-minor queries: the 5-spoke wheel,
    K33, the 5-fan, K25 and C9."""
    wheel = mk_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])
    fan = mk_graph(6, [(i, i + 1) for i in range(4)] + [(5, i) for i in range(5)])
    return [wheel, complete_bipartite(3, 3), fan, complete_bipartite(2, 5), cycle_graph(9)]


def _search_peak(host, pattern) -> int:
    """tracemalloc peak of one minor_contains call, tables built beforehand."""
    host.rank_table()
    pattern.rank_table()
    tracemalloc.start()
    try:
        minor_contains(host, pattern)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_stays_bounded():
    # a slice gathers at most BATCH_BYTES of candidate tables, or the rows
    # of one contract set where those alone are more
    patterns = [e.matroid for e in excluded_minor_catalog(1, GF3)]
    peaks = [_search_peak(cycle_matroid(G, GF3), P) for G in _benchmark_graphs() for P in patterns]
    assert max(peaks) <= 256 * 1024
    rng = np.random.default_rng(12)
    for _ in range(3):
        rows = [[int(x) for x in r] for r in rng.integers(0, 3, (int(rng.integers(3, 8)), 12))]
        host = matroid(GF3, rows)
        for P in patterns:
            assert _search_peak(host, P) <= 1024 * 1024
