"""Rank / connectivity / closure oracles, minors, duals, sums, isomorphism."""

import itertools

import numpy as np
import pytest

from matwidth.matroid import (
    FieldMismatch,
    GroundSetTooLarge,
    MinorSpec,
    OverlappingSets,
    VectorMatroid,
    apply_minor,
    contract,
    delete,
    direct_sum,
    dual,
    is_isomorphic,
    label_key,
    matroid_from_text,
    matroid_to_text,
)
from matwidth.minors import uniform_matroid
from matwidth.algebra import GfMatrix
from util import GF2, GF3, GF4, GF5, REF_FIELDS, matroid, ref_random_rows, ref_rank_table, u24, uniform_check

G23_ROWS_GF3 = [(1, 0, 0, 0, 2, 2), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)]


def mk23(field=GF3):
    rows = [[field.neg(1) if x == 2 else x for x in row] for row in G23_ROWS_GF3]
    return matroid(field, rows)


def random_matroid(rng, field, n):
    rows = int(rng.integers(1, n + 1))
    return matroid(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])


# ---------------------------------------------------------------------------
# rank_subset


def test_u24_representation_is_uniform():
    # oracle: every 2-subset of columns independent
    M = u24()
    assert uniform_check(M, 2)
    assert M.rank_subset([1, 2]) == 2


def test_rank_empty_subset():
    assert u24().rank_subset([]) == 0
    assert u24().rank_subset(0) == 0


def test_k23_triples_are_independent():
    M = mk23()
    for J in itertools.combinations(M.labels, 3):
        assert M.rank_subset(J) == 3


def test_rank_table_matches_elimination_over_extension_fields():
    from matwidth import field_new
    from matwidth.algebra import rank_of_columns

    rng = np.random.default_rng(99)
    for field in (GF4, field_new(2, 3), field_new(3, 2)):
        n = 6
        rows = int(rng.integers(1, n + 1))
        M = matroid(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])
        table = M.rank_table()
        cols = [M.matrix.column(j) for j in range(n)]
        for mask in range(1 << n):
            direct = rank_of_columns(field, [cols[i] for i in range(n) if (mask >> i) & 1])
            assert int(table[mask]) == direct


def test_memoized_rank_matches_fresh_replay():
    rng = np.random.default_rng(2)
    M = random_matroid(rng, GF3, 7)
    masks = [int(rng.integers(0, 1 << 7)) for _ in range(60)]
    first = [M.rank_subset(m) for m in masks]
    fresh = VectorMatroid(M.matrix, M.labels)
    assert first == [fresh.rank_subset(m) for m in masks]
    # and the full table agrees with the elimination path
    table = M.rank_table()
    for m in masks:
        assert int(table[m]) == fresh.rank_subset(m)


# ---------------------------------------------------------------------------
# connectivity


def test_u24_connectivity_pairs():
    M = u24()
    assert M.connectivity([1, 2]) == 2


def test_connectivity_of_full_and_empty():
    M = u24()
    assert M.connectivity(M.full_mask) == 0
    assert M.connectivity(0) == 0


def test_k23_three_subsets_have_lambda_2():
    M = mk23()
    for J in itertools.combinations(M.labels, 3):
        assert M.connectivity(J) == 2


def test_lambda_symmetry_range_submodularity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        field = GF2 if rng.integers(2) else GF3
        n = int(rng.integers(2, 9))
        M = random_matroid(rng, field, n)
        full = M.full_mask
        for _ in range(20):
            X = int(rng.integers(0, full + 1))
            Y = int(rng.integers(0, full + 1))
            lx, ly = M.connectivity(X), M.connectivity(Y)
            assert lx == M.connectivity(full ^ X)
            size = bin(X).count("1")
            assert 0 <= lx <= min(size, n - size)
            assert M.connectivity(X | Y) + M.connectivity(X & Y) <= lx + ly


def test_lambda_monotone_under_single_element_minors():
    rng = np.random.default_rng(9)
    for _ in range(20):
        field = GF3
        n = int(rng.integers(3, 9))
        M = random_matroid(rng, field, n)
        lbl = M.labels[int(rng.integers(n))]
        for N in (delete(M, [lbl]), contract(M, [lbl])):
            for mask in range(1 << N.size):
                sub = [N.labels[i] for i in range(N.size) if (mask >> i) & 1]
                assert N.connectivity(sub) <= M.connectivity(sub)


# ---------------------------------------------------------------------------
# closure


def test_closure_of_everything():
    M = u24()
    assert M.closure(M.labels) == frozenset(M.labels)


def test_closure_singleton_uniform():
    assert u24().closure([1]) == frozenset([1])


def test_closure_idempotent_and_contains():
    rng = np.random.default_rng(21)
    M = random_matroid(rng, GF2, 7)
    for _ in range(20):
        X = int(rng.integers(0, M.full_mask + 1))
        cl = M.closure(X)
        assert cl & X == X
        assert M.closure(cl) == cl


# ---------------------------------------------------------------------------
# minors


def test_empty_minor_preserves_rank_function():
    M = u24()
    N = apply_minor(M, MinorSpec(frozenset(), frozenset()))
    for mask in range(1 << 4):
        assert N.rank_subset(mask) == M.rank_subset(mask)


def test_u36_contract_delete_is_u24():
    M = uniform_matroid(3, 6, GF4)
    N = apply_minor(M, MinorSpec(frozenset([1]), frozenset([2])))
    # oracle: brute-force rank check against the uniform formula
    assert N.size == 4
    assert uniform_check(N, 2)


def test_minor_rank_formula_with_dependent_contract():
    rng = np.random.default_rng(31)
    for _ in range(15):
        M = random_matroid(rng, GF3, 7)
        n = M.size
        cmask = int(rng.integers(0, 1 << n))
        dmask = int(rng.integers(0, 1 << n)) & ~cmask
        X = frozenset(M.labels[i] for i in range(n) if (cmask >> i) & 1)
        Y = frozenset(M.labels[i] for i in range(n) if (dmask >> i) & 1)
        N = apply_minor(M, MinorSpec(X, Y))
        rX = M.rank_subset(cmask)
        for mask in range(1 << N.size):
            S = [N.labels[i] for i in range(N.size) if (mask >> i) & 1]
            assert N.rank_subset(S) == M.rank_subset(set(S) | X) - rX


@pytest.mark.parametrize("field,m_max", REF_FIELDS, ids=lambda x: str(x))
def test_rank_table_and_minor_identity_match_reference(field, m_max):
    # tables and minors against ranks counted from enumerated row spaces;
    # a contract set larger than r(M) is always dependent
    rng = np.random.default_rng(100 + field.q)
    dependent = 0
    for _ in range(6 if field.q < 16 else 2):
        m, n = int(rng.integers(1, m_max + 1)), int(rng.integers(1, 9))
        rows = ref_random_rows(field, m, n, rng)
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        ref = ref_rank_table(field, rows, n)
        assert M.rank_table().tolist() == ref
        order = [int(i) for i in rng.permutation(n)]
        cmask = sum(1 << i for i in order[: min(n, ref[-1] + 1)])
        dmask = int(rng.integers(0, 1 << n)) & ~cmask
        dependent += ref[cmask] < bin(cmask).count("1")
        N = apply_minor(M, MinorSpec(frozenset(M.labels_of(cmask)), frozenset(M.labels_of(dmask))))
        kept = [i for i in range(n) if not ((cmask | dmask) >> i) & 1]
        N_ref = ref_rank_table(field, N.matrix.entries, N.size)
        for S in range(1 << N.size):
            host = sum(1 << kept[t] for t in range(N.size) if (S >> t) & 1)
            assert N_ref[S] == ref[host | cmask] - ref[cmask]
    assert dependent


def test_overlapping_sets_rejected():
    with pytest.raises(OverlappingSets):
        MinorSpec(frozenset([1]), frozenset([1, 2]))


def test_k4_minus_any_edge_has_pathwidth_one():
    from matwidth.graph import complete_graph, cycle_matroid
    from matwidth.pathwidth import pathwidth_exact

    M = cycle_matroid(complete_graph(4), GF2)
    for lbl in M.labels:
        assert pathwidth_exact(delete(M, [lbl])).width <= 1


def test_minor_labels_preserved():
    M = u24()
    N = apply_minor(M, MinorSpec(frozenset([2]), frozenset([4])))
    assert N.labels == (1, 3)


# ---------------------------------------------------------------------------
# dual


def test_dual_is_involution():
    rng = np.random.default_rng(41)
    for _ in range(10):
        M = random_matroid(rng, GF3, 6)
        D = dual(dual(M))
        for mask in range(1 << 6):
            assert D.rank_subset(mask) == M.rank_subset(mask)


def test_dual_rank_identity_exhaustive():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        M = random_matroid(rng, GF2, n)
        D = dual(M)
        full = M.full_mask
        for mask in range(1 << n):
            size = bin(mask).count("1")
            assert D.rank_subset(mask) == size + M.rank_subset(full ^ mask) - M.rank_full


def test_dual_lambda_agreement_200_random_subsets():
    rng = np.random.default_rng(47)
    M = mk23()
    D = dual(M)
    for _ in range(200):
        mask = int(rng.integers(0, M.full_mask + 1))
        assert M.connectivity(mask) == D.connectivity(mask)


def test_dual_of_k23_matroid_matches_printed_dual_representation():
    M = mk23()
    dual_rep = matroid(GF3, [(1, 2, 0, 2, 1, 0), (1, 0, 2, 2, 0, 1)])  # -1 -> 2
    bij = is_isomorphic(dual(M), dual_rep)
    assert bij is not None


# ---------------------------------------------------------------------------
# direct sum


def test_direct_sum_with_empty():
    M = u24()
    E = matroid(GF3, [], labels=())
    S = direct_sum(M, E)
    for mask in range(1 << 4):
        assert S.rank_subset(mask) == M.rank_subset(mask)


def test_direct_sum_two_parallel_pairs():
    U12 = matroid(GF2, [(1, 1)])
    S = direct_sum(U12, U12)
    assert S.rank_full == 2
    assert all(S.rank_subset([lbl]) == 1 for lbl in S.labels)
    assert S.connectivity(S.labels[:2]) == 0
    assert S.labels == (1, 2, "1'", "2'")


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum(matroid(GF2, [(1,)]), matroid(GF3, [(1,)]))


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_to_itself():
    M = mk23()
    bij = is_isomorphic(M, M)
    assert bij == {lbl: lbl for lbl in M.labels}


def test_k23_not_isomorphic_to_its_dual():
    M = mk23()
    assert is_isomorphic(M, dual(M)) is None


def test_u24_isomorphic_across_fields():
    A = u24(GF3)
    B = uniform_matroid(2, 4, GF5)
    assert uniform_check(B, 2)
    bij = is_isomorphic(A, B)
    assert bij is not None
    # the witness maps rank functions exactly
    for mask in range(1 << 4):
        S = [A.labels[i] for i in range(4) if (mask >> i) & 1]
        assert A.rank_subset(S) == B.rank_subset([bij[x] for x in S])


def test_isomorphism_ground_set_cap():
    M = matroid(GF2, [[1] * 13])
    with pytest.raises(GroundSetTooLarge):
        is_isomorphic(M, M)


def test_isomorphism_matches_unpruned_permutation_search():
    rng = np.random.default_rng(4242)

    def brute_iso(M, N):
        TM, TN = M.rank_table(), N.rank_table()
        n = M.size
        for perm in itertools.permutations(range(n)):
            ok = True
            for mask in range(1 << n):
                img = 0
                mm = mask
                while mm:
                    low = mm & -mm
                    img |= 1 << perm[low.bit_length() - 1]
                    mm ^= low
                if TM[mask] != TN[img]:
                    ok = False
                    break
            if ok:
                return True
        return False

    for t in range(30):
        field = GF2 if t % 2 else GF3
        n = int(rng.integers(2, 6))
        M = random_matroid(rng, field, n)
        if t % 3 == 0:
            perm = [int(i) for i in rng.permutation(n)]
            ent = [[M.matrix.entries[r][perm[j]] for j in range(n)] for r in range(M.matrix.rows)]
            from matwidth.algebra import GfMatrix

            N = VectorMatroid(GfMatrix(field, ent, cols=n))
        else:
            N = random_matroid(rng, field, n)
        assert (is_isomorphic(M, N) is not None) == brute_iso(M, N)


def test_non_isomorphic_same_profile():
    # triangle + coloop vs three parallel edges + coloop: same sizes, ranks differ on pairs
    tri = matroid(GF2, [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)])
    par = matroid(GF2, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert is_isomorphic(tri, par) is None


# ---------------------------------------------------------------------------
# plumbing


def test_label_key_orders_mixed_labels():
    assert sorted([2, "b", 1, "a"], key=label_key) == [1, 2, "a", "b"]


def test_ground_set_cap():
    with pytest.raises(GroundSetTooLarge):
        matroid(GF2, [[0] * 65])


def test_zero_row_matrix_is_all_loops():
    M = matroid_from_text("2 0 4\n")
    assert M.size == 4 and M.rank_full == 0
    assert all(M.rank_subset([lbl]) == 0 for lbl in M.labels)


def test_matroid_text_round_trip_default_labels():
    M = u24()
    text = matroid_to_text(M)
    assert "labels" not in text
    N = matroid_from_text(text)
    assert N.matrix == M.matrix and N.labels == M.labels


def test_matroid_text_round_trip_custom_labels():
    M = matroid(GF2, [(1, 0, 1)], labels=("a", "b", "c"))
    text = matroid_to_text(M)
    assert text.endswith("labels a b c\n")
    N = matroid_from_text(text)
    assert N.labels == ("a", "b", "c")
    assert matroid_to_text(N) == text
