"""Codes: associated matroids, puncturing/shortening, duality, equivalence
witnesses, trellis-width, state profiles, and the catalog generators."""

import itertools
import math

import numpy as np
import pytest

from matwidth import algebra
from matwidth.codes import (
    FieldTooSmallForMDS,
    LengthTooLarge,
    LinearCode,
    UnknownLabel,
    UnknownName,
    _weight_enumerator,
    are_equivalent,
    catalog_code,
    code_from_text,
    code_matroid,
    code_to_text,
    dual_code,
    frobenius_variants,
    puncture,
    shorten,
    state_profile,
    transform_code,
    trellis_width,
    tw_le_1_check,
)
from matwidth.graph import complete_graph, cycle_matroid
from matwidth.matroid import GroundSetTooLarge, VectorMatroid, is_isomorphic
from matwidth.minors import pw_le_1_by_minors
from util import GF2, GF3, GF5, REF_FIELDS, matrix, ref_random_rows, ref_row_space, uniform_check

REP31 = LinearCode(matrix(GF2, [(1, 1, 1)]))


def code(field, rows, labels=None):
    return LinearCode(matrix(field, rows), labels)


def random_code(rng, field, n):
    rows = int(rng.integers(1, n + 1))
    return code(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])


# ---------------------------------------------------------------------------
# associated matroids


def test_repetition_code_matroid_is_u1n():
    M = code_matroid(LinearCode(matrix(GF3, [(1, 1, 1, 1, 1)])))
    assert uniform_check(M, 1)


def test_ck4_matroid_is_mk4():
    # the printed generator represents the K4 cycle matroid over any field
    for q in (2, 3, 5):
        C = catalog_code("C_K4", q)
        assert is_isomorphic(code_matroid(C), cycle_matroid(complete_graph(4), GF2)) is not None


def test_ck23_matroid_is_mk23():
    from matwidth.graph import complete_bipartite

    for q in (2, 3):
        C = catalog_code("C_K23", q)
        assert (
            is_isomorphic(code_matroid(C), cycle_matroid(complete_bipartite(2, 3), GF2))
            is not None
        )


def test_matroid_independent_of_generator():
    C1 = code(GF3, [(1, 0, 2), (0, 1, 1)])
    C2 = code(GF3, [(1, 1, 0), (0, 1, 1), (1, 2, 1)])  # same row space, redundant rows
    assert algebra.same_row_space(C1.generator, C2.generator)
    M1, M2 = code_matroid(C1), code_matroid(C2)
    for mask in range(1 << 3):
        assert M1.rank_subset(mask) == M2.rank_subset(mask)


# ---------------------------------------------------------------------------
# duals


def test_dual_of_repetition_is_even_weight():
    D = dual_code(REP31)
    assert D.dim == 2
    words = set()
    f = GF2
    for a, b in itertools.product(range(2), repeat=2):
        w = tuple(
            f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(D.generator.entries[0], D.generator.entries[1])
        )
        words.add(w)
    assert all(sum(w) % 2 == 0 for w in words)


def test_dual_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(15):
        C = random_code(rng, GF3, int(rng.integers(1, 7)))
        DD = dual_code(dual_code(C))
        assert algebra.same_row_space(DD.generator, C.generator)
        assert DD.labels == C.labels


def test_dual_matroid_correspondence():
    from matwidth.matroid import dual as matroid_dual

    rng = np.random.default_rng(5)
    for _ in range(10):
        C = random_code(rng, GF2, 6)
        M_of_dual = code_matroid(dual_code(C))
        dual_of_M = matroid_dual(code_matroid(C))
        for mask in range(1 << 6):
            assert M_of_dual.rank_subset(mask) == dual_of_M.rank_subset(mask)


# ---------------------------------------------------------------------------
# puncture / shorten


def test_puncture_nothing():
    C = catalog_code("C_K23", 3)
    P = puncture(C, [])
    assert P.generator == C.generator and P.labels == C.labels


def test_shorten_repetition():
    # codewords vanishing at the shortened coordinate: only the zero word,
    # matching contraction of the rank-1 matroid (remaining elements loops)
    C = LinearCode(matrix(GF2, [(1, 1, 1)]))
    S = shorten(C, [2])
    assert S.length == 2 and S.dim == 0
    assert S.labels == (1, 3)
    M = code_matroid(S)
    assert M.rank_full == 0
    from matwidth.matroid import MinorSpec, apply_minor

    contracted = apply_minor(code_matroid(C), MinorSpec(frozenset([2]), frozenset()))
    assert contracted.rank_full == 0


def test_puncture_repetition_stays_repetition():
    C = LinearCode(matrix(GF2, [(1, 1, 1)]))
    P = puncture(C, [2])
    assert P.length == 2 and P.dim == 1
    assert algebra.same_row_space(P.generator, matrix(GF2, [(1, 1)]))


def test_puncture_mds():
    C = catalog_code("MDS(4,2)", 3)
    P = puncture(C, [3])
    assert uniform_check(code_matroid(P), 2)
    assert P.labels == (1, 2, 4)


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        puncture(REP31, [9])


def test_shorten_is_dual_puncture_dual():
    rng = np.random.default_rng(7)
    for _ in range(10):
        C = random_code(rng, GF3, 6)
        J = [1, 4]
        S = shorten(C, J)
        alt = dual_code(puncture(dual_code(C), J))
        assert algebra.same_row_space(S.generator, alt.generator)
        assert S.labels == alt.labels == (2, 3, 5, 6)


def test_minor_functoriality():
    from matwidth.matroid import MinorSpec, apply_minor

    rng = np.random.default_rng(9)
    for _ in range(10):
        C = random_code(rng, GF2, 6)
        M = code_matroid(C)
        J = frozenset([2, 5])
        punctured = code_matroid(puncture(C, J))
        deleted = apply_minor(M, MinorSpec(frozenset(), J))
        shortened = code_matroid(shorten(C, J))
        contracted = apply_minor(M, MinorSpec(J, frozenset()))
        for mask in range(1 << 4):
            assert punctured.rank_subset(mask) == deleted.rank_subset(mask)
            assert shortened.rank_subset(mask) == contracted.rank_subset(mask)


# ---------------------------------------------------------------------------
# trellis-width and state profiles


def test_tw_mds42_is_two():
    assert trellis_width(catalog_code("MDS(4,2)", 3)).width == 2


def test_tw_repetition_is_one():
    for n in range(2, 6):
        C = LinearCode(matrix(GF2, [tuple([1] * n)]))
        assert trellis_width(C).width == 1


def test_tw_equals_tw_of_dual():
    rng = np.random.default_rng(11)
    for _ in range(15):
        C = random_code(rng, GF3 if rng.integers(2) else GF2, int(rng.integers(2, 9)))
        assert trellis_width(C).width == trellis_width(dual_code(C)).width


def test_tw_of_an_oversized_code_is_refused_by_the_budget():
    from matwidth.pathwidth import GroundSetTooLargeForExact

    # 25 distinct nonzero coordinates of GF(2)^5: a simple length-25 code
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, 26)]
    C = LinearCode(matrix(GF2, [[c[i] for c in cols] for i in range(5)]))
    with pytest.raises(GroundSetTooLargeForExact, match="budget"):
        trellis_width(C)
    # the length alone is not refused: 25 repeated coordinates
    assert trellis_width(LinearCode(matrix(GF2, [[1] * 25]))).width == 1


def test_state_profile_repetition():
    assert state_profile(REP31, (1, 2, 3)) == (1, 1, 0)


def test_state_profile_mds42():
    C = catalog_code("MDS(4,2)", 3)
    for pi in itertools.permutations(C.labels):
        assert state_profile(C, pi) == (1, 2, 1, 0)


def test_state_profile_ck4_triangle_first():
    C = catalog_code("C_K4", 3)
    # columns 1, 2, 4 of the printed generator form a triangle
    assert state_profile(C, (1, 2, 4, 3, 5, 6)) == (1, 2, 2, 2, 1, 0)


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("field,m_max", REF_FIELDS, ids=lambda x: str(x))
def test_weight_enumerator_matches_row_space(field, m_max):
    rng = np.random.default_rng(field.q + 1)
    for m in range(m_max + 1):
        n = int(rng.integers(1, 7))
        rows = ref_random_rows(field, m, n, rng)
        C = LinearCode(algebra.GfMatrix(field, rows, cols=n))
        if field.q**C.dim > 4096:
            assert _weight_enumerator(C) is None
            continue
        counts = [0] * (n + 1)
        for word in ref_row_space(field, rows, n):
            counts[sum(1 for x in word if x)] += 1
        assert _weight_enumerator(C) == tuple(counts)


def test_weight_enumerator_cap():
    # 2^12 = 4096 codewords are enumerated, 2^13 are not
    full = LinearCode(algebra.identity_matrix(GF2, 12))
    assert _weight_enumerator(full) == tuple(math.comb(12, w) for w in range(13))
    assert _weight_enumerator(LinearCode(algebra.identity_matrix(GF2, 13))) is None


def test_equivalent_to_itself():
    C = catalog_code("C_K23_dual", 3)
    perm, diag = are_equivalent(C, C)
    assert perm == (0, 1, 2, 3, 4, 5)
    assert all(d == 1 for d in diag)


def test_equivalence_detects_transposition():
    # over GF(2) the only diagonal is the identity, so a genuine coordinate
    # swap needs a nontrivial permutation witness
    C = code(GF2, [(1, 0, 1, 0), (0, 1, 1, 1)])
    swapped = transform_code(C, (1, 0, 2, 3), (1, 1, 1, 1))
    assert not algebra.same_row_space(C.generator, swapped.generator)
    witness = are_equivalent(C, swapped)
    assert witness is not None
    perm, diag = witness
    assert algebra.same_row_space(transform_code(C, perm, diag).generator, swapped.generator)
    assert perm != (0, 1, 2, 3)


def test_inequivalent_dimensions():
    C = catalog_code("C_K23", 3)
    assert are_equivalent(C, dual_code(C)) is None


def test_equivalence_with_diagonal_scaling():
    rng = np.random.default_rng(13)
    gf4 = algebra.field_new(2, 2)
    for trial in range(12):
        field = gf4 if trial % 3 == 0 else GF5
        C = random_code(rng, field, 5)
        perm = tuple(int(i) for i in rng.permutation(5))
        diag = tuple(int(rng.integers(1, field.q)) for _ in range(5))
        C2 = transform_code(C, perm, diag)
        witness = are_equivalent(C, C2)
        assert witness is not None
        p, d = witness
        assert algebra.same_row_space(transform_code(C, p, d).generator, C2.generator)


def test_equivalent_codes_have_isomorphic_matroids():
    rng = np.random.default_rng(17)
    C = random_code(rng, GF3, 6)
    perm = tuple(int(i) for i in rng.permutation(6))
    diag = tuple(int(rng.integers(1, 3)) for _ in range(6))
    C2 = transform_code(C, perm, diag)
    # constructive: the coordinate permutation itself is the matroid bijection
    M, M2 = code_matroid(C), code_matroid(C2)
    for mask in range(1 << 6):
        S = [C.labels[i] for i in range(6) if (mask >> i) & 1]
        image = [C2.labels[perm[C.labels.index(lbl)]] for lbl in S]
        assert M.rank_subset(S) == M2.rank_subset(image)


def test_tw_invariant_under_equivalence():
    rng = np.random.default_rng(19)
    for _ in range(5):
        C = random_code(rng, GF3, 5)
        C2 = transform_code(
            C,
            tuple(int(i) for i in rng.permutation(5)),
            tuple(int(rng.integers(1, 3)) for _ in range(5)),
        )
        assert are_equivalent(C, C2) is not None
        assert trellis_width(C).width == trellis_width(C2).width


def test_equivalence_length_cap():
    C = LinearCode(matrix(GF2, [tuple([1] * 8)]))
    with pytest.raises(LengthTooLarge):
        are_equivalent(C, C)


# ---------------------------------------------------------------------------
# catalog codes


def test_g4_exact_entries():
    assert catalog_code("C_K4", 2).generator == matrix(
        GF2, [(1, 0, 0, 1, 0, 1), (0, 1, 0, 1, 1, 1), (0, 0, 1, 0, 1, 1)]
    )
    assert catalog_code("C_K4", 3).generator == matrix(
        GF3, [(1, 0, 0, 1, 0, 2), (0, 1, 0, 1, 1, 2), (0, 0, 1, 0, 1, 2)]
    )


def test_g23_exact_entries():
    assert catalog_code("C_K23", 3).generator == matrix(
        GF3, [(1, 0, 0, 0, 2, 2), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)]
    )


def test_g23_dual_exact_entries_gf5():
    assert catalog_code("C_K23_dual", 5).generator == matrix(
        GF5, [(1, 4, 0, 4, 1, 0), (1, 0, 4, 4, 0, 1)]
    )


def test_g23_dual_is_dual_of_g23():
    for q in (2, 3, 5):
        C = catalog_code("C_K23", q)
        D = catalog_code("C_K23_dual", q)
        assert algebra.same_row_space(dual_code(C).generator, D.generator)


def test_mds_every_k_columns_independent():
    C = catalog_code("MDS(4,2)", 3)
    assert uniform_check(code_matroid(C), 2)
    C = catalog_code("MDS(5,3)", 5)
    assert uniform_check(code_matroid(C), 3)


def test_mds_field_too_small():
    with pytest.raises(FieldTooSmallForMDS):
        catalog_code("MDS(6,3)", 4)


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog_code("C_K5", 2)


def test_frobenius_variants():
    C = catalog_code("C_K4", 3)
    assert len(frobenius_variants(C)) == 1  # prime field: identity only
    f4 = algebra.field_new(2, 2)
    D = LinearCode(matrix(f4, [(1, 2, 3, 0)]))
    variants = frobenius_variants(D)
    assert len(variants) == 2
    assert variants[1].generator.entries == ((1, 3, 2, 0),)  # conjugation swaps 2 and 3


# ---------------------------------------------------------------------------
# trellis-width <= 1 test


def test_tw1_repetition():
    C = LinearCode(matrix(GF2, [tuple([1] * 5)]))
    ok, witness = tw_le_1_check(C)
    assert ok and witness is None


def test_tw1_mds42_witness_is_itself():
    ok, witness = tw_le_1_check(catalog_code("MDS(4,2)", 3))
    assert not ok
    assert witness.pattern_name == "U24"
    assert witness.certificate.contract == frozenset() and witness.certificate.delete == frozenset()


def test_tw1_ck4_witness():
    ok, witness = tw_le_1_check(catalog_code("C_K4", 2))
    assert not ok and witness.pattern_name == "MK4"


def test_tw1_length_cap():
    C = LinearCode(matrix(GF2, [tuple([1] * 11)]))
    with pytest.raises(LengthTooLarge):
        tw_le_1_check(C)


# ---------------------------------------------------------------------------
# text round trip


def test_zero_code_and_full_code_duality():
    zero = code_from_text("3 0 3\n")
    assert zero.dim == 0
    assert trellis_width(zero).width == 0
    full = dual_code(zero)
    assert full.dim == 3
    assert algebra.same_row_space(dual_code(full).generator, zero.generator)


def test_code_text_round_trip():
    C = code(GF3, [(1, 0, 2), (0, 1, 1)], labels=("a", "b", "c"))
    text = code_to_text(C)
    D = code_from_text(text)
    assert D.generator == C.generator and D.labels == C.labels
    assert code_to_text(D) == text


# ---------------------------------------------------------------------------
# codes are their generators' vector matroids


def test_code_is_its_matroid():
    C = catalog_code("C_K23", 3)
    assert code_matroid(C) is C and isinstance(C, VectorMatroid)
    for child in (dual_code(C), puncture(C, [2]), shorten(C, [2])):
        assert type(child) is LinearCode


def test_puncture_and_shorten_read_tables_off_the_parent():
    rng = np.random.default_rng(23)
    for field in (GF2, GF3):
        for _ in range(4):
            C = random_code(rng, field, 7)
            C.rank_table()
            J = [int(x) for x in rng.choice(np.arange(1, 8), size=int(rng.integers(1, 4)), replace=False)]
            for S in (puncture(C, J), shorten(C, J)):
                assert isinstance(S, LinearCode) and S._rank_table is not None
                fresh = VectorMatroid(S.generator, S.labels).rank_table()
                assert np.array_equal(S.rank_table(), fresh)


def test_tw1_check_is_pw1_by_minors():
    rng = np.random.default_rng(29)
    for field in (GF2, GF3):
        for n in (4, 6, 8, 10, 10):
            rows = rng.integers(0, field.q, (n // 2, n)).tolist()
            C = code(field, rows)
            ok, witness = tw_le_1_check(C)
            ok_m, cert = pw_le_1_by_minors(C)
            assert ok == ok_m and (witness is None) == (cert is None)
            if witness is not None:
                assert witness.to_doc() == cert.to_doc()


def test_code_past_64_coordinates_is_refused():
    with pytest.raises(GroundSetTooLarge):
        LinearCode(matrix(GF2, [[1] * 65]))
