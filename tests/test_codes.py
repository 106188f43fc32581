"""Codes: associated matroids, puncturing/shortening (the matroid layer's
delete and contract), duality, invariance under monomial transforms,
trellis-width, state profiles, and the catalog generators."""

import itertools
import json

import numpy as np
import pytest

from matwidth.cli import main
from matwidth.codes import (
    FieldTooSmallForMDS,
    LinearCode,
    UnknownLabel,
    UnknownName,
    catalog_code,
    code_from_text,
    code_to_text,
    trellis_width,
)
from matwidth.graph import complete_graph, cycle_matroid
from matwidth.matroid import (
    GroundSetTooLarge,
    VectorMatroid,
    contract,
    delete,
    dual,
    is_isomorphic,
)
from matwidth.minors import pw_le_1_by_minors
from matwidth.pathwidth import width_of_ordering
from util import (
    GF2,
    GF3,
    GF5,
    matrix,
    same_row_space,
    uniform_check,
)

REP31 = LinearCode(matrix(GF2, [(1, 1, 1)]))


def code(field, rows, labels=None):
    return LinearCode(matrix(field, rows), labels)


def random_code(rng, field, n):
    rows = int(rng.integers(1, n + 1))
    return code(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])


# ---------------------------------------------------------------------------
# associated matroids


def test_repetition_code_matroid_is_u1n():
    M = LinearCode(matrix(GF3, [(1, 1, 1, 1, 1)]))
    assert uniform_check(M, 1)


def test_ck4_matroid_is_mk4():
    # the printed generator represents the K4 cycle matroid over any field
    for q in (2, 3, 5):
        C = catalog_code("C_K4", q)
        assert is_isomorphic(C, cycle_matroid(complete_graph(4), GF2)) is not None


def test_ck23_matroid_is_mk23():
    from matwidth.graph import complete_bipartite

    for q in (2, 3):
        C = catalog_code("C_K23", q)
        assert (
            is_isomorphic(C, cycle_matroid(complete_bipartite(2, 3), GF2))
            is not None
        )


def test_matroid_independent_of_generator():
    C1 = code(GF3, [(1, 0, 2), (0, 1, 1)])
    C2 = code(GF3, [(1, 1, 0), (0, 1, 1), (1, 2, 1)])  # same row space, redundant rows
    assert same_row_space(C1.generator, C2.generator)
    for mask in range(1 << 3):
        assert C1.rank_subset(mask) == C2.rank_subset(mask)


# ---------------------------------------------------------------------------
# duals


def test_dual_of_repetition_is_even_weight():
    D = dual(REP31)
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
        DD = dual(dual(C))
        assert same_row_space(DD.generator, C.generator)
        assert DD.labels == C.labels


def test_dual_matroid_correspondence():
    # the dual code's ranks are the dual matroid's: r*(S) = |S| - r(E) + r(E - S)
    rng = np.random.default_rng(5)
    for _ in range(10):
        C = random_code(rng, GF2, 6)
        D = dual(C)
        full = (1 << 6) - 1
        for mask in range(1 << 6):
            expect = bin(mask).count("1") - C.rank_full + C.rank_subset(full ^ mask)
            assert D.rank_subset(mask) == expect


# ---------------------------------------------------------------------------
# puncture / shorten


def test_puncture_nothing():
    C = catalog_code("C_K23", 3)
    P = delete(C, [])
    assert P.generator == C.generator and P.labels == C.labels


def test_shorten_repetition():
    # codewords vanishing at the shortened coordinate: only the zero word,
    # matching contraction of the rank-1 matroid (remaining elements loops)
    C = LinearCode(matrix(GF2, [(1, 1, 1)]))
    S = contract(C, [2])
    assert S.length == 2 and S.dim == 0
    assert S.labels == (1, 3)
    assert all(S.rank_subset([lbl]) == 0 for lbl in S.labels)


def test_puncture_repetition_stays_repetition():
    C = LinearCode(matrix(GF2, [(1, 1, 1)]))
    P = delete(C, [2])
    assert P.length == 2 and P.dim == 1
    assert same_row_space(P.generator, matrix(GF2, [(1, 1)]))


def test_puncture_mds():
    C = catalog_code("MDS(4,2)", 3)
    P = delete(C, [3])
    assert uniform_check(P, 2)
    assert P.labels == (1, 2, 4)


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        delete(REP31, [9])


def test_shorten_is_dual_puncture_dual():
    rng = np.random.default_rng(7)
    for _ in range(10):
        C = random_code(rng, GF3, 6)
        J = [1, 4]
        S = contract(C, J)
        alt = dual(delete(dual(C), J))
        assert same_row_space(S.generator, alt.generator)
        assert S.labels == alt.labels == (2, 3, 5, 6)


def test_minor_functoriality():
    # puncturing drops generator columns; shortening has r(X + J) - r(J)
    rng = np.random.default_rng(9)
    keep = [0, 2, 3, 5]  # coordinates 1, 3, 4, 6
    for _ in range(10):
        C = random_code(rng, GF2, 6)
        J = frozenset([2, 5])
        punctured = delete(C, J)
        dropped = code(GF2, [[row[j] for j in keep] for row in C.generator.entries])
        shortened = contract(C, J)
        for mask in range(1 << 4):
            X = [lbl for i, lbl in enumerate(punctured.labels) if (mask >> i) & 1]
            assert punctured.rank_subset(mask) == dropped.rank_subset(mask)
            assert shortened.rank_subset(X) == C.rank_subset(X + sorted(J)) - C.rank_subset(J)


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
        assert trellis_width(C).width == trellis_width(dual(C)).width


def test_tw_of_an_oversized_code_is_refused_by_the_budget():
    # 25 distinct nonzero coordinates of GF(2)^5: a simple length-25 code
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, 26)]
    C = LinearCode(matrix(GF2, [[c[i] for c in cols] for i in range(5)]))
    with pytest.raises(GroundSetTooLarge, match="budget"):
        trellis_width(C)
    # the length alone is not refused: 25 repeated coordinates
    assert trellis_width(LinearCode(matrix(GF2, [[1] * 25]))).width == 1


def test_state_profile_repetition():
    assert width_of_ordering(REP31, (1, 2, 3)).prefix_lambdas == (1, 1, 0)


def test_state_profile_mds42():
    C = catalog_code("MDS(4,2)", 3)
    for pi in itertools.permutations(C.labels):
        assert width_of_ordering(C, pi).prefix_lambdas == (1, 2, 1, 0)


def test_state_profile_ck4_triangle_first():
    C = catalog_code("C_K4", 3)
    # columns 1, 2, 4 of the printed generator form a triangle
    assert width_of_ordering(C, (1, 2, 4, 3, 5, 6)).prefix_lambdas == (1, 2, 2, 2, 1, 0)


# ---------------------------------------------------------------------------
# codewords and monomial transforms


def monomial(C, perm, diag) -> LinearCode:
    """Coordinate i of C scaled by diag[i] and sent to position perm[i];
    labels reset to the default."""
    n, field = C.length, C.field
    entries = [[0] * n for _ in C.generator.entries]
    for i in range(n):
        for r, row in enumerate(C.generator.entries):
            entries[r][perm[i]] = field.mul(diag[i], row[i])
    return code(field, entries)


def test_equivalent_codes_have_isomorphic_matroids():
    rng = np.random.default_rng(17)
    C = random_code(rng, GF3, 6)
    perm = tuple(int(i) for i in rng.permutation(6))
    diag = tuple(int(rng.integers(1, 3)) for _ in range(6))
    C2 = monomial(C, perm, diag)
    # constructive: the coordinate permutation itself is the matroid bijection
    for mask in range(1 << 6):
        S = [C.labels[i] for i in range(6) if (mask >> i) & 1]
        image = [C2.labels[perm[C.labels.index(lbl)]] for lbl in S]
        assert C.rank_subset(S) == C2.rank_subset(image)
    assert is_isomorphic(C, C2) is not None


def test_tw_invariant_under_equivalence():
    rng = np.random.default_rng(19)
    for _ in range(5):
        C = random_code(rng, GF3, 5)
        C2 = monomial(
            C,
            tuple(int(i) for i in rng.permutation(5)),
            tuple(int(rng.integers(1, 3)) for _ in range(5)),
        )
        assert trellis_width(C).width == trellis_width(C2).width


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
        assert same_row_space(dual(C).generator, D.generator)


def test_mds_every_k_columns_independent():
    C = catalog_code("MDS(4,2)", 3)
    assert uniform_check(C, 2)
    C = catalog_code("MDS(5,3)", 5)
    assert uniform_check(C, 3)


def test_mds_field_too_small():
    with pytest.raises(FieldTooSmallForMDS):
        catalog_code("MDS(6,3)", 4)


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog_code("C_K5", 2)


# ---------------------------------------------------------------------------
# trellis-width <= 1 test


def test_tw1_repetition():
    C = LinearCode(matrix(GF2, [tuple([1] * 5)]))
    ok, witness = pw_le_1_by_minors(C)
    assert ok and witness is None


def test_tw1_mds42_witness_is_itself():
    ok, witness = pw_le_1_by_minors(catalog_code("MDS(4,2)", 3))
    assert not ok
    assert witness.pattern_name == "U24"
    assert witness.contract == frozenset() and witness.delete == frozenset()


def test_tw1_ck4_witness():
    ok, witness = pw_le_1_by_minors(catalog_code("C_K4", 2))
    assert not ok and witness.pattern_name == "MK4"


def test_tw1_length_cap():
    # the minor search's cap of 12 elements is the test's only cap
    assert pw_le_1_by_minors(LinearCode(matrix(GF2, [tuple([1] * 12)]))) == (True, None)
    C = LinearCode(matrix(GF2, [tuple([1] * 13)]))
    with pytest.raises(GroundSetTooLarge, match="^13 > 12 elements for an exhaustive search$"):
        pw_le_1_by_minors(C)


# ---------------------------------------------------------------------------
# text round trip


def test_zero_code_and_full_code_duality():
    zero = code_from_text("3 0 3\n")
    assert zero.dim == 0
    assert trellis_width(zero).width == 0
    full = dual(zero)
    assert full.dim == 3
    assert same_row_space(dual(full).generator, zero.generator)


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
    assert isinstance(C, VectorMatroid)
    for child in (dual(C), delete(C, [2]), contract(C, [2])):
        assert type(child) is LinearCode


def test_puncture_and_shorten_read_tables_off_the_parent():
    rng = np.random.default_rng(23)
    for field in (GF2, GF3):
        for _ in range(4):
            C = random_code(rng, field, 7)
            C.rank_table()
            J = [int(x) for x in rng.choice(np.arange(1, 8), size=int(rng.integers(1, 4)), replace=False)]
            for S in (delete(C, J), contract(C, J)):
                assert isinstance(S, LinearCode) and S._rank_table is not None
                fresh = VectorMatroid(S.generator, S.labels).rank_table()
                assert np.array_equal(S.rank_table(), fresh)


def test_tw1_check_is_pw1_by_minors(tmp_path, capsys):
    # check-tw1 prints pw_le_1_by_minors' answer and certificate, on codes
    # up to the minor search's cap of 12 coordinates
    rng = np.random.default_rng(29)
    path = tmp_path / "code.txt"
    for field in (GF2, GF3):
        for n in (4, 6, 8, 10, 12):
            C = code(field, rng.integers(0, field.q, (n // 2, n)).tolist())
            ok, cert = pw_le_1_by_minors(C)
            path.write_text(code_to_text(C))
            assert main(["check-tw1", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"tw_le_1": ok, "witness": None if cert is None else cert.to_doc()}


def test_code_past_64_coordinates_is_refused():
    with pytest.raises(GroundSetTooLarge):
        LinearCode(matrix(GF2, [[1] * 65]))
