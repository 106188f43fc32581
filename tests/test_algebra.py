"""Field arithmetic, rank / rref / row bases, and the matrix text format."""

import itertools

import pytest

from matwidth import algebra
from matwidth.algebra import (
    FieldTooLarge,
    GfMatrix,
    MatrixFormatError,
    NonPrimeCharacteristic,
    field_from_order,
    field_new,
    identity_matrix,
    matrix_from_lines,
    matrix_to_text,
    rank,
    rank_of_columns,
    rref,
)
from util import (
    GF2,
    GF3,
    GF5,
    ORDERS,
    REF_FIELDS,
    _ref_ops,
    matrix,
    ref_dimension,
    ref_random_rows,
    ref_rank,
    ref_reduction_poly,
    ref_row_space,
)

import numpy as np


# ---------------------------------------------------------------------------
# fields


def test_gf5_arithmetic():
    f = field_new(5)
    assert f.add(2, 4) == 1
    assert f.mul(2, 3) == 1


def test_gf4_polynomial_product():
    # x * x = x^2 = x + 1 mod x^2 + x + 1: code 2 * code 2 = code 3
    f = field_new(2, 2)
    assert f.reduction_poly == (1, 1, 1)
    assert f.mul(2, 2) == 3


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(4, 1)


def test_field_cap():
    with pytest.raises(FieldTooLarge):
        field_new(2, 9)
    with pytest.raises(FieldTooLarge):
        field_new(257)
    # refused from the cap alone: no p**k, no primality test, no factoring
    with pytest.raises(FieldTooLarge):
        field_new(2, 2_000_000_000)
    with pytest.raises(FieldTooLarge):
        field_from_order(1_000_000_000_039)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    f = field_new(p, k)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(range(q), repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a, b in itertools.product(range(q), repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)


def test_each_reduction_poly_is_the_smallest_irreducible():
    # the polynomial fixes what every code over GF(p^k) means
    for q in ORDERS:
        f = field_from_order(q)
        assert f.reduction_poly == ref_reduction_poly(f.p, f.k)


def _pairs(q):
    """Every pair of elements for q <= 64, else 4,096 seeded pairs."""
    if q <= 64:
        return list(itertools.product(range(q), repeat=2))
    rng = np.random.default_rng(q)
    return [tuple(map(int, ab)) for ab in rng.integers(0, q, (4096, 2))]


EXTENSION_FIELDS = [f for f in map(field_from_order, ORDERS) if f.k > 1]


@pytest.mark.parametrize(
    "field", [f for f, _ in REF_FIELDS if f.k == 1] + EXTENSION_FIELDS, ids=str)
def test_tables_match_reference_arithmetic(field):
    add, mul = _ref_ops(field.p, field.k)
    q = field.q
    for a, b in _pairs(q):
        assert field.add_table[a][b] == add[a][b]
        assert field.mul_table[a][b] == mul(a, b)
    assert all(add[a][field.neg_table[a]] == 0 for a in range(q))
    assert all(mul(a, field.inv_table[a]) == 1 for a in range(1, q))
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    for a in range(q):
        power = 1
        for e in range(4):
            assert field.pow(a, e) == power
            power = mul(power, a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16, 17, 243, 256])
def test_pow_with_negative_exponents(q):
    # a^-e is the e-th power of a's inverse; 0^-e stays 0
    f = field_from_order(q)
    _, mul = _ref_ops(f.p, f.k)
    for a in range(1, q):
        assert f.pow(a, -1) == f.inv(a)
        for e in (1, 2, 5, q - 1, q):
            assert mul(f.pow(a, -e), f.pow(a, e)) == 1
    assert [f.pow(0, e) for e in (-2, -1, 0, 1)] == [0, 0, 1, 0]


def test_field_from_order():
    assert field_from_order(9) == field_new(3, 2)
    assert field_from_order(2) == field_new(2)
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(6)


def test_equal_fields_are_identical():
    assert field_new(2) is field_new(2, 1) is field_new(p=2, k=1) is field_from_order(2)
    assert field_new(2, 2) is field_from_order(4)
    assert field_new(3) is not field_new(3, 2)


# ---------------------------------------------------------------------------
# rank


G4_GF3 = matrix(GF3, [(1, 0, 0, 1, 0, 2), (0, 1, 0, 1, 1, 2), (0, 0, 1, 0, 1, 2)])


def test_rank_identity():
    assert rank(identity_matrix(GF2, 3)) == 3


def test_rank_catalog_k4_matrix():
    assert rank(G4_GF3) == 3


def test_rank_dependent_rows():
    assert rank(matrix(GF3, [(1, 0, 1, 1), (2, 0, 2, 2)])) == 1


def test_rank_empty():
    assert rank(GfMatrix(GF2, [], cols=4)) == 0
    assert rank(GfMatrix(GF2, [[], []], cols=0)) == 0
    assert rank(matrix(GF3, [(0, 0, 0), (0, 0, 0)])) == 0


def test_rank_transpose_random():
    rng = np.random.default_rng(3)
    for _ in range(40):
        f = GF2 if rng.integers(2) else GF3
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = matrix(f, [[int(x) for x in row] for row in rng.integers(0, f.q, (m, n))])
        assert rank(A) == rank_of_columns(f, A.columns())


# ---------------------------------------------------------------------------
# rref


def test_rref_identity():
    I3 = identity_matrix(GF2, 3)
    R, piv = rref(I3)
    assert R == I3 and piv == (0, 1, 2)


def test_rref_row_swap():
    R, piv = rref(matrix(GF2, [(0, 1), (1, 0)]))
    assert R.entries == ((1, 0), (0, 1)) and piv == (0, 1)


def test_rref_g23_dual_over_gf5():
    # -1 lifts to 4 over GF(5)
    A = matrix(GF5, [(1, 4, 0, 4, 1, 0), (1, 0, 4, 4, 0, 1)])
    R, piv = rref(A)
    assert len(piv) == 2 and rank(A) == 2


def test_rref_preserves_rank_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = GF3
        A = matrix(f, [[int(x) for x in row] for row in rng.integers(0, 3, (3, 5))])
        R, piv = rref(A)
        assert rank(R) == rank(A) == len(piv)
        assert list(piv) == sorted(piv)


@pytest.mark.parametrize("field,m_max", REF_FIELDS, ids=lambda x: str(x))
def test_elimination_matches_row_space_enumeration(field, m_max):
    rng = np.random.default_rng(field.q)
    for _ in range(12 if field.q < 16 else 4):
        m, n = int(rng.integers(0, m_max + 1)), int(rng.integers(1, 7))
        rows = ref_random_rows(field, m, n, rng)
        A = GfMatrix(field, rows, cols=n)
        space = ref_row_space(field, rows, n)
        r = ref_dimension(field, space)
        assert rank(A) == r
        assert rank_of_columns(field, rows) == r
        assert rank_of_columns(field, A.columns()) == ref_rank(field, A.columns(), m) == r
        R, piv = rref(A)
        assert len(piv) == r and list(piv) == sorted(piv)
        assert ref_row_space(field, R.entries, n) == space
        for i, p in enumerate(piv):
            assert R.entries[i][p] == 1 and not any(R.entries[i][:p])
            assert all(R.entries[j][p] == 0 for j in range(R.rows) if j != i)
        assert R.rows == m and not any(x for row in R.entries[r:] for x in row)


def test_orthogonal_complement_annihilates():
    rng = np.random.default_rng(13)
    for _ in range(25):
        f = GF2 if rng.integers(2) else GF5
        rows = int(rng.integers(1, 4))
        A = matrix(f, [[int(x) for x in row] for row in rng.integers(0, f.q, (rows, 5))])
        D = algebra.orthogonal_complement(A)
        assert D.rows == 5 - rank(A)
        for ra in A.entries:
            for rd in D.entries:
                dot = 0
                for x, y in zip(ra, rd):
                    dot = f.add(dot, f.mul(x, y))
                assert dot == 0


# ---------------------------------------------------------------------------
# text format


def _parse(text):
    A, _ = matrix_from_lines(text.splitlines())
    return A


def test_matrix_round_trip_prime():
    A = matrix(GF3, [(1, 0, 2), (0, 1, 1)])
    text = matrix_to_text(A)
    assert text == "3 2 3\n1 0 2\n0 1 1\n"
    assert _parse(text) == A
    assert matrix_to_text(_parse(text)) == text


def test_matrix_round_trip_extension_field():
    f = field_new(2, 2)
    A = matrix(f, [(0, 1, 2, 3)])
    text = matrix_to_text(A)
    assert text.startswith("2^2 1 4\n")
    assert _parse(text) == A


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError) as err:
        _parse("3 2 2\n1 0\n9 0\n")
    assert err.value.line == 3
    with pytest.raises(MatrixFormatError) as err:
        _parse("6 1 1\n0\n")
    assert err.value.line == 1


def test_entry_out_of_range_rejected():
    with pytest.raises(ValueError):
        matrix(GF2, [(0, 2)])
