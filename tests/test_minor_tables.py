"""Rank tables of minors read from the parent's table by
r_{M/X\\Y}(S) = r_M(S + X) - r_M(X), against tables built from the
minor's own matrix."""

import numpy as np
import pytest

from matwidth.matroid import MinorSpec, VectorMatroid, apply_minor, delete
from matwidth.pathwidth import pathwidth_exact
from util import REF_FIELDS, matroid, ref_random_rows


def _own_table(N):
    """N's table built from its matrix, never from a parent's."""
    return VectorMatroid(N.matrix, N.labels).rank_table()


@pytest.mark.parametrize("field, m", REF_FIELDS, ids=str)
def test_derived_table_equals_built_table(field, m):
    rng = np.random.default_rng(31 + field.q)
    dependent_contractions = 0
    for _ in range(12):
        n = int(rng.integers(1, 9))
        M = matroid(field, ref_random_rows(field, m, n, rng), [f"x{i}" if i % 2 else i for i in range(n)])
        T = M.rank_table()
        for _ in range(4):
            roles = rng.integers(0, 3, n)  # 0 kept, 1 contracted, 2 deleted
            X = frozenset(M.labels[i] for i in range(n) if roles[i] == 1)
            Y = frozenset(M.labels[i] for i in range(n) if roles[i] == 2)
            dependent_contractions += int(T[M.mask_of(X)]) < len(X)
            N = apply_minor(M, MinorSpec(X, Y))
            assert N._rank_table is not None  # read from M's, not built
            assert N.rank_table().dtype == np.uint8 and not N.rank_table().flags.writeable
            assert np.array_equal(N.rank_table(), _own_table(N))
    assert dependent_contractions > 0


def test_child_of_a_parent_without_a_table_builds_its_own():
    field, m = REF_FIELDS[1]
    rng = np.random.default_rng(5)
    M = matroid(field, ref_random_rows(field, m, 7, rng))
    N = apply_minor(M, MinorSpec(frozenset([1, 2]), frozenset([5])))
    assert M._rank_table is None and N._rank_table is None
    assert np.array_equal(N.rank_table(), _own_table(N))
    assert M._rank_table is None


def test_forged_parent_table_reaches_the_child_and_is_caught():
    field, m = REF_FIELDS[0]
    rng = np.random.default_rng(8)
    M = matroid(field, ref_random_rows(field, m, 7, rng))
    true_table = M.rank_table()
    forged = true_table + np.uint8(1)
    forged[0] = 0
    M._rank_table = forged
    N = delete(M, [M.labels[0]])
    assert np.array_equal(N.rank_table(), forged[::2]) and not np.array_equal(N.rank_table(), _own_table(N))
    with pytest.raises(AssertionError):
        pathwidth_exact(N)
