"""Field axioms as Hypothesis properties over every GF(q) with q <= 256."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matwidth.algebra import field_from_order
from util import ORDERS


def test_seventy_fields():
    assert len(ORDERS) == 70


def test_every_field_has_group_tables():
    # addition is a group on 0..q-1 with identity 0, multiplication one on
    # 1..q-1 with identity 1; negation and inversion read off the tables
    for q in ORDERS:
        f = field_from_order(q)
        add, mul = np.array(f.add_table), np.array(f.mul_table)
        neg, inv = np.array(f.neg_table), np.array(f.inv_table)
        elements = np.arange(q)
        assert (np.sort(add, axis=0) == elements[:, None]).all()
        assert (np.sort(add, axis=1) == elements).all()
        assert (add[0] == elements).all() and (add[elements, neg] == 0).all()
        assert (mul[0] == 0).all() and (mul[:, 0] == 0).all() and (mul[1] == elements).all()
        assert (np.sort(mul[1:, 1:], axis=0) == elements[1:, None]).all()
        assert (np.sort(mul[1:, 1:], axis=1) == elements[1:]).all()
        assert (mul[elements[1:], inv[1:]] == 1).all()


@st.composite
def field_and_elements(draw):
    field = field_from_order(draw(st.sampled_from(ORDERS)))
    a, b, c = (draw(st.integers(0, field.q - 1)) for _ in range(3))
    return field, a, b, c


@settings(max_examples=400)
@given(field_and_elements())
def test_identities_and_inverses(fabc):
    f, a, _, _ = fabc
    assert f.add(a, 0) == f.add(0, a) == a
    assert f.mul(a, 1) == f.mul(1, a) == a
    assert f.mul(a, 0) == f.mul(0, a) == 0
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, a) == 0
    assert f.neg(f.neg(a)) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.inv(f.inv(a)) == a


@settings(max_examples=400)
@given(field_and_elements())
def test_commutativity_and_associativity(fabc):
    f, a, b, c = fabc
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.sub(f.add(a, b), b) == a


@settings(max_examples=400)
@given(field_and_elements())
def test_distributivity(fabc):
    f, a, b, c = fabc
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))


@settings(max_examples=200)
@given(field_and_elements(), st.integers(0, 600))
def test_pow_is_repeated_mul(fabc, e):
    f, a, _, _ = fabc
    expected = 1
    for _ in range(e):
        expected = f.mul(expected, a)
    assert f.pow(a, e) == expected


@settings(max_examples=200)
@given(field_and_elements())
def test_characteristic_and_fermat(fabc):
    f, a, _, _ = fabc
    total = 0
    for _ in range(f.p):
        total = f.add(total, a)
    assert total == 0
    assert f.pow(a, f.q) == a
