"""Property tests for matrix shapes and elimination over random small rational
matrices with 0 to 5 rows and columns, the empty sizes included. The examples
are derandomized and no example database is written, so the run is the same
each time."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qalg.linalg import Mat, kernel_basis, rank, solve_linear

from oracles import reference_rank

PROPERTY = settings(derandomize=True, database=None, deadline=None)
SIZES = st.integers(0, 5)
# Zero about half the time, so that ranks fall short of the shape.
ENTRIES = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def matrices(rows, cols):
    row = st.lists(ENTRIES, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda data: Mat(data, cols))


ANY_MATRIX = st.tuples(SIZES, SIZES).flatmap(lambda shape: matrices(*shape))
# A p x q and a q x r matrix, and a p x q and a p x r matrix.
PRODUCTS = st.tuples(SIZES, SIZES, SIZES).flatmap(lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2])))
SIDE_BY_SIDE = st.tuples(SIZES, SIZES, SIZES).flatmap(lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[0], s[2])))


@PROPERTY
@given(ANY_MATRIX)
def test_rows_and_width_rebuild_the_matrix(m):
    assert Mat(m.data, m.cols) == m


@PROPERTY
@given(PRODUCTS)
def test_product_shape(pair):
    a, b = pair
    assert (a * b).shape() == (a.rows, b.cols)


@PROPERTY
@given(ANY_MATRIX)
def test_rank_equals_reference(m):
    assert rank(m) == reference_rank(m.data, m.cols)


@PROPERTY
@given(ANY_MATRIX)
def test_rank_nullity(m):
    k = kernel_basis(m)
    assert k.cols == m.cols
    assert rank(m) + k.rows == m.cols
    assert all(not any(m.apply(v)) for v in k.data)


@PROPERTY
@given(ANY_MATRIX)
def test_transpose_is_an_involution_that_swaps_the_shape(m):
    t = m.transpose()
    assert t.shape() == (m.cols, m.rows)
    assert t.transpose() == m


@PROPERTY
@given(SIDE_BY_SIDE)
def test_hstack_adds_widths(pair):
    a, b = pair
    h = a.hstack(b)
    assert h.shape() == (a.rows, a.cols + b.cols)
    assert all(r == ra + rb for r, ra, rb in zip(h.data, a.data, b.data))


@PROPERTY
@given(PRODUCTS)
def test_solve_linear_solves_a_consistent_system(pair):
    a, x = pair
    b = a * x
    assert a * solve_linear(a, b) == b
