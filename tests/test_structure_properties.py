"""Property tests for the decomposition pipeline on drawn algebras: direct
products of one to three small algebras, and tensor products of two. The
examples are derandomized and no example database is written, so the run is
the same each time."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qalg.algebra import (
    direct_product,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    quaternions,
    tensor_product,
    upper_triangular,
)
from qalg.corpus import cyclic_table
from qalg.structure import jacobson_radical, wedderburn_decomposition

from oracles import nilpotency_oracle

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
BASES = {
    "M1": lambda: matrix_algebra(1),
    "M2": lambda: matrix_algebra(2),
    "UT2": lambda: upper_triangular(2),
    "UT3": lambda: upper_triangular(3),
    "Q[eps]": dual_numbers,
    "Q[C3]": lambda: group_algebra(cyclic_table(3)),
    "H(-1,-1)": lambda: quaternions(-1, -1),
}
NAMES = st.sampled_from(sorted(BASES))
# Names are drawn rather than algebras, so that a failing example reads.
ALGEBRAS = st.one_of(
    st.tuples(st.just("direct"), st.lists(NAMES, min_size=1, max_size=3)),
    st.tuples(st.just("tensor"), st.lists(NAMES, min_size=2, max_size=2)),
)


def build(drawn):
    how, names = drawn
    parts = [BASES[n]() for n in names]
    return direct_product(parts) if how == "direct" else tensor_product(*parts)


@PROPERTY
@given(ALGEBRAS)
def test_radical_and_factors_fill_the_algebra(drawn):
    a = build(drawn)
    w = wedderburn_decomposition(a)
    assert jacobson_radical(a).radical.dim + sum(f.factor_dim for f in w.factors) == a.dim


@PROPERTY
@given(ALGEBRAS)
def test_nilpotency_index_equals_oracle(drawn):
    a = build(drawn)
    report = jacobson_radical(a)
    assert report.nilpotency_index == nilpotency_oracle(a, report.radical)
