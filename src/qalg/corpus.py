"""Fixture algebras with frozen golden summaries.

The golden values were produced by the named oracle for each fixture (Maschke
plus character theory for group algebras, the trace-form determinant for
semisimplicity, direct subspace powering for nilpotency) and frozen only
after the structure pipeline reproduced them. The oracles that the tests run
live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Sequence

from ._record import record
from .algebra import (
    FDAlgebra,
    direct_product,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    matrix_over,
    quaternions,
    upper_triangular,
)


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]]) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    out = []
    for i1 in range(n1):
        for i2 in range(n2):
            row = []
            for j1 in range(n1):
                for j2 in range(n2):
                    row.append(t1[i1][j1] * n2 + t2[i2][j2])
            out.append(row)
    return out


def symmetric3_table() -> list[list[int]]:
    """Multiplication table of the permutations of three points, enumerated in
    lexicographic order; composition applies the right element first."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[x]] for x in range(3))
            row.append(index[composed])
        table.append(row)
    return table


@record
class GoldenSummary:
    """Expected structure data: radical dimension, nilpotency index, and the
    sorted tuple of (factor_dim, center_dim, degree, matrix_size) shapes.
    matrix_size None means the search is expected to return Unknown."""

    radical_dim: int
    nilpotency_index: int
    factor_shapes: tuple[tuple[int, int, int, int | None], ...]
    oracle: str


@record
class FixtureSpec:
    name: str
    build: Callable[[], FDAlgebra]
    expected: GoldenSummary


def _mat2_dual() -> FDAlgebra:
    return matrix_over(dual_numbers(), 2)


def fixtures() -> tuple[FixtureSpec, ...]:
    q_shape = (1, 1, 1, 1)
    return (
        FixtureSpec(
            "rationals",
            lambda: matrix_algebra(1),
            GoldenSummary(0, 1, (q_shape,), "one-dimensional unital algebra is the base field"),
        ),
        FixtureSpec(
            "rationals-squared",
            lambda: direct_product([matrix_algebra(1), matrix_algebra(1)]),
            GoldenSummary(0, 1, (q_shape, q_shape), "split product of base fields"),
        ),
        FixtureSpec(
            "dual-numbers",
            dual_numbers,
            GoldenSummary(1, 2, (q_shape,), "nilpotent part spanned by t, t^2 = 0 by powering"),
        ),
        FixtureSpec(
            "upper-triangular-2",
            lambda: upper_triangular(2),
            GoldenSummary(1, 2, (q_shape, q_shape), "strict part nilpotent by powering; diagonal split"),
        ),
        FixtureSpec(
            "upper-triangular-3",
            lambda: upper_triangular(3),
            GoldenSummary(3, 3, (q_shape, q_shape, q_shape), "strict part nilpotent by powering; diagonal split"),
        ),
        FixtureSpec(
            "upper-triangular-4",
            lambda: upper_triangular(4),
            GoldenSummary(6, 4, (q_shape, q_shape, q_shape, q_shape), "strict part nilpotent by powering; diagonal split"),
        ),
        FixtureSpec(
            "matrix-2",
            lambda: matrix_algebra(2),
            GoldenSummary(0, 1, ((4, 1, 2, 2),), "full matrix algebra: simple, split, size from rank-1 projector"),
        ),
        FixtureSpec(
            "matrix-3",
            lambda: matrix_algebra(3),
            GoldenSummary(0, 1, ((9, 1, 3, 3),), "full matrix algebra: simple, split, size from rank-1 projector"),
        ),
        FixtureSpec(
            "group-c2",
            lambda: group_algebra(cyclic_table(2)),
            GoldenSummary(0, 1, (q_shape, q_shape), "Maschke; x^2 - 1 splits into two linear factors"),
        ),
        FixtureSpec(
            "group-c3",
            lambda: group_algebra(cyclic_table(3)),
            GoldenSummary(0, 1, (q_shape, (2, 2, 1, 1)), "Maschke; x^3 - 1 = (x - 1)(x^2 + x + 1)"),
        ),
        FixtureSpec(
            "group-c4",
            lambda: group_algebra(cyclic_table(4)),
            GoldenSummary(
                0, 1, (q_shape, q_shape, (2, 2, 1, 1)),
                "Maschke; x^4 - 1 = (x - 1)(x + 1)(x^2 + 1)",
            ),
        ),
        FixtureSpec(
            "group-c2xc2",
            lambda: group_algebra(product_table(cyclic_table(2), cyclic_table(2))),
            GoldenSummary(0, 1, (q_shape,) * 4, "Maschke; four rational characters"),
        ),
        FixtureSpec(
            "group-s3",
            lambda: group_algebra(symmetric3_table()),
            GoldenSummary(
                0, 1, (q_shape, q_shape, (4, 1, 2, 2)),
                "Maschke; character table: trivial, sign, and a two-dimensional"
                " rational representation with Schur index 1",
            ),
        ),
        FixtureSpec(
            "quaternions",
            lambda: quaternions(-1, -1),
            GoldenSummary(
                0, 1, ((4, 1, 2, None),),
                "norm form is anisotropic so no zero divisors; the size search"
                " must report Unknown",
            ),
        ),
        FixtureSpec(
            "matrix-2-dual",
            _mat2_dual,
            GoldenSummary(
                4, 2, ((4, 1, 2, 2),),
                "entries with nilpotent coefficient form a square-zero ideal;"
                " quotient is the split 2 x 2 matrix algebra",
            ),
        ),
        FixtureSpec(
            "product-q-dual",
            lambda: direct_product([matrix_algebra(1), dual_numbers()]),
            GoldenSummary(1, 2, (q_shape, q_shape), "radical and factors of a product concatenate"),
        ),
        FixtureSpec(
            "product-dual-matrix2",
            lambda: direct_product([dual_numbers(), matrix_algebra(2)]),
            GoldenSummary(1, 2, (q_shape, (4, 1, 2, 2)), "radical and factors of a product concatenate"),
        ),
    )


def fixture_by_name(name: str) -> FixtureSpec:
    for spec in fixtures():
        if spec.name == name:
            return spec
    raise KeyError(f"no fixture named {name!r}")

