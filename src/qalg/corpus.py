"""Fixture algebras with frozen golden summaries, plus independent oracles.

The golden values were produced by the named oracle for each fixture (Maschke
plus character theory for group algebras, the trace-form determinant for
semisimplicity, direct subspace powering for nilpotency) and frozen only
after the structure pipeline reproduced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

from .algebra import (
    FDAlgebra,
    Subspace,
    direct_product,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    matrix_over,
    quaternions,
    upper_triangular,
)
from .errors import InternalError, NotAnIdealError, NotNilpotentError
from .linalg import Mat, kernel_basis, rref
from .modules import ProjectiveModuleDescriptor


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


@dataclass(frozen=True)
class GoldenSummary:
    """Expected structure data: radical dimension, nilpotency index, and the
    sorted tuple of (factor_dim, center_dim, degree, matrix_size) shapes.
    matrix_size None means the search is expected to return Unknown."""

    radical_dim: int
    nilpotency_index: int
    factor_shapes: tuple[tuple[int, int, int, int | None], ...]
    oracle: str


@dataclass(frozen=True)
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


def nilpotency_oracle(a: FDAlgebra, n: Subspace) -> int:
    """Nilpotency index of a two-sided ideal by direct subspace powering.
    Independent of the radical pipeline: raises NotAnIdealError if n is not
    an ideal and NotNilpotentError if its powers never reach zero."""
    if n.ambient_dim != a.dim:
        raise NotAnIdealError("subspace does not live in the algebra")
    for u in n.vectors():
        for i in range(a.dim):
            e = a.basis_element(i)
            if not n.contains(a.multiply(e, u)) or not n.contains(a.multiply(u, e)):
                raise NotAnIdealError("subspace is not a two-sided ideal")
    # Rows spanning n^t. For an ideal n^(t+1) lies in n^t, so equal rank
    # means the powers have stopped at a nonzero subspace.
    power = list(n.vectors())
    t = 1
    while power:
        ech, pivots = rref(Mat([a.multiply(x, y) for x in power for y in n.vectors()]))
        if len(pivots) == len(power):
            raise NotNilpotentError("ideal powers stabilize at a nonzero subspace")
        power = ech.data[: len(pivots)]
        t += 1
    return t


def _module_basis(m: ProjectiveModuleDescriptor) -> Mat:
    """Canonical basis (rows) of the image of the presentation acting on
    columns of algebra elements, inside Q^(size * dim)."""
    a = m.algebra
    size = m.presentation.size
    dim = a.dim
    columns = []
    for v in range(size):
        for j in range(dim):
            ej = a.basis_element(j)
            col = []
            for u in range(size):
                col.extend(a.multiply(m.presentation.entries[u][v], ej))
            columns.append(col)
    ech, pivots = rref(Mat(columns))
    rows = [ech.data[i] for i in range(len(pivots))]
    return Mat(rows) if rows else Mat.zeros(0, size * dim)


def _action_matrices(m: ProjectiveModuleDescriptor, basis: Mat) -> list[Mat]:
    """Matrices of the right action of each algebra basis element on the
    module, in the module basis coordinates."""
    a = m.algebra
    size = m.presentation.size
    dim = a.dim
    ech, pivots = rref(basis)
    out = []
    for j in range(dim):
        ej = a.basis_element(j)
        cols = []
        for t in range(basis.rows):
            vec = basis.data[t]
            moved = []
            for u in range(size):
                moved.extend(a.multiply(vec[u * dim : (u + 1) * dim], ej))
            coords = [moved[p] for p in pivots]
            residue = list(moved)
            for c, brow in zip(coords, ech.data):
                if c != 0:
                    residue = [x - c * y for x, y in zip(residue, brow)]
            if any(residue):
                raise InternalError("module basis is not action-invariant")
            cols.append(coords)
        out.append(Mat(cols).transpose() if cols else Mat.zeros(0, 0))
    return out


def hom_dim_oracle(m1: ProjectiveModuleDescriptor, m2: ProjectiveModuleDescriptor) -> int:
    """Dimension of the space of module maps m1 -> m2, computed directly by
    solving the intertwiner system F rho1(a) = rho2(a) F over all basis
    elements a. Independent of rank vectors and the Wedderburn pipeline."""
    if m1.algebra != m2.algebra:
        raise ValueError("modules live over different algebras")
    a = m1.algebra
    basis1 = _module_basis(m1)
    basis2 = _module_basis(m2)
    n1, n2 = basis1.rows, basis2.rows
    if n1 == 0 or n2 == 0:
        return 0
    rho1 = _action_matrices(m1, basis1)
    rho2 = _action_matrices(m2, basis2)
    solution = None  # rows span the current solution space of vectorized F
    unknowns = n2 * n1
    for r1, r2 in zip(rho1, rho2):
        rows = []
        for s in range(n2):
            for t in range(n1):
                coeff = [0] * unknowns
                for u in range(n1):
                    coeff[s * n1 + u] += r1.data[u][t]
                for u in range(n2):
                    coeff[u * n1 + t] -= r2.data[s][u]
                rows.append(coeff)
        constraint = Mat(rows)
        if solution is None:
            solution = kernel_basis(constraint)
        else:
            if solution.rows == 0:
                break
            reduced = constraint * solution.transpose()
            small = kernel_basis(reduced)
            if small.rows == 0:
                solution = Mat.zeros(0, unknowns)
                break
            solution = small * solution
    if solution is None:
        raise InternalError("hom oracle built no constraints")
    return solution.rows
