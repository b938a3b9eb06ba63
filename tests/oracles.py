"""Independent oracles for the tests.

Each oracle reads only public fields of qalg objects (an algebra's `dim`,
`multiply`, `basis_element` and dense `structure`, a subspace's `vectors`,
a module descriptor's `algebra` and `presentation`) and eliminates with its
own column-sweep reduced row echelon form over lists of Fractions, so a
defect in qalg's elimination cannot hide in the oracle that checks it.
Matrices here are lists of rows. Internal checks raise explicitly, so they
hold under `python -O` as well.
"""

from __future__ import annotations

from fractions import Fraction

from qalg.errors import InternalError, NotAnIdealError, NotNilpotentError


def reference_rref(rows, ncols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form of the rows, zero rows last, and its pivot
    columns: for each column left to right, swap up the first row with a
    nonzero entry there, scale it to a leading 1 and clear the column."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        pivot = rows[r] = [a * inv for a in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [a - f * b if b else a for a, b in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def reference_rank(rows, ncols: int) -> int:
    return len(reference_rref(rows, ncols)[1])


def reference_matrix_product(x, y) -> list[list[Fraction]]:
    """Product of two matrices given as lists of rows. Zero terms are skipped."""
    cols = list(zip(*y))
    return [[sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in cols] for r in x]


def reference_poly_at_matrix(p, m) -> list[list[Fraction]]:
    """The polynomial p (a qalg Poly) evaluated at a square matrix by Horner's
    rule, the constant term times the identity."""
    n = len(m)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        out = reference_matrix_product(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def reference_regular_matrix(s, x, side: str) -> list[list[Fraction]]:
    """Dense matrix of y -> x*y (side "left") or y -> y*x of the structure
    constants s (s[i][j][k] is the e_k coordinate of e_i e_j): entry (k, j)
    sums x_i times the e_k coordinate of e_i e_j, or of e_j e_i, over every i
    with x_i nonzero."""
    n = len(s)
    xs = [(i, Fraction(c)) for i, c in enumerate(x) if c]

    def const(i, j, k):
        return s[i][j][k] if side == "left" else s[j][i][k]

    return [[sum((c * const(i, j, k) for i, c in xs), Fraction(0)) for j in range(n)] for k in range(n)]


def nilpotency_oracle(a, n) -> int:
    """Nilpotency index of a two-sided ideal by direct subspace powering.
    Raises NotAnIdealError if n is not an ideal and NotNilpotentError if its
    powers never reach zero."""
    if n.ambient_dim != a.dim:
        raise NotAnIdealError("subspace does not live in the algebra")
    gens = [list(u) for u in n.vectors()]
    es = [a.basis_element(i) for i in range(a.dim)]
    sides = [a.multiply(e, u) for u in gens for e in es] + [a.multiply(u, e) for u in gens for e in es]
    ech, pivots = reference_rref(gens, a.dim)
    if reference_rank(gens + sides, a.dim) != len(pivots):
        raise NotAnIdealError("subspace is not a two-sided ideal")
    # Rows spanning n^t. For an ideal n^(t+1) lies in n^t, so equal rank
    # means the powers have stopped at a nonzero subspace.
    power = ech[: len(pivots)]
    t = 1
    while power:
        ech, pivots = reference_rref([a.multiply(x, y) for x in power for y in gens], a.dim)
        if len(pivots) == len(power):
            raise NotNilpotentError("ideal powers stabilize at a nonzero subspace")
        power = ech[: len(pivots)]
        t += 1
    return t


def _module_basis(m) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced echelon basis (rows) and pivots of the module P * A^size, the
    span of the columns of the presentation P times each basis element of A,
    inside Q^(size * dim)."""
    a, p = m.algebra, m.presentation
    columns = []
    for v in range(p.size):
        for j in range(a.dim):
            ej = a.basis_element(j)
            columns.append([c for u in range(p.size) for c in a.multiply(p.entries[u][v], ej)])
    ech, pivots = reference_rref(columns, p.size * a.dim)
    return ech[: len(pivots)], pivots


def _action_matrices(m) -> list[list[list[Fraction]]]:
    """Matrices of the right action of each algebra basis element on the
    module, in the coordinates of its reduced echelon basis."""
    a = m.algebra
    dim = a.dim
    basis, pivots = _module_basis(m)
    out = []
    for j in range(dim):
        ej = a.basis_element(j)
        cols = []
        for vec in basis:
            moved = [c for u in range(0, len(vec), dim) for c in a.multiply(vec[u : u + dim], ej)]
            # An echelon basis has the unit vectors at its pivots, so the
            # coordinates of a vector in its span are its pivot entries.
            coords = [moved[p] for p in pivots]
            residue = moved
            for c, row in zip(coords, basis):
                if c:
                    residue = [x - c * y if y else x for x, y in zip(residue, row)]
            if any(residue):
                raise InternalError("module basis is not action-invariant")
            cols.append(coords)
        out.append([list(r) for r in zip(*cols)])
    return out


def hom_dim_oracle(m1, m2) -> int:
    """Dimension of the space of module maps m1 -> m2: the unknowns of the
    intertwiner system F rho1(e_j) = rho2(e_j) F, stacked over every basis
    element e_j, minus its rank. Independent of rank vectors and of the
    Wedderburn pipeline."""
    if m1.algebra != m2.algebra:
        raise ValueError("modules live over different algebras")
    rho1 = _action_matrices(m1)
    rho2 = rho1 if m2 is m1 else _action_matrices(m2)
    n1, n2 = len(rho1[0]), len(rho2[0])
    unknowns = n2 * n1  # F[s][u] is unknown s * n1 + u
    rows = []
    for r1, r2 in zip(rho1, rho2):
        for s in range(n2):
            for t in range(n1):
                coeff = [Fraction(0)] * unknowns
                for u in range(n1):
                    coeff[s * n1 + u] += r1[u][t]
                for u in range(n2):
                    coeff[u * n1 + t] -= r2[s][u]
                if any(coeff):
                    rows.append(coeff)
    return unknowns - reference_rank(rows, unknowns)
