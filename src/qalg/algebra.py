"""Finite-dimensional associative unital algebras over the rationals.

An algebra is given by structure constants: ``structure[i][j]`` is the
coordinate vector of the basis product e_i * e_j. It stores them once, as the
nonzero integer numerators over one common denominator, and computes products,
associativity checks, the center and the trace form in Python ints;
``structure`` is derived from that table on demand. Products of elements and
of matrices over the algebra (_matrix_product) share one inner integer loop.
Every table of products x * y (a quotient and its ideal check, subalgebras,
factor spans, corners, subspace products, rank functionals) is one
_pairwise_products call, that is one _matrix_product call; multiply serves
single products, powers and the idempotency and unit-law checks. Mat
products go through the integer rows of Mat.apply. This module is the only
one that reads the table. One method, FDAlgebra._fill, writes it: the public
constructor hands it the nonzero entries of a dense table, the built-in
constructors only their nonzero products, and tensor_product is the one
writer of tensor-shaped tables (matrix_over is a tensor product).
Elements are plain tuples of Fractions relative to the algebra's basis; there
is no element wrapper class.
All derived objects (center, quotients, subalgebras) use reduced row echelon
bases so equal inputs always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import lcm
from typing import Sequence

from .errors import (
    AlgebraMismatchError,
    InternalError,
    MalformedTableError,
    NotAnIdealError,
    ValidationError,
)
from .linalg import (
    _ZERO,
    Mat,
    _echelon,
    _over,
    _reduce,
    _scaled,
    _vector_from_json,
    as_vector,
    kernel_basis,
    rat,
    rat_from_str,
    rat_to_str,
    rref,
)

Vec = tuple[Fraction, ...]


def _add_product(terms, out: list[int], xs, ys) -> None:
    """Add the numerators of x * y into out, for x and y as their nonzero
    pairs (i, numerator): the one inner loop of multiply and _matrix_product."""
    for i, xi in xs:
        row = terms[i]
        for j, yj in ys:
            c = xi * yj
            for k, s in row[j]:
                out[k] += c * s


def _memoized(fn):
    """Keep fn(a, *args) in a's memo under (name, *args), so a result lives
    exactly as long as its algebra and is shared only by calls on that same
    object with equal arguments. A raised exception is not memoized."""
    name = fn.__qualname__

    @wraps(fn)
    def memoized(a, *args):
        key = (name, *args)
        memo = a._memo
        if key not in memo:
            memo[key] = fn(a, *args)
        return memo[key]

    return memoized


class Subspace:
    """Subspace of Q^n with a canonical reduced-row-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence] | Mat):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows, pivots = _echelon(as_vector(v, ambient_dim) for v in vectors)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", Mat(rows) if rows else Mat.zeros(0, ambient_dim))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Sequence) -> bool:
        return not any(_reduce(self.basis.data, self.pivots, as_vector(v, self.ambient_dim)))

    def coordinates(self, v: Sequence) -> Vec:
        """Coordinates of v in the echelon basis. Raises ValueError when v
        is outside the subspace; with a reduced echelon basis the coordinates
        are just the pivot entries."""
        vv = as_vector(v, self.ambient_dim)
        if any(_reduce(self.basis.data, self.pivots, vv)):
            raise ValueError("vector lies outside the subspace")
        return tuple(vv[p] for p in self.pivots)

    def vectors(self) -> tuple[Vec, ...]:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ambient_dim, self.basis))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class FDAlgebra:
    """Associative unital algebra over Q given by structure constants.

    The constants are stored once, as integer numerators over one common
    denominator: ``_terms[i][j]`` holds the pairs (k, n) with n a nonzero int
    and n / _den the e_k coordinate of e_i * e_j, and ``_den`` is the lcm of
    the reduced denominators of all constants; ``_fill`` is the one writer
    of this table. Products, validate, the center and the trace form work on
    these ints, and zero constants cost them nothing.
    ``structure``, the dense tuples of Fractions, is rebuilt from the table
    on each access.
    """

    __slots__ = ("dim", "unit", "_den", "_terms", "_hash", "_memo", "__weakref__")

    def __init__(self, structure: Sequence[Sequence[Sequence]], unit: Sequence):
        dim = len(structure)
        if dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        products = []
        for i, row in enumerate(structure):
            if len(row) != dim:
                raise ValueError(f"structure row {i} has length {len(row)}, expected {dim}")
            products.append([[(k, c) for k, c in enumerate(as_vector(v, dim)) if c] for v in row])
        self._fill(unit, products)

    def _fill(self, unit: Sequence, products) -> "FDAlgebra":
        """Set the fields from products[i][j], the nonzero pairs (k, c) of
        e_i * e_j with k ascending and c an int or Fraction. This is the one
        place that writes _den and _terms."""
        den = lcm(*{c.denominator for row in products for v in row for _, c in v})
        object.__setattr__(self, "dim", len(products))
        object.__setattr__(self, "unit", as_vector(unit, len(products)))
        object.__setattr__(self, "_den", den)
        object.__setattr__(
            self,
            "_terms",
            tuple(
                tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in v) for v in row)
                for row in products
            ),
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_memo", {})
        return self

    @staticmethod
    def _from_products(unit: Sequence, products) -> "FDAlgebra":
        """The algebra of products as _fill takes them, for a caller that
        already lists only nonzero constants in ascending k."""
        return FDAlgebra.__new__(FDAlgebra)._fill(unit, products)

    def __setattr__(self, name, value):
        raise AttributeError("FDAlgebra is immutable")

    @property
    def structure(self) -> tuple[tuple[Vec, ...], ...]:
        """structure[i][j] is the coordinate vector of e_i * e_j."""
        return tuple(tuple(tuple(v) for v in row) for row in self._dense(_ZERO, Fraction))

    def _dense(self, zero, entry) -> list[list[list]]:
        """The constants as dense lists: entry(n / _den) for each (k, n) of
        the table, and zero elsewhere."""
        n, den = self.dim, self._den
        out = []
        for row in self._terms:
            vecs = []
            for terms in row:
                v = [zero] * n
                for k, c in terms:
                    v[k] = entry(Fraction(c, den))
                vecs.append(v)
            out.append(vecs)
        return out

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FDAlgebra)
            and self.dim == other.dim
            and self.unit == other.unit
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dim, self.unit, self._den, self._terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"FDAlgebra(dim={self.dim})"

    # -- elements ----------------------------------------------------------

    def zero(self) -> Vec:
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_element(self, i: int) -> Vec:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def element(self, values: Sequence) -> Vec:
        return as_vector(values, self.dim)

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        x, y = as_vector(x, self.dim), as_vector(y, self.dim)
        xd, yd = lcm(*{c.denominator for c in x}), lcm(*{c.denominator for c in y})
        out = [0] * self.dim
        _add_product(self._terms, out, _scaled(x, xd), _scaled(y, yd))
        return _over(out, xd * yd * self._den)

    def _matrix_product(self, x: Sequence[Sequence[Vec]], y: Sequence[Sequence[Vec]]) -> tuple[tuple[Vec, ...], ...]:
        """The product of a p x r matrix x and an r x q matrix y over the
        algebra, entries as coordinate vectors in nested rows; q is read from
        y's first row. Each operand is read once, as integer numerators over
        one denominator; pairs with a zero entry are skipped and sums are
        taken in ints. No table of the matrix algebra is built."""
        xd = lcm(*{c.denominator for row in x for v in row for c in v})
        yd = lcm(*{c.denominator for row in y for v in row for c in v})
        xs = [[_scaled(v, xd) for v in row] for row in x]
        ys = [[_scaled(v, yd) for v in row] for row in y]
        n, den, terms = self.dim, xd * yd * self._den, self._terms
        out = []
        for xrow in xs:
            row = []
            for q in range(len(ys[0]) if ys else 0):
                acc = [0] * n
                for xe, yrow in zip(xrow, ys):
                    if xe and yrow[q]:
                        _add_product(terms, acc, xe, yrow[q])
                row.append(_over(acc, den))
            out.append(tuple(row))
        return tuple(out)

    def _pairwise_products(self, xs: Sequence[Vec], ys: Sequence[Vec]) -> tuple[tuple[Vec, ...], ...]:
        """The products x * y, one row per x in xs and one column per y in
        ys: the column of xs times the row of ys, as one _matrix_product."""
        return self._matrix_product(tuple((x,) for x in xs), (tuple(ys),))

    def power(self, x: Sequence, n: int) -> Vec:
        if n < 0:
            raise ValueError("negative powers are not defined")
        acc = self.unit
        base = as_vector(x, self.dim)
        for _ in range(n):
            acc = self.multiply(acc, base)
        return acc

    def is_idempotent(self, x: Sequence) -> bool:
        x = as_vector(x, self.dim)
        return self.multiply(x, x) == x

    # -- global structure ----------------------------------------------------

    def validate(self) -> None:
        """Check associativity on all basis triples and the unit laws.

        Every triple (i, j, k) is checked, in that lexicographic order; only
        the products of nonzero structure constants are formed. Both sides
        of a triple have the denominator _den^2, so their integer numerators
        are compared.

        Raises ValidationError carrying the first violated triple (i, j, k),
        or with triple None for a unit law failure.
        """
        n = self.dim
        terms = self._terms
        for i in range(n):
            ti = terms[i]
            for j in range(n):
                tij = ti[j]
                tj = terms[j]
                for k in range(n):
                    # (e_i e_j) e_k - e_i (e_j e_k), by its nonzero coordinates
                    diff = {}
                    for m, c in tij:
                        for t, d in terms[m][k]:
                            diff[t] = diff.get(t, 0) + c * d
                    for m, c in tj[k]:
                        for t, d in ti[m]:
                            diff[t] = diff.get(t, 0) - c * d
                    if any(diff.values()):
                        raise ValidationError(
                            f"associativity fails on basis triple ({i}, {j}, {k})",
                            triple=(i, j, k),
                        )
        for i in range(n):
            e = self.basis_element(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                raise ValidationError(f"unit law fails on basis element {i}")

    def is_commutative(self) -> bool:
        t = self._terms
        return all(t[i][j] == t[j][i] for i in range(self.dim) for j in range(i))

    @_memoized
    def center(self) -> Subspace:
        """Elements commuting with the whole algebra, as a subspace: the
        kernel of z -> z*e_j - e_j*z over all j, one row per (j, k). Rows
        that no nonzero structure constant touches are zero and left out."""
        n = self.dim
        rows: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            for j in range(n):
                for k, c in self._terms[j][i]:
                    rows.setdefault((j, k), [0] * n)[i] += c
                for k, c in self._terms[i][j]:
                    rows.setdefault((j, k), [0] * n)[i] -= c
        m = Mat([_over(rows[jk], self._den) for jk in sorted(rows)]) if rows else Mat.zeros(0, n)
        return Subspace(n, kernel_basis(m))

    def _trace_numerators(self) -> list[int]:
        """tr(L_b) * _den for each basis element b."""
        return [sum(c for j, terms in enumerate(row) for t, c in terms if t == j) for row in self._terms]

    def _traces(self) -> Vec:
        """tr(L_b) for each basis element b, so that the trace of left
        multiplication by y is the linear functional sum_k y_k * tr(L_{b_k})."""
        return _over(self._trace_numerators(), self._den)

    def _trace_form(self) -> Mat:
        """The trace form B(x, y) = tr(L_{xy}) on the basis, as the integer
        matrix of B(e_i, e_j) * _den^2: the scaling keeps its kernel."""
        traces = self._trace_numerators()
        return Mat([[sum(c * traces[k] for k, c in terms) for terms in row] for row in self._terms])

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "unit": [rat_to_str(c) for c in self.unit],
            "structure": self._dense("0", rat_to_str),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "FDAlgebra":
        if not isinstance(obj, dict):
            raise ValueError("algebra JSON must be an object")
        for key in ("dim", "unit", "structure"):
            if key not in obj:
                raise ValueError(f"algebra JSON missing key {key!r}")
        dim = obj["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError("dim must be a positive integer")
        structure = obj["structure"]
        if not isinstance(structure, list) or len(structure) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in structure
        ):
            raise ValueError("structure must be a dim x dim array of vectors")
        # Each distinct entry string is parsed once; whatever is not a
        # string goes to rat_from_str, which rejects it.
        seen: dict[str, Fraction] = {}

        def parse(c) -> Fraction:
            if type(c) is not str:
                return rat_from_str(c)
            q = seen.get(c)
            if q is None:
                q = seen[c] = rat_from_str(c)
            return q

        parsed = [[_vector_from_json(v, dim, "structure vector", parse) for v in row] for row in structure]
        return FDAlgebra(parsed, _vector_from_json(obj["unit"], dim, "unit", parse))


def subalgebra_on(a: FDAlgebra, sub: Subspace, unit_vec: Sequence) -> FDAlgebra:
    """Algebra structure induced on a multiplicatively closed subspace with
    the given unit element. Coordinates are taken in the echelon basis."""
    if sub.ambient_dim != a.dim:
        raise AlgebraMismatchError("subspace does not live in the algebra")
    unit_vec = as_vector(unit_vec, a.dim)
    try:
        unit = sub.coordinates(unit_vec)
    except ValueError:
        raise ValueError("designated unit lies outside the subspace") from None
    rows = sub.vectors()
    try:
        structure = [[sub.coordinates(x) for x in row] for row in a._pairwise_products(rows, rows)]
    except ValueError:
        raise ValueError("subspace is not closed under multiplication") from None
    return FDAlgebra(structure, unit)


@dataclass(frozen=True)
class QuotientPresentation:
    """Quotient algebra with explicit projection and linear section.

    projection maps ambient coordinates to quotient coordinates (as a matrix
    acting on column vectors); section is a right inverse picking the
    representative supported on the stored complement basis.
    """

    algebra: FDAlgebra
    ideal: Subspace
    quotient: FDAlgebra
    projection: Mat
    section: Mat

    def project(self, x: Sequence) -> Vec:
        return self.projection.apply(as_vector(x, self.algebra.dim))

    def lift(self, y: Sequence) -> Vec:
        return self.section.apply(as_vector(y, self.quotient.dim))


def quotient_by_ideal(a: FDAlgebra, n: Subspace) -> QuotientPresentation:
    """Quotient of a by a proper two-sided ideal given as a subspace.

    The zero ideal gives a itself, with identity projection and section.
    Raises NotAnIdealError when the subspace is not a two-sided ideal, and
    ValueError when the ideal is the whole algebra (the quotient would be
    zero-dimensional, which is outside this package's algebra type).
    """
    if n.ambient_dim != a.dim:
        raise AlgebraMismatchError("ideal does not live in the algebra")
    if n.dim == a.dim:
        raise ValueError("ideal is the whole algebra; quotient would have dimension 0")

    if n.dim == 0:
        identity = Mat.identity(a.dim)
        return QuotientPresentation(
            algebra=a, ideal=n, quotient=a, projection=identity, section=identity
        )

    # The rref's rows span the annihilator of n, so it is the projection with
    # kernel n fixing the basis vectors at its pivots, which are the ones a
    # greedy extension of n's basis in index order would keep.
    projection, complement = rref(kernel_basis(n.basis))
    qdim = len(complement)
    if qdim != a.dim - n.dim:
        raise InternalError("quotient dimension is not the codimension of the ideal")

    # n is a two-sided ideal exactly when the projection, whose kernel is n,
    # sends every e_i * u and u * e_i to zero; zero products are skipped.
    basis = [a.basis_element(i) for i in range(a.dim)]
    for table in (a._pairwise_products(basis, n.vectors()), a._pairwise_products(n.vectors(), basis)):
        if any(any(projection.apply(x)) for row in table for x in row if any(x)):
            raise NotAnIdealError("subspace is not a two-sided ideal")

    comp_rows = [basis[i] for i in complement]
    section = Mat(comp_rows).transpose()
    structure = [[projection.apply(x) for x in row] for row in a._pairwise_products(comp_rows, comp_rows)]
    quotient = FDAlgebra(structure, projection.apply(a.unit))
    qp = QuotientPresentation(
        algebra=a, ideal=n, quotient=quotient, projection=projection, section=section
    )
    if projection * section != Mat.identity(qdim):
        raise InternalError("section is not a right inverse of the projection")
    return qp


# ---------------------------------------------------------------------------
# Constructors


def group_algebra(table: Sequence[Sequence[int]]) -> FDAlgebra:
    """Group algebra of a finite group given by its multiplication table.

    table[i][j] is the index of the product of elements i and j. The table
    must be a Latin square with a two-sided identity and associative
    composition; anything else raises MalformedTableError.
    """
    n = len(table)
    if n == 0:
        raise MalformedTableError("empty table")
    rows = []
    for i, row in enumerate(table):
        r = list(row)
        if len(r) != n:
            raise MalformedTableError(f"row {i} has length {len(r)}, expected {n}")
        if any(not isinstance(x, int) or x < 0 or x >= n for x in r):
            raise MalformedTableError(f"row {i} has entries outside 0..{n - 1}")
        rows.append(r)
    for i in range(n):
        if sorted(rows[i]) != list(range(n)):
            raise MalformedTableError(f"row {i} is not a permutation")
        if sorted(rows[j][i] for j in range(n)) != list(range(n)):
            raise MalformedTableError(f"column {i} is not a permutation")
    identity = None
    for e in range(n):
        if all(rows[e][j] == j for j in range(n)) and all(rows[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise MalformedTableError("no two-sided identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise MalformedTableError(
                        f"composition is not associative at ({i}, {j}, {k})"
                    )
    products = [[[(rows[i][j], 1)] for j in range(n)] for i in range(n)]
    return FDAlgebra._from_products([int(k == identity) for k in range(n)], products)


def _matrix_units(n: int, pairs: Sequence[tuple[int, int]]) -> FDAlgebra:
    """The span of the matrix units E_pq of size n for the given pairs (p, q),
    in that order, closed under E_pq E_qs = E_ps."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    index = {pq: i for i, pq in enumerate(pairs)}
    products = [[[(index[(p, s)], 1)] if q == r else [] for (r, s) in pairs] for (p, q) in pairs]
    return FDAlgebra._from_products([int(p == q) for (p, q) in pairs], products)


def matrix_algebra(n: int) -> FDAlgebra:
    """Full matrix algebra of n x n rational matrices, basis E_pq in row-major
    order."""
    return _matrix_units(n, [(p, q) for p in range(n) for q in range(n)])


def matrix_over(base: FDAlgebra | None, n: int) -> FDAlgebra:
    """Matrix algebra of size n over a coefficient algebra (rationals when
    base is None): tensor_product(matrix_algebra(n), base), with basis E_pq
    tensor b_t ordered by (p, q, t)."""
    m = matrix_algebra(n)
    return m if base is None else tensor_product(m, base)


def upper_triangular(n: int) -> FDAlgebra:
    """Upper triangular n x n matrices, basis E_pq for p <= q in lexicographic
    order."""
    return _matrix_units(n, [(p, q) for p in range(n) for q in range(p, n)])


def dual_numbers() -> FDAlgebra:
    """Q[t]/(t^2): basis (1, t)."""
    return FDAlgebra._from_products((1, 0), [[[(0, 1)], [(1, 1)]], [[(1, 1)], []]])


def quaternions(a, b) -> FDAlgebra:
    """Quaternion algebra with i^2 = a, j^2 = b, ij = k = -ji. Basis 1, i, j, k."""
    a = rat(a)
    b = rat(b)
    if a == 0 or b == 0:
        raise ValueError("quaternion parameters must be nonzero")
    products = [
        [[(0, 1)], [(1, 1)], [(2, 1)], [(3, 1)]],
        [[(1, 1)], [(0, a)], [(3, 1)], [(2, a)]],
        [[(2, 1)], [(3, -1)], [(0, b)], [(1, -b)]],
        [[(3, 1)], [(2, -a)], [(1, b)], [(0, -a * b)]],
    ]
    return FDAlgebra._from_products((1, 0, 0, 0), products)


def direct_product(algebras: Sequence[FDAlgebra]) -> FDAlgebra:
    """Direct product with componentwise operations; bases concatenate."""
    if not algebras:
        raise ValueError("direct product needs at least one algebra")
    dim = sum(a.dim for a in algebras)
    products: list[list] = []
    unit: list[Fraction] = []
    for a in algebras:
        off = len(unit)
        for row in a._terms:
            shifted = [[(off + k, Fraction(c, a._den)) for k, c in v] for v in row]
            products.append([[]] * off + shifted + [[]] * (dim - off - a.dim))
        unit += a.unit
    return FDAlgebra._from_products(unit, products)


def tensor_product(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """The tensor product of a and b over Q, with basis e_i tensor f_t at
    index i * b.dim + t (a-major). (e_i f_t)(e_j f_u) = (e_i e_j)(f_t f_u)."""
    m, den = b.dim, a._den * b._den
    products = [
        [
            [(k * m + w, Fraction(c * d, den)) for k, c in a._terms[i][j] for w, d in b._terms[t][u]]
            for j in range(a.dim)
            for u in range(m)
        ]
        for i in range(a.dim)
        for t in range(m)
    ]
    return FDAlgebra._from_products([x * y for x in a.unit for y in b.unit], products)
