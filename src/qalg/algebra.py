"""Finite-dimensional associative unital algebras over the rationals.

An algebra is given by structure constants: ``structure[i][j]`` is the
coordinate vector of the basis product e_i * e_j. It stores them once, as the
nonzero integer numerators over one common denominator, and computes products,
associativity checks, regular matrices, the center and the trace form in
Python ints; ``structure`` is derived from that table on demand. One method,
FDAlgebra._fill, writes the table: the public constructor hands it the nonzero
entries of a dense table, the built-in constructors only their nonzero
products. Elements are plain tuples of Fractions relative to the algebra's
basis; there is no element wrapper class.
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
    Mat,
    _echelon,
    _reduce,
    _vector_from_json,
    as_vector,
    kernel_basis,
    rat,
    rat_from_str,
    rat_to_str,
    rref,
)

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _numerators(v: Vec) -> tuple[int, list[tuple[int, int]]]:
    """The lcm d of the denominators of v, and the pairs (i, v_i * d) for
    the nonzero v_i."""
    d = lcm(*{c.denominator for c in v})
    return d, [(i, c.numerator * (d // c.denominator)) for i, c in enumerate(v) if c]


def _over(numerators: Sequence[int], den: int) -> Vec:
    """The Fractions n / den for integer numerators n."""
    return tuple(Fraction(c, den) if c else _ZERO for c in numerators)


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

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence] | Mat):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows, pivots = _echelon(as_vector(v, ambient_dim) for v in vectors)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", Mat(rows) if rows else Mat.zeros(0, ambient_dim))
        object.__setattr__(self, "pivots", tuple(pivots))

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
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class FDAlgebra:
    """Associative unital algebra over Q given by structure constants.

    The constants are stored once, as integer numerators over one common
    denominator: ``_terms[i][j]`` holds the pairs (k, n) with n a nonzero int
    and n / _den the e_k coordinate of e_i * e_j, and ``_den`` is the lcm of
    the reduced denominators of all constants; ``_fill`` is the one writer
    of this table. Products, validate, the regular matrices, the center and
    the trace form work on these ints, and zero constants cost them nothing.
    ``structure``, the dense tuples of Fractions, is rebuilt from the table
    on each access.
    """

    __slots__ = ("dim", "unit", "_den", "_terms", "_hash", "_memo")

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
        xd, xs = _numerators(as_vector(x, self.dim))
        yd, ys = _numerators(as_vector(y, self.dim))
        out = [0] * self.dim
        terms = self._terms
        for i, xi in xs:
            row = terms[i]
            for j, yj in ys:
                c = xi * yj
                for k, s in row[j]:
                    out[k] += c * s
        return _over(out, xd * yd * self._den)

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

    def left_regular_matrix(self, x: Sequence) -> Mat:
        """Matrix of y -> x*y on column coordinate vectors."""
        return self._regular_matrix(x, lambda i, j: self._terms[i][j])

    def right_regular_matrix(self, x: Sequence) -> Mat:
        """Matrix of y -> y*x on column coordinate vectors."""
        return self._regular_matrix(x, lambda i, j: self._terms[j][i])

    def _regular_matrix(self, x: Sequence, terms) -> Mat:
        """Entry (k, j) is the sum over i of x_i * n / _den for (k, n) in terms(i, j)."""
        n = self.dim
        xd, xs = _numerators(as_vector(x, n))
        rows = [[0] * n for _ in range(n)]
        for i, xi in xs:
            for j in range(n):
                for k, s in terms(i, j):
                    rows[k][j] += xi * s
        den = xd * self._den
        return Mat([_over(r, den) for r in rows])

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
    structure = []
    for bi in rows:
        row = []
        for bj in rows:
            try:
                row.append(sub.coordinates(a.multiply(bi, bj)))
            except ValueError:
                raise ValueError("subspace is not closed under multiplication") from None
        structure.append(row)
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
    for u in n.vectors():
        for i in range(a.dim):
            e = a.basis_element(i)
            if not n.contains(a.multiply(e, u)) or not n.contains(a.multiply(u, e)):
                raise NotAnIdealError("subspace is not a two-sided ideal")
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

    comp_rows = [a.basis_element(i) for i in complement]
    section = Mat(comp_rows).transpose()

    structure = []
    for ci in comp_rows:
        row = []
        for cj in comp_rows:
            row.append(projection.apply(a.multiply(ci, cj)))
        structure.append(row)
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


def matrix_algebra(n: int) -> FDAlgebra:
    """Full matrix algebra of n x n rational matrices, basis E_pq in row-major
    order."""
    return matrix_over(None, n)


def matrix_over(base: FDAlgebra | None, n: int) -> FDAlgebra:
    """Matrix algebra of size n over a coefficient algebra (rationals when
    base is None). Basis: E_pq tensor b_t, ordered by (p, q, t)."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if base is None:
        bdim, bunit, bproducts = 1, (1,), [[[(0, 1)]]]
    else:
        bdim, bunit = base.dim, base.unit
        bproducts = [[[(w, Fraction(c, base._den)) for w, c in v] for v in row] for row in base._terms]
    cells = [(p, q, t) for p in range(n) for q in range(n) for t in range(bdim)]
    # (E_pq b_t)(E_rs b_u) is E_ps (b_t b_u) when q == r, and zero otherwise.
    products = [
        [
            [((p * n + s) * bdim + w, c) for w, c in bproducts[t][u]] if q == r else []
            for (r, s, u) in cells
        ]
        for (p, q, t) in cells
    ]
    return FDAlgebra._from_products([bunit[t] if p == q else 0 for (p, q, t) in cells], products)


def upper_triangular(n: int) -> FDAlgebra:
    """Upper triangular n x n matrices, basis E_pq for p <= q in lexicographic
    order."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: i for i, pq in enumerate(pairs)}
    products = [[[(index[(p, s)], 1)] if q == r else [] for (r, s) in pairs] for (p, q) in pairs]
    return FDAlgebra._from_products([int(p == q) for (p, q) in pairs], products)


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
