"""Exact linear algebra over arbitrary-precision rationals.

Everything here is immutable and deterministic: matrices are tuples of tuples
of ``fractions.Fraction``, elimination always picks the first nonzero pivot in
row order, and reduced row echelon form is the canonical representative used
for subspace comparisons elsewhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NoSolutionError
from .poly import Poly

# Rational scalar type used across the package. Fraction already guarantees
# lowest terms and a positive denominator.
Rat = Fraction


def rat(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are rejected."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass ints, strings, or Fractions")
    return Fraction(x)


def rat_to_str(q: Fraction) -> str:
    """Render a rational as 'a/b', omitting '/b' when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse 'a' or 'a/b' (optional sign, decimal digits) into a Fraction."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", s.strip()):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def as_vector(values: Iterable, length: int | None = None) -> tuple[Fraction, ...]:
    """Coerce a sequence to a tuple of Fractions, optionally checking length."""
    v = tuple(rat(x) for x in values)
    if length is not None and len(v) != length:
        raise ValueError(f"expected a vector of length {length}, got {len(v)}")
    return v


class Mat:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(rat(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        zero = Fraction(0)
        out = Mat([[zero] * cols for _ in range(rows)])
        # With no rows the data cannot carry the width.
        object.__setattr__(out, "cols", cols)
        return out

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.data])

    def scale(self, c) -> "Mat":
        c = rat(c)
        return Mat([[c * a for a in r] for r in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        return self.__mul__(other)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} * {other.shape()}")
        bt = other.transpose().data
        out = []
        for r in self.data:
            out.append([sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in bt])
        return Mat(out)

    def transpose(self) -> "Mat":
        if not self.cols:
            return Mat.zeros(0, self.rows)
        return Mat([self.col(j) for j in range(self.cols)])

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.data for a in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector, returned as a flat tuple."""
        vv = as_vector(v, self.cols)
        return tuple(sum((a * x for a, x in zip(r, vv)), Fraction(0)) for r in self.data)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        if not self.rows:
            return Mat.zeros(0, self.cols + other.cols)
        return Mat([r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Mat(self.data + other.data)

    def tolists(self) -> list[list[Fraction]]:
        return [list(r) for r in self.data]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(a) for a in r) for r in self.data)
        return f"Mat[{body}]"

    def _check_same_shape(self, other: "Mat") -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns the echelon matrix and the tuple of pivot column indices. Pivot
    choice is deterministic: the first row with a nonzero entry in the current
    column, scanning columns left to right.
    """
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Basis of the right null space {x : m x = 0}, one basis vector per row.

    The basis is canonical: one vector per free column, with a 1 in that
    coordinate, ordered by free column index.
    """
    ech, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            v[p] = -ech.data[r_idx][f]
        basis.append(v)
    if not basis:
        return Mat.zeros(0, m.cols)
    return Mat(basis)


def solve_linear(a: Mat, b: Mat) -> Mat:
    """One exact solution x of a x = b, with free variables set to zero.

    Raises NoSolutionError when some column of b lies outside the column
    space of a.
    """
    if a.rows != b.rows:
        raise ValueError("row count mismatch between coefficient matrix and right side")
    aug = a.hstack(b)
    ech, pivots = rref(aug)
    if any(p >= a.cols for p in pivots):
        raise NoSolutionError("right-hand side outside the column space")
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r_idx, p in enumerate(pivots):
        for k in range(b.cols):
            x[p][k] = ech.data[r_idx][a.cols + k]
    if a.cols == 0:
        return Mat.zeros(0, b.cols)
    return Mat(x)


def poly_eval_matrix(p: Poly, m: Mat) -> Mat:
    """Evaluate a polynomial at a square matrix (x^0 becomes the identity)."""
    if not m.is_square():
        raise ValueError("polynomial evaluation needs a square matrix")
    out = Mat.zeros(m.rows, m.cols)
    power = Mat.identity(m.rows)
    for i, c in enumerate(p.coeffs):
        if i > 0:
            power = power * m
        if c != 0:
            out = out + power.scale(c)
    return out


def minimal_polynomial(x, multiply=None, one=None) -> Poly:
    """Monic minimal polynomial: the first linear dependence among 1, x, x^2, ...

    x is a square Mat (powers are matrix products, 1 is the identity), or an
    element of an algebra given with that algebra's multiply and unit. Each
    new power is reduced against the earlier ones in one incremental
    elimination, which stops at the first power that reduces to zero.
    """
    if multiply is None:
        if not isinstance(x, Mat) or not x.is_square():
            raise ValueError("minimal polynomial needs a square matrix")
        multiply, one = Mat.__mul__, Mat.identity(x.rows)

        def coords(m: Mat) -> list[Fraction]:
            return [c for r in m.data for c in r]
    else:
        coords = list
    powers: list[list[Fraction]] = []
    # Reduced powers: (pivot, row, combination of powers giving that row).
    reduced: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = one
    while True:
        d = len(powers)
        if d:
            power = multiply(power, x)
        v = coords(power)
        powers.append(v)
        combo = [Fraction(0)] * d + [Fraction(1)]
        for p, row, c in reduced:
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
                for i, ci in enumerate(c):
                    combo[i] -= f * ci
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            break
        inv = 1 / v[pivot]
        reduced.append((pivot, [a * inv for a in v], [a * inv for a in combo]))
    # combo is x^d minus its expression in lower powers: monic of degree d.
    if any(sum((c * w[k] for c, w in zip(combo, powers)), Fraction(0)) for k in range(len(v))):
        raise AssertionError("minimal polynomial does not annihilate its argument")
    return Poly(combo)
