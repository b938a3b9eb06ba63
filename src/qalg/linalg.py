"""Exact linear algebra over arbitrary-precision rationals.

Everything here is immutable and deterministic: matrices are tuples of tuples
of ``fractions.Fraction``, and all elimination grows a reduced row echelon
basis one vector at a time (`_insert`). That form is the canonical
representative used for subspace comparisons elsewhere in the package.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InternalError, NoSolutionError
from .poly import Poly, rat

# Rational scalar type used across the package. Fraction already guarantees
# lowest terms and a positive denominator.
Rat = Fraction

_ZERO = Fraction(0)


def _scaled(v: Sequence, d: int) -> list[tuple[int, int]]:
    """The pairs (i, v_i * d) for the nonzero v_i; d is a multiple of v's denominators."""
    return [(i, c.numerator * (d // c.denominator)) for i, c in enumerate(v) if c]


def _over(numerators: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The Fractions n / den for integer numerators n."""
    return tuple(Fraction(c, den) if c else _ZERO for c in numerators)


def rat_to_str(q: Fraction) -> str:
    """Render a rational as 'a/b', omitting '/b' when the denominator is 1.
    A float raises TypeError."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def rat_from_str(s: str) -> Fraction:
    """Parse 'a' or 'a/b' (optional sign, decimal digits) into a Fraction."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s.strip())
    if match is None:
        raise ValueError(f"not a rational: {s!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def rat_vector_from_json(obj, length: int, what: str) -> tuple[Fraction, ...]:
    """Parse a JSON array of `length` rational strings ('a' or 'a/b')."""
    return _vector_from_json(obj, length, what, rat_from_str)


def _vector_from_json(obj, length: int, what: str, parse) -> tuple[Fraction, ...]:
    """rat_vector_from_json with each entry read by parse."""
    if not isinstance(obj, list) or len(obj) != length:
        raise ValueError(f"{what} must be a JSON array of {length} rational strings")
    return tuple(parse(c) for c in obj)


def as_vector(values: Iterable, length: int | None = None) -> tuple[Fraction, ...]:
    """Coerce a sequence to a tuple of Fractions, optionally checking length.
    An entry that already is a Fraction is kept as it is."""
    v = tuple(x if type(x) is Fraction else rat(x) for x in values)
    if length is not None and len(v) != length:
        raise ValueError(f"expected a vector of length {length}, got {len(v)}")
    return v


class Mat:
    """Immutable dense matrix over Fraction. _ints caches the rows as integer
    numerators for apply; it is filled on first use."""

    __slots__ = ("rows", "cols", "data", "_ints")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(x if type(x) is Fraction else rat(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "_ints", None)

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

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.shape() == other.shape() and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __mul__(self, other: "Mat") -> "Mat":
        """Matrix product, one column at a time through apply, so that the
        sums are taken over the integer rows."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} * {other.shape()}")
        columns = [self.apply(c) for c in other.transpose().data]
        if not (self.rows and columns):
            return Mat.zeros(self.rows, other.cols)
        return Mat(zip(*columns))

    def transpose(self) -> "Mat":
        if not self.cols:
            return Mat.zeros(0, self.rows)
        return Mat([self.col(j) for j in range(self.cols)])

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector, returned as a flat tuple, summed in
        ints. The rows are read once, on the first call, as their nonzero
        integer numerators over one denominator, and kept: the matrix is
        immutable. Each call scales v to integers over its own denominator."""
        v = as_vector(v, self.cols)
        ints = self._ints
        if ints is None:
            den = lcm(*{c.denominator for r in self.data for c in r})
            ints = (den, tuple(_scaled(r, den) for r in self.data))
            object.__setattr__(self, "_ints", ints)
        den, rows = ints
        vd = lcm(*{c.denominator for c in v})
        w = [c.numerator * (vd // c.denominator) for c in v]
        return _over([sum(n * w[j] for j, n in row) for row in rows], den * vd)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        if not self.rows:
            return Mat.zeros(0, self.cols + other.cols)
        return Mat([r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(a) for a in r) for r in self.data)
        return f"Mat[{body}]"


def _reduce(rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> list[Fraction]:
    """What is left of v after clearing each pivot column of reduced echelon rows."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            w = [a - c * b if b else a for a, b in zip(w, row)]
    return w


def _insert(rows: list, pivots: list[int], v: Sequence[Fraction]) -> bool:
    """Add v to reduced echelon rows kept in pivot order: the package's one
    elimination over Q. What `_reduce` leaves of v is scaled to a leading 1,
    cleared from the other rows and inserted at its pivot's place. Returns
    False, changing nothing, when v lies in the rows' span."""
    w = _reduce(rows, pivots, v)
    p = next((i for i, a in enumerate(w) if a), None)
    if p is None:
        return False
    inv = 1 / w[p]
    w = [a * inv for a in w]
    for i, row in enumerate(rows):
        c = row[p]
        if c:
            rows[i] = [a - c * b if b else a for a, b in zip(row, w)]
    k = bisect_left(pivots, p)
    rows.insert(k, w)
    pivots.insert(k, p)
    return True


def _echelon(vectors: Iterable[Sequence]) -> tuple[list, list[int]]:
    """Reduced echelon rows and pivots of the span of vectors."""
    rows: list = []
    pivots: list[int] = []
    for v in vectors:
        _insert(rows, pivots, v)
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns the echelon matrix, zero rows last, and the tuple of pivot column
    indices. The rows of m are inserted one at a time; since the reduced
    echelon form of a row space is unique, the order does not matter.
    """
    rows, pivots = _echelon(m.data)
    ech = rows + [[Fraction(0)] * m.cols] * (m.rows - len(rows))
    return (Mat(ech) if ech else Mat.zeros(0, m.cols)), tuple(pivots)


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


def minimal_polynomial(x: Sequence, multiply, one: Sequence) -> Poly:
    """Monic minimal polynomial of an algebra element: the first linear
    dependence among one, x, x^2, ..., with powers taken by the algebra's
    multiply and unit. The powers join one reduced echelon basis until one of
    them is dependent. A square matrix's minimal polynomial is that of its
    row-major flattening in matrix_algebra(n).
    """
    rows: list = []
    pivots: list[int] = []
    power = one
    powers = [list(power)]
    while _insert(rows, pivots, powers[-1]):
        power = multiply(power, x)
        powers.append(list(power))
    # The first d powers are independent and fixed by their entries at the d
    # pivots, so those entries, one column per power, reduce to [I | b], and
    # x^d = -sum b_i x^i. The check below reads the relation on all coordinates.
    system, _ = _echelon([w[p] for w in powers] for p in pivots)
    relation = [-r[-1] for r in system] + [Fraction(1)]
    if any(sum(c * w[k] for c, w in zip(relation, powers)) for k in range(len(powers[0]))):
        raise InternalError("minimal polynomial does not annihilate its argument")
    return Poly(relation)
