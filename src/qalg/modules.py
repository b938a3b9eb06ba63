"""Idempotent lifting and projective modules given by idempotent matrices.

Lifting refines p to 3p^2 - 2p^3, which squares the error term p^2 - p inside
the nilpotent ideal, so at most ceil(log2(nilpotency index)) passes are ever
needed. Elements and k x k matrices over the algebra A go through the same
refinement loop: a matrix is held as a flat vector in the (p, q, t) coordinate
order of matrix_over(A, k) and multiplied block by block with A.multiply,
without building that algebra's dim^3 structure tensor.

A projective right module is presented by an idempotent matrix P over
the algebra; its image in each simple factor of the semisimple quotient has a
well-defined rational rank, and two presentations give isomorphic modules
exactly when their rank vectors agree.

Ranks are traces of idempotents (the Hattori-Stallings rank). With P' the
presentation projected to the semisimple quotient s and e the central
idempotent of a factor F = e*s, X -> e*P'*X is an idempotent linear map on
s^size with image P' * F^size, so that image has dimension equal to the map's
trace, sum_u tr(L_{e * P'_uu}); dividing by dim F gives the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import FDAlgebra, QuotientPresentation, Subspace, Vec, subalgebra_on
from .errors import AlgebraMismatchError, InternalError, NotIdempotentError, UnknownIndexError
from .linalg import rat_to_str, rat_vector_from_json
from .structure import (
    WedderburnReport,
    _basis_traces,
    _ideal_nilpotency_index,
    jacobson_radical,
    wedderburn_decomposition,
)

AMatEntries = tuple[tuple[Vec, ...], ...]


def _flatten(entries: AMatEntries) -> Vec:
    """Coordinates of a square matrix over an algebra, ordered like the
    basis E_pq tensor b_t of matrix_over(algebra, size): by (p, q, t)."""
    return tuple(c for row in entries for entry in row for c in entry)


def _unflatten(x: Vec, size: int, dim: int) -> AMatEntries:
    return tuple(
        tuple(x[(p * size + q) * dim : (p * size + q + 1) * dim] for q in range(size))
        for p in range(size)
    )


def _matrix_product(a: FDAlgebra, size: int, x: Vec, y: Vec) -> Vec:
    """Product of two flat matrices over a, computed block by block with
    a.multiply; equal to matrix_over(a, size).multiply(x, y)."""
    d = a.dim
    xs, ys = _unflatten(x, size, d), _unflatten(y, size, d)
    out = []
    for p in range(size):
        for q in range(size):
            acc = [Fraction(0)] * d
            for r in range(size):
                for t, c in enumerate(a.multiply(xs[p][r], ys[r][q])):
                    acc[t] += c
            out.extend(acc)
    return tuple(out)


def _refine(mul, p: Vec, bound: int) -> tuple[Vec, int]:
    """Apply p -> 3p^2 - 2p^3 until p is idempotent under mul, returning it
    and the number of passes; more than bound passes is an internal error."""
    steps = 0
    while True:
        sq = mul(p, p)
        if sq == p:
            return p, steps
        if steps >= bound:
            raise InternalError("idempotent refinement exceeded its guaranteed bound")
        p = tuple(3 * b - 2 * c for b, c in zip(sq, mul(sq, p)))
        steps += 1


class IdempotentMatrix:
    """Square matrix over an algebra with P*P = P, presenting the projective
    right module P * A^size (columns)."""

    __slots__ = ("algebra", "size", "entries")

    def __init__(self, algebra: FDAlgebra, entries: Sequence[Sequence[Sequence]]):
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("algebra-valued matrix must be square")
        ents = tuple(tuple(algebra.element(entry) for entry in row) for row in entries)
        flat = _flatten(ents)
        if _matrix_product(algebra, size, flat, flat) != flat:
            raise NotIdempotentError("matrix is not idempotent over the algebra")
        self._fill(algebra, ents)

    def _fill(self, algebra: FDAlgebra, entries: AMatEntries) -> "IdempotentMatrix":
        """Set the fields of a matrix already known to be idempotent."""
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "size", len(entries))
        object.__setattr__(self, "entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IdempotentMatrix is immutable")

    @staticmethod
    def diagonal(algebra: FDAlgebra, diagonal_elements: Sequence[Sequence]) -> "IdempotentMatrix":
        size = len(diagonal_elements)
        zero = algebra.zero()
        rows = [
            [diagonal_elements[u] if u == v else zero for v in range(size)]
            for u in range(size)
        ]
        return IdempotentMatrix(algebra, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdempotentMatrix)
            and self.algebra == other.algebra
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.entries))

    def to_json_lists(self) -> list[list[list[str]]]:
        """Nested arrays of coordinate vectors with rationals as strings."""
        return [
            [[rat_to_str(c) for c in entry] for entry in row] for row in self.entries
        ]

    @staticmethod
    def from_json_lists(algebra: FDAlgebra, obj) -> "IdempotentMatrix":
        if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
            raise ValueError("idempotent matrix JSON must be a nested array")
        rows = [[rat_vector_from_json(e, algebra.dim, "matrix entry") for e in row] for row in obj]
        return IdempotentMatrix(algebra, rows)

    def __repr__(self) -> str:
        return f"IdempotentMatrix(size={self.size}, algebra_dim={self.algebra.dim})"


@dataclass(frozen=True)
class ProjectiveModuleDescriptor:
    """Presentation together with its per-factor rank vector. uniform_rank is
    the common value when every factor has the same rank, else None."""

    algebra: FDAlgebra
    presentation: IdempotentMatrix
    rank_vector: tuple[Fraction, ...]
    uniform_rank: Fraction | None


def _refinement_bound(qp: QuotientPresentation) -> int:
    """ceil(log2) of the ideal's nilpotency index (memoized on the algebra):
    the most passes needed."""
    return (_ideal_nilpotency_index(qp.algebra, qp.ideal) - 1).bit_length()


def lift_idempotent_with_count(q: Sequence, qp: QuotientPresentation) -> tuple[Vec, int]:
    """Lift an idempotent of the quotient through the nilpotent ideal,
    returning the lifted element and the number of refinement passes."""
    return refine_to_idempotent(qp, qp.lift(qp.quotient.element(q)))


def lift_idempotent(q: Sequence, qp: QuotientPresentation) -> Vec:
    """Idempotent of the ambient algebra projecting onto q."""
    return lift_idempotent_with_count(q, qp)[0]


def refine_to_idempotent(qp: QuotientPresentation, p: Sequence) -> tuple[Vec, int]:
    """Refine an ambient element that is idempotent modulo the ideal into a
    true idempotent with the same class, returning it and the pass count.

    Unlike lift_idempotent this starts from the given representative, not
    from the section of its class.
    """
    a = qp.algebra
    p = a.element(p)
    q = qp.project(p)
    if not qp.quotient.is_idempotent(q):
        raise NotIdempotentError("element is not idempotent modulo the ideal")
    bound = _refinement_bound(qp)
    out, steps = _refine(a.multiply, p, bound)
    if qp.project(out) != q:
        raise InternalError("refinement changed the class modulo the ideal")
    return out, steps


def lift_idempotent_matrix(q: IdempotentMatrix, qp: QuotientPresentation) -> IdempotentMatrix:
    """Entrywise lift of an idempotent matrix over the quotient, refined until
    idempotent over the ambient algebra."""
    if q.algebra != qp.quotient:
        raise AlgebraMismatchError("matrix is not defined over the quotient algebra")
    bound = _refinement_bound(qp)
    a = qp.algebra
    size = q.size
    start = _flatten([[qp.lift(entry) for entry in row] for row in q.entries])
    flat, _ = _refine(lambda x, y: _matrix_product(a, size, x, y), start, bound)
    current = _unflatten(flat, size, a.dim)
    if tuple(tuple(qp.project(e) for e in row) for row in current) != q.entries:
        raise InternalError("refinement changed a matrix entry modulo the ideal")
    # _refine returned only once P * P = P, so the constructor's check is skipped.
    return IdempotentMatrix.__new__(IdempotentMatrix)._fill(a, current)


def projective_module(presentation: IdempotentMatrix) -> ProjectiveModuleDescriptor:
    """Rank data of the projective module presented by an idempotent matrix."""
    a = presentation.algebra
    qp = jacobson_radical(a).quotient
    w = wedderburn_decomposition(a)
    s = w.semisimple_quotient
    traces = _basis_traces(s)
    size = presentation.size
    diagonal = [qp.project(presentation.entries[u][u]) for u in range(size)]
    ranks = []
    for factor in w.factors:
        e = factor.central_idempotent
        image_dim = sum(
            (c * t for d in diagonal for c, t in zip(s.multiply(e, d), traces)), Fraction(0)
        )
        if image_dim.denominator != 1 or not 0 <= image_dim <= size * factor.factor_dim:
            raise InternalError("trace of an idempotent is not the dimension of its image")
        ranks.append(image_dim / factor.factor_dim)
    rank_vec = tuple(ranks)
    uniform = rank_vec[0] if all(r == rank_vec[0] for r in rank_vec) else None
    return ProjectiveModuleDescriptor(
        algebra=a,
        presentation=presentation,
        rank_vector=rank_vec,
        uniform_rank=uniform,
    )


def rank_vector(presentation: IdempotentMatrix) -> tuple[Fraction, ...]:
    """Per-factor ranks of the module presented by an idempotent matrix,
    ordered like the factors of the Wedderburn report."""
    return projective_module(presentation).rank_vector


def modules_isomorphic(m1: ProjectiveModuleDescriptor, m2: ProjectiveModuleDescriptor) -> bool:
    """Projective modules over the same algebra are isomorphic exactly when
    their rank vectors agree."""
    if m1.algebra != m2.algebra:
        raise AlgebraMismatchError("modules live over different algebras")
    return m1.rank_vector == m2.rank_vector


def rank_realizable(w: WedderburnReport, r: Fraction) -> bool:
    """Whether rank r is realized by a module over the algebra: n_i * r must
    be an integer for every factor's matrix size n_i. Raises UnknownIndexError
    when some factor's matrix size is uncertified."""
    r = Fraction(r)
    for i, factor in enumerate(w.factors):
        if factor.matrix_size is None:
            raise UnknownIndexError(
                f"factor {i} has an uncertified matrix size; assert an index first"
            )
        if (factor.matrix_size * r).denominator != 1:
            return False
    return True


def peirce_corner(a: FDAlgebra, p: Sequence) -> FDAlgebra:
    """Corner algebra p*a*p with unit p. p must be idempotent."""
    p = a.element(p)
    if not a.is_idempotent(p):
        raise NotIdempotentError("corner element is not idempotent")
    corner = [a.multiply(p, a.multiply(a.basis_element(i), p)) for i in range(a.dim)]
    return subalgebra_on(a, Subspace(a.dim, corner), p)
