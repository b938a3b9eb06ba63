"""Idempotent lifting and projective modules given by idempotent matrices.

Lifting refines p to 3p^2 - 2p^3, which squares the error term p^2 - p inside
the nilpotent ideal, so at most ceil(log2(nilpotency index)) passes are ever
needed. There is one refinement loop, over square matrices with entries in the
algebra A held as nested rows of coordinate vectors; an element is refined as
the 1 x 1 matrix ((p,),).

Matrices are multiplied block by block with A.multiply, which builds no
structure tensor for the matrix algebra. matrix_over(A, k).multiply is faster
per product, but its tables cost time and memory up front: on a 2-core x86 VM,
the 32 tables for the eight algebras of the modules-lift benchmark at sizes
1-4 took 0.55 s to build and held 17 MB, about that workload's whole peak RSS.

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

from .algebra import FDAlgebra, QuotientPresentation, Vec
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


def _matrix_product(a: FDAlgebra, x: AMatEntries, y: AMatEntries) -> AMatEntries:
    """Product of two square matrices over a, computed block by block with
    a.multiply; equal to matrix_over(a, size).multiply on the flattened
    entries."""
    size, d = len(x), a.dim
    out = []
    for p in range(size):
        row = []
        for q in range(size):
            acc = [Fraction(0)] * d
            for r in range(size):
                for t, c in enumerate(a.multiply(x[p][r], y[r][q])):
                    acc[t] += c
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def _refine(qp: QuotientPresentation, p: AMatEntries) -> tuple[AMatEntries, int]:
    """Apply P -> 3P^2 - 2P^3 to a square matrix over qp.algebra until it is
    idempotent, returning it and the number of passes. More passes than
    ceil(log2) of the ideal's nilpotency index (memoized on the algebra), or a
    result outside the class of P modulo the ideal, is an internal error."""
    a = qp.algebra
    bound = (_ideal_nilpotency_index(a, qp.ideal) - 1).bit_length()
    start, steps = p, 0
    while True:
        sq = _matrix_product(a, p, p)
        if sq == p:
            break
        if steps >= bound:
            raise InternalError("idempotent refinement exceeded its guaranteed bound")
        p = tuple(
            tuple(tuple(3 * b - 2 * c for b, c in zip(s, t)) for s, t in zip(srow, trow))
            for srow, trow in zip(sq, _matrix_product(a, sq, p))
        )
        steps += 1
    # Without a pass p is start itself, so only a refined p is compared.
    if steps and any(
        qp.project(e) != qp.project(f) for row, s_row in zip(p, start) for e, f in zip(row, s_row)
    ):
        raise InternalError("refinement changed the class modulo the ideal")
    return p, steps


class IdempotentMatrix:
    """Square matrix over an algebra with P*P = P, presenting the projective
    right module P * A^size (columns)."""

    __slots__ = ("algebra", "size", "entries")

    def __init__(self, algebra: FDAlgebra, entries: Sequence[Sequence[Sequence]]):
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("algebra-valued matrix must be square")
        ents = tuple(tuple(algebra.element(entry) for entry in row) for row in entries)
        if _matrix_product(algebra, ents, ents) != ents:
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
    p = qp.algebra.element(p)
    if not qp.quotient.is_idempotent(qp.project(p)):
        raise NotIdempotentError("element is not idempotent modulo the ideal")
    ((out,),), steps = _refine(qp, ((p,),))
    return out, steps


def lift_idempotent_matrix(q: IdempotentMatrix, qp: QuotientPresentation) -> IdempotentMatrix:
    """Entrywise lift of an idempotent matrix over the quotient, refined until
    idempotent over the ambient algebra."""
    if q.algebra != qp.quotient:
        raise AlgebraMismatchError("matrix is not defined over the quotient algebra")
    lifted, _ = _refine(qp, tuple(tuple(qp.lift(entry) for entry in row) for row in q.entries))
    # _refine returned only once P * P = P, so the constructor's check is skipped.
    return IdempotentMatrix.__new__(IdempotentMatrix)._fill(qp.algebra, lifted)


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

