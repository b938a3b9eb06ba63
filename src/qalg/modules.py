"""Idempotent lifting and projective modules given by idempotent matrices.

Lifting refines p to 3p^2 - 2p^3, which squares the error term p^2 - p inside
the nilpotent ideal, so at most ceil(log2(nilpotency index)) passes are ever
needed. There is one refinement loop, over square matrices with entries in the
algebra A held as nested rows of coordinate vectors; an element is refined as
the 1 x 1 matrix ((p,),).

Matrices are multiplied by A._matrix_product, which also computes A.multiply
as its 1 x 1 case and builds no structure table for the matrix algebra.
matrix_over(A, k) is not used for the products, because its tables cost time
and memory up front: on a 2-core x86 VM, the 32 tables for the eight algebras
of the modules-lift benchmark at sizes 1-4 took 0.55 s to build and held
17 MB, about that workload's whole peak RSS.

A projective right module is presented by an idempotent matrix P over
the algebra; its image in each simple factor of the semisimple quotient has a
well-defined rational rank, and two presentations give isomorphic modules
exactly when their rank vectors agree.

Ranks are traces of idempotents (the Hattori-Stallings rank). With P' the
presentation projected to the semisimple quotient s and e the central
idempotent of a factor F = e*s, X -> e*P'*X is an idempotent linear map on
s^size with image P' * F^size, so that image has dimension equal to the map's
trace, sum_u tr(L_{e * P'_uu}); dividing by dim F gives the rank. That trace
is linear in the diagonal of P, so it is read by one functional per factor on
the algebra's own coordinates, psi(x) = tr_s(L_{e * pi(x)}) with pi the
projection to s: the rank is psi(sum_u P_uu) / dim F. The functionals are
built once per algebra, as integer numerators over one denominator, and
memoized on it; a rank then needs no product and no projection.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from ._record import Frozen, record
from .algebra import FDAlgebra, QuotientPresentation, Vec, _memoized
from .errors import AlgebraMismatchError, InternalError, NotIdempotentError, UnknownIndexError
from .linalg import _scaled, rat, rat_to_str, rat_vector_from_json
from .structure import (
    WedderburnReport,
    _ideal_nilpotency_index,
    jacobson_radical,
    wedderburn_decomposition,
)

AMatEntries = tuple[tuple[Vec, ...], ...]


def _refine(qp: QuotientPresentation, p: AMatEntries) -> tuple[AMatEntries, int]:
    """Apply P -> 3P^2 - 2P^3 to a square matrix over qp.algebra until it is
    idempotent, returning it and the number of passes. More passes than
    ceil(log2) of the ideal's nilpotency index (memoized on the algebra), or a
    result outside the class of P modulo the ideal, is an internal error."""
    a = qp.algebra
    bound = (_ideal_nilpotency_index(a, qp.ideal) - 1).bit_length()
    start, steps = p, 0
    while True:
        sq = a._matrix_product(p, p)
        if sq == p:
            break
        if steps >= bound:
            raise InternalError("idempotent refinement exceeded its guaranteed bound")
        p = tuple(
            tuple(tuple(3 * b - 2 * c for b, c in zip(s, t)) for s, t in zip(srow, trow))
            for srow, trow in zip(sq, a._matrix_product(sq, p))
        )
        steps += 1
    # Without a pass p is start itself, so only a refined p is compared.
    if steps and any(
        qp.project(e) != qp.project(f) for row, s_row in zip(p, start) for e, f in zip(row, s_row)
    ):
        raise InternalError("refinement changed the class modulo the ideal")
    return p, steps


class IdempotentMatrix(Frozen):
    """Square matrix over an algebra with P*P = P, presenting the projective
    right module P * A^size (columns)."""

    __slots__ = ("algebra", "size", "entries")

    def __init__(self, algebra: FDAlgebra, entries: Sequence[Sequence[Sequence]]):
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("algebra-valued matrix must be square")
        ents = tuple(tuple(algebra.element(entry) for entry in row) for row in entries)
        if algebra._matrix_product(ents, ents) != ents:
            raise NotIdempotentError("matrix is not idempotent over the algebra")
        self._fill(algebra, ents)

    def _fill(self, algebra: FDAlgebra, entries: AMatEntries) -> "IdempotentMatrix":
        """Set the fields of a matrix already known to be idempotent."""
        return self._set(algebra=algebra, size=len(entries), entries=entries)

    @staticmethod
    def diagonal(algebra: FDAlgebra, diagonal_elements: Sequence[Sequence]) -> "IdempotentMatrix":
        size = len(diagonal_elements)
        zero = algebra.zero()
        rows = [
            [diagonal_elements[u] if u == v else zero for v in range(size)]
            for u in range(size)
        ]
        return IdempotentMatrix(algebra, rows)

    def _key(self) -> tuple:
        return (self.algebra, self.entries)

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


@record
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


@_memoized
def _rank_functionals(a: FDAlgebra) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each Wedderburn factor F = e*s of the semisimple quotient s of a,
    the functional psi(x) = tr_s(L_{e * pi(x)}) on a's coordinates, with pi
    the projection to s, as (den, pairs (j, psi(b_j) * den) for the nonzero
    psi(b_j)) over a's basis b_j. Only ints are kept in the memo."""
    projection = jacobson_radical(a).quotient.projection
    w = wedderburn_decomposition(a)
    s = w.semisimple_quotient
    traces = s._traces()
    basis = [s.basis_element(k) for k in range(s.dim)]
    out = []
    for products in s._pairwise_products([f.central_idempotent for f in w.factors], basis):
        # tr_s(L_{e * c_k}) for each basis element c_k of s
        t = [sum(x * y for x, y in zip(ec, traces)) for ec in products]
        psi = [sum(x * y for x, y in zip(t, column)) for column in zip(*projection.data)]
        den = lcm(*{c.denominator for c in psi})
        out.append((den, tuple(_scaled(psi, den))))
    return tuple(out)


def projective_module(presentation: IdempotentMatrix) -> ProjectiveModuleDescriptor:
    """Rank data of the projective module presented by an idempotent matrix."""
    a = presentation.algebra
    size = presentation.size
    diagonal = [presentation.entries[u][u] for u in range(size)]
    d = lcm(*{c.denominator for x in diagonal for c in x})
    # sum_u P_uu as integer numerators over d
    total = [0] * a.dim
    for x in diagonal:
        for j, c in _scaled(x, d):
            total[j] += c
    ranks = []
    for factor, (den, psi) in zip(wedderburn_decomposition(a).factors, _rank_functionals(a)):
        image_dim = Fraction(sum(c * total[j] for j, c in psi), den * d)
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
    be an integer for every factor's matrix size n_i, as it is for an integral
    r, rank 0 included. Raises UnknownIndexError for any other r when some
    factor's size is uncertified, ValueError for a negative r and TypeError
    for a float."""
    r = rat(r)
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r.denominator == 1:
        return True
    for i, factor in enumerate(w.factors):
        if factor.matrix_size is None:
            raise UnknownIndexError(
                f"factor {i} has an uncertified matrix size; assert an index first"
            )
        if (factor.matrix_size * r).denominator != 1:
            return False
    return True

