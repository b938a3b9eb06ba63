"""Structure theory: radical, semisimple quotient, simple factor data.

The radical is the kernel of the trace form (characteristic zero makes the
trace criterion exact). One split step finds both the simple factors of the
semisimple quotient and their matrix sizes: an element z of a corner with
unit e splits e into orthogonal idempotents, one per irreducible factor of
z's minimal polynomial, by partial fractions on the powers of z that the
minimal polynomial was found from (Ronyai 1990); no multiplication matrix is
built. The center is split at the first z_t = sum_i C(t, i) * b_i over its
echelon basis whose minimal polynomial has degree m = dim center, and t <=
(m-1) * m(m-1)/2 is proven to suffice; the factors come in factor_rational's
order of that polynomial's irreducible factors: by degree, then coefficients.

The matrix size search certifies only split factors, n = degree over the
center. Starting from a factor's central idempotent, each pass splits the
current Peirce corner at the first deterministic candidate with two or more
pieces and keeps the piece of least trace, so it certifies within
floor(log2 degree) splits, or reports unknown (None) when no candidate
splits a corner. It stays in the quotient's coordinates: no factor or corner
algebra is built, and repeated runs produce identical reports.

A semisimple algebra's zero radical has the algebra itself as its quotient,
not a copy. Radical, Wedderburn and central idempotent results, and the
nilpotency index of each ideal (keyed by the ideal), are memoized on the
algebra object, so an equal but distinct algebra computes its own. The memo
refers back to its algebra: a radical report's quotient presentation holds
the algebra, and a semisimple algebra is its own quotient. The algebra and
its memo are therefore a reference cycle, which Python's cyclic garbage
collector frees once no outside reference is left; reference counting alone
does not free them when the last outside reference goes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, isqrt
from typing import Iterator, Sequence

from ._record import record
from .algebra import (
    FDAlgebra,
    QuotientPresentation,
    Vec,
    _memoized,
    quotient_by_ideal,
)
from .errors import InternalError, NotNilpotentError, NotSemisimpleError, NotSimpleError
from .linalg import Subspace, kernel_basis, minimal_polynomial
from .poly import Poly
from .polyfactor import Factorization, factor_rational


@record
class RadicalReport:
    """Radical subspace, its nilpotency index (1 means the radical is zero),
    and the presentation of the semisimple quotient."""

    radical: Subspace
    nilpotency_index: int
    quotient: QuotientPresentation


@record
class SimpleFactorData:
    """One simple factor of the semisimple quotient.

    central_idempotent lives in the semisimple quotient's coordinates.
    degree_over_center is the integer with degree^2 * center_dim = factor_dim.
    matrix_size is the certified size n with factor = n x n matrices over a
    division algebra. Only split factors are certified, with n =
    degree_over_center, by a corner descent that keeps each split's
    least-trace piece, within floor(log2 degree) splits; otherwise it is None
    (unknown), which does not certify a division algebra.
    """

    central_idempotent: Vec
    factor_dim: int
    center_dim: int
    degree_over_center: int
    matrix_size: int | None


@record
class WedderburnReport:
    semisimple_quotient: FDAlgebra
    factors: tuple[SimpleFactorData, ...]


def _subspace_product(a: FDAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """The span of x * y over the basis vectors x of u and y of v."""
    return Subspace(a.dim, [xy for row in a._pairwise_products(u.vectors(), v.vectors()) for xy in row])


@_memoized
def _ideal_nilpotency_index(a: FDAlgebra, n: Subspace) -> int:
    """Least t with n^t = 0, by direct powering. Raises NotNilpotentError when
    the powers stabilize at a nonzero subspace."""
    current = n
    t = 1
    while current.dim > 0:
        nxt = _subspace_product(a, current, n)
        if nxt.dim >= current.dim and nxt == current:
            raise NotNilpotentError("subspace powers stabilize at a nonzero subspace")
        if t > a.dim + 1:
            raise NotNilpotentError("subspace powers do not reach zero")
        current = nxt
        t += 1
    return t


@_memoized
def jacobson_radical(a: FDAlgebra) -> RadicalReport:
    """Radical as the kernel of the trace form B(x, y) = tr(L_{xy})."""
    radical = Subspace(a.dim, kernel_basis(a._trace_form()))
    index = _ideal_nilpotency_index(a, radical)
    quotient = quotient_by_ideal(a, radical)
    return RadicalReport(radical=radical, nilpotency_index=index, quotient=quotient)


def is_semisimple(a: FDAlgebra) -> bool:
    return jacobson_radical(a).radical.dim == 0


def _splitting_candidates(rows: Sequence[Vec]) -> Iterator[Vec]:
    """Deterministic candidate elements for the matrix size search (its only
    user): basis vectors, then two-term combinations with coefficients 1..3,
    then three-term combinations."""
    for k, small in ((1, (1,)), (2, (1, 2, 3)), (3, (1, 2, 3))):
        for chosen in combinations(rows, k):
            for coeffs in product(small, repeat=k):
                yield tuple(sum(c * x for c, x in zip(coeffs, entries)) for entries in zip(*chosen))


def _minpoly_and_powers(s: FDAlgebra, z: Vec, e: Vec) -> tuple[Poly, list[Vec]]:
    """Minimal polynomial f of z in the corner with unit e, and the powers e,
    z, ..., z^(deg f) that minimal_polynomial formed, recorded as it asks."""
    powers = [e]

    def multiply(x: Vec, y: Vec) -> Vec:
        powers.append(s.multiply(x, y))
        return powers[-1]

    return minimal_polynomial(z, multiply, e), powers


def _split(s: FDAlgebra, f: Poly, powers: Sequence[Vec]) -> list[Vec]:
    """Orthogonal idempotents summing to e = powers[0], one per distinct
    irreducible factor q^k of the minimal polynomial f of z = powers[1], in
    factor_rational's order; one factor gives [e]. The piece of q^k is u(z)
    for the partial fraction u = g * (g^-1 mod q^k) mod f with g = f / q^k,
    which is 1 mod q^k and 0 mod the other factors; deg u < deg f, so u(z)
    is a combination of the powers e, z, ..., z^(deg f - 1)."""
    factors = factor_rational(f).factors
    if len(factors) == 1:
        return [powers[0]]
    pieces = []
    for factor in factors:
        modulus = Factorization(Fraction(1), (factor,)).expand()
        g = f // modulus
        _, inverse, _ = (g % modulus).extended_gcd(modulus)
        u = (g * (inverse % modulus)) % f
        terms = [(c, power) for c, power in zip(u.coeffs, powers) if c]
        p = tuple(sum((c * power[k] for c, power in terms), Fraction(0)) for k in range(s.dim))
        if not any(p) or s.multiply(p, p) != p:
            raise InternalError("a partial fraction piece is not a nonzero idempotent")
        pieces.append(p)
    return pieces


@_memoized
def central_primitive_idempotents(s: FDAlgebra) -> tuple[Vec, ...]:
    """Central primitive idempotents of a semisimple algebra, from the minimal
    polynomial of one primitive element of its center.

    The center Z is a product of number fields of total dimension m, so it
    has m distinct embeddings into an algebraic closure, and the minimal
    polynomial of z in Z has one root per distinct value they take at z. It
    has degree m exactly when z generates Z; it is then squarefree, and its
    irreducible factors, in factor_rational's order (by degree, then
    coefficients), give the idempotents in that order by partial fractions.

    With b_0..b_{m-1} the center's echelon basis, z_t = sum_i C(t, i) * b_i
    is tried for t = 0, 1, .... An embedding sends z_t to a polynomial in t
    of degree below m, and distinct embeddings give distinct polynomials
    because the C(t, i) with i < m span those polynomials. Each of the
    m(m-1)/2 pairs of embeddings therefore agrees for at most m - 1 values
    of t, and some t <= (m-1) * m(m-1)/2 works; passing that bound is an
    internal error.
    """
    if jacobson_radical(s).radical.dim != 0:
        raise NotSemisimpleError("algebra has a nonzero radical")
    basis = s.center().vectors()
    m = len(basis)
    for t in range((m - 1) * m * (m - 1) // 2 + 1):
        weights = [comb(t, i) for i in range(m)]
        z = tuple(
            sum((w * b[k] for w, b in zip(weights, basis)), Fraction(0))
            for k in range(s.dim)
        )
        minpoly, powers = _minpoly_and_powers(s, z, s.unit)
        if minpoly.degree() == m:
            return tuple(_split(s, minpoly, powers))
    raise InternalError("no primitive element of the center within the proven bound")


def _matrix_size_search(
    s: FDAlgebra, factor_space: Subspace, e: Vec, center_dim: int, degree: int
) -> int | None:
    """Certified matrix size of the simple factor of s on factor_space (unit
    e, center of dimension center_dim, degree over its center), or None.

    A corner pFp of rank k in the factor F = M_n(D) is M_k(D), so only n =
    degree (D the center) can be certified, and one corner suffices: each
    pass splits the current corner at the first candidate with two or more
    pieces and keeps the corner of the piece of least trace tr(L) on s, which
    is proportional to rank, so the rank at most halves, and a split factor
    is certified within floor(log2 degree) splits, when the corner has shrunk
    to the center's dimension. A corner that no candidate splits gives None.
    """
    traces = s._traces()
    corner = factor_space
    while corner.dim > center_dim:
        for z in _splitting_candidates(corner.vectors()):
            pieces = _split(s, *_minpoly_and_powers(s, z, e))
            if len(pieces) > 1:
                break
        else:
            return None
        e = min(pieces, key=lambda x: sum(t * c for t, c in zip(traces, x)))
        right = [ve for (ve,) in s._pairwise_products(corner.vectors(), (e,))]
        corner = Subspace(s.dim, s._pairwise_products((e,), right)[0])
    if corner.dim < center_dim:
        raise InternalError("a corner is smaller than the factor's center")
    return degree


def try_matrix_size(factor: FDAlgebra) -> int | None:
    """Matrix size n of a simple algebra isomorphic to n x n matrices over a
    division algebra, or None when no certificate was found.

    None is honest ignorance: it never certifies that the factor is a
    division algebra, only that the deterministic search found no chain of
    splitting idempotents down to the center.
    """
    if jacobson_radical(factor).radical.dim != 0:
        raise NotSimpleError("algebra is not semisimple")
    if len(central_primitive_idempotents(factor)) != 1:
        raise NotSimpleError("algebra has more than one simple factor")
    return wedderburn_decomposition(factor).factors[0].matrix_size


@_memoized
def wedderburn_decomposition(a: FDAlgebra) -> WedderburnReport:
    """Simple factor data for the semisimple quotient of a."""
    report = jacobson_radical(a)
    s = report.quotient.quotient
    idempotents = central_primitive_idempotents(s)
    basis = [s.basis_element(i) for i in range(s.dim)]
    factor_spans = s._pairwise_products(idempotents, basis)
    center_spans = s._pairwise_products(idempotents, s.center().vectors())
    factors = []
    for e, factor_span, center_span in zip(idempotents, factor_spans, center_spans):
        factor_space = Subspace(s.dim, factor_span)
        factor_dim = factor_space.dim
        center_dim = Subspace(s.dim, center_span).dim
        degree = isqrt(factor_dim // center_dim)
        if degree * degree * center_dim != factor_dim:
            raise InternalError(
                "factor dimension is not a square multiple of its center dimension"
            )
        factors.append(
            SimpleFactorData(
                central_idempotent=e,
                factor_dim=factor_dim,
                center_dim=center_dim,
                degree_over_center=degree,
                matrix_size=_matrix_size_search(s, factor_space, e, center_dim, degree),
            )
        )
    total = sum(f.factor_dim for f in factors)
    if total != s.dim:
        raise InternalError("factor dimensions do not add up to the quotient's")
    return WedderburnReport(semisimple_quotient=s, factors=tuple(factors))
