"""Structure theory: radical, semisimple quotient, simple factor data.

The radical is the kernel of the trace form (characteristic zero makes the
trace criterion exact); the semisimple quotient is then split into simple
factors by the minimal polynomial of one primitive element of its center. That
element is the first z_t = sum_i C(t, i) * b_i over the center's echelon basis
with a minimal polynomial of degree m = dim center, and t <= (m-1) * m(m-1)/2
is proven to suffice. The factors come in the order of that polynomial's
irreducible factors from factor_rational: by degree, then coefficients.

The matrix size search certifies only split factors, n = degree over the
center. It stays inside the quotient's coordinates: starting from a factor
and its central idempotent, each pass splits the current Peirce corner with
an idempotent found among deterministic candidates and keeps the smaller
piece, so it certifies within floor(log2 degree) splits, or reports unknown
(None) when a corner does not split. No factor or corner algebra is built,
and repeated runs produce identical reports. A minimal polynomial is the
first linear dependence among the powers of the element itself; no
multiplication matrix is built.

A semisimple algebra's zero radical has the algebra itself as its quotient,
not a copy. Radical, Wedderburn and central idempotent results, and the
nilpotency index of each ideal (keyed by the ideal), are memoized on the
algebra object, so they are released with it and an equal but distinct
algebra computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Iterator, Sequence

from .algebra import (
    FDAlgebra,
    QuotientPresentation,
    Subspace,
    Vec,
    _memoized,
    quotient_by_ideal,
)
from .errors import InternalError, NotNilpotentError, NotSemisimpleError, NotSimpleError
from .linalg import Mat, kernel_basis, minimal_polynomial
from .poly import Poly
from .polyfactor import factor_rational


@dataclass(frozen=True)
class RadicalReport:
    """Radical subspace, its nilpotency index (1 means the radical is zero),
    and the presentation of the semisimple quotient."""

    radical: Subspace
    nilpotency_index: int
    quotient: QuotientPresentation


@dataclass(frozen=True)
class SimpleFactorData:
    """One simple factor of the semisimple quotient.

    central_idempotent lives in the semisimple quotient's coordinates.
    degree_over_center is the integer with degree^2 * center_dim = factor_dim.
    matrix_size is the certified size n with factor = n x n matrices over a
    division algebra. Only split factors are certified, with n =
    degree_over_center within floor(log2 degree) splits; otherwise it is None
    (unknown), which does not certify a division algebra.
    """

    central_idempotent: Vec
    factor_dim: int
    center_dim: int
    degree_over_center: int
    matrix_size: int | None


@dataclass(frozen=True)
class WedderburnReport:
    semisimple_quotient: FDAlgebra
    factors: tuple[SimpleFactorData, ...]


def _subspace_product(a: FDAlgebra, u: Subspace, v: Subspace) -> Subspace:
    products = [a.multiply(x, y) for x in u.vectors() for y in v.vectors()]
    return Subspace(a.dim, products)


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


def _trace_numerators(a: FDAlgebra) -> list[int]:
    """tr(L_b) * a._den for each basis element b."""
    return [sum(c for j, terms in enumerate(row) for t, c in terms if t == j) for row in a._terms]


def _basis_traces(a: FDAlgebra) -> Vec:
    """tr(L_b) for each basis element b, so that the trace of left
    multiplication by y is the linear functional sum_k y_k * tr(L_{b_k})."""
    return tuple(Fraction(t, a._den) for t in _trace_numerators(a))


@_memoized
def jacobson_radical(a: FDAlgebra) -> RadicalReport:
    """Radical as the kernel of the trace form B(x, y) = tr(L_{xy})."""
    n = a.dim
    traces = _trace_numerators(a)
    # B(e_i, e_j) * _den^2, in integers: scaling keeps the kernel.
    gram = Mat([[sum(c * traces[k] for k, c in terms) for terms in row] for row in a._terms])
    radical = Subspace(n, kernel_basis(gram))
    index = _ideal_nilpotency_index(a, radical)
    quotient = quotient_by_ideal(a, radical)
    return RadicalReport(radical=radical, nilpotency_index=index, quotient=quotient)


def is_semisimple(a: FDAlgebra) -> bool:
    return jacobson_radical(a).radical.dim == 0


def _splitting_candidates(rows: Sequence[Vec]) -> Iterator[Vec]:
    """Deterministic candidate elements for the matrix size search (its only
    user): basis vectors, then two-term combinations with coefficients 1..3,
    then three-term combinations."""
    for row in rows:
        yield row
    m = len(rows)
    small = (Fraction(1), Fraction(2), Fraction(3))
    for i in range(m):
        for j in range(i + 1, m):
            for ca in small:
                for cb in small:
                    yield tuple(ca * x + cb * y for x, y in zip(rows[i], rows[j]))
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for ca in small:
                    for cb in small:
                        for cc in small:
                            yield tuple(
                                ca * x + cb * y + cc * z
                                for x, y, z in zip(rows[i], rows[j], rows[k])
                            )


def _evaluate_poly_at_element(a: FDAlgebra, p: Poly, z: Vec, one: Vec) -> Vec:
    """Evaluate p at the element z, with x^0 meaning the given unit element."""
    out = [Fraction(0)] * a.dim
    power = one
    for i, c in enumerate(p.coeffs):
        if i > 0:
            power = a.multiply(power, z)
        if c != 0:
            for k, x in enumerate(power):
                out[k] += c * x
    return tuple(out)


def _partial_fraction_idempotents(
    a: FDAlgebra, z: Vec, one: Vec, minpoly: Poly, moduli: list[Poly]
) -> list[Vec]:
    """Orthogonal idempotents summing to `one`, one per pairwise coprime
    modulus of the minimal polynomial, evaluated at z."""
    out = []
    for q in moduli:
        g = minpoly // q
        _, s, _ = (g % q).extended_gcd(q)
        u = (g * (s % q)) % minpoly
        e = _evaluate_poly_at_element(a, u, z, one)
        if a.multiply(e, e) != e:
            raise InternalError("partial fraction idempotent failed")
        out.append(e)
    return out


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
        minpoly = minimal_polynomial(z, s.multiply, s.unit)
        if minpoly.degree() == m:
            irreducibles = [f for f, _ in factor_rational(minpoly).factors]
            return tuple(
                _partial_fraction_idempotents(s, z, s.unit, minpoly, irreducibles)
            )
    raise InternalError("no primitive element of the center within the proven bound")


def _find_nontrivial_idempotent(s: FDAlgebra, corner: Subspace, e: Vec) -> Vec | None:
    """First idempotent other than 0 and e in the corner algebra on `corner`
    (unit e, the product of s), found by splitting minimal polynomials of
    deterministic candidates, or None when every candidate's minimal
    polynomial is a power of a single irreducible."""
    for z in _splitting_candidates(corner.vectors()):
        minpoly = minimal_polynomial(z, s.multiply, e)
        fac = factor_rational(minpoly)
        if len(fac.factors) < 2:
            continue
        first_modulus = _poly_power(*fac.factors[0])
        p = _partial_fraction_idempotents(s, z, e, minpoly, [first_modulus])[0]
        if p == s.zero() or p == e:
            raise InternalError("split off a trivial idempotent")
        return p
    return None


def _poly_power(p: Poly, n: int) -> Poly:
    out = Poly([1])
    for _ in range(n):
        out = out * p
    return out


def _matrix_size_search(
    s: FDAlgebra, factor_space: Subspace, e: Vec, center_dim: int, degree: int
) -> int | None:
    """Certified matrix size of the simple factor of s on factor_space (unit
    e, center of dimension center_dim, degree over its center), or None.

    A corner pFp of rank k in the factor F = M_n(D) is M_k(D), so only n =
    degree (D the center) can be certified, and one corner suffices: each
    pass splits the current corner and keeps the corner of the piece whose
    left multiplication on s has the smaller trace, so the rank at most
    halves, and a split factor is certified within floor(log2 degree)
    splits, when the corner has shrunk to the center's dimension. A corner
    that does not split gives None.
    """
    traces = _trace_numerators(s)
    corner = factor_space
    while corner.dim > center_dim:
        p = _find_nontrivial_idempotent(s, corner, e)
        if p is None:
            return None
        q = tuple(u - x for u, x in zip(e, p))
        e = min(p, q, key=lambda x: sum(t * c for t, c in zip(traces, x)))
        corner = Subspace(s.dim, [s.multiply(e, s.multiply(v, e)) for v in corner.vectors()])
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
    center = s.center()
    factors = []
    for e in idempotents:
        factor_space = Subspace(
            s.dim, [s.multiply(e, s.basis_element(i)) for i in range(s.dim)]
        )
        factor_dim = factor_space.dim
        center_dim = Subspace(
            s.dim, [s.multiply(e, z) for z in center.vectors()]
        ).dim
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
