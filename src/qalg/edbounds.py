"""Evaluators for essential-dimension bound formulas.

Each evaluator returns an EdBoundReport tagging its value with a kind:
"exact", "upper" (non-strict), "strict_upper", "conjectural_exact", or
"minus_infinity" for empty moduli problems (the value field is then None).
Values are exact rationals throughout; nothing here is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .errors import InternalError, NotDivisorError, RankNotRealizableError, UnknownIndexError
from .linalg import rat, rat_to_str
from .polyfactor import _least_factor, is_prime
from .structure import WedderburnReport

KINDS = ("exact", "upper", "strict_upper", "conjectural_exact", "minus_infinity")


@dataclass(frozen=True)
class EdBoundReport:
    """A bound value with its strength and the formula that produced it."""

    value: Fraction | None
    kind: str
    formula: str
    assumptions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if (self.value is None) != (self.kind == "minus_infinity"):
            raise ValueError("value must be None exactly for minus_infinity reports")

    def to_json_dict(self) -> dict:
        return {
            "value": None if self.value is None else rat_to_str(self.value),
            "kind": self.kind,
            "formula": self.formula,
            "assumptions": list(self.assumptions),
        }


@dataclass(frozen=True)
class CSADescriptor:
    """Degree and (optionally) Schur index of a central simple algebra."""

    degree: int
    index: int | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be a positive integer")
        if self.index is not None:
            if self.index < 1:
                raise ValueError("index must be a positive integer")
            if self.degree % self.index != 0:
                raise ValueError("index must divide the degree")


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    def total(self) -> int:
        return sum(self.parts)

    def square_sum(self) -> int:
        return sum(p * p for p in self.parts)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors in increasing order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    while n > 1:
        p = _least_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return tuple(out)


def vp(p: int, n: int) -> int:
    """p-adic valuation of a positive integer."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("valuation is defined for positive integers")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _descriptor_degree(a: "CSADescriptor | int") -> int:
    deg = a.degree if isinstance(a, CSADescriptor) else int(a)
    if deg < 1:
        raise ValueError("degree must be a positive integer")
    return deg


def severi_brauer_dim(a: "CSADescriptor | int", r: Fraction) -> int:
    """Dimension r*deg*(deg - r*deg) of the variety of rank-r*deg left ideals
    of a central simple algebra of the given degree.

    Requires 0 < r < 1 and r*deg integral; a non-integral r*deg means no such
    ideal exists and raises RankNotRealizableError.
    """
    deg = _descriptor_degree(a)
    r = rat(r)
    if not (0 < r < 1):
        raise ValueError("rank must be strictly between 0 and 1")
    k = r * deg
    if k.denominator != 1:
        raise RankNotRealizableError(f"r*deg = {k} is not an integer")
    k = k.numerator
    return k * (deg - k)


def bound_csa(a: "CSADescriptor | int", r: Fraction) -> EdBoundReport:
    """Upper bound r*(1-r)*deg^2 for rank-r modules over a central simple
    algebra of the given degree; minus_infinity when r*deg is not an
    integer."""
    deg = _descriptor_degree(a)
    r = rat(r)
    if not (0 < r < 1):
        raise ValueError("rank must be strictly between 0 and 1")
    if (r * deg).denominator != 1:
        return EdBoundReport(
            value=None,
            kind="minus_infinity",
            formula="ideal-variety-dimension",
            assumptions=(f"rank {rat_to_str(r)} times degree {deg} is not an integer",),
        )
    return EdBoundReport(
        value=r * (1 - r) * deg * deg,
        kind="upper",
        formula="ideal-variety-dimension",
    )


def bound_matrix_over_simple(n: int, dim_b: int, r: Fraction) -> EdBoundReport:
    """Strict upper bound n*r*dim_b for rank-r modules over n x n matrices
    with simple coefficient algebra of rational dimension dim_b."""
    r = rat(r)
    if n < 1 or dim_b < 1:
        raise ValueError("matrix size and coefficient dimension must be positive")
    if r <= 0:
        raise ValueError("rank must be positive")
    return EdBoundReport(
        value=Fraction(n) * r * dim_b,
        kind="strict_upper",
        formula="free-module-rank-bound",
    )


def _division_sum(deg: int, d: int, primes: Sequence[int]) -> int:
    """sum over the primes p | deg of p^(2*vp(deg/d)) * (p^vp(d) - 1), for
    d | deg. The primes are given, so karpenko_value need not factor p^n."""
    return sum(p ** (2 * vp(p, deg // d)) * (p ** vp(p, d) - 1) for p in primes)


def bound_division(deg_d: int, d: int) -> EdBoundReport:
    """Upper bound for rank-1/d modules over a division algebra of degree
    deg_d: sum over primes p | deg_d of p^(2*vp(deg_d/d)) * (p^vp(d) - 1)."""
    if deg_d < 1:
        raise ValueError("division algebra degree must be positive")
    if d < 1:
        raise ValueError("denominator must be positive")
    if deg_d % d != 0:
        raise NotDivisorError(f"{d} does not divide the degree {deg_d}")
    return EdBoundReport(
        value=Fraction(_division_sum(deg_d, d, prime_factors(deg_d))),
        kind="upper",
        formula="division-padic-sum",
    )


def karpenko_value(p: int, n: int, m: int) -> EdBoundReport:
    """Exact value p^(2(n-m)) * (p^m - 1) for rank-p^-m modules over a
    division algebra of prime power degree p^n."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree exponent must be at least 1")
    if m < 1 or m > n:
        raise ValueError("denominator exponent must satisfy 1 <= m <= n")
    return EdBoundReport(
        value=Fraction(_division_sum(p**n, p**m, (p,))),
        kind="exact",
        formula="karpenko-prime-power-value",
        assumptions=(
            "formula evaluation only; existence of a division algebra of"
            " this degree over the base field is not checked",
        ),
    )


def ckm_value(deg_d: int) -> EdBoundReport:
    """Conjecturally exact value sum over p | deg_d of (p^vp(deg_d) - 1) for
    rank-1/deg_d modules over a division algebra of degree deg_d."""
    if deg_d < 1:
        raise ValueError("division algebra degree must be positive")
    return EdBoundReport(
        value=Fraction(_division_sum(deg_d, deg_d, prime_factors(deg_d))),
        kind="conjectural_exact",
        formula="ckm-prime-decomposition-value",
        assumptions=(
            "formula evaluation only; existence of a division algebra of"
            " this degree over the base field is not checked",
        ),
    )


def bound_from_wedderburn(
    w: WedderburnReport,
    d: int,
    asserted_indices: Sequence[int | None] | None = None,
    r: Fraction | None = None,
) -> EdBoundReport:
    """Upper bound for rank-r modules (default r = 1/d) over an algebra with
    the given Wedderburn report, summing per-factor division-algebra bounds
    weighted by center degrees.

    For each simple factor Mat_n(D): the module restricts to a module of rank
    n*r over D, only its denominator d' matters, and the contribution is
    center_dim * bound_division(degree/n, d'). Factors where n*r is already
    integral contribute 0 without needing the matrix size. When a needed
    matrix size is uncertified, an asserted index (degree/n) may be supplied
    per factor; UnknownIndexError is raised otherwise.
    """
    if d < 1:
        raise ValueError("denominator must be a positive integer")
    explicit_rank = r is not None
    if r is None:
        r = Fraction(1, d)
    else:
        r = rat(r)
    if r <= 0:
        raise ValueError("rank must be positive")
    if asserted_indices is not None and len(asserted_indices) != len(w.factors):
        raise ValueError("asserted index list length must match the factor count")

    assumptions: list[str] = [f"module rank {rat_to_str(r)} on every factor"]
    if explicit_rank:
        assumptions.append(
            "general rank argument supplied; extrapolation beyond the"
            " rank-1/d pipeline"
        )
    total = Fraction(0)
    for i, factor in enumerate(w.factors):
        asserted = asserted_indices[i] if asserted_indices is not None else None
        degree = factor.degree_over_center
        if asserted is not None:
            if asserted < 1 or degree % asserted != 0:
                raise ValueError(
                    f"factor {i}: asserted index {asserted} does not divide degree {degree}"
                )
            n_asserted = degree // asserted
            if factor.matrix_size is not None and factor.matrix_size != n_asserted:
                raise ValueError(
                    f"factor {i}: asserted index {asserted} conflicts with the"
                    f" certified matrix size {factor.matrix_size}"
                )
        if r.denominator == 1:
            continue
        if asserted is not None:
            n = degree // asserted
            assumptions.append(f"factor {i}: asserted index {asserted}")
        elif factor.matrix_size is not None:
            n = factor.matrix_size
        else:
            raise UnknownIndexError(
                f"factor {i} has an uncertified matrix size and no asserted index"
            )
        d_prime = (n * r).denominator
        deg_div = degree // n
        if deg_div % d_prime != 0:
            return EdBoundReport(
                value=None,
                kind="minus_infinity",
                formula="wedderburn-division-pipeline",
                assumptions=tuple(
                    assumptions
                    + [
                        f"factor {i}: rank denominator {d_prime} does not divide"
                        f" the division degree {deg_div}; no such module exists"
                    ]
                ),
            )
        part = bound_division(deg_div, d_prime)
        total += factor.center_dim * part.value
    return EdBoundReport(
        value=total,
        kind="upper",
        formula="wedderburn-division-pipeline",
        assumptions=tuple(assumptions),
    )


def vb_field_of_moduli_defect_bound(r: int) -> EdBoundReport:
    """Upper bound r - 1 for the essential dimension of a rank-r bundle over
    its field of moduli."""
    if r < 1:
        raise ValueError("rank must be a positive integer")
    return EdBoundReport(
        value=Fraction(r - 1),
        kind="upper",
        formula="moduli-defect-rank-bound",
    )


def nil_stack_dim(g: int, partition: Partition) -> int:
    """Dimension (g-1) * sum of squared parts of the stratum of nilpotent
    extensions with the given graded ranks, on a genus-g curve."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return (g - 1) * partition.square_sum()


def trdeg_bound_indecomposable(g: int, partition: Partition) -> EdBoundReport:
    """Upper bound 1 + (g-1) * sum of squared parts for the transcendence
    degree of the field of moduli of an indecomposable iterated extension."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return EdBoundReport(
        value=Fraction(1 + (g - 1) * partition.square_sum()),
        kind="upper",
        formula="moduli-trdeg-indecomposable",
    )


def trdeg_bound_nonsimple(g: int, r: int) -> EdBoundReport:
    """Upper bound (g-1)(r^2 - r) + 2 over all proper decompositions of
    rank r into at least two parts."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    if r < 2:
        raise ValueError("rank must be at least 2")
    return EdBoundReport(
        value=Fraction((g - 1) * (r * r - r) + 2),
        kind="upper",
        formula="moduli-trdeg-nonsimple",
    )


def enumerate_partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(largest, n)
    for first in range(top, 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


@dataclass(frozen=True)
class PartitionCheck:
    rank: int
    max_square_sum: int
    predicted: int
    witness: Partition
    attained: bool


def partition_square_sum_check(r: int) -> PartitionCheck:
    """Maximize the sum of squared parts over partitions of r with at least
    two parts; the maximum is r^2 - 2r + 2, attained at (r-1, 1)."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    best = None
    witness = None
    # >= keeps the last maximizer, which in descending lexicographic
    # enumeration is the lexicographically least one.
    for parts in enumerate_partitions(r):
        if len(parts) < 2:
            continue
        value = sum(p * p for p in parts)
        if best is None or value >= best:
            best = value
            witness = parts
    predicted = r * r - 2 * r + 2
    if best is None or witness is None or best > predicted:
        raise InternalError("partition square sum exceeded the predicted bound")
    return PartitionCheck(
        rank=r,
        max_square_sum=best,
        predicted=predicted,
        witness=Partition(witness),
        attained=(best == predicted),
    )


def bundle_moduli_ed(g: int, r: int, d: int, assume_ckm: bool = False) -> EdBoundReport:
    """Essential dimension of the moduli problem of rank-r degree-d bundles
    on a genus-g curve.

    Genus 0 gives 0 and genus 1 gives r, both exact. For genus >= 2 the value
    is (g-1)r^2 + 1 + sum over p | h of (p^vp(h) - 1) with h = gcd(r, |d|)
    (gcd(r, 0) = r); that is an upper bound unconditionally and exact under
    the conjectural prime-decomposition value, recorded as an assumption.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if g == 0:
        return EdBoundReport(
            value=Fraction(0), kind="exact", formula="bundle-moduli-genus-0"
        )
    if g == 1:
        return EdBoundReport(
            value=Fraction(r), kind="exact", formula="bundle-moduli-genus-1"
        )
    h = r if d == 0 else gcd(r, abs(d))
    total = (g - 1) * r * r + 1 + ckm_value(h).value
    if assume_ckm:
        return EdBoundReport(
            value=total,
            kind="exact",
            formula="bundle-moduli-genus-formula",
            assumptions=("assumes the conjectural prime-decomposition value for division algebras",),
        )
    return EdBoundReport(
        value=total,
        kind="upper",
        formula="bundle-moduli-genus-formula",
    )
