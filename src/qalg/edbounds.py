"""Evaluators for essential-dimension bound formulas.

Each evaluator returns an EdBoundReport tagging its value with a kind:
"exact", "upper" (non-strict), "strict_upper", "conjectural_exact", or
"minus_infinity" for empty moduli problems (the value field is then None).
Values are exact rationals throughout; nothing here is floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from ._record import record
from .errors import InternalError, NotDivisorError, RankNotRealizableError, UnknownIndexError
from .linalg import rat_to_str
from .poly import _integer, rat
from .polyfactor import is_prime, prime_factors, vp
from .structure import WedderburnReport

KINDS = ("exact", "upper", "strict_upper", "conjectural_exact", "minus_infinity")
MAX_PARTITION_RANK = 30

_FORMULA_ONLY = (
    "formula evaluation only; existence of a division algebra of"
    " this degree over the base field is not checked",
)


@record
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


@record
class CSADescriptor:
    """Degree and (optionally) Schur index of a central simple algebra."""

    degree: int
    index: int | None = None

    def __post_init__(self):
        degree = _integer(self.degree, 1, "degree must be a positive integer")
        self._set(degree=degree)
        if self.index is not None:
            index = _integer(self.index, 1, "index must be a positive integer")
            self._set(index=index)
            if degree % index != 0:
                raise ValueError("index must divide the degree")


@record
class Partition:
    """Weakly decreasing positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(_integer(p, 1, "partition parts must be positive") for p in self.parts)
        self._set(parts=parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    def total(self) -> int:
        return sum(self.parts)

    def square_sum(self) -> int:
        return sum(p * p for p in self.parts)


def _descriptor_degree(a: "CSADescriptor | int") -> int:
    return a.degree if isinstance(a, CSADescriptor) else _integer(a, 1, "degree must be a positive integer")


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
    """Upper bound r*(1-r)*deg^2 = severi_brauer_dim(a, r) for rank-r modules
    over a central simple algebra of the given degree; minus_infinity when
    r*deg is not an integer."""
    try:
        value = severi_brauer_dim(a, r)
    except RankNotRealizableError:
        return EdBoundReport(
            value=None,
            kind="minus_infinity",
            formula="ideal-variety-dimension",
            assumptions=(f"rank {rat_to_str(r)} times degree {_descriptor_degree(a)} is not an integer",),
        )
    return EdBoundReport(value=Fraction(value), kind="upper", formula="ideal-variety-dimension")


def bound_matrix_over_simple(n: int, dim_b: int, r: Fraction) -> EdBoundReport:
    """Strict upper bound n*r*dim_b for rank-r modules over n x n matrices
    with simple coefficient algebra of rational dimension dim_b."""
    r = rat(r)
    n, dim_b = (_integer(x, 1, "matrix size and coefficient dimension must be positive") for x in (n, dim_b))
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
    deg_d = _integer(deg_d, 1, "division algebra degree must be positive")
    d = _integer(d, 1, "denominator must be positive")
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
    p = _integer(p, 2, f"{p} is not prime")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = _integer(n, 1, "degree exponent must be at least 1")
    m = _integer(m, 1, "denominator exponent must satisfy 1 <= m <= n")
    if m > n:
        raise ValueError("denominator exponent must satisfy 1 <= m <= n")
    return EdBoundReport(
        value=Fraction(_division_sum(p**n, p**m, (p,))),
        kind="exact",
        formula="karpenko-prime-power-value",
        assumptions=_FORMULA_ONLY,
    )


def ckm_value(deg_d: int) -> EdBoundReport:
    """Conjecturally exact value sum over p | deg_d of (p^vp(deg_d) - 1) for
    rank-1/deg_d modules over a division algebra of degree deg_d."""
    deg_d = _integer(deg_d, 1, "division algebra degree must be positive")
    return EdBoundReport(
        value=Fraction(_division_sum(deg_d, deg_d, prime_factors(deg_d))),
        kind="conjectural_exact",
        formula="ckm-prime-decomposition-value",
        assumptions=_FORMULA_ONLY,
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
    d = _integer(d, 1, "denominator must be a positive integer")
    explicit_rank = r is not None
    r = rat(r) if explicit_rank else Fraction(1, d)
    if r <= 0:
        raise ValueError("rank must be positive")
    if asserted_indices is None:
        asserted_indices = [None] * len(w.factors)
    elif len(asserted_indices) != len(w.factors):
        raise ValueError("asserted index list length must match the factor count")

    assumptions: list[str] = [f"module rank {rat_to_str(r)} on every factor"]
    if explicit_rank:
        assumptions.append(
            "general rank argument supplied; extrapolation beyond the"
            " rank-1/d pipeline"
        )
    total = Fraction(0)
    for i, (factor, asserted) in enumerate(zip(w.factors, asserted_indices)):
        # The factor's matrix size n: degree / index for an asserted index,
        # else the certified size; an integral rank r needs no n.
        degree, n, notes = factor.degree_over_center, factor.matrix_size, []
        if asserted is not None:
            wrong = f"factor {i}: asserted index {asserted} does not divide degree {degree}"
            if degree % _integer(asserted, 1, wrong) != 0:
                raise ValueError(wrong)
            if n is not None and n != degree // asserted:
                raise ValueError(
                    f"factor {i}: asserted index {asserted} conflicts with the"
                    f" certified matrix size {n}"
                )
            n, notes = degree // asserted, [f"factor {i}: asserted index {asserted}"]
        elif n is None and r.denominator != 1:
            raise UnknownIndexError(
                f"factor {i} has an uncertified matrix size and no asserted index"
            )
        if r.denominator == 1:
            continue
        assumptions += notes
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
    r = _integer(r, 1, "rank must be a positive integer")
    return EdBoundReport(
        value=Fraction(r - 1),
        kind="upper",
        formula="moduli-defect-rank-bound",
    )


def nil_stack_dim(g: int, partition: Partition) -> int:
    """Dimension (g-1) * sum of squared parts of the stratum of nilpotent
    extensions with the given graded ranks, on a genus-g curve."""
    return (_integer(g, 0, "genus must be nonnegative") - 1) * partition.square_sum()


def trdeg_bound_indecomposable(g: int, partition: Partition) -> EdBoundReport:
    """Upper bound 1 + (g-1) * sum of squared parts for the transcendence
    degree of the field of moduli of an indecomposable iterated extension:
    one more than nil_stack_dim(g, partition)."""
    return EdBoundReport(
        value=Fraction(1 + nil_stack_dim(g, partition)),
        kind="upper",
        formula="moduli-trdeg-indecomposable",
    )


def trdeg_bound_nonsimple(g: int, r: int) -> EdBoundReport:
    """Upper bound (g-1)(r^2 - r) + 2 over all proper decompositions of
    rank r into at least two parts."""
    g = _integer(g, 2, "genus must be at least 2")
    r = _integer(r, 2, "rank must be at least 2")
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


@record
class PartitionCheck:
    rank: int
    max_square_sum: int
    predicted: int
    witness: Partition
    attained: bool


def partition_square_sum_check(r: int) -> PartitionCheck:
    """Maximize the sum of squared parts over partitions of r with at least
    two parts; the maximum is r^2 - 2r + 2, attained at (r-1, 1). A rank
    above MAX_PARTITION_RANK raises ValueError."""
    r = _integer(r, 2, "rank must be at least 2")
    if r > MAX_PARTITION_RANK:
        raise ValueError(f"rank {r} exceeds the partition enumeration cap {MAX_PARTITION_RANK}")
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
    g = _integer(g, 0, "genus must be nonnegative")
    r = _integer(r, 1, "rank must be a positive integer")
    d = _integer(d)
    if g < 2:
        return EdBoundReport(value=Fraction(g * r), kind="exact", formula=f"bundle-moduli-genus-{g}")
    return EdBoundReport(
        value=(g - 1) * r * r + 1 + ckm_value(gcd(r, d)).value,
        kind="exact" if assume_ckm else "upper",
        formula="bundle-moduli-genus-formula",
        assumptions=("assumes the conjectural prime-decomposition value for division algebras",) if assume_ckm else (),
    )
