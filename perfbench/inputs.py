"""Seeded benchmark inputs and the answers known for them by construction.

Every algebra here is built from the qalg constructors (or the multiquadratic
constructor below) in its standard basis. `twist` rewrites it in a seeded
unimodular basis, so the structure constants change while every invariant the
benchmark checks stays what the construction says it is.

Truth comes from `qalg.corpus.GoldenSummary` where a fixture exists and is
derived by hand otherwise. Matrix sizes are the mathematical sizes, not what
the search is expected to find: quaternions(-1, -1) is a division algebra
(size 1) and quaternions(17, 17) is split (size 2, since 17 = 4^2 + 1^2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from qalg.algebra import (
    FDAlgebra,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    matrix_over,
    quaternions,
    upper_triangular,
)
from qalg.corpus import cyclic_table, fixture_by_name, product_table, symmetric3_table

ZERO, ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Truth:
    """Invariants of an algebra. `factors` is the sorted tuple of
    (factor_dim, center_dim, degree, true matrix size); `ed2` is the
    `bound_from_wedderburn(d=2)` value the true sizes give ("-infinity" for
    a minus-infinity report)."""

    radical_dim: int
    nilpotency_index: int
    factors: tuple[tuple[int, int, int, int], ...]
    ed2: str


def _golden(fixture: str, ed2: str, division_size: int = 1) -> Truth:
    """Truth from a corpus fixture; a factor the fixture expects the search
    to leave unknown gets `division_size`."""
    g = fixture_by_name(fixture).expected
    shapes = tuple(
        sorted((f, c, d, division_size if s is None else s) for f, c, d, s in g.factor_shapes)
    )
    return Truth(g.radical_dim, g.nilpotency_index, shapes, ed2)


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _matrix_truth(n: int) -> Truth:
    # M_n(Q) has one split factor; rank 1/2 needs n even.
    return Truth(0, 1, ((n * n, 1, n, n),), "0" if n % 2 == 0 else "-infinity")


def _ut_truth(n: int) -> Truth:
    # Strictly upper matrices: dim n(n-1)/2, N^n = 0 and N^(n-1) != 0.
    return Truth(n * (n - 1) // 2, n, ((1, 1, 1, 1),) * n, "-infinity")


def _cyclic_truth(n: int) -> Truth:
    # Q[C_n] = product over d | n of Q(zeta_d); the factor Q makes d = 2 impossible.
    factors = tuple(sorted((totient(d), totient(d), 1, 1) for d in range(1, n + 1) if n % d == 0))
    return Truth(0, 1, factors, "-infinity")


def multiquadratic(primes: tuple[int, ...]) -> FDAlgebra:
    """Q(sqrt p_1, ..., sqrt p_k) on the basis of products of square roots,
    indexed by bitmask: e_S * e_T = (prod of p_i over S & T) * e_(S ^ T)."""
    dim = 1 << len(primes)
    structure = []
    for s in range(dim):
        row = []
        for t in range(dim):
            coeff = 1
            for i, p in enumerate(primes):
                if (s & t) >> i & 1:
                    coeff *= p
            vec = [ZERO] * dim
            vec[s ^ t] = Fraction(coeff)
            row.append(tuple(vec))
        structure.append(row)
    return FDAlgebra(structure, [ONE] + [ZERO] * (dim - 1))


@dataclass(frozen=True)
class Spec:
    name: str
    build: Callable[[], FDAlgebra]
    truth: Truth


def _s3xc2() -> FDAlgebra:
    return group_algebra(product_table(symmetric3_table(), cyclic_table(2)))


SPECS = {
    s.name: s
    for s in (
        Spec("M2", lambda: matrix_algebra(2), _golden("matrix-2", "0")),
        Spec("M3", lambda: matrix_algebra(3), _golden("matrix-3", "-infinity")),
        Spec("M4", lambda: matrix_algebra(4), _matrix_truth(4)),
        Spec("M5", lambda: matrix_algebra(5), _matrix_truth(5)),
        Spec("UT3", lambda: upper_triangular(3), _golden("upper-triangular-3", "-infinity")),
        Spec("UT4", lambda: upper_triangular(4), _golden("upper-triangular-4", "-infinity")),
        Spec("UT5", lambda: upper_triangular(5), _ut_truth(5)),
        Spec("UT6", lambda: upper_triangular(6), _ut_truth(6)),
        Spec("QC4", lambda: group_algebra(cyclic_table(4)), _golden("group-c4", "-infinity")),
        Spec("QC6", lambda: group_algebra(cyclic_table(6)), _cyclic_truth(6)),
        Spec("QC8", lambda: group_algebra(cyclic_table(8)), _cyclic_truth(8)),
        Spec("QC12", lambda: group_algebra(cyclic_table(12)), _cyclic_truth(12)),
        Spec("QS3", lambda: group_algebra(symmetric3_table()), _golden("group-s3", "-infinity")),
        # Q[S3 x C2] = Q[S3] x Q[S3].
        Spec("QS3xC2", _s3xc2, Truth(0, 1, ((1, 1, 1, 1),) * 4 + ((4, 1, 2, 2),) * 2, "-infinity")),
        # (-1,-1) is a division algebra: bound_division(2, 2) = 1.
        Spec("H-1-1", lambda: quaternions(-1, -1), _golden("quaternions", "1")),
        Spec("H17_17", lambda: quaternions(17, 17), Truth(0, 1, ((4, 1, 2, 2),), "0")),
        Spec("M2dual", lambda: matrix_over(dual_numbers(), 2), _golden("matrix-2-dual", "0")),
        # M_3(Q[t]/t^2): radical M_3(tQ) squares to zero.
        Spec("M3dual", lambda: matrix_over(dual_numbers(), 3), Truth(9, 2, ((9, 1, 3, 3),), "-infinity")),
        # M_2(UT_2): radical M_2(J(UT_2)), quotient M_2(Q) x M_2(Q).
        Spec("M2UT2", lambda: matrix_over(upper_triangular(2), 2), Truth(4, 2, ((4, 1, 2, 2),) * 2, "0")),
        Spec("Qsqrt2sqrt3", lambda: multiquadratic((2, 3)), Truth(0, 1, ((4, 4, 1, 1),), "-infinity")),
    )
}

CLI_STANDARD = (
    "M2", "M3", "M4", "M5", "UT3", "UT4", "UT5", "UT6", "QC6", "QC8", "QC12",
    "QS3", "QS3xC2", "H-1-1", "M2dual", "M3dual", "M2UT2", "Qsqrt2sqrt3",
)
LIBRARY_TWISTED = (
    "M2", "M3", "UT3", "UT4", "QC4", "QC6", "QC8", "QS3", "H-1-1", "H17_17",
    "M2dual", "Qsqrt2sqrt3",
)


# ---------------------------------------------------------------------------
# Seeded changes of basis


def _unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """P = L * U with unit diagonals and off-diagonal entries in [-2, 2],
    together with P^-1 = U^-1 * L^-1, all in integers."""
    low = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    p = _int_matmul(low, up)
    p_inv = _int_matmul(_unit_triangular_inverse(up, upper=True), _unit_triangular_inverse(low, upper=False))
    return p, p_inv


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unit_triangular_inverse(t: list[list[int]], upper: bool) -> list[list[int]]:
    """Inverse of a unit triangular integer matrix by substitution."""
    n = len(t)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for j in range(n):
        for i in order:
            others = range(i + 1, n) if upper else range(i)
            inv[i][j] = (1 if i == j else 0) - sum(t[i][k] * inv[k][j] for k in others)
    return inv


def twist(a: FDAlgebra, p: list[list[int]], p_inv: list[list[int]]) -> FDAlgebra:
    """The algebra a on the basis f_i = sum_k p[k][i] e_k."""
    n = a.dim
    nonzero = [
        (i, j, k, c)
        for i, row in enumerate(a.structure)
        for j, vec in enumerate(row)
        for k, c in enumerate(vec)
        if c != 0
    ]
    old = [[[ZERO] * n for _ in range(n)] for _ in range(n)]  # f_i f_j in e-coordinates
    for i in range(n):
        for j in range(n):
            acc = old[i][j]
            for x, y, k, c in nonzero:
                w = p[x][i] * p[y][j]
                if w:
                    acc[k] += w * c
    structure = [[tuple(_apply(p_inv, old[i][j])) for j in range(n)] for i in range(n)]
    return FDAlgebra(structure, _apply(p_inv, a.unit))


def untwist_vector(p_inv: list[list[int]], v) -> list[Fraction]:
    """Coordinates in the twisted basis of an element given in the standard one."""
    return _apply(p_inv, v)


def _apply(m: list[list[int]], v) -> list[Fraction]:
    return [sum((c * x for c, x in zip(row, v) if c and x), ZERO) for row in m]


class Twister:
    """Seeded twists that never hand out the same structure constants twice."""

    def __init__(self, seed: int):
        self.seed = seed
        self.seen: set[FDAlgebra] = set()

    def draw(self, name: str, label: str) -> tuple[FDAlgebra, list[list[int]], list[list[int]]]:
        base = SPECS[name].build()
        rng = random.Random(f"{self.seed}/{name}/{label}")
        while True:
            p, p_inv = _unimodular(rng, base.dim)
            out = twist(base, p, p_inv)
            if out not in self.seen:
                self.seen.add(out)
                return out, p, p_inv
