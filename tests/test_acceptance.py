"""Acceptance gate: nine behavioral criteria, one printed line each.

Every criterion runs the public API end to end in exact rational arithmetic,
so equality assertions are exact; the only tolerances are the wall-clock
budgets stated inside individual criteria, measured with time.monotonic.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from qalg.algebra import matrix_algebra
from qalg.corpus import fixture_by_name, fixtures
from qalg.edbounds import (
    bound_division,
    bound_from_wedderburn,
    bound_matrix_over_simple,
    bundle_moduli_ed,
    ckm_value,
    karpenko_value,
    partition_square_sum_check,
    trdeg_bound_nonsimple,
    vb_field_of_moduli_defect_bound,
)
from qalg.linalg import Mat, rref
from qalg.modules import (
    IdempotentMatrix,
    lift_idempotent,
    lift_idempotent_with_count,
    modules_isomorphic,
    projective_module,
)
from qalg.poly import Poly
from qalg.polyfactor import factor_rational
from qalg.structure import jacobson_radical, try_matrix_size, wedderburn_decomposition

from oracles import hom_dim_oracle

X = Poly.x()


def criterion(number, label):
    """Emit one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(self):
            try:
                fn(self)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return run

    return wrap


@functools.cache
def built(name):
    return fixture_by_name(name).build()


@functools.cache
def radical_report(name):
    return jacobson_radical(built(name))


@functools.cache
def wedderburn_report(name):
    return wedderburn_decomposition(built(name))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def unit_perturbation_conjugate(a, z, e, index):
    """(1+z) e (1+z)^-1 for z nilpotent of the given index, with the inverse
    computed as the geometric series 1 - z + z^2 - ..."""
    u = tuple(x + y for x, y in zip(a.unit, z))
    inverse = a.unit
    term = a.unit
    for _ in range(1, index):
        term = tuple(-c for c in a.multiply(term, z))
        inverse = tuple(x + y for x, y in zip(inverse, term))
    return a.multiply(a.multiply(u, e), inverse)


def idempotent_pool(a, rad, w):
    """Deterministic ordered pool of idempotent elements: zero, the unit,
    idempotent basis elements, lifted central primitives, complements, and
    radical-perturbed conjugates; capped at six elements."""
    pool = []

    def add(v):
        v = tuple(v)
        assert a.is_idempotent(v)
        if v not in pool:
            pool.append(v)

    add(tuple(Fraction(0) for _ in range(a.dim)))
    add(a.unit)
    for i in range(a.dim):
        b = a.basis_element(i)
        if a.is_idempotent(b):
            add(b)
    for factor in w.factors:
        add(lift_idempotent(factor.central_idempotent, rad.quotient))
    for e in list(pool)[2:]:
        add(vec_sub(a.unit, e))
    for z in list(rad.radical.vectors())[:2]:
        for e in list(pool)[2:6]:
            add(unit_perturbation_conjugate(a, z, e, rad.nilpotency_index))
    return pool[:6]


def element_module_dim(a, e):
    rows = [a.multiply(e, a.basis_element(j)) for j in range(a.dim)]
    _, pivots = rref(Mat(rows))
    return len(pivots)


def build_presentations(a, pool):
    """At least twenty distinct idempotent-matrix presentations, drawn in a
    fixed order from: single elements, diagonal pairs, conjugated pairs
    (each right after its diagonal twin, so neighbours include isomorphic but
    unequal presentations), corner rows isomorphic to the free module, and
    diagonal triples/quadruples when the pool is small.  Presentations whose
    module dimension exceeds five are skipped to keep the direct
    intertwiner-system solves small."""
    zero = tuple(Fraction(0) for _ in range(a.dim))
    dims = {e: element_module_dim(a, e) for e in pool}
    chosen = []
    seen = set()

    def push(entries, total_dim):
        if total_dim > 5 or len(chosen) >= 24:
            return
        candidate = IdempotentMatrix(a, entries)
        if candidate not in seen:
            seen.add(candidate)
            chosen.append(candidate)

    for e in pool:
        push([[e]], dims[e])
    for e in pool:
        for f in pool:
            d = dims[e] + dims[f]
            push([[e, zero], [zero, f]], d)
            # (1 + E01) diag(e, f) (1 - E01), idempotent for any e, f
            push([[e, vec_sub(f, e)], [zero, f]], d)
    for i in range(min(2, a.dim)):
        y = a.basis_element(i)
        push([[a.unit, y], [zero, zero]], a.dim)
        push([[zero, zero], [y, a.unit]], a.dim)
    for width in (3, 4):
        if len(chosen) >= 20:
            break
        for combo in itertools.product(pool, repeat=width):
            entries = [
                [combo[i] if i == j else zero for j in range(width)]
                for i in range(width)
            ]
            push(entries, sum(dims[e] for e in combo))
    return chosen


class TestAcceptance:
    @criterion(1, "idempotent lifting")
    def test_criterion_1_idempotent_lifting(self):
        # Every central primitive idempotent of the semisimple quotient of
        # every fixture with nonzero radical lifts to an exact idempotent
        # projecting back onto it, within ceil(log2(nilpotency index))
        # refinement steps, all inside one second.
        start = time.monotonic()
        names = [f.name for f in fixtures() if f.expected.radical_dim > 0]
        assert len(names) == 7
        for name in names:
            a = built(name)
            rad = radical_report(name)
            budget = (rad.nilpotency_index - 1).bit_length()
            for factor in wedderburn_report(name).factors:
                lifted, count = lift_idempotent_with_count(
                    factor.central_idempotent, rad.quotient
                )
                assert a.multiply(lifted, lifted) == lifted
                assert rad.quotient.project(lifted) == factor.central_idempotent
                assert count <= budget
        assert time.monotonic() - start < 1.0

    @criterion(2, "structure golden suite")
    def test_criterion_2_structure_golden_suite(self):
        start = time.monotonic()
        assert radical_report("dual-numbers").radical.dim == 1
        for n in (2, 3, 4):
            name = f"upper-triangular-{n}"
            rad = radical_report(name)
            assert rad.radical.dim == n * (n - 1) // 2
            assert rad.nilpotency_index == n
            w = wedderburn_report(name)
            assert w.semisimple_quotient.dim == n
            assert w.semisimple_quotient.is_commutative()
            assert [f.factor_dim for f in w.factors] == [1] * n
        s3 = wedderburn_report("group-s3")
        assert sorted(f.factor_dim for f in s3.factors) == [1, 1, 4]
        c4 = wedderburn_report("group-c4")
        assert sorted(f.factor_dim for f in c4.factors) == [1, 1, 2]
        m2 = wedderburn_report("matrix-2")
        assert len(m2.factors) == 1
        assert m2.factors[0].matrix_size == 2
        assert try_matrix_size(matrix_algebra(2)) == 2
        quat = wedderburn_report("quaternions")
        assert len(quat.factors) == 1
        assert quat.factors[0].degree_over_center == 2
        assert quat.factors[0].matrix_size is None
        assert time.monotonic() - start < 5.0

    @criterion(3, "module isomorphism oracle agreement")
    def test_criterion_3_isomorphism_matches_hom_oracle(self):
        # Over every fixture of dimension at most eight, at least twenty
        # deterministic presentations each; the rank-vector isomorphism test
        # must agree with the direct hom-space predicate
        # dim Hom(M,N) == dim Hom(N,M) == dim End(M) == dim End(N)
        # on every probed pair, with both outcomes exercised.
        names = [f.name for f in fixtures() if built(f.name).dim <= 8]
        assert len(names) == 15
        saw_iso_between_distinct = False
        saw_non_iso = False
        for name in names:
            a = built(name)
            pool = idempotent_pool(a, radical_report(name), wedderburn_report(name))
            presentations = build_presentations(a, pool)
            assert len(presentations) >= 20
            descriptors = [projective_module(p) for p in presentations]
            end_dims = [hom_dim_oracle(d, d) for d in descriptors]
            count = len(descriptors)
            for i in range(count):
                for j in sorted({i, (i + 1) % count, 0}):
                    m, n = descriptors[i], descriptors[j]
                    h12 = end_dims[i] if i == j else hom_dim_oracle(m, n)
                    h21 = end_dims[i] if i == j else hom_dim_oracle(n, m)
                    predicted = h12 == h21 == end_dims[i] == end_dims[j]
                    actual = modules_isomorphic(m, n)
                    assert actual == predicted, (name, i, j)
                    if actual and i != j:
                        saw_iso_between_distinct = True
                    if not actual:
                        saw_non_iso = True
        assert saw_iso_between_distinct and saw_non_iso

    @criterion(4, "prime power and divisor formula consistency")
    def test_criterion_4_closed_forms_match_division_bound(self):
        for p in (2, 3, 5):
            for n in range(1, 5):
                for m in range(1, n + 1):
                    karpenko = karpenko_value(p, n, m).value
                    division = bound_division(p**n, p**m).value
                    assert karpenko == division
        for deg in range(1, 61):
            assert ckm_value(deg).value == bound_division(deg, deg).value

    @criterion(5, "bundle moduli values")
    def test_criterion_5_bundle_moduli_values(self):
        assert bundle_moduli_ed(2, 2, 0).value == 6
        assert bundle_moduli_ed(2, 3, 0).value == 12
        assert bundle_moduli_ed(2, 3, 1).value == 10
        for r in range(1, 11):
            for d in (0, 1, 2, 5):
                genus_zero = bundle_moduli_ed(0, r, d)
                assert (genus_zero.value, genus_zero.kind) == (0, "exact")
                genus_one = bundle_moduli_ed(1, r, d)
                assert (genus_one.value, genus_one.kind) == (r, "exact")

    @criterion(6, "partition square sum maximum")
    def test_criterion_6_partition_square_sum_maximum(self):
        start = time.monotonic()
        for r in range(2, 15):
            check = partition_square_sum_check(r)
            predicted = r * r - 2 * r + 2
            assert check.max_square_sum == predicted
            assert check.predicted == predicted
            assert check.witness.parts == (r - 1, 1)
            assert check.attained
        assert time.monotonic() - start < 1.0

    @criterion(7, "moduli transcendence degree chain")
    def test_criterion_7_trdeg_chain_below_genus_formula(self):
        for g in range(2, 13):
            for r in range(2, 13):
                nonsimple = trdeg_bound_nonsimple(g, r).value
                defect = vb_field_of_moduli_defect_bound(r).value
                assert nonsimple + defect == (g - 1) * (r * r - r) + 2 + (r - 1)
                coprime = bundle_moduli_ed(g, r, 1)
                assert coprime.value == (g - 1) * r * r + 1
                assert nonsimple + defect <= coprime.value

    @criterion(8, "polynomial factorization remultiplication")
    def test_criterion_8_factor_remultiply_roundtrip(self):
        # 200 deterministic products of hand-checked irreducibles of degree
        # at most four must factor back to the exact input multiset, and
        # x^n - 1 must split into as many irreducible factors as n has
        # divisors, all inside five seconds.
        start = time.monotonic()
        pool = [
            X,
            X + Poly([1]),
            X - Poly([1]),
            X + Poly([2]),
            Poly([1, 0, 1]),
            Poly([-2, 0, 1]),
            Poly([1, 1, 1]),
            Poly([-2, 0, 0, 1]),
            Poly([1, 1, 0, 1]),
            Poly([1, 0, 0, 0, 1]),
            Poly([1, 1, 0, 0, 1]),
        ]
        rng = random.Random(8)
        for _ in range(200):
            chosen = rng.sample(range(len(pool)), rng.randint(1, 3))
            expected = {}
            product = Poly([Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3]))])
            for idx in chosen:
                mult = rng.randint(1, 2)
                expected[pool[idx].monic()] = mult
                for _ in range(mult):
                    product = product * pool[idx]
            out = factor_rational(product)
            assert out.expand() == product
            assert dict(out.factors) == expected
        for n in range(1, 13):
            out = factor_rational(Poly([-1] + [0] * (n - 1) + [1]))
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(out.factors) == divisors
            assert all(mult == 1 for _, mult in out.factors)
        assert time.monotonic() - start < 5.0

    @criterion(9, "pipeline beats generic matrix proxy")
    def test_criterion_9_structure_aware_bound_beats_proxy(self):
        # For 2x2 matrices over the dual numbers with denominator 2, the
        # structure-aware pipeline sees the split quotient factor and returns
        # 0, strictly below the generic n*r*dim proxy of 1.
        pipeline = bound_from_wedderburn(wedderburn_report("matrix-2-dual"), 2)
        assert pipeline.value == 0
        assert pipeline.kind == "upper"
        proxy = bound_matrix_over_simple(2, 1, Fraction(1, 2))
        assert proxy.value == 1
        assert pipeline.value < proxy.value
