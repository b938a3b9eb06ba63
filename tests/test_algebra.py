"""Tests for the finite-dimensional algebra type: construction, validation,
multiplication, centers, quotients, and the JSON wire format."""

import ast
import inspect
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import qalg.algebra
import qalg.corpus
from qalg.algebra import (
    FDAlgebra,
    QuotientPresentation,
    Subspace,
    direct_product,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    matrix_over,
    quaternions,
    quotient_by_ideal,
    subalgebra_on,
    tensor_product,
    upper_triangular,
)
from qalg.corpus import cyclic_table, fixtures, product_table, symmetric3_table
from qalg.errors import (
    AlgebraMismatchError,
    MalformedTableError,
    NotAnIdealError,
    ValidationError,
)
from qalg.linalg import Mat, kernel_basis

from oracles import reference_regular_matrix

# Latin square with two-sided identity 0 that is not associative
# ((1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4): a loop, not a group.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def rationals():
    return FDAlgebra([[[1]]], [1])


def random_element(rng, a, span=3):
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(a.dim))


# Basis scalings f_i = q_i e_i, cycled over the basis, that give the
# rescaled copies of the fixtures mixed denominators.
SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5))


def rescaled(s, unit):
    """Dense constants and unit of an algebra on the basis f_i = q_i e_i, q_i
    from SCALES: f_i f_j = sum_k (q_i q_j / q_k) c_ijk f_k, and the unit
    sum_k u_k e_k is sum_k (u_k / q_k) f_k."""
    n = len(s)
    q = [SCALES[i % len(SCALES)] for i in range(n)]
    return (
        [[[q[i] * q[j] * s[i][j][k] / q[k] for k in range(n)] for j in range(n)] for i in range(n)],
        [unit[k] / q[k] for k in range(n)],
    )


def dense_tables():
    """(name, structure, unit) as dense lists of Fractions: every fixture,
    and its rescaled copy."""
    for spec in fixtures():
        a = spec.build()
        s = [[list(v) for v in row] for row in a.structure]
        unit = list(a.unit)
        yield spec.name, s, unit
        yield spec.name + "/rescaled", *rescaled(s, unit)


def reference_multiply(s, x, y):
    """Dense product over every structure constant of the lists s, zeros
    included: an oracle for the integer table that FDAlgebra.multiply reads."""
    n = len(s)
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k in range(n):
                out[k] += Fraction(xi) * Fraction(yj) * s[i][j][k]
    return tuple(out)


def regular(a, x, side="left"):
    """reference_regular_matrix of x from the algebra's dense constants, as a Mat."""
    return Mat(reference_regular_matrix(a.structure, x, side))


def reference_validate(s, unit):
    """Dense associativity check over all basis triples of the lists s,
    scanning every coefficient, then the unit laws through reference_multiply."""
    n = len(s)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [Fraction(0)] * n
                for m, c in enumerate(s[i][j]):
                    if c != 0:
                        for t, d in enumerate(s[m][k]):
                            if d != 0:
                                left[t] += c * d
                right = [Fraction(0)] * n
                for m, c in enumerate(s[j][k]):
                    if c != 0:
                        for t, d in enumerate(s[i][m]):
                            if d != 0:
                                right[t] += c * d
                if left != right:
                    raise ValidationError(
                        f"associativity fails on basis triple ({i}, {j}, {k})",
                        triple=(i, j, k),
                    )
    for i in range(n):
        e = tuple(Fraction(int(t == i)) for t in range(n))
        if reference_multiply(s, unit, e) != e or reference_multiply(s, e, unit) != e:
            raise ValidationError(f"unit law fails on basis element {i}")


def reference_center(s):
    """Kernel of the stacked dense matrices of z -> z e_j - e_j z."""
    n = len(s)
    rows = [
        [s[i][j][k] - s[j][i][k] for i in range(n)] for j in range(n) for k in range(n)
    ]
    return Subspace(n, kernel_basis(Mat(rows)))


def reference_traces(s):
    """tr(L_{e_i}): the sum over j of the e_j coordinate of e_i e_j."""
    return tuple(sum((s[i][j][j] for j in range(len(s))), Fraction(0)) for i in range(len(s)))


def validation_outcome(check):
    try:
        check()
    except ValidationError as exc:
        return ("fails", exc.triple)
    return ("passes", None)


def perturbed_copies(s, unit, rng, constants=6, units=2):
    """Copies of dense lists with one structure constant, or one unit entry,
    moved by +-1."""
    n = len(s)
    for _ in range(constants):
        i, j, k = (rng.randrange(n) for _ in range(3))
        moved = [[list(v) for v in row] for row in s]
        moved[i][j][k] += rng.choice((-1, 1))
        yield moved, unit
    for _ in range(units):
        moved = list(unit)
        moved[rng.randrange(n)] += rng.choice((-1, 1))
        yield s, moved


# The dense loops the built-in constructors ran before they listed only their
# nonzero products: each fills a dim^3 table of Fractions, zeros included, for
# the public constructor. They are the oracles for the constructors.


def dense_group_algebra(table):
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][j] == j == table[j][e] for j in range(n)))
    zero, one = Fraction(0), Fraction(1)
    structure = [
        [tuple(one if k == table[i][j] else zero for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return FDAlgebra(structure, tuple(one if k == identity else zero for k in range(n)))


def dense_matrix_over(base, n):
    bdim = 1 if base is None else base.dim
    base_structure = None if base is None else base.structure
    dim = n * n * bdim
    zero = Fraction(0)

    def idx(p, q, t):
        return (p * n + q) * bdim + t

    structure = [[None] * dim for _ in range(dim)]
    for p in range(n):
        for q in range(n):
            for t in range(bdim):
                for r in range(n):
                    for s_col in range(n):
                        for u in range(bdim):
                            vec = [zero] * dim
                            if q == r:
                                coeffs = (Fraction(1),) if base is None else base_structure[t][u]
                                for w, c in enumerate(coeffs):
                                    if c != 0:
                                        vec[idx(p, s_col, w)] = c
                            structure[idx(p, q, t)][idx(r, s_col, u)] = tuple(vec)
    unit = [zero] * dim
    for p in range(n):
        for t, c in enumerate((Fraction(1),) if base is None else base.unit):
            unit[idx(p, p, t)] = c
    return FDAlgebra(structure, unit)


def dense_upper_triangular(n):
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: i for i, pq in enumerate(pairs)}
    zero = Fraction(0)
    structure = []
    for (p, q) in pairs:
        row = []
        for (r, s) in pairs:
            vec = [zero] * len(pairs)
            if q == r:
                vec[index[(p, s)]] = Fraction(1)
            row.append(tuple(vec))
        structure.append(row)
    return FDAlgebra(structure, [Fraction(int(p == q)) for (p, q) in pairs])


def dense_dual_numbers():
    zero, one = Fraction(0), Fraction(1)
    return FDAlgebra([[(one, zero), (zero, one)], [(zero, one), (zero, zero)]], (one, zero))


def dense_quaternions(a, b):
    a, b = Fraction(a), Fraction(b)

    def v(c0=0, c1=0, c2=0, c3=0):
        return (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    structure = [
        [v(1), v(0, 1), v(0, 0, 1), v(0, 0, 0, 1)],
        [v(0, 1), v(a), v(0, 0, 0, 1), v(0, 0, a)],
        [v(0, 0, 1), v(0, 0, 0, -1), v(b), v(0, -b)],
        [v(0, 0, 0, 1), v(0, 0, -a), v(0, b), v(-a * b)],
    ]
    return FDAlgebra(structure, v(1))


def dense_direct_product(algebras):
    dim = sum(a.dim for a in algebras)
    zero = Fraction(0)
    structure = [[tuple([zero] * dim) for _ in range(dim)] for _ in range(dim)]
    unit = [zero] * dim
    off = 0
    for a in algebras:
        table = a.structure
        for i in range(a.dim):
            for j in range(a.dim):
                vec = [zero] * dim
                for k, c in enumerate(table[i][j]):
                    vec[off + k] = c
                structure[off + i][off + j] = tuple(vec)
        for k, c in enumerate(a.unit):
            unit[off + k] = c
        off += a.dim
    return FDAlgebra(structure, unit)


def dense_tensor_product(a, b):
    """Outer product of the dense tables: (e_i f_t)(e_j f_u) has coordinate
    x_k * y_w at k * b.dim + w, where x = e_i e_j and y = f_t f_u."""
    sa, sb = a.structure, b.structure
    structure = [
        [tuple(x * y for x in sa[i][j] for y in sb[t][u]) for j in range(a.dim) for u in range(b.dim)]
        for i in range(a.dim)
        for t in range(b.dim)
    ]
    return FDAlgebra(structure, [x * y for x in a.unit for y in b.unit])


DENSE = SimpleNamespace(
    group_algebra=dense_group_algebra,
    matrix_algebra=lambda n: dense_matrix_over(None, n),
    matrix_over=dense_matrix_over,
    upper_triangular=dense_upper_triangular,
    dual_numbers=dense_dual_numbers,
    quaternions=dense_quaternions,
    direct_product=dense_direct_product,
    tensor_product=dense_tensor_product,
)

# Constructor calls beyond the fixtures, each written against a namespace c
# of constructors: qalg.algebra itself or DENSE.
QUATERNION_PARAMS = (Fraction(1, 2), Fraction(-3, 5))
CONSTRUCTOR_CALLS = {
    **{f"M{n}": lambda c, n=n: c.matrix_algebra(n) for n in range(1, 6)},
    **{f"UT{n}": lambda c, n=n: c.upper_triangular(n) for n in range(1, 7)},
    **{f"QC{n}": lambda c, n=n: c.group_algebra(cyclic_table(n)) for n in (6, 8, 12)},
    "QS3xC2": lambda c: c.group_algebra(product_table(symmetric3_table(), cyclic_table(2))),
    "M3(dual)": lambda c: c.matrix_over(c.dual_numbers(), 3),
    "M2(UT2)": lambda c: c.matrix_over(c.upper_triangular(2), 2),
    "M2(H)": lambda c: c.matrix_over(c.quaternions(*QUATERNION_PARAMS), 2),
    "H x H' x dual x M2": lambda c: c.direct_product(
        [c.quaternions(*QUATERNION_PARAMS), c.quaternions(3, Fraction(1, 7)), c.dual_numbers(), c.matrix_algebra(2)]
    ),
    "M2 (x) Q[C3]": lambda c: c.tensor_product(c.matrix_algebra(2), c.group_algebra(cyclic_table(3))),
    "UT2 (x) dual": lambda c: c.tensor_product(c.upper_triangular(2), c.dual_numbers()),
    "dual (x) UT2": lambda c: c.tensor_product(c.dual_numbers(), c.upper_triangular(2)),
    "H (x) H'": lambda c: c.tensor_product(c.quaternions(*QUATERNION_PARAMS), c.quaternions(3, Fraction(1, 7))),
    "(H x dual) (x) Q[C2]": lambda c: c.tensor_product(
        c.direct_product([c.quaternions(*QUATERNION_PARAMS), c.dual_numbers()]), c.group_algebra(cyclic_table(2))
    ),
}


def assert_same_algebra(a, ref, name):
    """a and ref agree byte for byte, and a's table lists no zero or unsorted
    pair: the public constructor, which drops zeros and sorts, rebuilds it."""
    assert a == ref and hash(a) == hash(ref), name
    assert repr((a._den, a._terms, a.unit)) == repr((ref._den, ref._terms, ref.unit)), name
    assert a.to_json_dict() == ref.to_json_dict(), name
    assert FDAlgebra(a.structure, a.unit) == a, name
    a.validate()


class TestSubspace:
    def test_canonical_basis_is_spanning_set_independent(self):
        s1 = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        s2 = Subspace(3, [[1, 1, 1], [2, 2, 1]])
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1.dim == 2

    def test_contains_and_coordinates(self):
        s = Subspace(3, [[1, 0, 1], [0, 1, 0]])
        v = (2, -3, 2)
        assert s.contains(v)
        coords = s.coordinates(v)
        rebuilt = [Fraction(0)] * 3
        for c, b in zip(coords, s.vectors()):
            rebuilt = [r + c * x for r, x in zip(rebuilt, b)]
        assert tuple(rebuilt) == tuple(Fraction(x) for x in v)

    def test_membership_failure(self):
        s = Subspace(2, [[1, 0]])
        assert not s.contains((0, 1))
        with pytest.raises(ValueError):
            s.coordinates((0, 1))

    def test_zero_subspace(self):
        s = Subspace(2, [])
        assert s.dim == 0
        assert s.contains((0, 0))
        assert not s.contains((1, 0))


class TestConstruction:
    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            FDAlgebra([], [])

    def test_ragged_structure_rejected(self):
        with pytest.raises(ValueError):
            FDAlgebra([[[1]], [[1]]], [1, 0])

    def test_rationals_validate(self):
        a = rationals()
        a.validate()
        assert a.dim == 1 and a.is_commutative()

    def test_associativity_violation_reports_triple(self):
        # e1*e1 = e2, e1*e2 = e0, e2*e1 = 0 breaks (e1 e1) e1 = e1 (e1 e1)
        zero = [0, 0, 0]
        structure = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], zero, zero],
        ]
        a = FDAlgebra(structure, [1, 0, 0])
        with pytest.raises(ValidationError) as info:
            a.validate()
        assert info.value.triple == (1, 1, 1)

    def test_unit_law_violation_has_no_triple(self):
        # multiplication identically zero is associative but has no unit
        a = FDAlgebra([[[0]]], [1])
        with pytest.raises(ValidationError) as info:
            a.validate()
        assert info.value.triple is None

    def test_standard_constructors_validate(self):
        for a in [
            rationals(),
            dual_numbers(),
            matrix_algebra(2),
            matrix_algebra(3),
            upper_triangular(4),
            quaternions(-1, -1),
            quaternions(2, 3),
            matrix_over(dual_numbers(), 2),
            direct_product([rationals(), matrix_algebra(2)]),
        ]:
            a.validate()


class TestAgainstDenseReferences:
    """Every fixture and its rescaled copy, against oracles that read only
    the dense lists the algebra was built from."""

    def test_rescaled_copies_have_mixed_denominators(self):
        dens = {name: FDAlgebra(s, unit)._den for name, s, unit in dense_tables()}
        assert all(d == 1 for name, d in dens.items() if not name.endswith("/rescaled"))
        assert sum(d > 1 for d in dens.values()) >= 10

    def test_validate_agrees_on_fixtures_and_perturbed_copies(self):
        rng = random.Random(10)
        outcomes = []
        for name, s0, unit0 in dense_tables():
            for s, unit in [(s0, unit0), *perturbed_copies(s0, unit0, rng)]:
                got = validation_outcome(FDAlgebra(s, unit).validate)
                assert got == validation_outcome(lambda: reference_validate(s, unit)), name
                outcomes.append(got)
        # The perturbations exercise all three outcomes.
        assert any(o == ("passes", None) for o in outcomes)
        assert any(o == ("fails", None) for o in outcomes)
        assert sum(o[1] is not None for o in outcomes) > 100

    def test_products_and_regular_matrices_agree_on_fixtures(self):
        rng = random.Random(11)
        for name, s, unit in dense_tables():
            a = FDAlgebra(s, unit)
            samples = [random_element(rng, a, span=2) for _ in range(4)]
            samples += [a.zero(), a.basis_element(rng.randrange(a.dim))]
            for x in samples:
                y = random_element(rng, a, span=1)
                assert a.multiply(x, y) == reference_multiply(s, x, y), name
                assert Mat(reference_regular_matrix(s, x, "left")).apply(y) == a.multiply(x, y)
                assert Mat(reference_regular_matrix(s, x, "right")).apply(y) == a.multiply(y, x)
            ints = [rng.randint(-2, 2) for _ in range(a.dim)]
            strings = [f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in range(a.dim)]
            assert a.multiply(ints, strings) == reference_multiply(s, ints, strings)
            assert Mat(reference_regular_matrix(s, strings, "left")).apply(ints) == a.multiply(strings, ints)
            assert Mat(reference_regular_matrix(s, ints, "right")).apply(strings) == a.multiply(strings, ints)

    def test_center_and_basis_traces_agree_on_fixtures(self):
        for name, s, unit in dense_tables():
            a = FDAlgebra(s, unit)
            assert a.center() == reference_center(s), name
            assert a._traces() == reference_traces(s), name

    def test_structure_hash_and_json_round_trip(self):
        for name, s, unit in dense_tables():
            a = FDAlgebra(s, unit)
            assert a.structure == tuple(tuple(tuple(v) for v in row) for row in s), name
            assert a.unit == tuple(unit)
            b = FDAlgebra(a.structure, a.unit)
            assert b == a and hash(b) == hash(a), name
            c = FDAlgebra.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
            assert c == a and hash(c) == hash(a), name
            assert c.to_json_dict() == a.to_json_dict()

    def test_floats_still_rejected(self):
        a = matrix_algebra(2)
        x = [0.5, 0, 0, 0]
        for call in (
            lambda: a.multiply(x, a.unit),
            lambda: a.multiply(a.unit, x),
        ):
            with pytest.raises(TypeError):
                call()


class TestConstructorsAgainstDenseLoops:
    """The built-in constructors, which hand over only nonzero products,
    against the dense loops they replaced, on 41 algebras."""

    def test_constructor_calls(self):
        assert len(CONSTRUCTOR_CALLS) + len(fixtures()) == 41
        for name, build in CONSTRUCTOR_CALLS.items():
            assert_same_algebra(build(qalg.algebra), build(DENSE), name)

    def test_fixtures(self, monkeypatch):
        built = [spec.build() for spec in fixtures()]
        for name, ctor in vars(DENSE).items():
            monkeypatch.setattr(qalg.corpus, name, ctor, raising=False)
        for spec, a in zip(fixtures(), built):
            assert_same_algebra(a, spec.build(), spec.name)


class TestMultiplication:
    def test_dual_numbers_nilpotent_generator(self):
        d = dual_numbers()
        eps = d.basis_element(1)
        assert d.multiply(eps, eps) == d.zero()

    def test_matrix_units_compose(self):
        m = matrix_algebra(2)
        e01, e10, e00, e11 = (m.basis_element(i) for i in (1, 2, 0, 3))
        assert m.multiply(e01, e10) == e00
        assert m.multiply(e10, e01) == e11
        assert m.multiply(e01, e01) == m.zero()

    def test_unit_is_neutral_on_random_elements(self):
        rng = random.Random(0)
        for a in [matrix_algebra(2), quaternions(-1, -1), upper_triangular(3)]:
            for _ in range(10):
                x = random_element(rng, a)
                assert a.multiply(a.unit, x) == x
                assert a.multiply(x, a.unit) == x

    def test_quaternion_relations(self):
        h = quaternions(-1, -1)
        one, i, j, k = (h.basis_element(t) for t in range(4))
        assert h.multiply(i, i) == tuple(-c for c in one)
        assert h.multiply(j, j) == tuple(-c for c in one)
        assert h.multiply(i, j) == k
        assert h.multiply(j, i) == tuple(-c for c in k)
        assert h.multiply(k, k) == tuple(-c for c in one)

    def test_split_quaternions_square_to_parameters(self):
        h = quaternions(2, 3)
        one, i, j, k = (h.basis_element(t) for t in range(4))
        assert h.multiply(i, i) == tuple(2 * c for c in one)
        assert h.multiply(j, j) == tuple(3 * c for c in one)
        assert h.multiply(k, k) == tuple(-6 * c for c in one)

    def test_power(self):
        u = upper_triangular(3)
        x = tuple(Fraction(1) for _ in range(u.dim))
        assert u.power(x, 0) == u.unit
        assert u.power(x, 1) == x
        assert u.power(x, 3) == u.multiply(x, u.multiply(x, x))

    def test_is_idempotent(self):
        m = matrix_algebra(2)
        assert m.is_idempotent(m.basis_element(0))
        assert m.is_idempotent(m.unit)
        assert not m.is_idempotent(m.basis_element(1))


def draw_matrix(rng, a, rows, cols, dens=(1, 2)):
    """A rows x cols matrix over a with seeded entries n/d, d from dens."""
    return tuple(
        tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(a.dim))
            for _ in range(cols)
        )
        for _ in range(rows)
    )


class TestMatrixProduct:
    """FDAlgebra._matrix_product, the product of matrices with entries in
    the algebra."""

    @pytest.mark.parametrize(
        "base", [dual_numbers(), upper_triangular(2)], ids=["dual_numbers", "upper_triangular_2"]
    )
    def test_square_product_matches_matrix_over(self, base):
        # matrix_over orders its coordinates like the basis E_pq tensor b_t:
        # by (p, q, t).
        rng = random.Random(11)

        def flat(m):
            return tuple(c for row in m for entry in row for c in entry)

        for size in (1, 2, 3):
            oracle = matrix_over(base, size)
            for _ in range(10):
                x, y = draw_matrix(rng, base, size, size), draw_matrix(rng, base, size, size)
                assert flat(base._matrix_product(x, y)) == oracle.multiply(flat(x), flat(y))

    def test_column_times_row_is_the_pairwise_products(self):
        rng = random.Random(12)
        a = quaternions(Fraction(1, 2), -3)
        for k, m in [(1, 1), (3, 1), (1, 4), (3, 2)]:
            x, y = draw_matrix(rng, a, k, 1), draw_matrix(rng, a, 1, m)
            expected = tuple(tuple(a.multiply(xi, yj) for yj in y[0]) for (xi,) in x)
            assert a._matrix_product(x, y) == expected

    def test_rectangular_product_with_mixed_denominators(self):
        # Entries of each operand have denominators 1, 3, 5 and 7, and the
        # table has denominator 6; the dense reference sums over the inner index.
        rng = random.Random(13)
        a = quaternions(Fraction(1, 2), Fraction(-2, 3))
        s = [[list(v) for v in row] for row in a.structure]
        dens = (1, 3, 5, 7)
        x, y = draw_matrix(rng, a, 2, 3, dens), draw_matrix(rng, a, 3, 4, dens)
        assert len({c.denominator for row in x for v in row for c in v}) > 2
        expected = tuple(
            tuple(
                tuple(map(sum, zip(*(reference_multiply(s, x[p][r], y[r][q]) for r in range(3)))))
                for q in range(4)
            )
            for p in range(2)
        )
        assert a._matrix_product(x, y) == expected

    def test_zero_matrices_and_zero_entries(self):
        rng = random.Random(14)
        a = quaternions(-1, -1)
        x = draw_matrix(rng, a, 2, 3)
        zero = a.zero()
        assert a._matrix_product(x, ((zero,) * 2,) * 3) == ((zero,) * 2,) * 2
        assert a._matrix_product(((zero,) * 2,) * 3, x) == ((zero,) * 3,) * 3
        # diag(u, 0, v) * y scales the first row by u and the last by v
        u, v = a.basis_element(1), a.basis_element(3)
        y = draw_matrix(rng, a, 3, 2)
        diagonal = ((u, zero, zero), (zero, zero, zero), (zero, zero, v))
        expected = (
            tuple(a.multiply(u, e) for e in y[0]),
            (zero, zero),
            tuple(a.multiply(v, e) for e in y[2]),
        )
        assert a._matrix_product(diagonal, y) == expected

    def test_empty_shapes(self):
        # The column count is read from y's first row, so a product with an
        # empty inner dimension has no columns.
        a = dual_numbers()
        one = a.unit
        assert a._matrix_product((), ()) == ()
        assert a._matrix_product((), ((one, one),)) == ()
        assert a._matrix_product(((one,),), ((),)) == ((),)
        assert a._matrix_product(((), ()), ()) == ((), ())


class TestRegularRepresentation:
    def test_unit_maps_to_identity(self):
        for a in [dual_numbers(), matrix_algebra(2)]:
            assert regular(a, a.unit) == Mat.identity(a.dim)
            assert regular(a, a.unit, "right") == Mat.identity(a.dim)

    def test_dual_numbers_shift_matrix(self):
        d = dual_numbers()
        eps = d.basis_element(1)
        assert regular(d, eps) == Mat([[0, 0], [1, 0]])

    def test_left_right_consistency_on_random_pairs(self):
        rng = random.Random(1)
        a = matrix_over(dual_numbers(), 2)
        for _ in range(10):
            x, y = random_element(rng, a), random_element(rng, a)
            assert regular(a, x).apply(y) == a.multiply(x, y)
            assert regular(a, x, "right").apply(y) == a.multiply(y, x)

    def test_left_regular_is_homomorphism(self):
        rng = random.Random(2)
        a = quaternions(-1, -1)
        for _ in range(10):
            x, y = random_element(rng, a), random_element(rng, a)
            assert regular(a, x) * regular(a, y) == regular(a, a.multiply(x, y))


class TestCenter:
    def test_commutative_algebra_is_its_own_center(self):
        d = dual_numbers()
        assert d.center().dim == 2

    def test_full_matrix_algebra_has_scalar_center(self):
        c = matrix_algebra(2).center()
        assert c.dim == 1
        assert c.contains(matrix_algebra(2).unit)

    def test_upper_triangular_center_is_scalars(self):
        u = upper_triangular(2)
        assert u.center().dim == 1

    def test_center_is_closed_and_unital(self):
        for a in [matrix_algebra(2), upper_triangular(3), quaternions(-1, -1)]:
            c = a.center()
            assert c.contains(a.unit)
            for u in c.vectors():
                for v in c.vectors():
                    assert c.contains(a.multiply(u, v))


    def test_center_is_kernel_of_regular_commutators(self):
        # z is central iff (L_z - R_z) vanishes on every basis element,
        # i.e. z lies in the kernel of the stacked L_{e_j} - R_{e_j}.
        algebras = [f.build() for f in fixtures()] + [upper_triangular(4), quaternions(2, 3)]
        for a in algebras:
            blocks = []
            for j in range(a.dim):
                ej = a.basis_element(j)
                left, right = regular(a, ej), regular(a, ej, "right")
                blocks.extend([x - y for x, y in zip(r, s)] for r, s in zip(left.data, right.data))
            assert a.center() == Subspace(a.dim, kernel_basis(Mat(blocks)))


class TestGroupAlgebras:
    def test_cyclic_table_layout(self):
        assert cyclic_table(3) == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_group_algebra_multiplies_like_the_group(self):
        a = group_algebra(cyclic_table(4))
        g = a.basis_element(1)
        g2 = a.multiply(g, g)
        assert g2 == a.basis_element(2)
        assert a.multiply(g2, g2) == a.unit

    def test_symmetric_group_table_is_a_group_and_nonabelian(self):
        t = symmetric3_table()
        a = group_algebra(t)  # validates the table
        a.validate()
        assert any(t[i][j] != t[j][i] for i in range(6) for j in range(6))

    def test_product_table_is_direct_product(self):
        t = product_table(cyclic_table(2), cyclic_table(2))
        a = group_algebra(t)
        assert a.dim == 4
        assert a.is_commutative()
        for i in range(4):
            assert t[i][i] == 0  # every element squares to the identity

    def test_ragged_row_rejected(self):
        with pytest.raises(MalformedTableError):
            group_algebra([[0, 1], [1]])

    def test_entries_out_of_range_rejected(self):
        with pytest.raises(MalformedTableError):
            group_algebra([[0, 1], [1, 2]])

    def test_non_latin_row_rejected(self):
        with pytest.raises(MalformedTableError):
            group_algebra([[0, 0], [0, 1]])

    def test_missing_identity_rejected(self):
        # rows are permutations but no element acts as a two-sided identity
        table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        with pytest.raises(MalformedTableError):
            group_algebra(table)

    def test_nonassociative_loop_rejected(self):
        with pytest.raises(MalformedTableError):
            group_algebra(NONASSOC_LOOP)

    def test_empty_table_rejected(self):
        with pytest.raises(MalformedTableError):
            group_algebra([])


class TestDirectProduct:
    def test_dimensions_add_and_unit_concatenates(self):
        p = direct_product([dual_numbers(), matrix_algebra(2)])
        assert p.dim == 6
        assert p.unit == dual_numbers().unit + matrix_algebra(2).unit

    def test_componentwise_multiplication(self):
        p = direct_product([rationals(), rationals()])
        e0, e1 = p.basis_element(0), p.basis_element(1)
        assert p.multiply(e0, e0) == e0
        assert p.multiply(e0, e1) == p.zero()
        assert p.multiply(e1, e1) == e1

    def test_left_regular_matrices_are_block_diagonal(self):
        a, b = dual_numbers(), matrix_algebra(2)
        p = direct_product([a, b])
        rng = random.Random(3)
        xa, xb = random_element(rng, a), random_element(rng, b)
        m = regular(p, xa + xb)
        ma, mb = regular(a, xa), regular(b, xb)
        for i in range(p.dim):
            for j in range(p.dim):
                if i < 2 and j < 2:
                    assert m[i][j] == ma[i][j]
                elif i >= 2 and j >= 2:
                    assert m[i][j] == mb[i - 2][j - 2]
                else:
                    assert m[i][j] == 0

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            direct_product([])


class TestTensorProduct:
    @pytest.mark.parametrize(
        "t1, t2",
        [(cyclic_table(2), cyclic_table(3)), (cyclic_table(3), cyclic_table(4)), (symmetric3_table(), cyclic_table(2))],
        ids=["C2xC3", "C3xC4", "S3xC2"],
    )
    def test_group_algebra_of_a_direct_product_of_groups(self, t1, t2):
        assert tensor_product(group_algebra(t1), group_algebra(t2)) == group_algebra(product_table(t1, t2))

    def test_matrix_over_has_no_product_loop_of_its_own(self):
        # Its products against the dense loop are in CONSTRUCTOR_CALLS.
        for n in range(1, 5):
            assert matrix_over(None, n) == matrix_algebra(n)
        tree = ast.parse(inspect.getsource(matrix_over))
        loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
        assert not any(isinstance(node, loops) for node in ast.walk(tree))

    def test_rationals_are_a_unit_for_it(self):
        a = quaternions(*QUATERNION_PARAMS)
        assert tensor_product(matrix_algebra(1), a) == a == tensor_product(a, matrix_algebra(1))


def table_names(source):
    """Line numbers at which source names the private table _terms or _den:
    as an attribute, a variable, an imported name or a string."""
    names = {"_terms", "_den"}
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.alias) and node.name in names
            or isinstance(node, ast.Constant) and node.value in names
        ):
            hits.append(node.lineno)
    return hits


class TestTableOwner:
    """Only qalg/algebra.py reads the integer table of structure constants."""

    def test_the_check_catches_each_way_of_naming_the_table(self):
        for snippet in ("a._terms", "d = a._den", "getattr(a, '_terms')", "from .algebra import _den"):
            assert table_names(snippet), snippet
        assert not table_names("a.terms + a.den_")

    def test_no_other_module_names_terms_or_den(self):
        package = Path(qalg.algebra.__file__).parent
        found = [
            f"{path.name}:{line}"
            for path in sorted(package.glob("*.py"))
            if path.name != "algebra.py"
            for line in table_names(path.read_text())
        ]
        assert not found
        assert table_names(Path(qalg.algebra.__file__).read_text())


class TestQuotients:
    def test_zero_ideal_gives_isomorphic_copy(self):
        a = matrix_algebra(2)
        qp = quotient_by_ideal(a, Subspace(4, []))
        assert qp.quotient.dim == 4
        assert qp.project(a.unit) == qp.quotient.unit
        assert qp.quotient is a
        assert qp.projection == Mat.identity(4)
        assert qp.section == Mat.identity(4)

    def test_dual_numbers_modulo_nilpotents(self):
        d = dual_numbers()
        qp = quotient_by_ideal(d, Subspace(2, [[0, 1]]))
        assert qp.quotient == rationals()
        assert qp.project((5, 7)) == (Fraction(5),)

    def test_upper_triangular_modulo_strict_part(self):
        u = upper_triangular(2)  # basis E00, E01, E11
        qp = quotient_by_ideal(u, Subspace(3, [[0, 1, 0]]))
        assert qp.quotient == direct_product([rationals(), rationals()])

    def test_projection_is_multiplicative(self):
        u = upper_triangular(3)
        strict = Subspace(6, [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
        qp = quotient_by_ideal(u, strict)
        rng = random.Random(4)
        for _ in range(15):
            x, y = random_element(rng, u), random_element(rng, u)
            assert qp.project(u.multiply(x, y)) == qp.quotient.multiply(
                qp.project(x), qp.project(y)
            )

    def test_section_is_right_inverse(self):
        u = upper_triangular(2)
        qp = quotient_by_ideal(u, Subspace(3, [[0, 1, 0]]))
        rng = random.Random(5)
        for _ in range(10):
            y = random_element(rng, qp.quotient)
            assert qp.project(qp.lift(y)) == y

    def test_non_ideal_rejected(self):
        m = matrix_algebra(2)
        with pytest.raises(NotAnIdealError):
            quotient_by_ideal(m, Subspace(4, [[1, 0, 0, 0]]))

    def test_one_sided_ideals_rejected(self):
        # In M_2(Q), basis E00, E01, E10, E11: the first column is a left
        # ideal only and the first row a right ideal only, so each side of
        # the check is needed to reject one of them.
        m = matrix_algebra(2)
        first_column = Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        first_row = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        for left_only, u in ((True, first_column), (False, first_row)):
            products = [
                (reference_multiply(m.structure, e, x), reference_multiply(m.structure, x, e))
                for e in Mat.identity(4).data
                for x in u.vectors()
            ]
            assert all(u.contains(ex if left_only else xe) for ex, xe in products)
            assert not all(u.contains(xe if left_only else ex) for ex, xe in products)
            with pytest.raises(NotAnIdealError):
                quotient_by_ideal(m, u)

    def test_whole_algebra_rejected(self):
        d = dual_numbers()
        with pytest.raises(ValueError):
            quotient_by_ideal(d, Subspace(2, [[1, 0], [0, 1]]))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(AlgebraMismatchError):
            quotient_by_ideal(dual_numbers(), Subspace(3, []))


class TestSubalgebras:
    def test_corner_of_matrix_algebra(self):
        m = matrix_algebra(2)
        sub = Subspace(4, [[1, 0, 0, 0]])
        a = subalgebra_on(m, sub, (1, 0, 0, 0))
        assert a == rationals()

    def test_diagonal_subalgebra(self):
        m = matrix_algebra(2)
        sub = Subspace(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
        a = subalgebra_on(m, sub, m.unit)
        a.validate()
        assert a.is_commutative() and a.dim == 2

    def test_not_closed_rejected(self):
        m = matrix_algebra(2)
        sub = Subspace(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
        with pytest.raises(ValueError):
            subalgebra_on(m, sub, (1, 0, 0, 0))

    def test_unit_outside_rejected(self):
        m = matrix_algebra(2)
        sub = Subspace(4, [[0, 1, 0, 0]])
        with pytest.raises(ValueError):
            subalgebra_on(m, sub, m.unit)


    def test_rejections_name_their_reason(self):
        m = matrix_algebra(2)
        with pytest.raises(ValueError, match="^subspace is not closed under multiplication$"):
            subalgebra_on(m, Subspace(4, [[1, 0, 0, 0], [0, 1, 1, 0]]), (1, 0, 0, 0))
        with pytest.raises(ValueError, match="^designated unit lies outside the subspace$"):
            subalgebra_on(m, Subspace(4, [[0, 1, 0, 0]]), m.unit)


class TestJson:
    def test_round_trip(self):
        for a in [rationals(), dual_numbers(), matrix_algebra(2), quaternions(-1, -3)]:
            assert FDAlgebra.from_json_dict(a.to_json_dict()) == a

    def test_rationals_serialized_as_strings(self):
        obj = dual_numbers().to_json_dict()
        assert obj["dim"] == 2
        assert obj["unit"] == ["1", "0"]
        assert obj["structure"][1][1] == ["0", "0"]

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            FDAlgebra.from_json_dict({"dim": 1, "unit": ["1"]})

    def test_bad_dim_rejected(self):
        obj = dual_numbers().to_json_dict()
        obj["dim"] = 0
        with pytest.raises(ValueError):
            FDAlgebra.from_json_dict(obj)

    def test_ragged_structure_rejected(self):
        obj = dual_numbers().to_json_dict()
        obj["structure"] = obj["structure"][:1]
        with pytest.raises(ValueError):
            FDAlgebra.from_json_dict(obj)

    def test_non_rational_entry_rejected(self):
        obj = dual_numbers().to_json_dict()
        obj["unit"] = ["1.5", "0"]
        with pytest.raises(ValueError):
            FDAlgebra.from_json_dict(obj)

    def test_not_a_dict_rejected(self):
        with pytest.raises(ValueError):
            FDAlgebra.from_json_dict([1, 2])

    def test_string_unit_rejected(self):
        # "10" has length 2 = dim but is not an array of rationals
        obj = dual_numbers().to_json_dict()
        obj["unit"] = "10"
        with pytest.raises(ValueError, match="unit must be a JSON array"):
            FDAlgebra.from_json_dict(obj)

    def test_string_structure_vector_rejected(self):
        obj = dual_numbers().to_json_dict()
        obj["structure"][0][0] = "10"
        with pytest.raises(ValueError, match="structure vector must be a JSON array"):
            FDAlgebra.from_json_dict(obj)

    def test_string_structure_row_rejected(self):
        obj = rationals().to_json_dict()
        obj["structure"] = ["1"]
        with pytest.raises(ValueError, match="dim x dim array"):
            FDAlgebra.from_json_dict(obj)

    def test_late_malformed_entry_among_repeated_strings_rejected(self):
        # M_3's 729 constants are nearly all "0"; each distinct string is
        # parsed once, and a bad entry near the end is still found.
        for bad, message in [
            ("1/0", "^not a rational: '1/0'$"),
            ("0.0", r"^not a rational: '0\.0'$"),
            (0, "^expected a rational string, got int$"),
            (["0"], "^expected a rational string, got list$"),
            (None, "^expected a rational string, got NoneType$"),
        ]:
            obj = matrix_algebra(3).to_json_dict()
            obj["structure"][8][8][7] = bad
            obj["structure"][8][8][8] = "x"
            with pytest.raises(ValueError, match=message):
                FDAlgebra.from_json_dict(obj)
        obj = matrix_algebra(3).to_json_dict()
        obj["unit"][8] = "1/0"
        with pytest.raises(ValueError, match="^not a rational: '1/0'$"):
            FDAlgebra.from_json_dict(obj)

    def test_bool_dim_rejected(self):
        obj = rationals().to_json_dict()
        obj["dim"] = True
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            FDAlgebra.from_json_dict(obj)


class TestQuotientPresentationShape:
    def test_fields(self):
        d = dual_numbers()
        qp = quotient_by_ideal(d, Subspace(2, [[0, 1]]))
        assert isinstance(qp, QuotientPresentation)
        assert qp.algebra is d
        assert qp.ideal.dim == 1
        assert qp.projection.shape() == (1, 2)
        assert qp.section.shape() == (2, 1)
