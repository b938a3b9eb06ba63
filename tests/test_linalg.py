"""Tests for exact rational linear algebra: rref, kernels, solving, minimal
polynomials. Expected values for the small cases were worked out by hand."""

import random
import re
from fractions import Fraction

import pytest

from qalg.algebra import Subspace, matrix_algebra
from qalg.errors import NoSolutionError
from qalg.linalg import (
    Mat,
    as_vector,
    kernel_basis,
    minimal_polynomial,
    rank,
    rat,
    rat_from_str,
    rat_to_str,
    rref,
    solve_linear,
)
from qalg.poly import Poly

from oracles import reference_matrix_product, reference_poly_at_matrix, reference_rank, reference_rref


def reference_rat_from_str(s):
    """The two-pass parser qalg.linalg.rat_from_str replaced, kept as an
    oracle: a syntax check by regex, then Fraction's own string parser."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", s.strip()):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def random_matrix(rng, rows, cols, span=5):
    return Mat([[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)])


def matrix_minimal_polynomial(m):
    """minimal_polynomial of a square Mat: that of its row-major flattening
    in matrix_algebra(n)."""
    a = matrix_algebra(m.rows)
    return minimal_polynomial([c for r in m.data for c in r], a.multiply, a.unit)


def is_zero_matrix(rows):
    return not any(c for r in rows for c in r)


def random_rational_matrix(rng, rows, cols):
    """Sparse rational entries, then some rows replaced by zero rows or by
    combinations of earlier rows, so that ranks fall short of the shape."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)

    out = []
    for i in range(rows):
        kind = rng.random()
        if kind < 0.15:
            out.append([Fraction(0)] * cols)
        elif kind < 0.4 and out:
            a, b = rng.choice(out), rng.choice(out)
            s, t = entry(), entry()
            out.append([s * x + t * y for x, y in zip(a, b)])
        else:
            out.append([entry() for _ in range(cols)])
    return Mat(out) if out else Mat.zeros(0, cols)


class TestRationals:
    def test_rat_accepts_int_string_fraction(self):
        assert rat(3) == Fraction(3)
        assert rat("2/5") == Fraction(2, 5)
        assert rat(Fraction(-1, 7)) == Fraction(-1, 7)

    def test_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rat_to_str_omits_unit_denominator(self):
        assert rat_to_str(Fraction(4, 2)) == "2"
        assert rat_to_str(Fraction(-3, 6)) == "-1/2"
        assert rat_to_str(Fraction(0)) == "0"

    def test_rat_to_str_rejects_floats(self):
        # 0.1 would render as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="floats are not exact"):
            rat_to_str(0.1)
        assert rat_to_str(3) == "3"

    def test_rat_str_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            assert rat_from_str(rat_to_str(q)) == q

    def test_rat_from_str_rejects_junk(self):
        for bad in ["", "one", "1/0", "2.5", None, 3]:
            with pytest.raises(ValueError):
                rat_from_str(bad)

    def test_rat_from_str_matches_two_pass_parser(self):
        cases = [
            " 3 ", "+0/5", "-7/14", "1/0", "1.5", "1e3", "1_0", "", "/2", "2/",
            "\u0663", "\u0663/\u0664", "\uff17", "\u00b2", "\u00a05\u2003", "0/0",
            "-0", "+", "-", "007/0021", "1/-2", "--1", "1//2", "3 /4", " -3/4\n",
            "12345678901234567890/3", "0x10", "1/2/3", "nan", "inf",
        ]
        for s in cases:
            try:
                expected = reference_rat_from_str(s)
            except ValueError:
                with pytest.raises(ValueError):
                    rat_from_str(s)
            else:
                got = rat_from_str(s)
                assert type(got) is Fraction and got == expected, s

    def test_as_vector_checks_length(self):
        assert as_vector([1, "1/2"], 2) == (Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            as_vector([1, 2, 3], 2)

    def test_fractions_pass_through_and_the_rest_is_coerced(self):
        class Half(Fraction):
            pass

        q = Fraction(3, 4)
        v = as_vector([q, 2, "1/3", Half(1, 2), True])
        assert v[0] is q and Mat([[q]])[0][0] is q
        assert v == (q, Fraction(2), Fraction(1, 3), Fraction(1, 2), Fraction(1))
        assert all(type(x) is Fraction for x in v)
        assert all(type(x) is Fraction for x in Mat([[2, "1/3", Half(1, 2)]])[0])
        with pytest.raises(TypeError):
            as_vector([q, 0.5])
        with pytest.raises(TypeError):
            Mat([[q, 0.5]])


class TestRref:
    def test_identity_is_fixed(self):
        ech, pivots = rref(Mat.identity(2))
        assert ech == Mat.identity(2)
        assert pivots == (0, 1)

    def test_dependent_rows_collapse(self):
        ech, pivots = rref(Mat([[1, 2], [2, 4]]))
        assert ech == Mat([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_swapped_rows_normalize(self):
        ech, pivots = rref(Mat([[0, 1], [1, 0]]))
        assert ech == Mat.identity(2)
        assert pivots == (0, 1)

    def test_pivot_columns_are_unit_vectors(self):
        rng = random.Random(0)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 6))
            ech, pivots = rref(m)
            for r, c in enumerate(pivots):
                col = ech.col(c)
                assert col[r] == 1
                assert all(col[i] == 0 for i in range(ech.rows) if i != r)

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 6))
            ech, pivots = rref(m)
            again, pivots2 = rref(ech)
            assert again == ech
            assert pivots2 == pivots

    def test_row_space_preserved(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5))
            ech, _ = rref(m)
            # every original row solves against the echelon rows and back
            assert rank(Mat(m.data + ech.data)) == rank(m)


class TestRrefAgainstColumnSweep:
    SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (6, 6), (9, 5)]

    def random_matrices(self, seed):
        rng = random.Random(seed)
        for rows, cols in self.SHAPES:
            for _ in range(25):
                yield random_rational_matrix(rng, rows, cols)

    def test_matrix_and_pivots_equal_reference(self):
        for m in self.random_matrices(11):
            ech, pivots = rref(m)
            ref, ref_pivots = reference_rref(m.data, m.cols)
            assert [list(r) for r in ech.data] == ref
            assert pivots == ref_pivots
            assert ech.shape() == m.shape()

    def test_subspace_basis_is_reference_nonzero_rows(self):
        for m in self.random_matrices(12):
            s = Subspace(m.cols, m)
            ref, ref_pivots = reference_rref(m.data, m.cols)
            assert [list(r) for r in s.basis.data] == ref[: len(ref_pivots)]
            assert s.pivots == ref_pivots
            assert s.basis.shape() == (len(ref_pivots), m.cols)


class TestKernel:
    def test_invertible_matrix_has_trivial_kernel(self):
        assert kernel_basis(Mat.identity(3)).rows == 0

    def test_zero_matrix_kernel_is_everything(self):
        assert kernel_basis(Mat.zeros(2, 2)) == Mat.identity(2)

    def test_single_relation(self):
        assert kernel_basis(Mat([[1, 1]])) == Mat([[-1, 1]])

    def test_rank_nullity_and_membership(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            ker = kernel_basis(m)
            assert rank(m) + ker.rows == m.cols
            for i in range(ker.rows):
                assert all(c == 0 for c in m.apply(ker.data[i]))
            if ker.rows:
                assert rank(ker) == ker.rows


class TestSolve:
    def test_identity_system(self):
        b = Mat([[3], [4]])
        assert solve_linear(Mat.identity(2), b) == b

    def test_scalar_division(self):
        assert solve_linear(Mat([[2]]), Mat([[1]])) == Mat([[Fraction(1, 2)]])

    def test_inconsistent_system(self):
        with pytest.raises(NoSolutionError):
            solve_linear(Mat([[1], [1]]), Mat([[1], [2]]))

    def test_random_consistent_systems(self):
        rng = random.Random(4)
        for _ in range(30):
            rows, cols, width = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
            a = random_matrix(rng, rows, cols)
            x0 = random_matrix(rng, cols, width)
            b = a * x0
            x = solve_linear(a, b)
            assert a * x == b

    def test_underdetermined_free_variables_are_zero(self):
        # x + y = 1 with y free: the returned solution sets y = 0
        assert solve_linear(Mat([[1, 1]]), Mat([[1]])) == Mat([[1], [0]])


class TestMinimalPolynomial:
    """Minimal polynomials of square matrices, as elements of matrix_algebra(n),
    checked with the list-based oracles."""

    def test_zero_matrix(self):
        assert matrix_minimal_polynomial(Mat.zeros(2, 2)) == Poly.x()

    def test_identity(self):
        assert matrix_minimal_polynomial(Mat.identity(3)) == Poly([-1, 1])

    def test_nilpotent_jordan_block(self):
        assert matrix_minimal_polynomial(Mat([[0, 1], [0, 0]])) == Poly([0, 0, 1])

    def test_companion_matrix_recovers_polynomial(self):
        # multiplication-by-t on Q[t]/(t^3 - 2) in the power basis
        m = Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
        assert matrix_minimal_polynomial(m) == Poly([-2, 0, 0, 1])

    def test_annihilates_and_is_monic(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, span=3)
            p = matrix_minimal_polynomial(m)
            assert p.leading_coefficient() == 1
            assert p.degree() <= n
            assert is_zero_matrix(reference_poly_at_matrix(p, m.data))

    def test_minimality_against_lower_degree(self):
        # no monic polynomial of strictly smaller degree annihilates the matrix
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n, n, span=2)
            p = matrix_minimal_polynomial(m)
            if p.degree() < 2:
                continue
            truncated = p // Poly([0, 1])
            assert not is_zero_matrix(reference_poly_at_matrix(truncated, m.data))

    def test_lower_powers_are_independent(self):
        # degree d is minimal exactly when I, m, ..., m^(d-1) are independent
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, span=2)
            d = matrix_minimal_polynomial(m).degree()
            powers = [Mat.identity(n).data]
            for _ in range(d - 1):
                powers.append(reference_matrix_product(powers[-1], m.data))
            assert reference_rank([[c for row in q for c in row] for q in powers], n * n) == d

    def test_derogatory_matrix_needs_more_than_one_start_vector(self):
        # x - 1 kills the first basis vector but is a proper divisor of the
        # minimal polynomial (x - 1)(x - 2).
        m = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        first_annihilator = Poly([-1, 1])
        assert [r[0] for r in reference_poly_at_matrix(first_annihilator, m.data)] == [0, 0, 0]
        p = matrix_minimal_polynomial(m)
        assert p == Poly([2, -3, 1])
        assert (p % first_annihilator).is_zero() and p != first_annihilator

    def test_empty_matrix_and_shape_check(self):
        # The 0x0 matrix flattens to the empty element, whose first power is
        # already dependent; a 1x2 matrix does not flatten into matrix_algebra(1).
        assert minimal_polynomial((), lambda x, y: (), ()) == Poly([1])
        with pytest.raises(ValueError):
            matrix_minimal_polynomial(Mat([[1, 2]]))


class TestMatBasics:
    def test_matmul_shapes_and_values(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert a * b == Mat([[2, 1], [4, 3]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Mat([[1, 2]]) * Mat([[1, 2]])
        with pytest.raises(ValueError):
            Mat([[1]]).hstack(Mat([[1], [2]]))

    def test_transpose(self):
        a = Mat([[1, 2], [3, 4]])
        assert a.transpose() == Mat([[1, 3], [2, 4]])
        assert Mat.zeros(0, 2).transpose().shape() == (2, 0)

    def test_stacking(self):
        a = Mat([[1, 2]])
        assert a.hstack(Mat([[9]])) == Mat([[1, 2, 9]])

    def test_apply_is_matrix_vector_product(self):
        a = Mat([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (Fraction(3), Fraction(7))

    def test_apply_matches_reference_product(self):
        # Mixed denominators in the matrix and the vector, zero rows, zero
        # vectors and empty shapes; each matrix is applied to several vectors,
        # so later calls read the integer rows cached by the first.
        rng = random.Random(13)
        for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 6), (6, 4), (5, 5)]:
            for _ in range(3):
                m = random_rational_matrix(rng, rows, cols)
                vectors = [
                    [Fraction(0)] * cols,
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 12)) for _ in range(cols)],
                    [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)],
                ]
                for v in vectors + vectors:
                    product = reference_matrix_product(m.data, [[c] for c in v])
                    expected = tuple(row[0] for row in product) if cols else (Fraction(0),) * rows
                    got = m.apply(v)
                    assert got == expected
                    assert all(type(c) is Fraction for c in got)
                with pytest.raises(ValueError):
                    m.apply([0] * (cols + 1))

    def test_product_matches_reference_product(self):
        # Mixed denominators and zero rows; the empty shapes 0 x k * k x m,
        # k x 0 * 0 x m and k x m * m x 0 keep the outer sizes.
        rng = random.Random(29)
        for p, q, r in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (4, 6, 3), (5, 5, 5), (3, 2, 6)]:
            for _ in range(3):
                a, b = random_rational_matrix(rng, p, q), random_rational_matrix(rng, q, r)
                got = a * b
                # The reference reads the width from b's rows, so it cannot
                # give the zero p x r product of an empty inner size.
                expected = Mat(reference_matrix_product(a.data, b.data)) if p and q and r else Mat.zeros(p, r)
                assert got.shape() == (p, r)
                assert got == expected
                assert all(type(c) is Fraction for row in got.data for c in row)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Mat([[1, 2], [3]])


class TestZeroRows:
    def test_zero_row_matrix_keeps_its_width(self):
        m = Mat.zeros(0, 3)
        assert m.shape() == (0, 3)
        assert m.transpose().shape() == (3, 0)
        assert m.hstack(Mat.zeros(0, 2)).shape() == (0, 5)
        assert Mat.zeros(3, 0).transpose().shape() == (0, 3)

    def test_kernel_of_no_equations_is_everything(self):
        assert kernel_basis(Mat.zeros(0, 3)) == Mat.identity(3)

    def test_solution_of_no_equations_has_full_shape(self):
        assert solve_linear(Mat.zeros(0, 2), Mat.zeros(0, 1)) == Mat.zeros(2, 1)

    def test_equality_and_hash_see_the_shape(self):
        assert Mat.zeros(0, 3) != Mat.zeros(0, 5)
        assert hash(Mat.zeros(0, 3)) != hash(Mat.zeros(0, 5))
        assert Mat.zeros(0, 3) == Mat.zeros(0, 3)
        assert hash(Mat.zeros(0, 3)) == hash(Mat.zeros(0, 3))
        assert Mat.zeros(0, 3) != Mat.zeros(3, 0)

    def test_zero_subspace_basis_has_ambient_width(self):
        assert Subspace(3, []).basis.shape() == (0, 3)
