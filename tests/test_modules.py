"""Tests for idempotent lifting and projective-module rank data."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qalg.modules
import qalg.structure
from qalg.algebra import (
    FDAlgebra,
    Subspace,
    direct_product,
    dual_numbers,
    matrix_algebra,
    matrix_over,
    quaternions,
    quotient_by_ideal,
    subalgebra_on,
    upper_triangular,
)
from qalg.corpus import fixtures
from qalg.errors import (
    AlgebraMismatchError,
    InternalError,
    NotIdempotentError,
    NotNilpotentError,
    QalgError,
    UnknownIndexError,
    ValidationError,
)
from qalg.modules import (
    IdempotentMatrix,
    lift_idempotent,
    lift_idempotent_matrix,
    lift_idempotent_with_count,
    modules_isomorphic,
    projective_module,
    rank_realizable,
    rank_vector,
    refine_to_idempotent,
)
from qalg.structure import (
    central_primitive_idempotents,
    jacobson_radical,
    wedderburn_decomposition,
)

from oracles import hom_dim_oracle, reference_matrix_product, reference_regular_matrix


def rationals():
    return FDAlgebra([[[1]]], [1])


def unit_vec(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def radical_quotient(a):
    return jacobson_radical(a).quotient


def sheared_presentations(a, seed):
    """Pairs (P, S*P*S^-1) with P = diag(e, 1) for e = 0 and for the lift of
    each central idempotent of the semisimple quotient. S is the shear
    [[1, x], [0, 1]], which keeps P's diagonal, and the product of shears
    [[1 + xy, x], [y, 1]], which does not; x and y are seeded elements."""
    rng = random.Random(seed)
    qp = radical_quotient(a)
    one, zero = a.unit, a.zero()
    x, y = (tuple(Fraction(rng.randint(-2, 2)) for _ in range(a.dim)) for _ in range(2))
    neg_x, neg_y = tuple(-c for c in x), tuple(-c for c in y)
    xy, yx = a.multiply(x, y), a.multiply(y, x)
    shears = [
        ([[one, x], [zero, one]], [[one, neg_x], [zero, one]]),
        (
            [[tuple(u + c for u, c in zip(one, xy)), x], [y, one]],
            [[one, neg_x], [neg_y, tuple(u + c for u, c in zip(one, yx))]],
        ),
    ]
    idempotents = [zero] + [
        lift_idempotent(f.central_idempotent, qp) for f in wedderburn_decomposition(a).factors
    ]
    identity = ((one, zero), (zero, one))
    out = []
    for e in idempotents:
        p = IdempotentMatrix.diagonal(a, [e, one])
        for s, s_inv in shears:
            assert a._matrix_product(s, s_inv) == identity
            conj = a._matrix_product(a._matrix_product(s, p.entries), s_inv)
            out.append((p, IdempotentMatrix(a, conj)))
    return out


class TestLiftIdempotent:
    def test_zero_and_unit_lift_without_iteration(self):
        qp = radical_quotient(dual_numbers())
        assert lift_idempotent_with_count(qp.quotient.zero(), qp) == ((0, 0), 0)
        lifted, count = lift_idempotent_with_count(qp.quotient.unit, qp)
        assert lifted == dual_numbers().unit
        assert count == 0

    def test_diagonal_class_of_triangular_matrices(self):
        u = upper_triangular(2)  # basis E00, E01, E11; radical spans E01
        qp = radical_quotient(u)
        p, count = lift_idempotent_with_count((1, 0), qp)
        assert p == (1, 0, 0)
        assert count == 0
        assert u.is_idempotent(p)

    def test_lift_lands_in_the_right_class(self):
        a = matrix_over(dual_numbers(), 2)
        qp = radical_quotient(a)
        for q in [qp.quotient.zero(), qp.quotient.unit, qp.project(a.basis_element(0))]:
            p = lift_idempotent(q, qp)
            assert a.is_idempotent(p)
            assert qp.project(p) == q

    def test_non_idempotent_class_rejected(self):
        qp = radical_quotient(upper_triangular(2))
        with pytest.raises(NotIdempotentError, match="modulo the ideal"):
            lift_idempotent((2, 0), qp)

    def test_lift_refines_the_section_of_its_class(self):
        for fx in fixtures():
            qp = radical_quotient(fx.build())
            for q in (qp.quotient.unit,) + central_primitive_idempotents(qp.quotient):
                assert lift_idempotent_with_count(q, qp) == refine_to_idempotent(
                    qp, qp.lift(q)
                )

    def test_non_nilpotent_ideal_rejected(self):
        p2 = direct_product([rationals(), rationals()])
        qp = quotient_by_ideal(p2, Subspace(2, [[1, 0]]))
        with pytest.raises(NotNilpotentError):
            lift_idempotent(qp.quotient.unit, qp)


class TestRefineToIdempotent:
    def test_perturbed_matrix_unit_converges_in_one_pass(self):
        # p = (1 + t) E00 over 2x2 matrices with dual-number entries:
        # squaring gives (1 + 2t) E00, and one refinement lands exactly on E00
        a = matrix_over(dual_numbers(), 2)
        qp = radical_quotient(a)
        e00, e00t = a.basis_element(0), a.basis_element(1)
        p0 = tuple(x + y for x, y in zip(e00, e00t))
        assert not a.is_idempotent(p0)
        p, count = refine_to_idempotent(qp, p0)
        assert p == e00
        assert count == 1

    def test_perturbation_within_the_radical_is_removed(self):
        u = upper_triangular(3)  # basis E00, E01, E02, E11, E12, E22
        qp = radical_quotient(u)
        e00, e12 = u.basis_element(0), u.basis_element(4)
        p0 = tuple(x + y for x, y in zip(e00, e12))
        p, count = refine_to_idempotent(qp, p0)
        assert u.is_idempotent(p)
        assert count == 1
        assert qp.project(p) == qp.project(p0)

    def test_already_idempotent_needs_no_pass(self):
        u = upper_triangular(2)
        qp = radical_quotient(u)
        p, count = refine_to_idempotent(qp, (1, 0, 0))
        assert (p, count) == ((1, 0, 0), 0)

    def test_class_must_be_idempotent_in_the_quotient(self):
        u = upper_triangular(2)
        qp = radical_quotient(u)
        with pytest.raises(NotIdempotentError):
            refine_to_idempotent(qp, (2, 5, 0))

    def test_element_is_refined_as_a_one_by_one_matrix(self, monkeypatch):
        # The precondition squares the class of p in the quotient; then one
        # pass is a square and a cube of ((p,),), and the square of the result
        # ends the loop. Every product, multiply's too, is a 1 x 1 matrix.
        a = matrix_over(dual_numbers(), 2)
        qp = radical_quotient(a)
        p0 = tuple(x + y for x, y in zip(a.basis_element(0), a.basis_element(1)))
        calls = []
        product = FDAlgebra._matrix_product

        def counted(self, x, y):
            calls.append((x, y))
            return product(self, x, y)

        monkeypatch.setattr(FDAlgebra, "_matrix_product", counted)
        assert refine_to_idempotent(qp, p0) == (a.basis_element(0), 1)
        assert len(calls) == 4
        assert all(len(m) == 1 and len(m[0]) == 1 for x, y in calls for m in (x, y))


class TestClassCheckSurvivesOptimize:
    def test_refine_class_check_raises_under_python_o(self):
        # FDAlgebra._matrix_product patched to compute its first product, the
        # precondition's square of the class in the quotient, and to return
        # zero matrices after that: the loop refines the unit to 0, which is
        # idempotent but not in the class of the unit modulo the radical of
        # the dual numbers
        program = (
            "import qalg.modules\n"
            "from qalg.algebra import FDAlgebra, Subspace, dual_numbers, quotient_by_ideal\n"
            "from qalg.errors import InternalError\n"
            "a = dual_numbers()\n"
            "qp = quotient_by_ideal(a, Subspace(2, [[0, 1]]))\n"
            "product, calls = FDAlgebra._matrix_product, []\n"
            "def patched(self, x, y):\n"
            "    calls.append(x)\n"
            "    if len(calls) == 1:\n"
            "        return product(self, x, y)\n"
            "    return tuple(tuple(self.zero() for _ in y[0]) for _ in x)\n"
            "FDAlgebra._matrix_product = patched\n"
            "try:\n"
            "    qalg.modules.refine_to_idempotent(qp, a.unit)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(qalg.modules.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-O", "-c", program],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: refinement changed the class modulo the ideal\n"

    def test_internal_error_is_not_a_precondition_failure(self):
        assert issubclass(InternalError, AssertionError)
        assert not issubclass(InternalError, QalgError)


class TestIterationBound:
    def test_iterations_stay_within_logarithmic_bound(self):
        for build in (lambda: upper_triangular(2), lambda: upper_triangular(3),
                      lambda: upper_triangular(4), lambda: matrix_over(dual_numbers(), 2)):
            a = build()
            report = jacobson_radical(a)
            qp = report.quotient
            bound = max(0, (report.nilpotency_index - 1).bit_length())
            for e in wedderburn_decomposition(a).factors:
                q = e.central_idempotent
                p, count = lift_idempotent_with_count(q, qp)
                assert a.is_idempotent(p)
                assert qp.project(p) == q
                assert count <= bound


class TestNilpotencyIndexMemo:
    def test_lift_reuses_the_index_from_the_radical(self, monkeypatch):
        a = upper_triangular(3)
        qp = radical_quotient(a)

        def no_powering(*args):
            raise AssertionError("nilpotency index recomputed")

        monkeypatch.setattr(qalg.structure, "_subspace_product", no_powering)
        s = qp.quotient
        e = wedderburn_decomposition(a).factors[0].central_idempotent
        q = IdempotentMatrix(s, [[e, s.zero()], [s.zero(), s.unit]])
        lifted = lift_idempotent_matrix(q, qp)
        assert all(
            qp.project(lifted.entries[u][v]) == q.entries[u][v] for u in range(2) for v in range(2)
        )


class TestLiftIdempotentMatrix:
    def test_size_one_agrees_with_element_lift(self):
        u = upper_triangular(2)
        qp = radical_quotient(u)
        q = IdempotentMatrix(qp.quotient, [[(1, 0)]])
        lifted = lift_idempotent_matrix(q, qp)
        assert lifted.entries[0][0] == lift_idempotent((1, 0), qp)

    def test_identity_matrix_lifts_to_identity(self):
        u = upper_triangular(2)
        qp = radical_quotient(u)
        qunit = qp.quotient.unit
        qzero = qp.quotient.zero()
        q = IdempotentMatrix(qp.quotient, [[qunit, qzero], [qzero, qunit]])
        lifted = lift_idempotent_matrix(q, qp)
        assert lifted.entries[0][0] == u.unit
        assert lifted.entries[0][1] == u.zero()
        assert lifted.entries[1][0] == u.zero()
        assert lifted.entries[1][1] == u.unit

    def test_diagonal_lift_stays_diagonal(self):
        a = matrix_over(dual_numbers(), 2)
        qp = radical_quotient(a)
        e00_class = qp.project(a.basis_element(0))
        q = IdempotentMatrix.diagonal(qp.quotient, [e00_class, qp.quotient.zero()])
        lifted = lift_idempotent_matrix(q, qp)
        assert lifted.entries[0][1] == a.zero()
        assert lifted.entries[1][0] == a.zero()
        assert lifted.entries[1][1] == a.zero()
        assert a.is_idempotent(lifted.entries[0][0])

    def test_entries_project_back(self):
        a = matrix_over(dual_numbers(), 2)
        qp = radical_quotient(a)
        s = qp.quotient
        q = IdempotentMatrix(s, [[s.unit, s.zero()], [s.zero(), qp.project(a.basis_element(0))]])
        lifted = lift_idempotent_matrix(q, qp)
        for u in range(2):
            for v in range(2):
                assert qp.project(lifted.entries[u][v]) == q.entries[u][v]


    def test_lift_that_needs_one_refinement_pass(self):
        # Dual numbers on the basis e0 = 1 + t, e1 = t: the section lifts the
        # class of 1 to e0, and e0 * e0 = e0 + e1 is not idempotent.
        a = FDAlgebra([[(1, 1), (0, 1)], [(0, 1), (0, 0)]], (1, -1))
        a.validate()
        qp = radical_quotient(a)
        assert jacobson_radical(a).nilpotency_index == 2
        one, zero = qp.quotient.unit, qp.quotient.zero()
        q = IdempotentMatrix(qp.quotient, [[one, zero], [zero, one]])
        start = tuple(tuple(qp.lift(e) for e in row) for row in q.entries)
        assert start[0][0] == (1, 0)
        lifted = lift_idempotent_matrix(q, qp)
        # The bound ceil(log2 2) = 1 allows one pass, and the result differs
        # from the start, so exactly one pass ran.
        assert lifted.entries != start
        assert lifted == IdempotentMatrix.diagonal(a, [(1, -1), (1, -1)])

    def test_lift_checks_idempotency_once(self, monkeypatch):
        # One pass is a square, a cube and the square that ends the loop; the
        # result is not multiplied again to check it.
        a = FDAlgebra([[(1, 1), (0, 1)], [(0, 1), (0, 0)]], (1, -1))
        qp = radical_quotient(a)
        one, zero = qp.quotient.unit, qp.quotient.zero()
        q = IdempotentMatrix(qp.quotient, [[one, zero], [zero, one]])
        calls = []
        product = FDAlgebra._matrix_product

        def counted(self, x, y):
            calls.append((x, y))
            return product(self, x, y)

        monkeypatch.setattr(FDAlgebra, "_matrix_product", counted)
        lifted = lift_idempotent_matrix(q, qp)
        assert len(calls) == 3
        monkeypatch.undo()
        assert IdempotentMatrix(a, lifted.entries) == lifted


class TestIdempotentMatrixType:
    def test_non_idempotent_rejected(self):
        m = matrix_algebra(2)
        with pytest.raises(NotIdempotentError):
            IdempotentMatrix(m, [[m.basis_element(1)]])

    def test_off_diagonal_witness(self):
        # [[1, 1], [0, 0]] over the rationals is idempotent as a 2x2 matrix
        r = rationals()
        one, zero = (Fraction(1),), (Fraction(0),)
        m = IdempotentMatrix(r, [[one, one], [zero, zero]])
        assert m.size == 2

    def test_ragged_entries_rejected(self):
        r = rationals()
        with pytest.raises(ValueError):
            IdempotentMatrix(r, [[(1,), (0,)]])

    def test_json_round_trip(self):
        m = matrix_algebra(2)
        p = IdempotentMatrix(m, [[unit_vec(4, 0)]])
        assert IdempotentMatrix.from_json_lists(m, p.to_json_lists()) == p

    def test_json_rejects_string_entry(self):
        # "10" would otherwise be read as the entry (1, 0), the unit
        d = dual_numbers()
        with pytest.raises(ValueError, match="matrix entry must be a JSON array"):
            IdempotentMatrix.from_json_lists(d, [["10"]])

    def test_json_rejects_non_idempotent_payload(self):
        m = matrix_algebra(2)
        bad = [[["0", "1", "0", "0"]]]
        with pytest.raises(NotIdempotentError):
            IdempotentMatrix.from_json_lists(m, bad)


def left_of_projected(qp, s, x):
    """The dense matrix of left multiplication by x's image in the quotient
    with structure constants s, from reference products alone."""
    projected = [c for (c,) in reference_matrix_product(qp.projection.data, [[c] for c in x])]
    return reference_regular_matrix(s, projected, "left")


class TestRankVector:
    def test_free_module_has_rank_one_everywhere(self):
        for a in [matrix_algebra(2), upper_triangular(3), quaternions(-1, -1)]:
            p = IdempotentMatrix(a, [[a.unit]])
            desc = projective_module(p)
            assert all(r == 1 for r in desc.rank_vector)
            assert desc.uniform_rank == 1

    def test_column_module_of_matrix_algebra(self):
        m = matrix_algebra(2)
        assert rank_vector(IdempotentMatrix(m, [[unit_vec(4, 0)]])) == (Fraction(1, 2),)

    def test_coordinate_factor_module(self):
        p2 = direct_product([rationals(), rationals()])
        desc = projective_module(IdempotentMatrix(p2, [[(1, 0)]]))
        assert desc.rank_vector == (1, 0)
        assert desc.uniform_rank is None

    def test_zero_module(self):
        m = matrix_algebra(2)
        desc = projective_module(IdempotentMatrix(m, [[m.zero()]]))
        assert desc.rank_vector == (0,)
        assert desc.uniform_rank == 0

    def test_radical_does_not_change_rank(self):
        # over triangular matrices, E00 + E12 presents the same module as E00
        u = upper_triangular(3)
        p1 = IdempotentMatrix(u, [[u.basis_element(0)]])
        p0 = tuple(x + y for x, y in zip(u.basis_element(0), u.basis_element(4)))
        # refine first: E00 + E12 itself is not idempotent
        qp = radical_quotient(u)
        refined, _ = refine_to_idempotent(qp, p0)
        p2 = IdempotentMatrix(u, [[refined]])
        assert rank_vector(p1) == rank_vector(p2)

    def test_block_sums_add_ranks(self):
        m = matrix_algebra(2)
        e00 = unit_vec(4, 0)
        single = rank_vector(IdempotentMatrix(m, [[e00]]))
        double = rank_vector(
            IdempotentMatrix(m, [[e00, m.zero()], [m.zero(), e00]])
        )
        assert double == tuple(2 * r for r in single)

    def test_conjugate_presentations_have_equal_ranks(self):
        # S*P*S^-1 presents a module isomorphic to P's, with dense entries
        # off the diagonal and, for the second shear, a different diagonal.
        cases = 0
        for f in fixtures():
            a = f.build()
            if a.dim > 8:
                continue
            for seed in (1, 2):
                for p, conj in sheared_presentations(a, seed):
                    assert rank_vector(conj) == rank_vector(p), f.name
                    cases += 1
        assert cases >= 100

    def test_ranks_times_factor_dims_give_the_module_dimension(self):
        # Over a semisimple algebra dim Hom(A, M) = dim M = sum r_i * dim F_i,
        # and hom_dim_oracle computes the left side without any traces, here
        # on the conjugates by the diagonal-changing shear.
        for f in fixtures():
            a = f.build()
            if f.expected.radical_dim != 0:
                continue
            free = projective_module(IdempotentMatrix(a, [[a.unit]]))
            dims = [g.factor_dim for g in wedderburn_decomposition(a).factors]
            for _, conj in sheared_presentations(a, 3)[1::2]:
                m = projective_module(conj)
                expected = sum(r * d for r, d in zip(m.rank_vector, dims))
                assert hom_dim_oracle(free, m) == expected, f.name

    def test_ranks_equal_traces_over_the_semisimple_quotient(self):
        # The old formula, sum_u tr(L_{e * P'_uu}) / dim F with P' the
        # projected presentation, from dense reference matrices alone:
        # tr(L_e L_y) = tr(L_{e * y}).
        cases = 0
        for f in fixtures():
            a = f.build()
            qp = radical_quotient(a)
            s = qp.quotient.structure
            factors = wedderburn_decomposition(a).factors
            presentations = [IdempotentMatrix(a, [[a.unit]])]
            presentations += [m for pair in sheared_presentations(a, 4) for m in pair]
            for p in presentations:
                diagonal = [left_of_projected(qp, s, p.entries[u][u]) for u in range(p.size)]
                expected = []
                for factor in factors:
                    left_e = reference_regular_matrix(s, factor.central_idempotent, "left")
                    image_dim = Fraction(0)
                    for left_x in diagonal:
                        left = reference_matrix_product(left_e, left_x)
                        image_dim += sum(left[k][k] for k in range(len(left)))
                    expected.append(image_dim / factor.factor_dim)
                assert rank_vector(p) == tuple(expected), f.name
                cases += 1
        assert cases >= 150

    def test_rank_functionals_memo_holds_only_ints(self):
        a = upper_triangular(4)
        projective_module(IdempotentMatrix(a, [[a.unit]]))

        def ints_only(x):
            return type(x) is int or type(x) is tuple and all(ints_only(y) for y in x)

        memo = [v for key, v in a._memo.items() if key == ("_rank_functionals",)]
        assert len(memo) == 1 and ints_only(memo[0])

    def test_trace_check_catches_a_tampered_presentation(self):
        # __new__()._fill skips the idempotency check, so these entries reach
        # the rank computation: a trace of 12 exceeds size * dim F = 4, and a
        # trace of 4/3 is not an integer.
        m = matrix_algebra(2)
        for c in (3, Fraction(1, 3)):
            entry = tuple(c * x for x in m.unit)
            tampered = IdempotentMatrix.__new__(IdempotentMatrix)._fill(m, ((entry,),))
            with pytest.raises(InternalError, match="trace of an idempotent"):
                projective_module(tampered)

    def test_empty_presentation_has_fraction_zero_ranks(self):
        u = upper_triangular(3)
        desc = projective_module(IdempotentMatrix(u, []))
        assert desc.rank_vector == (0, 0, 0)
        assert all(type(r) is Fraction for r in desc.rank_vector)
        assert type(desc.uniform_rank) is Fraction

    def test_bigger_presentation_of_free_module(self):
        m = matrix_algebra(2)
        q = rank_vector(
            IdempotentMatrix(m, [[m.unit, m.zero()], [m.zero(), m.zero()]])
        )
        assert q == (1,)


class TestModulesIsomorphic:
    def test_corner_columns_of_matrix_algebra_match(self):
        m = matrix_algebra(2)
        m1 = projective_module(IdempotentMatrix(m, [[unit_vec(4, 0)]]))
        m2 = projective_module(IdempotentMatrix(m, [[unit_vec(4, 3)]]))
        assert modules_isomorphic(m1, m2)

    def test_distinct_coordinate_factors_differ(self):
        p2 = direct_product([rationals(), rationals()])
        m1 = projective_module(IdempotentMatrix(p2, [[(1, 0)]]))
        m2 = projective_module(IdempotentMatrix(p2, [[(0, 1)]]))
        assert not modules_isomorphic(m1, m2)

    def test_algebra_mismatch_rejected(self):
        m1 = projective_module(IdempotentMatrix(rationals(), [[(1,)]]))
        m2 = projective_module(IdempotentMatrix(dual_numbers(), [[(1, 0)]]))
        with pytest.raises(AlgebraMismatchError):
            modules_isomorphic(m1, m2)


class TestRankRealizable:
    def test_fractional_rank_needs_matrix_factors(self):
        w = wedderburn_decomposition(direct_product([rationals(), rationals()]))
        assert not rank_realizable(w, Fraction(1, 2))

    def test_half_rank_over_two_by_two_matrices(self):
        w = wedderburn_decomposition(matrix_algebra(2))
        assert rank_realizable(w, Fraction(1, 2))
        assert not rank_realizable(w, Fraction(1, 3))
        assert rank_realizable(w, Fraction(0))
        for negative in (Fraction(-1), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                rank_realizable(w, negative)

    def test_integral_ranks_with_certified_sizes(self):
        for a in [matrix_algebra(2), upper_triangular(3)]:
            w = wedderburn_decomposition(a)
            assert rank_realizable(w, Fraction(1))
            assert rank_realizable(w, Fraction(3))

    def test_uncertified_size_raises(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        with pytest.raises(UnknownIndexError):
            rank_realizable(w, Fraction(1, 2))
        # n * r is an integer for every n when r is, so no size is read.
        assert rank_realizable(w, Fraction(1))
        assert rank_realizable(w, Fraction(0))

    def test_float_rank_rejected(self):
        # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
        w = wedderburn_decomposition(matrix_algebra(2))
        with pytest.raises(TypeError, match="floats are not exact"):
            rank_realizable(w, 0.1)
        assert rank_realizable(w, "1/2")


def corner(a, p):
    """The Peirce corner p*a*p with unit p, as subalgebra_on of its span."""
    span = [a.multiply(p, a.multiply(a.basis_element(i), p)) for i in range(a.dim)]
    return subalgebra_on(a, Subspace(a.dim, span), p)


class TestPeirceCorner:
    def test_unit_corner_is_the_whole_algebra(self):
        m = matrix_algebra(2)
        assert corner(m, m.unit) == m

    def test_matrix_unit_corner_is_scalar(self):
        m = matrix_algebra(2)
        c = corner(m, unit_vec(4, 0))
        assert c == rationals()

    def test_triangular_corner(self):
        u = upper_triangular(2)
        c = corner(u, (1, 0, 0))
        assert c.dim == 1

    def test_product_corner_picks_one_factor(self):
        p2 = direct_product([rationals(), rationals()])
        c = corner(p2, (1, 0))
        assert c == rationals()

    def test_corner_of_diagonal_idempotent(self):
        m = matrix_algebra(3)
        # 1 on E00 and E11: corner is the 2x2 block
        p = tuple(
            Fraction(1) if i in (0, 4) else Fraction(0) for i in range(9)
        )
        c = corner(m, p)
        assert c.dim == 4
        assert not c.is_commutative()

    def test_non_idempotent_rejected(self):
        # E_01 * a * E_01 is spanned by E_01, whose square is 0: subalgebra_on
        # builds it with E_01 as the unit, and validate rejects the unit law.
        m = matrix_algebra(2)
        c = corner(m, m.basis_element(1))
        assert c.dim == 1
        with pytest.raises(ValidationError, match="unit law"):
            c.validate()
