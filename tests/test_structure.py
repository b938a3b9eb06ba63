"""Tests for radical computation, central idempotents, and the simple-factor
decomposition. Cross-checks use independent oracles: nilpotency by direct
subspace powering (corpus.nilpotency_oracle) and a trace-form Gram matrix
recomputed from scratch inside the tests."""

import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import qalg
import qalg.algebra
import qalg.structure

from qalg.algebra import (
    FDAlgebra,
    Subspace,
    direct_product,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    matrix_over,
    quaternions,
    upper_triangular,
)
from qalg.corpus import cyclic_table, fixtures, nilpotency_oracle, symmetric3_table
from qalg.errors import InternalError, NotNilpotentError, NotSemisimpleError, NotSimpleError
from qalg.linalg import Mat, minimal_polynomial, poly_eval_matrix, rank
from qalg.poly import Poly
from qalg.structure import (
    _ideal_nilpotency_index,
    central_primitive_idempotents,
    is_semisimple,
    jacobson_radical,
    try_matrix_size,
    wedderburn_decomposition,
)


def rationals():
    return FDAlgebra([[[1]]], [1])


def trace_gram(a):
    """Gram matrix of (x, y) -> trace of left multiplication by x*y, built
    directly from the structure constants."""
    rows = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            prod = a.multiply(a.basis_element(i), a.basis_element(j))
            row.append(a.left_regular_matrix(prod).trace())
        rows.append(row)
    return Mat(rows)


class TestJacobsonRadical:
    def test_semisimple_group_algebra_has_zero_radical(self):
        report = jacobson_radical(group_algebra(symmetric3_table()))
        assert report.radical.dim == 0
        assert report.nilpotency_index == 1

    def test_dual_numbers(self):
        report = jacobson_radical(dual_numbers())
        assert report.radical == Subspace(2, [[0, 1]])
        assert report.nilpotency_index == 2

    def test_upper_triangular_radical_is_strict_part(self):
        u = upper_triangular(3)  # basis E00, E01, E02, E11, E12, E22
        report = jacobson_radical(u)
        strict = Subspace(
            6, [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]]
        )
        assert report.radical == strict
        assert report.nilpotency_index == 3

    def test_radical_is_a_two_sided_ideal(self):
        for f in fixtures():
            a = f.build()
            radical = jacobson_radical(a).radical
            for u in radical.vectors():
                for i in range(a.dim):
                    e = a.basis_element(i)
                    assert radical.contains(a.multiply(e, u))
                    assert radical.contains(a.multiply(u, e))

    def test_nilpotency_index_matches_direct_powering(self):
        for f in fixtures():
            a = f.build()
            report = jacobson_radical(a)
            assert report.nilpotency_index == nilpotency_oracle(a, report.radical)

    def test_radical_elements_kill_the_trace_form(self):
        for f in fixtures():
            a = f.build()
            gram = trace_gram(a)
            for u in jacobson_radical(a).radical.vectors():
                assert all(c == 0 for c in gram.apply(u))

    def test_quotient_trace_form_is_nondegenerate(self):
        for f in fixtures():
            a = f.build()
            q = jacobson_radical(a).quotient.quotient
            assert rank(trace_gram(q)) == q.dim

    def test_is_semisimple(self):
        assert is_semisimple(matrix_algebra(2))
        assert is_semisimple(group_algebra(cyclic_table(5)))
        assert not is_semisimple(dual_numbers())
        assert not is_semisimple(upper_triangular(2))
        assert is_semisimple(direct_product([rationals(), matrix_algebra(2)]))


class TestCentralIdempotents:
    def test_two_factor_product(self):
        p = direct_product([rationals(), rationals()])
        es = central_primitive_idempotents(p)
        assert set(es) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_full_matrix_algebra_is_already_simple(self):
        m = matrix_algebra(3)
        assert central_primitive_idempotents(m) == (m.unit,)

    def test_cyclic_group_of_order_four(self):
        a = group_algebra(cyclic_table(4))
        es = central_primitive_idempotents(a)
        q = Fraction
        expected = {
            (q(1, 4), q(1, 4), q(1, 4), q(1, 4)),
            (q(1, 4), q(-1, 4), q(1, 4), q(-1, 4)),
            (q(1, 2), q(0), q(-1, 2), q(0)),
        }
        assert set(es) == expected

    def test_not_semisimple_rejected(self):
        with pytest.raises(NotSemisimpleError):
            central_primitive_idempotents(dual_numbers())

    def test_idempotent_system_axioms(self):
        for f in fixtures():
            s = jacobson_radical(f.build()).quotient.quotient
            es = central_primitive_idempotents(s)
            total = s.zero()
            for i, e in enumerate(es):
                assert s.multiply(e, e) == e
                for j in range(s.dim):
                    b = s.basis_element(j)
                    assert s.multiply(e, b) == s.multiply(b, e)
                for j, f2 in enumerate(es):
                    if i != j:
                        assert s.multiply(e, f2) == s.zero()
                total = tuple(x + y for x, y in zip(total, e))
            assert total == s.unit

    def test_count_is_deterministic(self):
        a = group_algebra(symmetric3_table())
        assert central_primitive_idempotents(a) == central_primitive_idempotents(a)
        assert len(central_primitive_idempotents(a)) == 3


def multiquadratic(primes):
    """Q(sqrt p_1, ..., sqrt p_k) on the basis e_S = prod_{i in S} sqrt p_i,
    indexed by bitmask: e_S * e_T = (prod_{i in S & T} p_i) * e_(S ^ T)."""
    dim = 1 << len(primes)
    structure = []
    for s in range(dim):
        row = []
        for t in range(dim):
            vec = [0] * dim
            vec[s ^ t] = 1
            for i, p in enumerate(primes):
                if (s & t) >> i & 1:
                    vec[s ^ t] *= p
            row.append(vec)
        structure.append(row)
    return FDAlgebra(structure, [1] + [0] * (dim - 1))


def primitive_element_bound(m):
    """Most elements the primitive-element search may try on a center of
    dimension m: every t <= (m-1) * m(m-1)/2."""
    return (m - 1) * m * (m - 1) // 2 + 1


class TestPrimitiveElementSplitting:
    @pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 5, 7)], ids=str)
    def test_multiquadratic_field_is_one_factor(self, primes):
        d = 1 << len(primes)
        w = wedderburn_decomposition(multiquadratic(primes))
        shapes = [
            (f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size)
            for f in w.factors
        ]
        assert shapes == [(d, d, 1, 1)]

    def test_size_search_candidates_are_not_used(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("central splitting walked the size-search candidates")

        monkeypatch.setattr(qalg.structure, "_splitting_candidates", refuse)
        for f in fixtures():
            s = jacobson_radical(f.build()).quotient.quotient
            es = central_primitive_idempotents(s)
            assert len(es) == len(f.expected.factor_shapes), f.name
            total = s.zero()
            for e in es:
                total = tuple(x + y for x, y in zip(total, e))
            assert total == s.unit, f.name

    def count_tries(self, monkeypatch, s):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return minimal_polynomial(*args)

        with monkeypatch.context() as mp:
            mp.setattr(qalg.structure, "minimal_polynomial", counting)
            central_primitive_idempotents(s)
        return len(calls)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_tries_within_bound_on_products_of_rationals(self, monkeypatch, m):
        s = direct_product([rationals()] * m)
        tries = self.count_tries(monkeypatch, s)
        assert tries <= primitive_element_bound(m)
        assert len(central_primitive_idempotents(s)) == m

    def test_tries_within_bound_on_fixtures(self, monkeypatch):
        for f in fixtures():
            s = jacobson_radical(f.build()).quotient.quotient
            tries = self.count_tries(monkeypatch, s)
            assert tries <= primitive_element_bound(s.center().dim), f.name

    def test_passing_the_bound_is_an_internal_error(self, monkeypatch):
        # a minimal polynomial that never reaches the center's dimension
        monkeypatch.setattr(qalg.structure, "minimal_polynomial", lambda *args: Poly([0, 1]))
        with pytest.raises(AssertionError, match="proven bound"):
            central_primitive_idempotents(direct_product([rationals()] * 3))


class TestChecksSurviveOptimize:
    def test_partial_fraction_check_raises_under_python_o(self):
        # z = (1, 2) in Q x Q has minimal polynomial (x - 1)(x - 2); the
        # modulus x - 3 does not divide it, so no idempotent comes out
        program = (
            "from qalg.algebra import FDAlgebra, direct_product\n"
            "from qalg.poly import Poly\n"
            "from qalg.structure import _partial_fraction_idempotents\n"
            "q = FDAlgebra([[[1]]], [1])\n"
            "a = direct_product([q, q])\n"
            "try:\n"
            "    _partial_fraction_idempotents(\n"
            "        a, (1, 2), a.unit, Poly([2, -3, 1]), [Poly([-3, 1])]\n"
            "    )\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(qalg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", program],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: partial fraction idempotent failed\n"


class TestMatrixSize:
    def test_rationals(self):
        assert try_matrix_size(rationals()) == 1

    def test_full_matrix_algebras(self):
        assert try_matrix_size(matrix_algebra(2)) == 2
        assert try_matrix_size(matrix_algebra(3)) == 3

    def test_quaternions_stay_unknown(self):
        assert try_matrix_size(quaternions(-1, -1)) is None

    def test_split_quaternions_are_recognized(self):
        # i^2 = 1 gives zero divisors, so a splitting idempotent exists
        assert try_matrix_size(quaternions(1, 1)) == 2

    def test_number_field_factor(self):
        # Q[t]/(t^2 - 2) is a field: commutative, size 1
        a = FDAlgebra([[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0])
        assert try_matrix_size(a) == 1

    def test_multiple_factors_rejected(self):
        with pytest.raises(NotSimpleError):
            try_matrix_size(direct_product([rationals(), rationals()]))

    def test_not_semisimple_rejected(self):
        with pytest.raises(NotSimpleError):
            try_matrix_size(dual_numbers())


def assert_golden_factor_shapes():
    none_low = lambda t: tuple(-1 if v is None else v for v in t)  # noqa: E731
    for f in fixtures():
        w = wedderburn_decomposition(f.build())
        shapes = [
            (x.factor_dim, x.center_dim, x.degree_over_center, x.matrix_size)
            for x in w.factors
        ]
        assert sorted(shapes, key=none_low) == sorted(
            f.expected.factor_shapes, key=none_low
        ), f.name


# M_3(Q) on the basis f_i = sum_k P[k][i] e_k (e the matrix units): the
# integer basis change with integer inverse that perfbench's Twister(1)
# draws for "M3", label "1". Searching both corners of its first split
# finds no certificate; one corner suffices.
TWIST_P = (
    (1, 2, 0, -1, 2, 1, -1, -2, -2),
    (1, 3, -2, -1, 2, 1, -2, -4, -2),
    (0, 1, -1, -1, 0, 0, 0, -4, 2),
    (1, 2, 2, -2, 2, 2, -1, -6, 3),
    (1, 2, 0, -2, 3, 0, 1, -1, -2),
    (0, 0, 1, -1, -2, 1, 2, -3, 0),
    (2, 6, -3, -5, 6, 1, 3, -5, -3),
    (2, 6, -4, -4, 4, 0, 1, -5, -9),
    (0, -2, 4, 1, 2, -1, -2, 3, 6),
)
TWIST_P_INV = (
    (-302, 172, -144, 59, 82, 37, -15, 10, 10),
    (220, -123, 104, -45, -62, -24, 12, -7, -5),
    (118, -66, 56, -24, -32, -13, 6, -4, -3),
    (316, -173, 151, -67, -82, -33, 16, -13, -8),
    (87, -48, 42, -18, -21, -10, 4, -4, -3),
    (-60, 33, -29, 13, 16, 6, -3, 2, 1),
    (117, -64, 56, -25, -30, -12, 6, -5, -3),
    (-66, 36, -32, 14, 16, 7, -3, 3, 2),
    (-25, 14, -12, 5, 6, 3, -1, 1, 1),
)


def twisted_m3():
    m = matrix_algebra(3)
    n = m.dim
    assert all(
        sum(TWIST_P[i][k] * TWIST_P_INV[k][j] for k in range(n)) == (i == j)
        for i in range(n)
        for j in range(n)
    )
    f = [[TWIST_P[k][i] for k in range(n)] for i in range(n)]

    def coords(v):
        return [sum(r * x for r, x in zip(row, v)) for row in TWIST_P_INV]

    structure = [[coords(m.multiply(f[i], f[j])) for j in range(n)] for i in range(n)]
    a = FDAlgebra(structure, coords(m.unit))
    a.validate()
    return a


def searched_algebras():
    return [(f.name, f.build) for f in fixtures()] + [("twisted-M3", twisted_m3)]


def splits_per_factor(monkeypatch):
    """Patch the search so that each factor's successful splits are counted
    in a list of its own, in factor order."""
    counts = []
    search = qalg.structure._matrix_size_search
    find = qalg.structure._find_nontrivial_idempotent

    def counting_search(*args):
        counts.append(0)
        return search(*args)

    def counting_find(*args):
        p = find(*args)
        if p is not None:
            counts[-1] += 1
        return p

    monkeypatch.setattr(qalg.structure, "_matrix_size_search", counting_search)
    monkeypatch.setattr(qalg.structure, "_find_nontrivial_idempotent", counting_find)
    return counts


class TestCornerDescent:
    def test_no_factor_or_corner_algebra_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decomposition built a subalgebra")

        monkeypatch.setattr(qalg.structure, "subalgebra_on", refuse, raising=False)
        monkeypatch.setattr(qalg.algebra, "subalgebra_on", refuse)
        assert_golden_factor_shapes()

    def test_m5_is_certified_by_one_split(self, monkeypatch):
        counts = splits_per_factor(monkeypatch)
        w = wedderburn_decomposition(matrix_algebra(5))
        assert [f.matrix_size for f in w.factors] == [5]
        assert counts == [1]

    def test_twisted_m3_is_certified(self):
        a = twisted_m3()
        w = wedderburn_decomposition(a)
        f = w.factors[0]
        assert (f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size) == (9, 1, 3, 3)
        assert try_matrix_size(twisted_m3()) == 3

    @pytest.mark.parametrize("build", [pytest.param(b, id=n) for n, b in searched_algebras()])
    def test_size_is_degree_within_log_splits(self, monkeypatch, build):
        counts = splits_per_factor(monkeypatch)
        w = wedderburn_decomposition(build())
        assert len(counts) == len(w.factors)
        for f, splits in zip(w.factors, counts):
            assert f.matrix_size in (None, f.degree_over_center)
            assert splits <= f.degree_over_center.bit_length() - 1

    def test_corner_below_the_center_is_an_internal_error(self):
        # M_2 has a one-dimensional center; claiming two makes the search
        # split past it, to a corner of dimension 1
        s = matrix_algebra(2)
        with pytest.raises(InternalError, match="smaller than the factor's center"):
            qalg.structure._matrix_size_search(
                s, Subspace(4, [s.basis_element(i) for i in range(4)]), s.unit, 2, 1
            )


class TestWedderburn:
    def test_symmetric_group(self):
        w = wedderburn_decomposition(group_algebra(symmetric3_table()))
        dims = sorted(f.factor_dim for f in w.factors)
        assert dims == [1, 1, 4]
        degrees = sorted(f.degree_over_center for f in w.factors)
        assert degrees == [1, 1, 2]
        big = max(w.factors, key=lambda f: f.factor_dim)
        assert big.matrix_size == 2 and big.center_dim == 1

    def test_quaternions_single_unknown_factor(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        assert len(w.factors) == 1
        f = w.factors[0]
        assert (f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size) == (4, 1, 2, None)

    def test_upper_triangular_quotient_splits_into_lines(self):
        w = wedderburn_decomposition(upper_triangular(2))
        assert len(w.factors) == 2
        assert all(f.factor_dim == 1 for f in w.factors)
        assert w.semisimple_quotient.dim == 2

    def test_factor_dimensions_tile_the_quotient(self):
        for f in fixtures():
            w = wedderburn_decomposition(f.build())
            assert sum(x.factor_dim for x in w.factors) == w.semisimple_quotient.dim
            for x in w.factors:
                assert x.factor_dim == x.center_dim * x.degree_over_center**2
                if x.matrix_size is not None:
                    assert x.degree_over_center % x.matrix_size == 0

    def test_golden_factor_shapes(self):
        assert_golden_factor_shapes()

    def test_direct_product_concatenates_factors(self):
        a = group_algebra(cyclic_table(3))
        b = matrix_algebra(2)
        shapes_a = [
            (f.factor_dim, f.degree_over_center) for f in wedderburn_decomposition(a).factors
        ]
        shapes_b = [
            (f.factor_dim, f.degree_over_center) for f in wedderburn_decomposition(b).factors
        ]
        w = wedderburn_decomposition(direct_product([a, b]))
        shapes = [(f.factor_dim, f.degree_over_center) for f in w.factors]
        assert sorted(shapes) == sorted(shapes_a + shapes_b)

    def test_central_idempotents_project_from_ambient(self):
        # the reported idempotents live in the semisimple quotient and sum
        # to its unit even when a radical was removed first
        a = matrix_over(dual_numbers(), 2)
        w = wedderburn_decomposition(a)
        assert len(w.factors) == 1
        assert w.factors[0].central_idempotent == w.semisimple_quotient.unit

    def test_matrix_over_commutative_base(self):
        w = wedderburn_decomposition(matrix_over(dual_numbers(), 2))
        f = w.factors[0]
        assert (f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size) == (4, 1, 2, 2)


class TestMemo:
    def test_results_are_memoized_on_the_algebra_object(self):
        a = upper_triangular(3)
        b = upper_triangular(3)
        assert a == b and a is not b
        assert jacobson_radical(a) is jacobson_radical(a)
        assert jacobson_radical(b) is not jacobson_radical(a)
        assert jacobson_radical(b) == jacobson_radical(a)
        assert wedderburn_decomposition(a) is wedderburn_decomposition(a)
        assert wedderburn_decomposition(b) is not wedderburn_decomposition(a)

    def test_memoized_report_is_released_with_its_algebra(self):
        a = upper_triangular(3)
        report = weakref.ref(jacobson_radical(a))
        assert report() is not None
        del a
        gc.collect()
        assert report() is None

    def test_nilpotency_index_memo_is_keyed_by_the_ideal(self):
        a = upper_triangular(3)
        radical = jacobson_radical(a).radical
        strict_corner = Subspace(6, [[0, 0, 1, 0, 0, 0]])
        assert _ideal_nilpotency_index(a, radical) == 3
        assert _ideal_nilpotency_index(a, strict_corner) == 2
        assert _ideal_nilpotency_index(a, Subspace(6, radical.vectors())) == 3
        assert _ideal_nilpotency_index(upper_triangular(3), strict_corner) == 2

    def test_non_nilpotent_ideal_is_not_memoized(self):
        p2 = direct_product([rationals(), rationals()])
        ideal = Subspace(2, [[1, 0]])
        for _ in range(2):
            with pytest.raises(NotNilpotentError):
                _ideal_nilpotency_index(p2, ideal)
        assert not any(key[0] == "_ideal_nilpotency_index" for key in p2._memo)


def few_candidates(rows):
    """The rows themselves, then the sums and one weighted sum of the first
    few pairs."""
    yield from rows
    for i in range(min(len(rows), 3)):
        for j in range(i + 1, len(rows)):
            yield tuple(x + y for x, y in zip(rows[i], rows[j]))
            yield tuple(2 * x + 3 * y for x, y in zip(rows[i], rows[j]))


def assert_minimal_for_matrix(p, m):
    """p annihilates m, and I, m, ..., m^(deg p - 1) are independent."""
    assert p.is_monic()
    assert poly_eval_matrix(p, m).is_zero()
    powers = [Mat.identity(m.rows)]
    for _ in range(p.degree() - 1):
        powers.append(powers[-1] * m)
    assert rank(Mat([[c for row in q.data for c in row] for q in powers])) == p.degree()


class TestElementMinimalPolynomial:
    """minimal_polynomial of an algebra element against the matrix of left
    multiplication, checked with poly_eval_matrix and rank only."""

    @pytest.mark.parametrize("fx", fixtures(), ids=lambda f: f.name)
    def test_equals_that_of_left_multiplication(self, fx):
        a = fx.build()
        rows = [a.basis_element(i) for i in range(a.dim)]
        for z in few_candidates(rows):
            p = minimal_polynomial(z, a.multiply, a.unit)
            assert_minimal_for_matrix(p, a.left_regular_matrix(z))

    @pytest.mark.parametrize("fx", fixtures(), ids=lambda f: f.name)
    def test_block_center_with_its_own_unit(self, fx):
        s = jacobson_radical(fx.build()).quotient.quotient
        center = s.center()
        for e in (s.unit,) + central_primitive_idempotents(s):
            block = Subspace(s.dim, [s.multiply(e, z) for z in center.vectors()])
            for z in few_candidates(block.vectors()):
                p = minimal_polynomial(z, s.multiply, e)
                # left multiplication by z on the block center, in its coordinates
                cols = [block.coordinates(s.multiply(z, b)) for b in block.vectors()]
                assert_minimal_for_matrix(p, Mat(cols).transpose())
