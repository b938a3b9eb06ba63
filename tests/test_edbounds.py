"""Tests for the essential-dimension bound formulas.

Every numeric expectation below was evaluated by hand from the closed-form
expressions; the consistency classes at the bottom cross-check independent
formulas against each other on overlapping domains."""

from fractions import Fraction
from math import gcd

import pytest

from qalg.algebra import direct_product, matrix_algebra, quaternions, upper_triangular
from qalg.edbounds import (
    CSADescriptor,
    EdBoundReport,
    Partition,
    bound_csa,
    bound_division,
    bound_from_wedderburn,
    bound_matrix_over_simple,
    bundle_moduli_ed,
    ckm_value,
    enumerate_partitions,
    is_prime,
    karpenko_value,
    nil_stack_dim,
    partition_square_sum_check,
    prime_factors,
    severi_brauer_dim,
    trdeg_bound_indecomposable,
    trdeg_bound_nonsimple,
    vb_field_of_moduli_defect_bound,
    vp,
)
from qalg.errors import NotDivisorError, RankNotRealizableError, UnknownIndexError
from qalg.structure import wedderburn_decomposition


def rationals_report():
    return wedderburn_decomposition(matrix_algebra(1))


class TestPrimeHelpers:
    def test_is_prime_small_values(self):
        primes = [2, 3, 5, 7, 11, 13]
        for n in range(-2, 15):
            assert is_prime(n) == (n in primes)

    def test_prime_factors(self):
        assert prime_factors(12) == (2, 3)
        assert prime_factors(1) == ()
        assert prime_factors(97) == (97,)

    def test_trial_division_agrees_with_a_sieve(self):
        bound = 5000
        sieve = [False, False] + [True] * (bound - 2)
        for p in range(2, bound):
            if sieve[p]:
                for m in range(p * p, bound, p):
                    sieve[m] = False
        primes = [p for p in range(bound) if sieve[p]]
        for n in range(-3, bound):
            assert is_prime(n) == (n >= 0 and sieve[n])
        for n in range(1, bound):
            assert prime_factors(n) == tuple(p for p in primes if n % p == 0)

    def test_vp_examples(self):
        assert vp(2, 8) == 3
        assert vp(3, 8) == 0
        assert vp(2, 12) == 2

    def test_vp_rejects_bad_input(self):
        with pytest.raises(ValueError):
            vp(4, 8)
        with pytest.raises(ValueError):
            vp(2, 0)


class TestReportAndDescriptorTypes:
    def test_report_kinds_are_validated(self):
        with pytest.raises(ValueError):
            EdBoundReport(value=Fraction(1), kind="tight", formula="x")

    def test_value_none_means_minus_infinity(self):
        with pytest.raises(ValueError):
            EdBoundReport(value=None, kind="upper", formula="x")
        with pytest.raises(ValueError):
            EdBoundReport(value=Fraction(0), kind="minus_infinity", formula="x")
        ok = EdBoundReport(value=None, kind="minus_infinity", formula="x")
        assert ok.value is None

    def test_report_json_shape(self):
        r = EdBoundReport(value=Fraction(1, 2), kind="upper", formula="f", assumptions=("a",))
        assert r.to_json_dict() == {
            "value": "1/2",
            "kind": "upper",
            "formula": "f",
            "assumptions": ["a"],
        }
        none_json = EdBoundReport(value=None, kind="minus_infinity", formula="f").to_json_dict()
        assert none_json["value"] is None

    def test_csa_descriptor_invariants(self):
        d = CSADescriptor(degree=6, index=2)
        assert (d.degree, d.index) == (6, 2)
        assert CSADescriptor(degree=6).index is None
        with pytest.raises(ValueError):
            CSADescriptor(degree=0)
        with pytest.raises(ValueError):
            CSADescriptor(degree=6, index=4)
        with pytest.raises(ValueError):
            CSADescriptor(degree=6, index=0)

    def test_partition_invariants(self):
        p = Partition((3, 1, 1))
        assert p.total() == 5
        assert p.square_sum() == 11
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))


class TestSeveriBrauer:
    def test_examples(self):
        assert severi_brauer_dim(CSADescriptor(2), Fraction(1, 2)) == 1
        assert severi_brauer_dim(CSADescriptor(4), Fraction(1, 2)) == 4
        assert severi_brauer_dim(4, Fraction(1, 4)) == 3

    def test_unrealizable_rank(self):
        with pytest.raises(RankNotRealizableError):
            severi_brauer_dim(CSADescriptor(3), Fraction(1, 2))

    def test_rank_outside_open_interval(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError):
                severi_brauer_dim(CSADescriptor(2), bad)


class TestBoundCsa:
    def test_examples(self):
        r = bound_csa(CSADescriptor(2), Fraction(1, 2))
        assert (r.value, r.kind) == (1, "upper")
        r = bound_csa(CSADescriptor(6), Fraction(1, 6))
        assert (r.value, r.kind) == (5, "upper")

    def test_unrealizable_rank_is_minus_infinity(self):
        r = bound_csa(CSADescriptor(2), Fraction(1, 3))
        assert r.kind == "minus_infinity"
        assert r.value is None

    def test_plain_degree_argument(self):
        assert bound_csa(4, Fraction(1, 2)).value == 4

    def test_symmetry_in_r(self):
        # r(1-r) deg^2 is symmetric under r -> 1-r
        for deg in (4, 6, 12):
            for num in range(1, deg):
                a, b = Fraction(num, deg), Fraction(deg - num, deg)
                assert bound_csa(deg, a).value == bound_csa(deg, b).value


class TestBoundMatrixOverSimple:
    def test_examples(self):
        assert bound_matrix_over_simple(1, 1, Fraction(1)).value == 1
        assert bound_matrix_over_simple(2, 4, Fraction(1, 2)).value == 4
        assert bound_matrix_over_simple(1, 4, Fraction(1)).value == 4

    def test_kind_is_strict(self):
        assert bound_matrix_over_simple(2, 4, Fraction(1, 2)).kind == "strict_upper"

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            bound_matrix_over_simple(2, 4, Fraction(0))


class TestBoundDivision:
    def test_examples(self):
        assert bound_division(6, 6).value == 3
        assert bound_division(4, 2).value == 4
        assert bound_division(5, 1).value == 0

    def test_kind_upper(self):
        assert bound_division(6, 6).kind == "upper"

    def test_non_divisor_rejected(self):
        with pytest.raises(NotDivisorError):
            bound_division(6, 4)

    def test_two_prime_mixed_valuations(self):
        # degD = 12, d = 6: p=2 gives 2^{2*1}(2-1) = 4, p=3 gives 3^0(3-1) = 2
        assert bound_division(12, 6).value == 6

    def test_trivial_denominator_gives_zero(self):
        for deg in range(1, 20):
            assert bound_division(deg, 1).value == 0


class TestKarpenko:
    def test_examples(self):
        assert karpenko_value(2, 2, 2).value == 3
        assert karpenko_value(2, 2, 1).value == 4
        assert karpenko_value(3, 1, 1).value == 2

    def test_kind_exact_with_recorded_assumption(self):
        r = karpenko_value(2, 3, 2)
        assert r.kind == "exact"
        assert len(r.assumptions) >= 1

    def test_large_prime_is_not_factored_again(self):
        # p = 10^9 + 7: finding p again by trial division of p^2 would take
        # about p/2 steps (72 s on a 2-core x86 VM, against 4 ms).
        p = 1000000007
        assert karpenko_value(p, 2, 1).value == p * p * (p - 1)
        assert karpenko_value(p, 3, 3).value == p**3 - 1

    def test_range_violations(self):
        with pytest.raises(ValueError):
            karpenko_value(2, 2, 0)
        with pytest.raises(ValueError):
            karpenko_value(2, 2, 3)
        with pytest.raises(ValueError):
            karpenko_value(6, 2, 1)


class TestCkm:
    def test_examples(self):
        assert ckm_value(6).value == 3
        assert ckm_value(1).value == 0
        assert ckm_value(12).value == 5

    def test_kind_conjectural(self):
        r = ckm_value(6)
        assert r.kind == "conjectural_exact"
        assert len(r.assumptions) >= 1

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            ckm_value(0)


class TestBoundFromWedderburn:
    def test_single_split_factor(self):
        assert bound_from_wedderburn(rationals_report(), 1).value == 0

    def test_triangular_quotient_contributes_nothing(self):
        w = wedderburn_decomposition(upper_triangular(2))
        r = bound_from_wedderburn(w, 1)
        assert r.value == 0
        assert r.kind == "upper"

    def test_quaternions_with_asserted_index(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        r = bound_from_wedderburn(w, 2, asserted_indices=[2])
        assert r.value == 1
        assert any("assert" in s for s in r.assumptions)

    def test_quaternions_without_assertion(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        with pytest.raises(UnknownIndexError):
            bound_from_wedderburn(w, 2)

    def test_integral_rank_never_needs_the_index(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        assert bound_from_wedderburn(w, 1).value == 0

    def test_split_factor_with_fractional_rank_is_empty(self):
        # rank 1/2 over a product of base fields: no such module exists
        w = wedderburn_decomposition(
            direct_product([matrix_algebra(1), matrix_algebra(1)])
        )
        r = bound_from_wedderburn(w, 2)
        assert r.kind == "minus_infinity"
        assert r.value is None

    def test_certified_size_conflicts_with_assertion(self):
        w = wedderburn_decomposition(matrix_algebra(2))
        with pytest.raises(ValueError):
            bound_from_wedderburn(w, 2, asserted_indices=[2])

    def test_asserted_index_must_divide_degree(self):
        w = wedderburn_decomposition(quaternions(-1, -1))
        with pytest.raises(ValueError):
            bound_from_wedderburn(w, 2, asserted_indices=[3])

    def test_matching_assertion_is_accepted(self):
        w = wedderburn_decomposition(matrix_algebra(2))
        r = bound_from_wedderburn(w, 2, asserted_indices=[1])
        assert r.value == 0

    def test_split_monotone_in_d(self):
        w = wedderburn_decomposition(matrix_algebra(2))
        assert bound_from_wedderburn(w, 1).value == 0
        assert bound_from_wedderburn(w, 2).value == 0

    def test_explicit_rank_records_extrapolation(self):
        w = wedderburn_decomposition(matrix_algebra(2))
        r = bound_from_wedderburn(w, 1, r=Fraction(3, 2))
        assert any("rank" in s for s in r.assumptions)

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            bound_from_wedderburn(rationals_report(), 0)

    def test_mixed_product_sums_contributions(self):
        # Mat_2 factor contributes bound_division(1,1) = 0 at d = 2; the
        # split line factor makes rank 1/2 unrealizable -> minus infinity
        w = wedderburn_decomposition(
            direct_product([matrix_algebra(1), matrix_algebra(2)])
        )
        r = bound_from_wedderburn(w, 2)
        assert r.kind == "minus_infinity"


class TestDefectAndStackFormulas:
    def test_defect_bound_examples(self):
        assert vb_field_of_moduli_defect_bound(1).value == 0
        assert vb_field_of_moduli_defect_bound(2).value == 1
        assert vb_field_of_moduli_defect_bound(7).value == 6
        assert vb_field_of_moduli_defect_bound(3).kind == "upper"
        with pytest.raises(ValueError):
            vb_field_of_moduli_defect_bound(0)

    def test_nil_stack_dim_examples(self):
        assert nil_stack_dim(1, Partition((3, 2))) == 0
        assert nil_stack_dim(2, Partition((2, 1))) == 5
        assert nil_stack_dim(0, Partition((1,))) == -1

    def test_trdeg_indecomposable_examples(self):
        for r in (1, 2, 5):
            assert trdeg_bound_indecomposable(1, Partition((r,))).value == 1
        assert trdeg_bound_indecomposable(2, Partition((1, 1))).value == 3
        assert trdeg_bound_indecomposable(3, Partition((2,))).value == 9
        assert trdeg_bound_indecomposable(2, Partition((1, 1))).kind == "upper"

    def test_trdeg_nonsimple_examples(self):
        assert trdeg_bound_nonsimple(2, 2).value == 4
        assert trdeg_bound_nonsimple(2, 3).value == 8
        assert trdeg_bound_nonsimple(3, 2).value == 6
        assert trdeg_bound_nonsimple(2, 2).kind == "upper"

    def test_trdeg_nonsimple_range(self):
        with pytest.raises(ValueError):
            trdeg_bound_nonsimple(1, 2)
        with pytest.raises(ValueError):
            trdeg_bound_nonsimple(2, 1)


class TestPartitionEnumeration:
    def test_counts_match_partition_numbers(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for n, count in expected.items():
            parts = list(enumerate_partitions(n))
            assert len(parts) == count
            assert len(set(parts)) == count

    def test_each_partition_is_valid(self):
        for p in enumerate_partitions(7):
            assert sum(p) == 7
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            assert all(x >= 1 for x in p)

    def test_square_sum_check_examples(self):
        c = partition_square_sum_check(2)
        assert (c.max_square_sum, c.predicted, c.witness.parts, c.attained) == (2, 2, (1, 1), True)
        c = partition_square_sum_check(3)
        assert (c.max_square_sum, c.witness.parts) == (5, (2, 1))
        c = partition_square_sum_check(5)
        assert (c.max_square_sum, c.predicted, c.witness.parts) == (17, 17, (4, 1))

    def test_square_sum_check_range(self):
        for r in range(2, 15):
            c = partition_square_sum_check(r)
            assert c.max_square_sum <= c.predicted
            assert c.attained
            assert c.witness.total() == r
            assert len(c.witness.parts) >= 2


class TestBundleModuli:
    def test_genus_zero(self):
        r = bundle_moduli_ed(0, 5, 3)
        assert (r.value, r.kind) == (0, "exact")

    def test_genus_one(self):
        r = bundle_moduli_ed(1, 4, 0)
        assert (r.value, r.kind) == (4, "exact")

    def test_genus_two_square(self):
        r = bundle_moduli_ed(2, 2, 0)
        assert (r.value, r.kind) == (6, "upper")

    def test_higher_rank_examples(self):
        assert bundle_moduli_ed(2, 3, 0).value == 12
        assert bundle_moduli_ed(2, 3, 1).value == 10

    def test_coprime_degree_needs_no_prime_sum(self):
        for g in (2, 3, 4):
            for r in (2, 3, 5):
                for d in range(1, r + 1):
                    if gcd(r, d) == 1:
                        assert bundle_moduli_ed(g, r, d).value == (g - 1) * r * r + 1

    def test_degree_sign_is_ignored(self):
        assert bundle_moduli_ed(2, 2, -4).value == bundle_moduli_ed(2, 2, 4).value == 6

    def test_ckm_assumption_upgrades_kind(self):
        plain = bundle_moduli_ed(2, 2, 0)
        assumed = bundle_moduli_ed(2, 2, 0, assume_ckm=True)
        assert plain.kind == "upper"
        assert assumed.kind == "exact"
        assert assumed.value == plain.value
        assert len(assumed.assumptions) > len(plain.assumptions)

    def test_genus_zero_and_one_stay_exact_under_ckm_flag(self):
        assert bundle_moduli_ed(0, 2, 0, assume_ckm=True).kind == "exact"
        assert bundle_moduli_ed(1, 2, 0, assume_ckm=True).kind == "exact"

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            bundle_moduli_ed(2, 0, 0)


class TestCrossFormulaConsistency:
    def test_karpenko_matches_division_bound_on_prime_powers(self):
        for p in (2, 3, 5):
            for n in range(1, 5):
                for m in range(1, n + 1):
                    assert karpenko_value(p, n, m).value == bound_division(p**n, p**m).value

    def test_ckm_matches_division_bound_at_full_degree(self):
        for deg in range(1, 61):
            assert ckm_value(deg).value == bound_division(deg, deg).value

    def test_trdeg_chain_inequality(self):
        for g in range(2, 13):
            for r in range(2, 13):
                lhs = trdeg_bound_nonsimple(g, r).value + (r - 1)
                assert lhs <= (g - 1) * r * r + 1

    def test_determinism(self):
        assert bundle_moduli_ed(2, 6, 4) == bundle_moduli_ed(2, 6, 4)
        assert bound_division(36, 6) == bound_division(36, 6)
