"""Tests for dense rational polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from qalg.poly import Poly

X = Poly.x()


def random_poly(rng, max_deg=5, span=4):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(deg + 1)]
    return Poly(coeffs)


class TestBasics:
    def test_trailing_zeros_are_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]) == Poly([])
        assert Poly([]).is_zero()

    def test_degree_convention(self):
        assert Poly([]).degree() == -1
        assert Poly([5]).degree() == 0
        assert (X * X).degree() == 2

    def test_constant_and_x(self):
        assert Poly.constant(3) == Poly([3])
        assert X == Poly([0, 1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    def test_leading_coefficient_and_monic(self):
        p = Poly([1, 0, 2])
        assert p.leading_coefficient() == 2
        assert p.monic() == Poly([Fraction(1, 2), 0, 1])
        assert p.monic().leading_coefficient() == 1
        assert Poly([]).monic().is_zero()

    def test_str_rendering(self):
        assert str(Poly([])) == "0"
        assert str(X) == "x"
        assert str(Poly([-2, 0, 1])) == "x^2 - 2"


class TestArithmetic:
    def test_ring_identities_on_random_inputs(self):
        rng = random.Random(0)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a - a == Poly([])
            assert -a == Poly([]) - a

    def test_non_poly_operand_is_not_implemented(self):
        # Each operator returns NotImplemented, so Python raises TypeError
        # instead of an AttributeError from inside the method.
        for op in ("__add__", "__sub__", "__mul__", "__floordiv__", "__mod__"):
            assert getattr(X, op)(1) is NotImplemented
        with pytest.raises(TypeError):
            X + 1
        with pytest.raises(TypeError):
            X - 1
        with pytest.raises(TypeError):
            X // 1
        with pytest.raises(TypeError):
            X % 1

    def test_multiplication_degree_adds(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b = random_poly(rng), random_poly(rng)
            if a.is_zero() or b.is_zero():
                assert (a * b).is_zero()
            else:
                assert (a * b).degree() == a.degree() + b.degree()

    def test_scale(self):
        p = Poly([1, 2])
        assert p.scale(3) == Poly([3, 6])
        assert p.scale(0).is_zero()

    def test_derivative_rules(self):
        rng = random.Random(3)
        assert X.derivative() == Poly([1])
        assert Poly([7]).derivative().is_zero()
        for _ in range(25):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
            assert (a + b).derivative() == a.derivative() + b.derivative()


class TestDivision:
    def test_divmod_examples(self):
        q, r = (X * X - Poly([1])).divmod(X - Poly([1]))
        assert q == X + Poly([1])
        assert r.is_zero()

    def test_divmod_contract_on_random_inputs(self):
        rng = random.Random(4)
        for _ in range(50):
            a = random_poly(rng, max_deg=6)
            b = random_poly(rng, max_deg=3)
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a.divmod(b)
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree() < b.degree()

    def test_floordiv_and_mod_are_the_pieces(self):
        a = Poly([1, 0, 0, 1])  # x^3 + 1
        b = Poly([1, 1])  # x + 1
        assert (a // b) * b + (a % b) == a
        assert (a % b).is_zero()


class TestGcd:
    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = random_poly(rng, max_deg=4), random_poly(rng, max_deg=4)
            g = a.gcd(b)
            if a.is_zero() and b.is_zero():
                assert g.is_zero()
                continue
            assert g.leading_coefficient() == 1
            assert (a % g).is_zero() if not a.is_zero() else True
            assert (b % g).is_zero() if not b.is_zero() else True

    def test_gcd_of_known_product(self):
        common = X - Poly([2])
        a = common * (X + Poly([1]))
        b = common * (X + Poly([3]))
        assert a.gcd(b) == common

    def test_extended_gcd_bezout_identity(self):
        rng = random.Random(6)
        for _ in range(40):
            a, b = random_poly(rng, max_deg=4), random_poly(rng, max_deg=4)
            if a.is_zero() and b.is_zero():
                continue
            g, s, t = a.extended_gcd(b)
            assert s * a + t * b == g
            assert g == a.gcd(b)

    def test_lcm_times_gcd(self):
        # lcm(a, b) = (a * b // gcd(a, b)).monic(), the one-liner that replaced
        # Poly.lcm: a monic common multiple whose product with the gcd is a * b.
        rng = random.Random(7)
        for _ in range(30):
            a, b = random_poly(rng, max_deg=4), random_poly(rng, max_deg=4)
            if a.is_zero() or b.is_zero():
                continue
            g = a.gcd(b)
            m = (a * b // g).monic()
            assert m.leading_coefficient() == 1
            assert (m % a.monic()).is_zero() and (m % b.monic()).is_zero()
            assert (g * m).monic() == (a * b).monic()


class TestOrdering:
    def test_sort_key_orders_by_degree_then_coefficients(self):
        items = [X * X, X, Poly([1, 1]), Poly([2])]
        ordered = sorted(items, key=lambda p: p.sort_key())
        assert ordered[0] == Poly([2])
        assert ordered[-1] == X * X
        assert ordered[1:3] == [X, Poly([1, 1])]

    def test_hash_consistency(self):
        assert hash(Poly([1, 2, 0])) == hash(Poly([1, 2]))
        assert len({X, Poly([0, 1]), X * X}) == 2
