"""Tests for rational polynomial factorization.

The main oracle is remultiplication: build products out of a pool of
polynomials whose irreducibility over the rationals was checked by hand
(rational root test for the cubics, explicit quadratic-split analysis for the
quartics), factor the product, and demand the exact input multiset back.
"""

import random
from fractions import Fraction

import pytest

from qalg.errors import BadPrimeError
from qalg.poly import Poly
from qalg.polyfactor import factor_mod_p, factor_rational, squarefree_decomposition

X = Poly.x()

# Each entry is irreducible over the rationals:
# - linear polynomials always are;
# - the quadratics have no rational root (discriminants -4, -8, 8, -3 are
#   not squares of rationals);
# - the cubics x^3 - 2 and x^3 + x + 1 have no rational root (+-1, +-2 fail),
#   and a rational cubic without a rational root is irreducible;
# - x^4 + 1: no rational root, and a split into monic quadratics forces
#   b + c = a^2, a(c - b) = 0, bc = 1 with no rational solution;
# - x^4 + x + 1: no rational root, and a quadratic split forces
#   p^6 - 4 p^2 q^4 = q^6 on a lowest-terms a = p/q, which has no solution.
IRREDUCIBLE_POOL = [
    X,
    X + Poly([1]),
    X - Poly([1]),
    X + Poly([2]),
    X - Poly([2]),
    Poly([1, 0, 1]),  # x^2 + 1
    Poly([2, 0, 1]),  # x^2 + 2
    Poly([-2, 0, 1]),  # x^2 - 2
    Poly([1, 1, 1]),  # x^2 + x + 1
    Poly([-2, 0, 0, 1]),  # x^3 - 2
    Poly([1, 1, 0, 1]),  # x^3 + x + 1
    Poly([1, 0, 0, 0, 1]),  # x^4 + 1
    Poly([1, 1, 0, 0, 1]),  # x^4 + x + 1
]


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class TestSquarefree:
    def test_pure_square(self):
        assert squarefree_decomposition(X * X) == [(X, 2)]

    def test_squarefree_input_passes_through(self):
        p = X * X - Poly([1])
        assert squarefree_decomposition(p) == [(p, 1)]

    def test_mixed_multiplicities(self):
        assert squarefree_decomposition(X * X * X - X * X) == [(X - Poly([1]), 1), (X, 2)]

    def test_parts_are_squarefree_and_coprime(self):
        rng = random.Random(0)
        for _ in range(25):
            factors = [rng.choice(IRREDUCIBLE_POOL[:6]) for _ in range(rng.randint(1, 3))]
            mults = [rng.randint(1, 3) for _ in factors]
            p = Poly([1])
            for f, m in zip(factors, mults):
                for _ in range(m):
                    p = p * f
            parts = squarefree_decomposition(p)
            rebuilt = Poly([1])
            for part, m in parts:
                assert part.gcd(part.derivative()).degree() == 0
                for _ in range(m):
                    rebuilt = rebuilt * part
            for i, (pi, mi) in enumerate(parts):
                for pj, mj in parts[i + 1 :]:
                    assert mi < mj
                    assert pi.gcd(pj).degree() == 0
            assert rebuilt == p.monic()


class TestFactorModP:
    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            factor_mod_p(X, 4)

    def test_bad_prime_rejected(self):
        # x^2 + 1 is not squarefree mod 2 ((x+1)^2), so 2 is a bad choice
        with pytest.raises(BadPrimeError):
            factor_mod_p(Poly([1, 0, 1]), 2)
        # leading coefficient divisible by the prime
        with pytest.raises(BadPrimeError):
            factor_mod_p(Poly([1, 0, 3]), 3)

    def test_irreducible_stays_whole(self):
        assert factor_mod_p(Poly([1, 0, 1]), 3) == [Poly([1, 0, 1])]

    def test_splits_into_sorted_monic_factors(self):
        assert factor_mod_p(X * X - Poly([1]), 3) == [X + Poly([1]), X + Poly([2])]

    def test_product_reproduces_input_mod_p(self):
        rng = random.Random(1)
        for prime in (3, 5, 7):
            for _ in range(15):
                coeffs = [rng.randint(0, prime - 1) for _ in range(rng.randint(1, 5))] + [1]
                f = Poly(coeffs)
                if f.gcd(f.derivative()).degree() != 0:
                    continue  # keep inputs squarefree so the prime is valid
                try:
                    parts = factor_mod_p(f, prime)
                except BadPrimeError:
                    continue
                prod = Poly([1])
                for part in parts:
                    assert part.leading_coefficient() == 1
                    prod = prod * part
                diff = prod - f
                assert all(c.denominator == 1 and c.numerator % prime == 0 for c in diff.coeffs)


class TestFactorRational:
    def test_difference_of_squares(self):
        out = factor_rational(X * X - Poly([1]))
        assert out.content == 1
        assert out.factors == ((X - Poly([1]), 1), (X + Poly([1]), 1))

    def test_irreducible_quadratic(self):
        out = factor_rational(Poly([1, 0, 1]))
        assert out.factors == ((Poly([1, 0, 1]), 1),)

    def test_sophie_germain_quartic(self):
        # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        out = factor_rational(Poly([4, 0, 0, 0, 1]))
        assert out.content == 1
        assert out.factors == ((Poly([2, -2, 1], ), 1), (Poly([2, 2, 1]), 1))

    def test_constant_goes_to_content(self):
        out = factor_rational(Poly([6]))
        assert out.content == 6 and out.factors == ()

    def test_negative_leading_coefficient(self):
        out = factor_rational(Poly([-1]) * (X * X - Poly([1])))
        assert out.content == -1
        assert out.factors == ((X - Poly([1]), 1), (X + Poly([1]), 1))

    def test_rational_content_extracted(self):
        out = factor_rational((X + Poly([1])).scale(Fraction(3, 2)))
        assert out.content == Fraction(3, 2)
        assert out.factors == ((X + Poly([1]), 1),)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_rational(Poly([]))

    def test_pool_members_are_reported_irreducible(self):
        for p in IRREDUCIBLE_POOL:
            out = factor_rational(p)
            assert out.factors == ((p.monic(), 1),), f"{p} did not come back irreducible"

    def test_remultiplication_on_pool_products(self):
        rng = random.Random(2)
        for _ in range(60):
            chosen = rng.sample(range(len(IRREDUCIBLE_POOL)), rng.randint(1, 3))
            expected = {}
            p = Poly([Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))])
            for idx in chosen:
                mult = rng.randint(1, 2)
                f = IRREDUCIBLE_POOL[idx]
                expected[f.monic()] = mult
                for _ in range(mult):
                    p = p * f
            out = factor_rational(p)
            assert out.expand() == p
            assert dict(out.factors) == expected

    def test_factors_are_sorted_and_monic(self):
        rng = random.Random(3)
        for _ in range(20):
            chosen = rng.sample(IRREDUCIBLE_POOL, rng.randint(2, 4))
            p = Poly([1])
            for f in chosen:
                p = p * f
            out = factor_rational(p)
            keys = [f.sort_key() for f, _ in out.factors]
            assert keys == sorted(keys)
            assert all(f.leading_coefficient() == 1 for f, _ in out.factors)

    def test_reported_factors_refactor_to_themselves(self):
        p = Poly([1])
        for f in IRREDUCIBLE_POOL[5:]:
            p = p * f
        for f, _ in factor_rational(p).factors:
            again = factor_rational(f)
            assert again.factors == ((f, 1),)

    def test_cyclotomic_style_counts(self):
        # x^n - 1 factors into as many irreducibles over Q as n has divisors
        for n in range(1, 13):
            p = Poly([-1] + [0] * (n - 1) + [1])
            out = factor_rational(p)
            assert sum(m for _, m in out.factors) == divisor_count(n)
            assert out.expand() == p

    def test_high_multiplicity(self):
        p = (X + Poly([1])) * (X + Poly([1])) * (X + Poly([1])) * Poly([1, 0, 1])
        out = factor_rational(p)
        assert out.factors == ((X + Poly([1]), 3), (Poly([1, 0, 1]), 1))
