"""Property tests for the factorizer on drawn polynomials: factor_rational and
factor_mod_p against sympy, the constant first element of Berlekamp's
kernel, and the contract of the modular division. The examples are
derandomized and no example database is written, so the run is the same each
time."""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings, strategies as st

from qalg import polyfactor
from qalg.errors import BadPrimeError
from qalg.poly import Poly
from qalg.polyfactor import (
    _gf_divmod,
    _modular_factors,
    _z_add,
    _z_mod,
    _z_mul,
    _z_sub,
    _z_trim,
    factor_mod_p,
    factor_rational,
)

from test_polyfactor import sympy_factorization

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
PRIMES = st.sampled_from([3, 5, 7, 11])
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
NONZERO = RATIONALS.filter(bool)


def polys(min_degree, max_degree):
    """Rational polynomials of degree min_degree to max_degree."""
    low = st.integers(min_degree, max_degree).flatmap(lambda d: st.lists(RATIONALS, min_size=d, max_size=d))
    return st.builds(lambda cs, lead: Poly(cs + [lead]), low, NONZERO)


def _power_product(c, fms):
    out = Poly([c])
    for f, m in fms:
        for _ in range(m):
            out = out * f
    return out


# A nonzero constant times 1 to 3 factors of degree 1 to 4, each with
# multiplicity 1 to 3.
PRODUCTS = st.builds(
    _power_product, NONZERO, st.lists(st.tuples(polys(1, 4), st.integers(1, 3)), min_size=1, max_size=3)
)


def _int_coeffs(p: Poly) -> list[int]:
    """p times the lcm of its denominators, as integers lowest degree first."""
    d = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * d) for c in p.coeffs]


def _sympy_mod(coeffs: list[int], q: int):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=q)


@PROPERTY
@given(PRODUCTS)
def test_factor_rational_equals_sympy(p):
    out = factor_rational(p)
    assert (out.content, dict(out.factors)) == sympy_factorization(p)


@PROPERTY
@given(polys(0, 8), PRIMES)
def test_factor_mod_p_equals_sympy(p, q):
    ints = _int_coeffs(p)
    try:
        got = factor_mod_p(p, q)
    except BadPrimeError:
        # A denominator or the leading coefficient vanishes mod q, or p is not
        # squarefree mod q.
        bad_denominator = any(c.denominator % q == 0 for c in p.coeffs)
        assert bad_denominator or ints[-1] % q == 0 or not _sympy_mod(ints, q).is_sqf
        return
    # Scaling by the lcm of the denominators, a unit mod q, leaves the monic
    # factors as they are.
    _, factors = _sympy_mod(ints, q).factor_list()
    assert all(m == 1 for _, m in factors)
    expected = sorted(
        (Poly([int(c) % q for c in reversed(f.all_coeffs())]) for f, _ in factors), key=Poly.sort_key
    )
    assert got == expected


@PROPERTY
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8), PRIMES)
def test_berlekamp_kernel_starts_with_the_constant_one(low, q):
    gf_kernel, kernels = polyfactor._gf_kernel, []

    def recording(m, p):
        kernels.append(gf_kernel(m, p))
        return kernels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyfactor, "_gf_kernel", recording)
        assume(_modular_factors(low + [1], q) is not None)
    (kern,) = kernels
    assert kern[0] == [1] + [0] * (len(low) - 1)


@PROPERTY
@given(
    st.lists(st.integers(-100, 100), max_size=9).map(_z_trim),
    st.lists(st.integers(-100, 100), max_size=5),
    st.integers(1, 10),
    PRIMES,
)
def test_gf_divmod_contract(a, low, lead, q):
    assume(lead % q)
    b = low + [lead]
    quo, rem = _gf_divmod(a, b, q)
    assert len(rem) < len(b)
    assert all(0 <= c < q for c in quo + rem)
    assert (not quo or quo[-1]) and (not rem or rem[-1])
    assert _z_mod(_z_sub(a, _z_add(_z_mul(quo, b), rem)), q) == []
