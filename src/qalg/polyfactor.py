"""Factorization of rational polynomials.

Pipeline: the squarefree part f / gcd(f, f') by one gcd over the rationals,
one modular step shared with factor_mod_p (Berlekamp modulo the least odd
prime that keeps it squarefree), quadratic Hensel lifting past the Mignotte
bound, subset recombination, and multiplicities counted by division. Every
step is deterministic: primes are tried in increasing order, Berlekamp splits
every factor by the shifts c = 0, ..., p-1 of each non-constant kernel vector
in one loop, and factor lists are sorted by degree then coefficients.

The package's integer factoring lives here too: one trial division,
_least_factor, serves is_prime, prime_factors and vp.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from ._record import record
from .errors import BadPrimeError, InternalError
from .poly import Poly, _integer


@record
class Factorization:
    """content * product(poly**mult) reproduces the input exactly."""

    content: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly([self.content])
        for f, m in self.factors:
            for _ in range(m):
                out = out * f
        return out


# ---------------------------------------------------------------------------
# Polynomials as lists of ints, lowest degree first, no trailing zeros. Over
# GF(p) the coefficients lie in [0, p): a sum or product there is the integer
# one reduced with _z_mod.


def _z_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _z_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _z_trim(out)


def _z_sub(a: list[int], b: list[int]) -> list[int]:
    return _z_add(a, [-c for c in b])


def _z_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _z_trim(out)


def _z_mod(a: list[int], m: int) -> list[int]:
    return _z_trim([c % m for c in a])


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p of any integer polynomial a, with every
    coefficient in [0, p), where b's leading coefficient is a unit."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], _z_mod(rem, p)
    inv = pow(b[-1], -1, p)
    quo = [0] * (da - db + 1)
    # No step is skipped for c = 0: the steps reduce every coefficient of a.
    for k in range(da - db, -1, -1):
        c = (rem[k + db] * inv) % p
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
    return _z_trim(quo), _z_trim(rem)


def _gf_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_extgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g over GF(p), g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _z_mod(_z_sub(s0, _z_mul(q, s1)), p)
        t0, t1 = t1, _z_mod(_z_sub(t0, _z_mul(q, t1)), p)
    inv = pow(r0[-1], -1, p)
    scale = lambda v: [(c * inv) % p for c in v]
    return scale(r0), scale(s0), scale(t0)


def _gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    cur = _gf_divmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = _gf_divmod(_z_mul(result, cur), mod, p)[1]
        cur = _gf_divmod(_z_mul(cur, cur), mod, p)[1]
        e >>= 1
    return result


def _gf_kernel(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : m x = 0 mod p} for a square matrix of ints."""
    n = len(m)
    rows = [list(r) for r in m]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        sel = None
        for i in range(r, n):
            if rows[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = 1
        for r_idx, piv in enumerate(pivots):
            v[piv] = (-rows[r_idx][f]) % p
        basis.append(v)
    return basis


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    n = len(f) - 1
    xp = _gf_pow_mod([0, 1], p, f, p)
    rows = []
    cur = [1]
    for i in range(n):
        if i > 0:
            cur = _gf_divmod(_z_mul(cur, xp), f, p)[1]
        rows.append(list(cur) + [0] * (n - len(cur)))
    # Frobenius-fixed subalgebra: row vectors v with v Q = v, found as the
    # null space of (Q - I) transposed.
    mt = [[(rows[i][j] - (1 if i == j else 0)) % p for i in range(n)] for j in range(n)]
    kern = _gf_kernel(mt, p)
    r = len(kern)
    if r < 1:
        raise InternalError("Berlekamp kernel is empty")
    # kern[0] is the constant 1: row 0 of Q is x^0, so column 0 of (Q - I)
    # transposed is zero and is the first free column. Its shifts split nothing.
    factors = [f]
    for g, c in product(kern[1:], range(p)):
        if len(factors) == r:
            break
        shifted = _z_mod(_z_sub(g, [c]), p)
        nxt = []
        for u in factors:
            # A linear factor is irreducible: skip its gcd.
            d = _gf_gcd(u, shifted, p) if len(u) > 2 else u
            if 0 < len(d) - 1 < len(u) - 1:
                nxt += [d, _gf_divmod(u, d, p)[0]]
            else:
                nxt.append(u)
        factors = nxt
    if len(factors) != r:
        raise InternalError("Berlekamp splitting found fewer factors than the kernel dimension")
    return [_gf_monic(u, p) for u in factors]


def _modular_factors(f: list[int], p: int) -> list[list[int]] | None:
    """Monic irreducible factors mod p of a nonconstant integer polynomial f
    whose leading coefficient p does not divide, sorted by degree then
    coefficients; None when f is not squarefree mod p."""
    g = _gf_monic(_z_mod(f, p), p)
    if len(_gf_gcd(g, _z_trim([(i * c) % p for i, c in enumerate(g)][1:]), p)) != 1:
        return None
    return sorted(_berlekamp(g, p), key=lambda u: (len(u), u))


def _least_factor(n: int) -> int:
    """Least divisor d >= 2 of an integer n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    n = _integer(n)
    return n >= 2 and _least_factor(n) == n


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors in increasing order."""
    n = _integer(n, 1, "n must be a positive integer")
    out = []
    while n > 1:
        p = _least_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return tuple(out)


def vp(p: int, n: int) -> int:
    """p-adic valuation of a positive integer."""
    p = _integer(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = _integer(n, 1, "valuation is defined for positive integers")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _odd_primes():
    q = 3
    while True:
        if is_prime(q):
            yield q
        q += 2


def factor_mod_p(p: Poly, prime: int) -> list[Poly]:
    """Monic irreducible factors of p over the field with `prime` elements.

    Raises BadPrimeError when the prime divides the leading coefficient or a
    coefficient denominator, or when p is not squarefree mod prime. The
    caller is expected to retry with the next prime.
    """
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    red: list[int] = []
    for c in p.coeffs:
        if c.denominator % prime == 0:
            raise BadPrimeError(f"denominator {c.denominator} vanishes mod {prime}")
        red.append((c.numerator * pow(c.denominator, -1, prime)) % prime)
    if red[-1] == 0:
        raise BadPrimeError(f"leading coefficient vanishes mod {prime}")
    if p.degree() == 0:
        return []
    factors = _modular_factors(red, prime)
    if factors is None:
        raise BadPrimeError(f"not squarefree mod {prime}")
    return [Poly(u) for u in factors]


# ---------------------------------------------------------------------------
# Integer polynomial division, Hensel lifting and recombination.


def _z_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact integer quotient and remainder by a monic divisor."""
    if not b or b[-1] != 1:
        raise InternalError("divisor is not monic")
    rem = list(a)
    db, da = len(b) - 1, len(a) - 1
    quo = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        quo[k] = c
        if c:
            for i, y in enumerate(b):
                rem[k + i] -= c * y
    return _z_trim(quo), _z_trim(rem)


def _symmetric(a: list[int], m: int) -> list[int]:
    out = []
    for c in a:
        c %= m
        if c > m // 2:
            c -= m
        out.append(c)
    return _z_trim(out)


def _product_mod(fs: list[list[int]], m: int) -> list[int]:
    out = [1]
    for u in fs:
        out = _z_mod(_z_mul(out, u), m)
    return out


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g h and s g + t h = 1 (mod m) to the same
    congruences mod m*m. All polynomials monic where required, coefficients
    kept reduced mod m*m."""
    m2 = m * m
    e = _z_mod(_z_sub(f, _z_mul(g, h)), m2)
    q, r = _gf_divmod(_z_mul(s, e), h, m2)
    g1 = _z_mod(_z_add(g, _z_add(_z_mul(t, e), _z_mul(q, g))), m2)
    h1 = _z_mod(_z_add(h, r), m2)
    b = _z_mod(_z_sub(_z_add(_z_mul(s, g1), _z_mul(t, h1)), [1]), m2)
    c, d = _gf_divmod(_z_mul(s, b), h1, m2)
    s1 = _z_mod(_z_sub(s, d), m2)
    t1 = _z_mod(_z_sub(t, _z_add(_z_mul(t, b), _z_mul(c, g1))), m2)
    if not (g1 and g1[-1] % m2 == 1 and h1 and h1[-1] % m2 == 1) or _z_mod(_z_sub(f, _z_mul(g1, h1)), m2):
        raise InternalError("Hensel step does not lift to monic factors")
    return g1, h1, s1, t1, m2


def _hensel_lift_list(f: list[int], fs: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift the mod-p factors fs of the monic integer polynomial f to factors
    mod `target` (a power of p with power-of-two exponent), recursively on a
    balanced factor tree."""
    if len(fs) == 1:
        return [_z_mod(f, target)]
    k = len(fs) // 2
    g = _product_mod(fs[:k], p)
    h = _product_mod(fs[k:], p)
    one, s, t = _gf_extgcd(g, h, p)
    if one != [1]:
        raise InternalError("modular factors are not coprime")
    m = p
    while m < target:
        g, h, s, t, m = _hensel_step(_z_mod(f, m * m), g, h, s, t, m)
    g, h = _z_mod(g, target), _z_mod(h, target)
    return _hensel_lift_list(g, fs[:k], p, target) + _hensel_lift_list(h, fs[k:], p, target)


def _factor_squarefree_monic(s: Poly) -> list[Poly]:
    """Monic irreducible rational factors of a monic squarefree polynomial."""
    # Clear denominators, then apply the monic transform T(x) = l^(n-1) S(x/l)
    # so Hensel lifting and recombination run entirely with monic integers.
    denom_lcm = lcm(*(c.denominator for c in s.coeffs))
    ints = [int(c * denom_lcm) for c in s.coeffs]
    ell = ints[-1]
    n = len(ints) - 1
    t_poly = [ints[k] * ell ** (n - 1 - k) for k in range(n)] + [1]

    # Only finitely many primes divide the discriminant, so the search ends.
    for prime in _odd_primes():
        modular = _modular_factors(t_poly, prime)
        if modular is not None:
            break

    # Mignotte-style bound: any monic integer factor of T has coefficients of
    # absolute value at most 2^n * ||T||_2.
    norm2 = isqrt(sum(c * c for c in t_poly)) + 1
    bound = 2 * (1 << n) * norm2
    target = prime
    while target <= 2 * bound:
        target *= target
    lifted = _hensel_lift_list(t_poly, modular, prime, target)

    t_remaining = list(t_poly)
    found_t: list[list[int]] = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = _symmetric(_product_mod([lifted[i] for i in subset], target), target)
            quo, rem = _z_divmod_monic(t_remaining, cand)
            if not rem:
                found_t.append(cand)
                t_remaining = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found_t.append(t_remaining)

    # Undo the monic transform: a factor g(x) of T corresponds to the monic
    # rational factor of s with coefficients g_k * l^(k - deg g).
    return [Poly([Fraction(c, ell ** (len(g) - 1 - k)) for k, c in enumerate(g)]) for g in found_t]


def factor_rational(p: Poly) -> Factorization:
    """Complete factorization over the rationals into monic irreducibles.

    The content times the product of factor powers reproduces p exactly.
    Factors are sorted by degree, then coefficient tuple.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    content = p.leading_coefficient()
    work = p.monic()
    pairs: list[tuple[Poly, int]] = []
    if work.degree() > 0:
        for irr in _factor_squarefree_monic(work // work.gcd(work.derivative())):
            mult = 0
            quo, rem = work.divmod(irr)
            while rem.is_zero():
                work = quo
                mult += 1
                quo, rem = work.divmod(irr)
            pairs.append((irr, mult))
    pairs.sort(key=lambda fm: fm[0].sort_key())
    result = Factorization(content=content, factors=tuple(pairs))
    if result.expand() != p:
        raise InternalError("factorization failed to reproduce the input")
    return result


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Parts in increasing multiplicity, each the product of p's irreducible
    factors of that multiplicity: monic, squarefree, pairwise coprime, and
    with multiplicities their product is p up to a nonzero scalar."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    parts: dict[int, Poly] = {}
    for f, mult in factor_rational(p).factors:
        parts[mult] = parts.get(mult, Poly([1])) * f
    return [(parts[mult], mult) for mult in sorted(parts)]
