"""Univariate polynomials over the rationals.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial is the empty coefficient tuple and has degree -1 by convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def rat(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are rejected.
    This is the package's one such coercion; qalg.linalg re-exports it."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass ints, strings, or Fractions")
    return Fraction(x)


class Poly:
    """Immutable rational polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly([c * a for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lc = Fraction(1) / other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] * inv_lc
            quo[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(Fraction(1) / self.coeffs[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (zero when both inputs are zero)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def extended_gcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, s, t) with s*self + t*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = Poly([1]), Poly()
        t0, t1 = Poly(), Poly([1])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return Poly(), s0, t0
        lc = r0.leading_coefficient()
        inv = Fraction(1) / lc
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def sort_key(self) -> tuple:
        """Deterministic ordering key: degree first, then coefficients."""
        return (self.degree(), self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(c) if c > 0 else str(-c)
            else:
                mag = abs(c)
                coef = "" if mag == 1 else f"{mag}*"
                body = f"{coef}x" if i == 1 else f"{coef}x^{i}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)
