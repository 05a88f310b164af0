"""Dense univariate polynomials over exact rationals.

These are the values the package hands back to users: Sheffer polynomials,
rows of the classical families, evaluated umbral expressions.  The class is
deliberately small; it only needs ring arithmetic, scalar mixing with
``Fraction`` (so a polynomial can sit inside a power-series coefficient),
exact evaluation, and a readable rendering.  A product is one convolution
of integer numerators over the two common denominators.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import factorial, format_rational, over_common_denominator

__all__ = ["Polynomial", "binomial_poly", "falling_factorial_poly"]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"polynomial coefficients must be rational, got {type(value).__name__}")


class Polynomial:
    """Immutable polynomial in one variable, coefficients lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __call__(self, value):
        result = Fraction(0)
        for c in reversed(self._coeffs):
            result = result * value + c
        return result

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            (self.coeff(i) + other.coeff(i) for i in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        a, da = over_common_denominator(self._coeffs)
        b, db = over_common_denominator(other._coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return Polynomial(Fraction(c, den) for c in out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return Polynomial(tuple(c / Fraction(scalar) for c in self._coeffs))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self._coeffs) if i))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self):
        return self.pretty()

    def pretty(self, var: str = "x") -> str:
        """Human-readable form like ``4x^2 - 1``; exact, never rounded."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                if mag == 1:
                    factor = ""
                elif mag.denominator == 1:
                    factor = format_rational(mag)
                else:
                    factor = f"({format_rational(mag)})"
                power = var if k == 1 else f"{var}^{k}"
                body = f"{factor}{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def binomial_poly(k: int) -> Polynomial:
    """binomial(x, k) as an exact degree-k polynomial in x."""
    return falling_factorial_poly(k) * Fraction(1, factorial(k))


def falling_factorial_poly(k: int) -> Polynomial:
    """x(x-1)...(x-k+1) as an exact polynomial in x."""
    if k < 0:
        raise ValueError(f"falling_factorial_poly undefined for k = {k} < 0")
    result = Polynomial((1,))
    x = Polynomial.x()
    for i in range(k):
        result = result * (x - i)
    return result
