"""Dense univariate polynomials over exact rationals.

These are the values the package hands back to users: Sheffer polynomials,
rows of the classical families, evaluated umbral expressions.  The class is
deliberately small; it only needs ring arithmetic, scalar mixing with
``Fraction`` (so a polynomial can sit inside a power-series coefficient),
exact evaluation, and a readable rendering.

A polynomial is a ``rationals.RationalVector`` (the canonical form is
described there) whose last numerator is nonzero; arithmetic runs on the
numerators, ``coeffs`` returns the ``Fraction``s, ``pretty`` writes the
numerators without building them, and a polynomial also compares equal to
the scalar of a constant polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .rationals import RationalVector, exact, factorial, format_numerators

__all__ = ["Polynomial", "binomial_poly", "falling_factorial_poly", "integer_product"]


class Polynomial(RationalVector):
    """Immutable polynomial in one variable, coefficients lowest degree first;
    ``Polynomial(coeffs, denominator)`` has coeffs[i] / denominator (ints or ``Fraction``s)."""

    __slots__ = ()

    def __init__(self, coeffs=(), denominator: int = 1):
        super().__init__(coeffs, denominator)

    def _adopt(self, num: tuple, den: int):
        top = len(num)
        while top and not num[top - 1]:
            top -= 1
        self._num, self._den = num[:top], den

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    coeffs = RationalVector._values

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._num

    def __call__(self, value):
        """The value at an exact rational, or the composition with a polynomial."""
        if not isinstance(value, Polynomial):
            value = exact(value)
        result = 0
        for c in reversed(self._num):
            result = result * value + c
        return result / Fraction(self._den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        da, db = self._den, other._den
        pairs = zip_longest(self._num, other._num, fillvalue=0)
        return Polynomial.from_integers([x * db + y * da for x, y in pairs], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial.from_integers([-c for c in self._num], self._den)

    def __mul__(self, other):
        a, den = self._num, self._den
        if isinstance(other, (int, Fraction)):
            return Polynomial.from_integers([c * other.numerator for c in a], den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.from_integers(integer_product(a, other._num), den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            p, q = scalar.numerator, scalar.denominator
            return Polynomial.from_integers([c * q for c in self._num], self._den * p)
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
        return Polynomial.from_integers([i * c for i, c in enumerate(self._num)][1:], self._den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        return super().__eq__(other)

    # a class that defines __eq__ drops the inherited __hash__
    __hash__ = RationalVector.__hash__

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return self.pretty()

    def pretty(self, var: str = "x") -> str:
        """Human-readable form like ``4x^2 - 1``; exact, never rounded."""
        num = self._num
        if not num:
            return "0"
        mags = format_numerators([abs(c) for c in num], self._den)
        parts = []
        for k in range(len(num) - 1, -1, -1):
            if not num[k]:
                continue
            mag = mags[k]
            if k == 0:
                body = mag
            else:
                factor = "" if mag == "1" else f"({mag})" if "/" in mag else mag
                body = factor + (var if k == 1 else f"{var}^{k}")
            parts.append(("-" if num[k] < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def integer_product(a, b) -> list:
    """The coefficients of the product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


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
