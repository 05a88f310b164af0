"""Dense univariate polynomials over exact rationals.

These are the values the package hands back to users: Sheffer polynomials,
rows of the classical families, evaluated umbral expressions.  The class is
deliberately small; it only needs ring arithmetic, scalar mixing with
``Fraction`` (so a polynomial can sit inside a power-series coefficient),
exact evaluation, and a readable rendering.

Like an umbra, a polynomial is integer numerators (no trailing zero) over
one denominator in the form of ``rationals.lowest_terms``; arithmetic and
``==`` run on them, and ``coeffs`` builds ``Fraction``s on first access.
Integer coefficients, which every arithmetic result has, go straight to
``lowest_terms`` without a ``Fraction``; other coefficients are checked
and brought over their common denominator first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .rationals import factorial, format_rational, lowest_terms, over_common_denominator

__all__ = ["Polynomial", "binomial_poly", "falling_factorial_poly"]


class Polynomial:
    """Immutable polynomial in one variable, coefficients lowest degree first;
    ``Polynomial(coeffs, denominator)`` has coeffs[i] / denominator (ints or ``Fraction``s)."""

    __slots__ = ("numerators", "denominator", "_coeffs")

    def __init__(self, coeffs=(), denominator: int = 1):
        num = list(coeffs)
        if all(type(c) is int for c in num):
            den = denominator
        else:
            for c in num:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"polynomial coefficients must be rational, got {type(c).__name__}")
            num, den = over_common_denominator(num)
            den *= denominator
        while num and not num[-1]:
            num.pop()
        self.numerators, self.denominator = lowest_terms(num, den)
        self._coeffs = None

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c, self.denominator) for c in self.numerators)
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.numerators

    def __call__(self, value):
        result = 0
        for c in reversed(self.numerators):
            result = result * value + c
        return result / Fraction(self.denominator)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        da, db = self.denominator, other.denominator
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return Polynomial([x * db + y * da for x, y in pairs], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial([-c for c in self.numerators], self.denominator)

    def __mul__(self, other):
        a, den = self.numerators, self.denominator
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other.numerator for c in a], den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        b = other.numerators
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Polynomial(out, den * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            p, q = scalar.numerator, scalar.denominator
            return Polynomial([c * q for c in self.numerators], self.denominator * p)
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
        return Polynomial([i * c for i, c in enumerate(self.numerators)][1:], self.denominator)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.denominator == other.denominator and self.numerators == other.numerators
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

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
