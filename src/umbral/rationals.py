"""Exact rational scalars and the combinatorial coefficients built on them.

Every computation in this package runs over arbitrary-precision rationals
(``fractions.Fraction``), which are always kept reduced, so equality of
values is structural equality.  The binomial coefficient accepts any
rational top argument: tops like ``n - k + t + k*q - 1`` with fractional
``t`` and negative integers both occur in the polynomial-family formulas.
Integer tops, by far the common case, take an exact integer fast path.
``factorial`` is :func:`math.factorial`, re-exported.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "binomial",
    "falling_factorial",
    "factorial",
    "format_rational",
    "parse_rational",
]


def falling_factorial(top, k: int) -> Fraction:
    """top * (top - 1) * ... * (top - k + 1), with the empty product = 1."""
    if k < 0:
        raise ValueError(f"falling_factorial undefined for k = {k} < 0")
    top = Fraction(top)
    result = Fraction(1)
    for i in range(k):
        result *= top - i
    return result


def binomial(top, k: int) -> Fraction:
    """Generalized binomial coefficient with an arbitrary rational top.

    Equal to falling_factorial(top, k) / k!, so binomial(-1, 3) = -1 and
    binomial(1/2, 2) = -1/8.  Total for k >= 0.  An integer top (including
    a Fraction with denominator 1) uses math.comb, a negative one through
    C(top, k) = (-1)^k C(k - top - 1, k); other tops use the falling factorial.
    """
    if k < 0:
        raise ValueError(f"binomial undefined for k = {k} < 0")
    top = Fraction(top)
    if top.denominator != 1:
        return falling_factorial(top, k) / factorial(k)
    n = top.numerator
    if n >= 0:
        return Fraction(comb(n, k))
    return Fraction((-1) ** k * comb(k - n - 1, k))


def format_rational(value) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" back into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
