"""Exact rational scalars and the combinatorial coefficients built on them.

Every computation in this package runs over arbitrary-precision rationals
(``fractions.Fraction``), which are always kept reduced, so equality of
values is structural equality.  The binomial coefficient accepts any
rational top argument: tops like ``n - k + t + k*q - 1`` with fractional
``t`` and negative integers both occur in the polynomial-family formulas.
Integer tops, by far the common case, take an exact integer fast path.
``factorial`` is :func:`math.factorial`, re-exported.
``over_common_denominator`` writes a sequence of rationals as integer
numerators over one denominator, so sums of products (convolutions,
matrix products) can run on Python integers with one division at the end.
``shared_denominator`` lifts integer-numerator values (umbrae, polynomials)
onto one.  ``lowest_terms`` is their one canonical form, so equal vectors of
values give equal (numerators, denominator) pairs.  ``exact`` admits a scalar
into the package: a ``float`` raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

__all__ = [
    "binomial",
    "exact",
    "falling_factorial",
    "factorial",
    "format_rational",
    "lowest_terms",
    "over_common_denominator",
    "parse_rational",
    "shared_denominator",
]


def exact(value) -> Fraction:
    """An exact rational; a float is refused rather than expanded in binary."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"values are exact: use an int or a Fraction, not the float {value!r}")
    return Fraction(value)


def falling_factorial(top, k: int) -> Fraction:
    """top * (top - 1) * ... * (top - k + 1), with the empty product = 1."""
    if k < 0:
        raise ValueError(f"falling_factorial undefined for k = {k} < 0")
    top = exact(top)
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
    top = exact(top)
    if top.denominator != 1:
        return falling_factorial(top, k) / factorial(k)
    n = top.numerator
    if n >= 0:
        return Fraction(comb(n, k))
    return Fraction((-1) ** k * comb(k - n - 1, k))


def over_common_denominator(values):
    """Integers c_i and one denominator d with values[i] = c_i / d.

    d is the least common multiple of the denominators of the sequence.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def shared_denominator(values) -> tuple[list, int]:
    """Pairs (numerators, D // d) for values with integer ``numerators`` over a
    ``denominator`` d, and D, the lcm of the d: each value is numerators * (D // d) / D."""
    den = lcm(*(v.denominator for v in values))
    return [(v.numerators, den // v.denominator) for v in values], den


def lowest_terms(num, den: int) -> tuple[tuple, int]:
    """num[i] / den as a tuple of integers over d > 0 with gcd(d, *numerators) = 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return (tuple(num) if g == 1 else tuple(c // g for c in num)), den // g


def format_rational(value) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1."""
    if type(value) is not Fraction and type(value) is not int:
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
