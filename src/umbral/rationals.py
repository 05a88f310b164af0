"""Exact rational scalars, the combinatorial coefficients built on them, and
the one canonical form of the package's exact values.

Every computation in this package runs over arbitrary-precision rationals
(``fractions.Fraction``), which are always kept reduced, so equality of
values is structural equality.  The binomial coefficient accepts any
rational top argument: tops like ``n - k + t + k*q - 1`` with fractional
``t`` and negative integers both occur in the polynomial-family formulas.
Integer tops, by far the common case, take an exact integer fast path.
``factorial`` is :func:`math.factorial`, re-exported.  ``exact`` admits a
scalar into the package: a ``float`` raises ``TypeError``.

The canonical form.  An umbra (moments), a truncated series and a
polynomial (coefficients) are each a vector of exact values, and so is a
Riordan array (its entries (n, k), k <= n, row by row); each is a
``RationalVector``: integer numerators c_i over one denominator d, with
d > 0 and gcd(d, c_0, c_1, ...) = 1, as ``lowest_terms`` leaves them, so
equal vectors give equal (numerators, denominator) pairs.  It is built
from values v_i and an integer denominator D (default 1) as the vector
v_i / D: integer values go straight to ``lowest_terms``, and any other
value passes ``exact`` and is brought over the lcm of the denominators,
so a ``float`` is refused and a ``str`` such as "1/2" is read as
``Fraction`` reads it.  ``==`` and ``hash`` compare the pair, between
values of the same type only; an array compares its flavor as well.  The
arithmetic of the four types runs on the numerators, sums of products on
Python integers with one gcd pass per result; ``Fraction``s are built once,
on the first read of the values (``moments``, ``coeffs`` or an array's
``entries``), and kept.  ``shared_denominator`` lifts several such values
onto one denominator, so sums of products across them (convolutions,
matrix products) run on integers too.  A kernel whose output is a list of
``int``s by construction builds with ``from_integers``, which skips the
per-value type test of the constructor; a subclass checks its own
invariant (m_0 = 1, no trailing zero) in ``_adopt``, on both paths.  An
array is built with its pair and flavor, and refuses ``from_integers``.

Output reads the numerators as well: ``format_numerators`` writes each
c_i / d as ``format_rational`` would write ``Fraction(c_i, d)``, from one
gcd per value, so the CLI and ``Polynomial.pretty`` print a value without
building its ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

__all__ = [
    "binomial",
    "exact",
    "falling_factorial",
    "factorial",
    "format_numerators",
    "format_rational",
    "lowest_terms",
    "parse_rational",
    "RationalVector",
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


def shared_denominator(values) -> tuple[list, int]:
    """Pairs (numerators, D // d) for ``RationalVector`` values over their
    denominators d, and D, the lcm of the d: each value is numerators * (D // d) / D."""
    den = lcm(*(v._den for v in values))
    return [(v._num, den // v._den) for v in values], den


def lowest_terms(num, den: int) -> tuple[tuple, int]:
    """num[i] / den as a tuple of integers over d > 0 with gcd(d, *numerators) = 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    num = tuple(num)
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return (num if g == 1 else tuple(c // g for c in num)), den // g


class RationalVector:
    """Exact values in the canonical form of the module docstring;
    ``RationalVector(values, denominator)`` holds values[i] / denominator."""

    __slots__ = ("_num", "_den", "_fractions")

    def __init__(self, values, denominator: int = 1):
        values = tuple(values)
        self._fractions = None
        if set(map(type, values)) <= {int}:
            self._adopt(*lowest_terms(values, denominator))
        else:
            self._adopt(*self._admit(values, denominator))

    @classmethod
    def from_integers(cls, numerators, denominator: int = 1):
        """numerators[i] / denominator for a list of ``int``s, as the kernels
        produce them: no value is tested, so the caller vouches for the types."""
        vector = cls.__new__(cls)
        vector._fractions = None
        vector._adopt(*lowest_terms(numerators, denominator))
        return vector

    def _adopt(self, num: tuple, den: int):
        """Store the canonical pair; a subclass checks or trims it here."""
        self._num, self._den = num, den

    def _admit(self, values: tuple, denominator: int) -> tuple[tuple, int]:
        """The canonical pair of values that are not all ints."""
        values = [exact(v) for v in values]
        den = lcm(*(v.denominator for v in values))
        return lowest_terms([v.numerator * (den // v.denominator) for v in values], den * denominator)

    @property
    def numerators(self) -> tuple:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def _values(self) -> tuple:
        """The values as ``Fraction``s, built on first access and kept."""
        if self._fractions is None:
            num, den = self._num, self._den
            self._fractions = tuple(map(Fraction, num) if den == 1 else (Fraction(c, den) for c in num))
        return self._fractions

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))


def format_numerators(numerators, denominator: int) -> list:
    """The text of each numerators[i] / denominator (denominator > 0), as
    ``format_rational`` writes it, from one gcd per value and no ``Fraction``."""
    if denominator == 1:
        return list(map(str, numerators))
    out = []
    for c in numerators:
        g = gcd(c, denominator)
        out.append(str(c // g) if g == denominator else f"{c // g}/{denominator // g}")
    return out


def format_rational(value) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1."""
    if type(value) is not Fraction and type(value) is not int:
        value = Fraction(value)
    return format_numerators((value.numerator,), value.denominator)[0]


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" back into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
