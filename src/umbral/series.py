"""Exact truncated formal power series.

A ``TruncatedSeries`` holds the coefficients c_0..c_N of a formal power
series in z, all arithmetic exact and truncated at the fixed order N.
Binary operations require matching orders: silent coercion between
truncation orders is how truncation bugs hide.

Coefficients are rationals throughout the umbra layer, but every algorithm
here only ever divides by an integer, so series whose coefficients are
:class:`~umbral.polynomials.Polynomial` values work identically.  That is
what the polynomial-family oracles use to expand generating functions such
as (1 - 2xz + z^2)^(-1) with x carried along exactly.

``power`` raises a series with constant term 1 to any rational (or
polynomial) exponent in one pass, by J.C.P. Miller's recurrence; it never
goes through ``exp`` and ``log``.

``revert`` (compositional inverse) is a plain triangular solve of
f(g) = z on coefficients, not a Lagrange-type formula, and depends on
nothing outside this module, so it can serve as the independent reference
for the moment-side inversion formulas.  It keeps the powers of the
partial inverse in a table, one column per new coefficient, in O(N^3)
coefficient operations.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Polynomial

__all__ = [
    "TruncatedSeries",
    "multiply",
    "exp",
    "log",
    "power",
    "compose",
    "revert",
]


def _coerce(value):
    if isinstance(value, (Fraction, Polynomial)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"series coefficients must be rational or polynomial, got {type(value).__name__}")


class TruncatedSeries:
    """Coefficients c_0..c_N of a power series, exact, fixed order N."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        self._coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def z(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("the series z needs order >= 1")
        return cls((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int):
        return self._coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to order {order}")
        return TruncatedSeries(self._coeffs[: order + 1])

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z, keeping the order (top coefficient falls off)."""
        return TruncatedSeries((Fraction(0),) + self._coeffs[:-1])

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the result has order N-1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(tuple(i * c for i, c in enumerate(self._coeffs) if i))

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = TruncatedSeries.constant(other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self._coeffs, other._coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return TruncatedSeries(tuple(c * other for c in self._coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return multiply(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self._coeffs)!r})"


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    f._check_order(g)
    n = f.order
    out = []
    for k in range(n + 1):
        acc = Fraction(0)
        for i in range(k + 1):
            a = f[i]
            if a == 0:
                continue
            b = g[k - i]
            if b == 0:
                continue
            acc = acc + a * b
        out.append(acc)
    return TruncatedSeries(out)


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """Power-series exponential; requires a vanishing constant term.

    Uses the derivative recurrence g' = f'g, i.e.
    n*g_n = sum_{k=1..n} k*f_k*g_{n-k}, which only ever divides by n.
    """
    if f[0] != 0:
        raise ValueError("exp needs a series with zero constant term")
    n = f.order
    g = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if f[k] == 0:
                continue
            acc = acc + (k * f[k]) * g[m - k]
        g.append(acc * Fraction(1, m))
    return TruncatedSeries(g)


def log(f: TruncatedSeries) -> TruncatedSeries:
    """Power-series logarithm; requires constant term 1.

    Inverts the exp recurrence: n*g_n = n*f_n - sum_{k=1..n-1} k*g_k*f_{n-k}.
    """
    if f[0] != 1:
        raise ValueError("log needs a series with constant term 1")
    n = f.order
    g = [Fraction(0)]
    for m in range(1, n + 1):
        acc = m * f[m]
        for k in range(1, m):
            if g[k] == 0:
                continue
            acc = acc - (k * g[k]) * f[m - k]
        g.append(acc * Fraction(1, m))
    return TruncatedSeries(g)


def power(f: TruncatedSeries, a) -> TruncatedSeries:
    """f^a for any rational (or polynomial) exponent a; needs f_0 = 1.

    J.C.P. Miller's recurrence, from f g' = a f' g with g = f^a:
    n*g_n = sum_{k=1..n} ((a+1)k - n) * f_k * g_{n-k}, dividing only by n.
    A rational a = p/q runs it scaled by q, so every weight is an integer.
    """
    if f[0] != 1:
        raise ValueError("power needs a series with constant term 1")
    if isinstance(a, Polynomial):
        num, den = a, 1
    else:
        num, den = a.numerator, a.denominator
    g = [Fraction(1)]
    for m in range(1, f.order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if f[k] == 0:
                continue
            acc = acc + ((num + den) * k - den * m) * f[k] * g[m - k]
        g.append(acc * Fraction(1, den * m))
    return TruncatedSeries(g)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(z)) truncated at the common order; g must have no constant term."""
    f._check_order(g)
    if g[0] != 0:
        raise ValueError("compose needs an inner series with zero constant term")
    n = f.order
    result = TruncatedSeries.constant(f[n], n)
    for i in range(n - 1, -1, -1):
        result = multiply(result, g) + f[i]
    return result


def revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: the g with f(g(z)) = z up to the order.

    Solved coefficient by coefficient: [z^m] f(g) = sum_j f_j [z^m] g^j,
    and only the j = 1 term involves g_m, with slope f_1.  The table
    powers[j][m] = [z^m] g^j gains one column per solved coefficient,
    from powers[j][m] = sum_i g_i * powers[j-1][m-i].
    """
    if f[0] != 0:
        raise ValueError("revert needs a series with zero constant term")
    if f.order < 1 or f[1] == 0:
        raise ValueError("revert needs a nonzero linear coefficient")
    n = f.order
    g = [Fraction(0)] * (n + 1)
    g[1] = Fraction(1) / f[1]
    # zero for m < j
    powers = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    powers[1][1] = g[1]
    for m in range(2, n + 1):
        residue = Fraction(0)
        for j in range(2, m + 1):
            # [z^m] g^j only needs g_1..g_{m-j+1}, all known
            acc = Fraction(0)
            for i in range(1, m - j + 2):
                prev = powers[j - 1][m - i]
                if prev != 0:
                    acc += g[i] * prev
            powers[j][m] = acc
            if f[j] != 0:
                residue += f[j] * acc
        g[m] = -residue / f[1]
        powers[1][m] = g[m]
    return TruncatedSeries(g)
