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

``multiply``, ``compose``, ``power`` and ``revert`` run on integer
numerators over one common denominator, sums of products on Python integers
with one division per result coefficient, as ``umbra.add`` does for moments.
``Polynomial`` coefficients pass through over 1: a polynomial already keeps
integer numerators over its own denominator, so its products and sums in
these loops run on integers too.  The product and
every Horner step of the composition are the same convolution.  ``power``
and ``revert`` work on the exponential scale k! f_k, where the series of an
umbra has its moments as coefficients: there the common denominator of an
umbra's series is that of its moments, not lcm(1!, ..., N!), which would
otherwise enter their recurrences to the N-th power.  ``compose`` cancels
the content its Horner numerators share with their denominator at every
step, for the same reason.  ``exp`` and ``log`` keep ``Fraction``
arithmetic.

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
from math import comb, gcd, perm

from .polynomials import Polynomial
from .rationals import factorial, over_common_denominator

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


def _numerators(coeffs):
    """Integer numerators of ``coeffs`` over the lcm of their denominators;
    ``Polynomial`` coefficients come back unchanged, over 1."""
    if any(isinstance(c, Polynomial) for c in coeffs):
        return list(coeffs), 1
    return over_common_denominator(coeffs)


def _exponential(f: TruncatedSeries) -> list:
    """k! f_k, the coefficients on the exponential scale (an umbra's moments)."""
    return [factorial(k) * c for k, c in enumerate(f.coeffs)]


def _convolve(a, b) -> list:
    """c_k = sum_i a_i * b_(k-i) for k < len(a), skipping zero terms."""
    terms = [(i, x) for i, x in enumerate(a) if x != 0]
    out = []
    for k in range(len(a)):
        acc = 0
        for i, x in terms:
            if i > k:
                break
            y = b[k - i]
            if y != 0:
                acc += x * y
        out.append(acc)
    return out


def _divide(num, den):
    """num / den, reduced; num is an integer or a ``Polynomial``."""
    if isinstance(num, Polynomial):
        return num if den == 1 else num / den
    return Fraction(num, den)


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order, on integer numerators."""
    f._check_order(g)
    a, da = _numerators(f.coeffs)
    b, db = _numerators(g.coeffs)
    den = da * db
    return TruncatedSeries(_divide(c, den) for c in _convolve(a, b))


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
    n*g_n = sum_{k=1..n} ((a+1)k - n) * f_k * g_{n-k}.  It runs on the
    exponential scale, where the coefficients of an umbra's generating
    function are its moments: with a = p/q and k! f_k = c_k/d, the scaled
    coefficients G_n = g_n * (q d)^n * n!^2 are integers satisfying
    G_n = sum_k ((p+q)k - q n) C(n,k) c_k (q d)^(k-1) (n-1)!/(n-k)! G_{n-k},
    so the loop never divides; each g_n is one division at the end.
    A polynomial exponent runs with p = a, q = 1.
    """
    if f[0] != 1:
        raise ValueError("power needs a series with constant term 1")
    p, q = (a, 1) if isinstance(a, Polynomial) else (a.numerator, a.denominator)
    c, d = _numerators(_exponential(f))
    qd = q * d
    terms = [(k, c[k] * qd ** (k - 1)) for k in range(1, len(c)) if c[k] != 0]
    scaled = [1]
    for n in range(1, len(c)):
        acc = 0
        for k, w in terms:
            if k > n:
                break
            acc += ((p + q) * k - q * n) * (comb(n, k) * perm(n - 1, k - 1) * w * scaled[n - k])
        scaled.append(acc)
    return TruncatedSeries(
        _divide(g, qd**n * factorial(n) ** 2) for n, g in enumerate(scaled)
    )


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(z)) truncated at the common order; g must have no constant term.

    Horner's rule on numerators: with f = a/da and g = b/db, the partial
    result sum_{j>=i} f_j g^(j-i) is kept over da * s with s | db^(n-i), so
    each step is one convolution with b plus a_i * s in the constant term.
    On rational coefficients each step also cancels the content shared by s
    and the numerators, which keeps s at the common denominator of the
    partial result instead of letting db^(n-i) grow; the division into
    coefficients happens once, at the end.
    """
    f._check_order(g)
    if g[0] != 0:
        raise ValueError("compose needs an inner series with zero constant term")
    n = f.order
    a, da = _numerators(f.coeffs)
    b, db = _numerators(g.coeffs)
    rational = all(isinstance(x, int) for x in a)
    acc = [a[n]] + [0] * n
    s = 1
    for i in range(n - 1, -1, -1):
        acc = _convolve(b, acc)
        s *= db
        acc[0] += a[i] * s
        if rational and s != 1:
            content = gcd(s, *acc)
            if content != 1:
                acc = [x // content for x in acc]
                s //= content
    den = da * s
    return TruncatedSeries(_divide(x, den) for x in acc)


def revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: the g with f(g(z)) = z up to the order.

    Solved coefficient by coefficient on the exponential scale.  With
    F_j = j! f_j and G_m = m! g_m, m! [z^m] f(g) = sum_j F_j B_{m,j}(G), where
    B_{m,j} is the partial Bell polynomial, and only the j = 1 term involves
    G_m, with slope F_1.  Writing F_j = c_j/d over one denominator and
    G_m = R_m d^m / c_1^(2m-1), the solve runs on integers: R_1 = 1 and
    R_m = -sum_{j=2..m} c_j c_1^(j-2) B_{m,j}(R).  The table B_{m,j}(R) gains
    one column per solved coefficient, from
    B_{m,j} = sum_i C(m-1, i-1) R_i B_{m-i,j-1}, with B_{m,1} = R_m.
    """
    if f[0] != 0:
        raise ValueError("revert needs a series with zero constant term")
    if f.order < 1 or f[1] == 0:
        raise ValueError("revert needs a nonzero linear coefficient")
    n = f.order
    c, d = _numerators(_exponential(f))
    lead = [0, 0] + [c[j] * c[1] ** (j - 2) for j in range(2, n + 1)]
    r = [0] * (n + 1)
    r[1] = 1
    # zero for m < j
    bell = [[0] * (n + 1) for _ in range(n + 1)]
    bell[1][1] = 1
    for m in range(2, n + 1):
        weights = [0] + [comb(m - 1, i - 1) * r[i] for i in range(1, m)]
        residue = 0
        for j in range(2, m + 1):
            # B_{m,j} only needs R_1..R_{m-j+1}, all known
            acc = 0
            for i in range(1, m - j + 2):
                prev = bell[j - 1][m - i]
                if prev:
                    acc += weights[i] * prev
            bell[j][m] = acc
            if lead[j]:
                residue += lead[j] * acc
        r[m] = -residue
        bell[1][m] = r[m]
    return TruncatedSeries(
        [0] + [Fraction(r[m] * d**m, c[1] ** (2 * m - 1) * factorial(m)) for m in range(1, n + 1)]
    )
