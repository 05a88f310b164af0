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

A series of rationals is a ``rationals.RationalVector`` (the canonical
form is described there); the operations read and write its numerators
directly, and ``Fraction``s are built only by ``coeffs`` and by indexing.
A series with a non-constant ``Polynomial`` coefficient stores every
coefficient as a ``Polynomial``, over 1: a polynomial already keeps integer
numerators over its own denominator, so its products and sums in these
loops run on integers too.  A series whose ``Polynomial`` coefficients are
all constant is stored as the series of their values, so each series has
one form, whatever type its coefficients came in.  The product and
every Horner step of the composition are the same convolution; as the inner
series has no constant term, the Horner partial sum from f_i is read only
to order N - i, and each step convolves only that far.  This module owns
the exponential scale k! f_k, where the series of an umbra has its moments
as coefficients: ``to_exponential`` and ``from_exponential`` cross it (they
are ``umbra.from_series`` and ``umbra.gf``), and ``exp``, ``log``,
``power`` and ``revert`` run from the one to the other: there the common
denominator of an umbra's series is that of its moments, not
lcm(1!, ..., N!), which would otherwise enter their recurrences to the N-th
power.  ``compose`` cancels the content its Horner numerators share with
their denominator at every step, for the same reason.

``power`` raises a series with constant term 1 to any rational (or
polynomial) exponent in one pass, by J.C.P. Miller's recurrence; it never
goes through ``exp`` and ``log``.

``revert`` (compositional inverse) is a plain triangular solve of
f(g) = z on coefficients, not a Lagrange-type formula, and depends on
nothing outside this module, so it can serve as the independent reference
for the moment-side inversion formulas.  It keeps the powers of the
partial inverse in a table, one column per new coefficient, in O(N^3)
coefficient operations.  Where it makes the integers of the solve
smaller, it solves on f(L z) with L = q^2, q the denominator of f_1, and
scales the result back by L; ``revert`` states the test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from operator import mul

from .polynomials import Polynomial
from .rationals import RationalVector, exact, factorial, lowest_terms

__all__ = [
    "TruncatedSeries",
    "to_exponential",
    "from_exponential",
    "multiply",
    "exp",
    "log",
    "power",
    "compose",
    "revert",
]


class TruncatedSeries(RationalVector):
    """Coefficients c_0..c_N of a power series, exact, fixed order N;
    ``TruncatedSeries(coeffs, denominator)`` has coeffs[i] / denominator
    (ints, ``Fraction``s or ``Polynomial``s; see the module docstring)."""

    __slots__ = ()

    def _adopt(self, num: tuple, den: int):
        if not num:
            raise ValueError("a truncated series needs at least the constant coefficient")
        self._num, self._den = num, den

    def _admit(self, coeffs: tuple, denominator: int) -> tuple[tuple, int]:
        """Rationals as the base admits them; with a non-constant polynomial,
        every coefficient as a ``Polynomial``, over 1 and kept as ``coeffs``."""
        polys = [c for c in coeffs if isinstance(c, Polynomial)]
        if all(p.degree <= 0 for p in polys):
            coeffs = [c.coeff(0) if isinstance(c, Polynomial) else c for c in coeffs]
            return super()._admit(coeffs, denominator)
        coeffs = tuple(c if isinstance(c, Polynomial) else Polynomial((c,)) for c in coeffs)
        if denominator != 1:
            coeffs = tuple(c / denominator for c in coeffs)
        self._fractions = coeffs
        return coeffs, 1

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
        return len(self._num) - 1

    coeffs = RationalVector._values

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside available order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to order {order}")
        return TruncatedSeries(self._num[: order + 1], self._den)

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z, keeping the order (top coefficient falls off)."""
        return TruncatedSeries((0,) + self._num[:-1], self._den)

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the result has order N-1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries([i * c for i, c in enumerate(self._num) if i], self._den)

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = TruncatedSeries.constant(other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        da, db = self._den, other._den
        if da == db:
            return TruncatedSeries([a + b for a, b in zip(self._num, other._num)], da)
        return TruncatedSeries([a * db + b * da for a, b in zip(self._num, other._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedSeries([-c for c in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            p, q = (other, 1) if isinstance(other, Polynomial) else other.as_integer_ratio()
            return TruncatedSeries([c * p for c in self._num], self._den * q)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return multiply(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def to_exponential(f: TruncatedSeries) -> tuple:
    """(numerators, denominator) of the k! f_k in lowest terms, over 1 for
    ``Polynomial`` coefficients: for an umbra's series, its moment numerators."""
    c = [factorial(k) * x for k, x in enumerate(f._num)]
    return (c, 1) if f._den == 1 else lowest_terms(c, f._den)


def from_exponential(numerators, denominator: int = 1, base: int = 1) -> TruncatedSeries:
    """The g with n! g_n = numerators[n] / (denominator * base^n), integers or
    ``Polynomial``s, lifted by (N!/n!) base^(N-n) over denominator * N! * base^N."""
    steps = [n * base for n in range(len(numerators) - 1, 0, -1)]
    lift = list(accumulate(steps, mul, initial=1))[::-1]
    return TruncatedSeries(list(map(mul, numerators, lift)), denominator * lift[0])


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


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order, on integer numerators."""
    f._check_order(g)
    return TruncatedSeries(_convolve(f._num, g._num), f._den * g._den)


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """Power-series exponential; requires a vanishing constant term.

    The derivative recurrence g' = f'g on the exponential scale: with
    k! f_k = c_k/d and n! g_n = H_n / d^n, the integers
    H_n = sum_{k=1..n} C(n-1, k-1) c_k d^(k-1) H_{n-k}, H_0 = 1, so the loop
    never divides, and ``from_exponential`` writes g_n = H_n / (n! d^n).
    """
    if f._num[0] != 0:
        raise ValueError("exp needs a series with zero constant term")
    c, d = to_exponential(f)
    terms = [(k, c[k] * d ** (k - 1)) for k in range(1, len(c)) if c[k] != 0]
    scaled = [1]
    for n in range(1, len(c)):
        acc = 0
        for k, w in terms:
            if k > n:
                break
            acc += comb(n - 1, k - 1) * w * scaled[n - k]
        scaled.append(acc)
    return from_exponential(scaled, 1, d)


def log(f: TruncatedSeries) -> TruncatedSeries:
    """Power-series logarithm; requires constant term 1.

    Inverts the exp recurrence f g' = f' on the exponential scale: with
    k! f_k = c_k/d and n! g_n = K_n / d^n, the integers
    K_n = c_n d^(n-1) - sum_{k=1..n-1} C(n-1, k-1) K_k c_{n-k} d^(n-k-1),
    so the loop never divides, and ``from_exponential`` writes g_n = K_n / (n! d^n).
    """
    if f._num[0] != f._den:
        raise ValueError("log needs a series with constant term 1")
    c, d = to_exponential(f)
    lifts = [d**j for j in range(len(c))]
    scaled = [0]
    for n in range(1, len(c)):
        acc = c[n] * lifts[n - 1]
        for k in range(1, n):
            y = c[n - k]
            if y != 0 and scaled[k] != 0:
                acc -= comb(n - 1, k - 1) * lifts[n - k - 1] * y * scaled[k]
        scaled.append(acc)
    return from_exponential(scaled, 1, d)


def power(f: TruncatedSeries, a) -> TruncatedSeries:
    """f^a for any rational (or polynomial) exponent a; needs f_0 = 1.

    J.C.P. Miller's recurrence, from f g' = a f' g with g = f^a:
    n*g_n = sum_{k=1..n} ((a+1)k - n) * f_k * g_{n-k}.  It runs on the
    exponential scale, where the coefficients of an umbra's generating
    function are its moments: with a = p/q and k! f_k = c_k/d, the scaled
    coefficients M_n = n! g_n (q d)^n are integers satisfying
    n M_n = sum_k ((p+q)k - q n) C(n,k) c_k (q d)^(k-1) M_{n-k}, one exact
    division by n per step, and ``from_exponential`` writes the g_n.
    A polynomial exponent runs with p = a, q = 1.
    """
    if f._num[0] != f._den:
        raise ValueError("power needs a series with constant term 1")
    p, q = (a, 1) if type(a) is int or isinstance(a, Polynomial) else exact(a).as_integer_ratio()
    c, d = to_exponential(f)
    qd = q * d
    terms = [(k, c[k] * qd ** (k - 1)) for k in range(1, len(c)) if c[k] != 0]
    scaled = [1]
    for n in range(1, len(c)):
        acc = 0
        for k, w in terms:
            if k > n:
                break
            acc += ((p + q) * k - q * n) * (comb(n, k) * w * scaled[n - k])
        scaled.append(acc // n if type(acc) is int else acc / n)
    return from_exponential(scaled, 1, qd)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(z)) truncated at the common order; g must have no constant term.

    Horner's rule on numerators: with f = a/da and g = b/db, the partial
    result sum_{j>=i} f_j g^(j-i) is kept over da * s with s | db^(n-i), so
    each step is one convolution with b plus a_i * s in the constant term.
    As g has no constant term, the partial result from f_i is read only to
    order n - i, and step i convolves only that far, the truncation of
    R. P. Brent and H. T. Kung ("Fast algorithms for manipulating formal
    power series", J. ACM 25, 1978): about n^3/6 products instead of n^3/2.
    On rational coefficients each step also cancels the content shared by s
    and the numerators, which keeps s at the common denominator of the
    partial result instead of letting db^(n-i) grow; the division into
    coefficients happens once, at the end.
    """
    f._check_order(g)
    if g._num[0] != 0:
        raise ValueError("compose needs an inner series with zero constant term")
    n = f.order
    a, da = f._num, f._den
    b, db = g._num, g._den
    rational = all(isinstance(x, int) for x in a)
    acc = [a[n]]
    s = 1
    for i in range(n - 1, -1, -1):
        acc = _convolve(b[: n - i + 1], acc)
        s *= db
        acc[0] += a[i] * s
        if rational and s != 1:
            content = gcd(s, *acc)
            if content != 1:
                acc = [x // content for x in acc]
                s //= content
    return TruncatedSeries(acc, da * s)


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

    The integers R_m grow with c_1^2/d per step even when the result is
    small.  As revert(f) = L * revert(f(L z)) for any nonzero L, and the
    solve on f(L z), over the denominator d', has R'_m = (L^2 d'/d)^(m-1) R_m,
    the solve runs on f(L z) with L = q^2, q the denominator of f_1, when
    L^2 d' < d, and on f itself otherwise.  The rescale pays off when d is
    large but the denominator of each k! f_k divides q^(2k), as on the inverse
    series of an umbra with integer moments: there d' = 1.
    """
    if f._num[0] != 0:
        raise ValueError("revert needs a series with zero constant term")
    if f.order < 1 or f._num[1] == 0:
        raise ValueError("revert needs a nonzero linear coefficient")
    c, d = to_exponential(f)
    lam = (d // gcd(c[1], d)) ** 2
    scaled, scaled_den = lowest_terms([x * lam**k for k, x in enumerate(c)], d)
    if lam * lam * scaled_den < d:
        return lam * _solve_revert(scaled, scaled_den)
    return _solve_revert(c, d)


def _solve_revert(c: list, d: int) -> TruncatedSeries:
    """The triangular solve of ``revert`` on the series with k! f_k = c_k / d."""
    n = len(c) - 1
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
    return from_exponential([c[1] * d**m * x for m, x in enumerate(r)], 1, c[1] ** 2)
