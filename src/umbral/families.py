"""Classical polynomial families from one master construction.

The master polynomial

    P_n(x, y; q, t) = n! * sum_k binomial(n-k+t+kq-1, n-k) binomial(y, k) x^k

has exponential generating function (1-z)^(-t) (1 + xz/(1-z)^q)^y.  Five
classical families are specializations of the slots (x, y; q, t):

    Tchebychev II   (-2x+2, -1;  2, 2)       ordinary gf 1/(1-2xz+z^2)
    Gegenbauer      (-2x+2, -L;  2, 2L)      ordinary gf (1-2xz+z^2)^(-L)
    Meixner I       ((c-1)/c, x; 1, b)       egf (1-z)^(-b) ((1-z/c)/(1-z))^x
    Mittag-Leffler  (2, x;       1, 0)       egf ((1+z)/(1-z))^x
    Pidduck         (2, x;       1, 1)       egf (1-z)^(-1) ((1+z)/(1-z))^x

Every family is validated two ways: the explicit sum above, and an
independent expansion of its own generating function as a series in z
whose coefficients are exact polynomials in x.  Where y sits in the second
slot the binomial(y, k) factor expands to the degree-k polynomial
y(y-1)...(y-k+1)/k!, so Meixner, Mittag-Leffler and Pidduck come out as
honest polynomials in x in the binomial basis.

Two slots as printed in the classical literature hide sign slips (the
Gegenbauer first slot and the Meixner (c-1)/c power); the generating
functions are authoritative and both corrections are pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import series as ps
from .polynomials import Polynomial
from .rationals import binomial, factorial
from .series import TruncatedSeries

__all__ = [
    "MasterParams",
    "master_polynomial",
    "master_gf_polynomial",
    "binomial_basis_row",
    "chebyshev_u",
    "gegenbauer",
    "meixner1",
    "mittag_leffler",
    "pidduck",
    "gf_oracle",
    "FAMILY_NAMES",
]

FAMILY_NAMES = ("chebyshev-u", "gegenbauer", "meixner1", "mittag-leffler", "pidduck")


@dataclass(frozen=True)
class MasterParams:
    """Slots of the master polynomial.

    ``xval`` is the substitution for the first slot (a constant or a
    polynomial in x); ``y`` is a rational, or None to mean the polynomial
    indeterminate itself, in which case binomial(y, k) expands in x.
    """

    xval: Polynomial
    y: Fraction | None
    q: Fraction
    t: Fraction

    @classmethod
    def of(cls, xval, y, q, t) -> "MasterParams":
        if not isinstance(xval, Polynomial):
            xval = Polynomial.constant(Fraction(xval))
        if y is not None:
            y = Fraction(y)
        return cls(xval, y, Fraction(q), Fraction(t))


def master_polynomial(n: int, p: MasterParams) -> Polynomial:
    """The explicit sum, exact, including the n! normalization."""
    if n < 0:
        raise ValueError("master polynomial needs n >= 0")
    total = Polynomial()
    xpow = Polynomial.constant(1)
    # binomial(y, k), carried along: binomial(y, k+1) = binomial(y, k) (y - k)/(k+1)
    ybin = Polynomial.constant(1)
    for k in range(n + 1):
        top = Fraction(n - k) + p.t + k * p.q - 1
        weight = binomial(top, n - k)
        if p.y is None:
            total = total + weight * ybin * xpow
            ybin = ybin * Polynomial((-k, 1)) / (k + 1)
        else:
            total = total + weight * binomial(p.y, k) * xpow
        xpow = xpow * p.xval
    return total * factorial(n)


def master_gf_series(p: MasterParams, order: int) -> TruncatedSeries:
    """(1-z)^(-t) (1 + xval*z/(1-z)^q)^y expanded with x carried exactly."""
    one_minus_z = _linear(1, -1, order)
    front = ps.power(one_minus_z, -p.t)
    inner = ps.power(one_minus_z, -p.q).shift_up() * p.xval + 1
    exponent = Polynomial.x() if p.y is None else p.y
    return ps.multiply(front, ps.power(inner, exponent))


def master_gf_polynomial(n: int, p: MasterParams) -> Polynomial:
    """Generating-function route for the master polynomial: n! [z^n]."""
    coeff = master_gf_series(p, n)[n]
    if not isinstance(coeff, Polynomial):
        coeff = Polynomial.constant(coeff)
    return coeff * factorial(n)


def binomial_basis_row(n: int, p: MasterParams) -> list:
    """Coefficients of binomial(x, k), k = 0..n, for indeterminate-y params."""
    if p.y is not None:
        raise ValueError("binomial-basis coefficients need the indeterminate second slot")
    if p.xval.degree > 0:
        raise ValueError("binomial-basis coefficients need a constant first slot")
    xconst = p.xval.coeff(0)
    return [
        factorial(n) * binomial(Fraction(n - k) + p.t + k * p.q - 1, n - k) * xconst**k
        for k in range(n + 1)
    ]


def chebyshev_params() -> MasterParams:
    return MasterParams.of(Polynomial((2, -2)), -1, 2, 2)


def gegenbauer_params(lam) -> MasterParams:
    lam = Fraction(lam)
    return MasterParams.of(Polynomial((2, -2)), -lam, 2, 2 * lam)


def meixner_params(b, c) -> MasterParams:
    c = Fraction(c)
    return MasterParams.of((c - 1) / c, None, 1, b)


def mittag_leffler_params() -> MasterParams:
    return MasterParams.of(2, None, 1, 0)


def pidduck_params() -> MasterParams:
    return MasterParams.of(2, None, 1, 1)


def chebyshev_u(n: int) -> Polynomial:
    """Tchebychev polynomial of the second kind, ordinary normalization."""
    return master_polynomial(n, chebyshev_params()) / factorial(n)


def gegenbauer(n: int, lam) -> Polynomial:
    """Gegenbauer polynomial with parameter lam, ordinary normalization."""
    return master_polynomial(n, gegenbauer_params(lam)) / factorial(n)


def _check_meixner_parameters(b, c):
    b, c = Fraction(b), Fraction(c)
    if c in (0, 1):
        raise ValueError(f"Meixner parameter c must avoid 0 and 1, got {c}")
    if b.denominator == 1 and b <= 0:
        raise ValueError(f"Meixner parameter b must avoid 0, -1, -2, ..., got {b}")
    return b, c


def meixner1(n: int, b, c) -> Polynomial:
    """Meixner polynomial of the first kind, egf normalization."""
    b, c = _check_meixner_parameters(b, c)
    return master_polynomial(n, meixner_params(b, c))


def mittag_leffler(n: int) -> Polynomial:
    """Mittag-Leffler polynomial, egf normalization."""
    return master_polynomial(n, mittag_leffler_params())


def pidduck(n: int) -> Polynomial:
    """Pidduck polynomial, egf normalization."""
    return master_polynomial(n, pidduck_params())


def _linear(c0, c1, order: int) -> TruncatedSeries:
    """The series c0 + c1*z at the given truncation order."""
    if order == 0:
        return TruncatedSeries((c0,))
    return TruncatedSeries((c0, c1) + (0,) * (order - 1))


def _chebyshev_kernel(order: int, lam) -> TruncatedSeries:
    coeffs = [Polynomial((1,)), Polynomial((0, -2)), Polynomial((1,))][: order + 1]
    coeffs += [Polynomial()] * (order + 1 - len(coeffs))
    return ps.power(TruncatedSeries(coeffs), -Fraction(lam))


def _ratio_power_x(order: int, top: TruncatedSeries) -> TruncatedSeries:
    """(top/(1-z))^x as a polynomial-coefficient series."""
    ratio = ps.multiply(top, ps.power(_linear(1, -1, order), -1))
    return ps.exp(ps.log(ratio) * Polynomial.x())


def gf_oracle(kind: str, n: int, lam=None, b=None, c=None) -> Polynomial:
    """Independent route: expand the family's own generating function.

    Returns the degree-n polynomial read off the z^n coefficient (times n!
    for the egf-normalized families).  Shares nothing with the explicit
    sums above except the series engine.
    """
    if kind == "chebyshev-u":
        coeff = _chebyshev_kernel(n, 1)[n]
        scale = 1
    elif kind == "gegenbauer":
        if lam is None:
            raise ValueError("gegenbauer needs the lam parameter")
        coeff = _chebyshev_kernel(n, lam)[n]
        scale = 1
    elif kind == "meixner1":
        b, c = _check_meixner_parameters(b, c)
        ratio_x = _ratio_power_x(n, _linear(1, -Fraction(1, c), n))
        coeff = ps.multiply(ps.power(_linear(1, -1, n), -b), ratio_x)[n]
        scale = factorial(n)
    elif kind == "mittag-leffler":
        coeff = _ratio_power_x(n, _linear(1, 1, n))[n]
        scale = factorial(n)
    elif kind == "pidduck":
        series = ps.multiply(ps.power(_linear(1, -1, n), -1), _ratio_power_x(n, _linear(1, 1, n)))
        coeff = series[n]
        scale = factorial(n)
    else:
        raise ValueError(f"unknown family: {kind!r}")
    if not isinstance(coeff, Polynomial):
        coeff = Polynomial.constant(coeff)
    return coeff * scale
