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

``FAMILIES`` is the one place that knows them: name -> validated slot
builder, the family's own generating function (to the given order), and
whether it is ordinary-normalized (rows drop the n! of P_n).  The CLI,
the verify suite and the named functions all go through it.  The
binomial-basis rows of ``family_table`` are integer numerators over one
denominator per row, which the CLI prints without building ``Fraction``s.

The weight binomial(n-k+t+kq-1, n-k) is entry (n, k) of the ordinary Riordan
array d = ((1-z)^(-t), z(1-z)^(-q)).  ``master_table`` builds d once, down each
column by d_{n+1,k} = d_{n,k} (n-k+t+kq)/(n-k+1), and V_k = binomial(y, k) x^k
once for all rows: P_n = n! sum_k d_{n,k} V_k, on integers: row n of n! d over
its own denominator, the V_k over one, each coefficient one dot product.  The
basis runs on integers too: with xval = X/dx and y = Y/dy (Y = x, dy = 1 for the
indeterminate), V_k = B_k/b_k with B_{k+1} = B_k X (Y - k dy) over
b_k dx dy (k+1), each step reduced by ``lowest_terms``.  An ordinary-normalized
family's row n goes over one more n! in the same constructor, so its n! is
paid once, not folded in and divided back out.  Where y is the indeterminate,
V_k is a degree-k polynomial in x (Meixner, Mittag-Leffler, Pidduck) and
n! d_{n,k} x^k are the coefficients on binomial(x, k).  The independent route,
``gf_rows``, expands each family's own generating function once, as a series
in z whose coefficients are exact polynomials in x, and reads every row off it.

Two slots as printed in the classical literature hide sign slips (the
Gegenbauer first slot and the Meixner (c-1)/c power); the generating
functions are authoritative and both corrections are pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import lcm
from operator import mul
from typing import Callable

from . import series as ps
from .polynomials import Polynomial, integer_product
from .rationals import exact, factorial, lowest_terms
from .series import TruncatedSeries

__all__ = [
    "MasterParams",
    "master_table",
    "master_polynomial",
    "master_gf_rows",
    "FAMILIES",
    "FAMILY_NAMES",
    "family_polynomial",
    "family_table",
    "gf_rows",
    "gf_oracle",
    "chebyshev_u",
    "gegenbauer",
    "meixner1",
    "mittag_leffler",
    "pidduck",
]


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
            xval = Polynomial.constant(exact(xval))
        if y is not None:
            y = exact(y)
        return cls(xval, y, exact(q), exact(t))


def master_table(nmax: int, p: MasterParams, ordinary: bool = False) -> tuple[list, list]:
    """Rows P_0..P_nmax of the explicit sum, exact, each row n over an extra n!
    when ``ordinary``, and the Riordan array d they are read from, row n of
    n! d_{n,0..n} as integer numerators over one denominator."""
    if nmax < 0:
        raise ValueError("master polynomial needs n >= 0")
    s = lcm(p.t.denominator, p.q.denominator)  # n-1-k+t+kq = ((n-1-k)s + ts + kqs)/s
    ts, qs = (p.t * s).numerator, (p.q * s).numerator
    d = [((1,), 1)]  # n! d_{n,n} = n!; down each column times n(n-1-k+t+kq)/(n-k)
    for n in range(1, nmax + 1):
        (num, den), f = d[-1], factorial(n)
        den *= s * f
        steps = [c * n * ((n - 1 - k) * s + ts + k * qs) * (f // (n - k)) for k, c in enumerate(num)]
        d.append(lowest_terms(steps + [f * den], den))
    basis = _basis(nmax, p)
    vden = lcm(*(bden for _, bden in basis))
    scaled = ([c * (vden // bden) for c in b] for b, bden in basis)
    columns = list(zip_longest(*scaled, fillvalue=0))
    widths = list(accumulate((len(b) for b, _ in basis), max))
    rows = [
        Polynomial.from_integers(
            [sum(map(mul, num, col)) for col in columns[: widths[n]]],
            den * vden * (factorial(n) if ordinary else 1),
        )
        for n, (num, den) in enumerate(d)
    ]
    return rows, d


def _basis(nmax: int, p: MasterParams) -> list:
    """V_k = binomial(y, k) xval^k for k = 0..nmax, as (numerators, denominator):
    with xval = X/dx and y = Y/dy, V_k = B_k/bden and
    B_{k+1} = B_k X (Y - k dy) over bden dx dy (k+1), on integers."""
    x, dx = p.xval.numerators, p.xval.denominator
    y, dy = ((0, 1), 1) if p.y is None else ((p.y.numerator,), p.y.denominator)
    basis = [((1,), 1)]
    for k in range(nmax):
        b, bden = basis[-1]
        step = integer_product(x, (y[0] - k * dy,) + y[1:])
        basis.append(lowest_terms(integer_product(b, step), bden * dx * dy * (k + 1)))
    return basis


def master_polynomial(n: int, p: MasterParams) -> Polynomial:
    """Row n of ``master_table``: the explicit sum, including the n! normalization."""
    return master_table(n, p)[0][n]


def master_gf_rows(nmax: int, p: MasterParams) -> list:
    """Generating-function route for the master polynomials: row n is n! [z^n]
    of (1-z)^(-t) (1 + xval*z/(1-z)^q)^y, from one expansion to order nmax
    with x carried exactly."""
    inner = _pole(nmax, p.q).shift_up() * p.xval + 1
    exponent = Polynomial.x() if p.y is None else p.y
    return _exponential_rows(ps.multiply(_pole(nmax, p.t), ps.power(inner, exponent)))


def chebyshev_params() -> MasterParams:
    return MasterParams.of(Polynomial((2, -2)), -1, 2, 2)


def gegenbauer_params(lam) -> MasterParams:
    lam = exact(lam)
    return MasterParams.of(Polynomial((2, -2)), -lam, 2, 2 * lam)


def meixner_params(b, c) -> MasterParams:
    c = exact(c)
    return MasterParams.of((c - 1) / c, None, 1, b)


def mittag_leffler_params() -> MasterParams:
    return MasterParams.of(2, None, 1, 0)


def pidduck_params() -> MasterParams:
    return MasterParams.of(2, None, 1, 1)


def _check_meixner(b, c):
    b, c = exact(b), exact(c)
    if c in (0, 1):
        raise ValueError(f"Meixner parameter c must avoid 0 and 1, got {c}")
    if b.denominator == 1 and b <= 0:
        raise ValueError(f"Meixner parameter b must avoid 0, -1, -2, ..., got {b}")
    return b, c


def _linear(c0, c1, order: int) -> TruncatedSeries:
    """The series c0 + c1*z at the given truncation order."""
    if order == 0:
        return TruncatedSeries((c0,))
    return TruncatedSeries((c0, c1) + (0,) * (order - 1))


def _pole(order: int, t) -> TruncatedSeries:
    """(1-z)^(-t)."""
    return ps.power(_linear(1, -1, order), -t)


def _chebyshev_kernel(order: int, lam) -> TruncatedSeries:
    """(1 - 2xz + z^2)^(-lam)."""
    coeffs = [Polynomial((1,)), Polynomial((0, -2)), Polynomial((1,))][: order + 1]
    coeffs += [Polynomial()] * (order + 1 - len(coeffs))
    return ps.power(TruncatedSeries(coeffs), -exact(lam))


def _ratio_power_x(order: int, c1) -> TruncatedSeries:
    """((1 + c1*z)/(1-z))^x as a polynomial-coefficient series."""
    ratio = ps.multiply(_linear(1, c1, order), _pole(order, 1))
    return ps.exp(ps.log(ratio) * Polynomial.x())


def _meixner_gf(order: int, b, c) -> TruncatedSeries:
    b, c = _check_meixner(b, c)
    return ps.multiply(_pole(order, b), _ratio_power_x(order, -1 / c))


def _as_polynomial(coeff) -> Polynomial:
    return coeff if isinstance(coeff, Polynomial) else Polynomial.constant(coeff)


def _exponential_rows(series: TruncatedSeries) -> list:
    """The n! [z^n] of a series as polynomials, read through ``series.to_exponential``."""
    num, den = ps.to_exponential(series)
    return [_as_polynomial(c if den == 1 else Fraction(c, den)) for c in num]


@dataclass(frozen=True)
class Family:
    """A registry entry; ``options`` names the keywords ``params`` and ``gf`` take."""

    params: Callable[..., MasterParams]
    gf: Callable[..., TruncatedSeries]
    ordinary: bool
    options: tuple[str, ...] = ()


FAMILIES = {
    "chebyshev-u": Family(chebyshev_params, lambda order: _chebyshev_kernel(order, 1), True),
    "gegenbauer": Family(gegenbauer_params, _chebyshev_kernel, True, ("lam",)),
    "meixner1": Family(
        lambda b, c: meixner_params(*_check_meixner(b, c)), _meixner_gf, False, ("b", "c")
    ),
    "mittag-leffler": Family(mittag_leffler_params, lambda order: _ratio_power_x(order, 1), False),
    "pidduck": Family(
        pidduck_params, lambda order: ps.multiply(_pole(order, 1), _ratio_power_x(order, 1)), False
    ),
}

FAMILY_NAMES = tuple(FAMILIES)


def _lookup(kind: str, supplied: dict) -> tuple[Family, dict]:
    """The registered family and the options it takes, picked from ``supplied``."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown family: {kind!r}")
    family = FAMILIES[kind]
    options = {name: supplied.get(name) for name in family.options}
    if None in options.values():
        raise ValueError(f"{kind} needs the parameters {', '.join(family.options)}")
    return family, options


def family_polynomial(kind: str, n: int, **options) -> Polynomial:
    """Row n of ``family_table``."""
    return family_table(kind, n, **options)[0][n]


def family_table(kind: str, nmax: int, **options):
    """Rows 0..nmax by the explicit route, normalized, and, when the second slot
    is the indeterminate, their coefficients n! d_{n,k} c^k on binomial(x, k),
    c the constant first slot, as integer rows over a denominator (else None)."""
    family, options = _lookup(kind, options)
    p = family.params(**options)
    rows, d = master_table(nmax, p, family.ordinary)
    if p.y is not None:
        return rows, None
    xn, xd = p.xval.numerators[0], p.xval.denominator
    npow, dpow = [xn**k for k in range(nmax + 1)], [xd**k for k in range(nmax + 1)]
    basis_rows = [
        lowest_terms([c * npow[k] * dpow[n - k] for k, c in enumerate(num)], den * dpow[n])
        for n, (num, den) in enumerate(d)
    ]
    return rows, basis_rows


def gf_rows(kind: str, nmax: int, lam=None, b=None, c=None) -> list:
    """Independent route: rows 0..nmax read off one expansion of the family's
    own generating function to order nmax.

    Row n is the degree-n polynomial at z^n (times n! for the egf-normalized
    families).  Shares nothing with the explicit sums above except the series
    engine.
    """
    family, options = _lookup(kind, {"lam": lam, "b": b, "c": c})
    series = family.gf(nmax, **options)
    if family.ordinary:
        return [_as_polynomial(coeff) for coeff in series.coeffs]
    return _exponential_rows(series)


def gf_oracle(kind: str, n: int, lam=None, b=None, c=None) -> Polynomial:
    """Row n of ``gf_rows``."""
    return gf_rows(kind, n, lam=lam, b=b, c=c)[n]


def chebyshev_u(n: int) -> Polynomial:
    """Tchebychev polynomial of the second kind, ordinary normalization."""
    return family_polynomial("chebyshev-u", n)


def gegenbauer(n: int, lam) -> Polynomial:
    """Gegenbauer polynomial with parameter lam, ordinary normalization."""
    return family_polynomial("gegenbauer", n, lam=lam)


def meixner1(n: int, b, c) -> Polynomial:
    """Meixner polynomial of the first kind, egf normalization."""
    return family_polynomial("meixner1", n, b=b, c=c)


def mittag_leffler(n: int) -> Polynomial:
    """Mittag-Leffler polynomial, egf normalization."""
    return family_polynomial("mittag-leffler", n)


def pidduck(n: int) -> Polynomial:
    """Pidduck polynomial, egf normalization."""
    return family_polynomial("pidduck", n)
