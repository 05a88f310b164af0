"""Umbrae as exact moment sequences, and the dot-operation algebra on them.

An umbra stands for a moment sequence m_0..m_N with m_0 = 1.  It is in
bijection with a truncated series f (its generating function) through
m_n = n! * [z^n] f(z).  All operations below come in a "moment" form (a
combinatorial rule on the sequences) wherever one exists, with the
generating-function route kept alongside as an independent cross-check:

    add                 binomial convolution      <->  f * g
    dot_scalar(a, u)    a-fold sum for integer a  <->  f^a
    dot(g, u)           --                        <->  f_g(log f_u)
    derivative_umbra    m_n -> n * m_{n-1}        <->  1 + z f(z)
    composition_umbra   double binomial sum       <->  f_g(z f_u(z))
    inverse_umbra       --                        <->  1 + revert(f - 1)
    k_umbra             gamma(gamma - n.alpha)^(n-1) expansion
                                                  <->  f_g(revert(z f_u(z)))

The two arguments of ``add`` are always treated as distinct (uncorrelated)
umbrae, even when the same object is passed twice; correlated powers of a
single umbra live in :mod:`umbral.symbolic`, never here.

The moment routes that need a whole table of integer dot powers k.u
(``composition_umbra`` for k = 0..N, ``k_umbra`` for k = -1..-N) build it
by iterated uncorrelated sums, k.u = (k-1).u + u, so they stay purely
combinatorial against their series oracles and pay one ``add`` per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from . import series as ps
from .rationals import factorial
from .series import TruncatedSeries

__all__ = [
    "Umbra",
    "from_series",
    "gf",
    "add",
    "dot_scalar",
    "dot",
    "derivative_umbra",
    "composition_umbra",
    "composition_umbra_series",
    "inverse_umbra",
    "k_umbra",
    "k_umbra_series",
    "augmentation",
    "singleton",
    "bell",
    "ubar",
    "scalar_umbra",
]


class Umbra:
    """An exact moment sequence m_0..m_N with m_0 = 1."""

    __slots__ = ("_moments",)

    def __init__(self, moments):
        moments = tuple(Fraction(m) for m in moments)
        if not moments or moments[0] != 1:
            raise ValueError("an umbra needs moments starting with m_0 = 1")
        self._moments = moments

    @property
    def order(self) -> int:
        return len(self._moments) - 1

    @property
    def moments(self) -> tuple:
        return self._moments

    def moment(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"moment index {n} outside available order {self.order}")
        return self._moments[n]

    def _check_order(self, other: "Umbra"):
        if self.order != other.order:
            raise ValueError(f"umbra order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, Umbra):
            return add(self, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Umbra):
            return self._moments == other._moments
        return NotImplemented

    def __hash__(self):
        return hash(self._moments)

    def __repr__(self):
        return f"Umbra({[str(m) for m in self._moments]})"


def from_series(f: TruncatedSeries) -> Umbra:
    """The umbra of a generating function: m_n = n! * [z^n] f(z)."""
    if f[0] != 1:
        raise ValueError("an umbra's generating function must have constant term 1")
    return Umbra(tuple(factorial(n) * f[n] for n in range(f.order + 1)))


def gf(u: Umbra) -> TruncatedSeries:
    """Generating function of an umbra; exact inverse of from_series."""
    return TruncatedSeries(tuple(m / factorial(n) for n, m in enumerate(u.moments)))


def _over_common_denominator(u: Umbra):
    """Integers c_n and one denominator d with m_n = c_n / d."""
    den = lcm(*(m.denominator for m in u.moments))
    return [m.numerator * (den // m.denominator) for m in u.moments], den


def add(u: Umbra, v: Umbra) -> Umbra:
    """Sum of two uncorrelated umbrae: binomial convolution of moments.

    The convolution runs on integer numerators over one common denominator.
    """
    u._check_order(v)
    a, da = _over_common_denominator(u)
    b, db = _over_common_denominator(v)
    return Umbra(
        Fraction(sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)), da * db)
        for n in range(u.order + 1)
    )


def dot_scalar(a, u: Umbra) -> Umbra:
    """The umbra a.u with generating function f_u(z)^a, any rational a."""
    return from_series(ps.power(gf(u), Fraction(a)))


def dot(g: Umbra, u: Umbra) -> Umbra:
    """The umbra g.u with generating function f_g(log f_u(z))."""
    g._check_order(u)
    return from_series(ps.compose(gf(g), ps.log(gf(u))))


def derivative_umbra(u: Umbra) -> Umbra:
    """Moments n * m_{n-1}(u); generating function 1 + z f_u(z)."""
    out = [Fraction(1)]
    for n in range(1, u.order + 1):
        out.append(n * u.moment(n - 1))
    return Umbra(out)


def composition_umbra(g: Umbra, u: Umbra) -> Umbra:
    """Composition of g with u, by the binomial-type moment expansion.

    m_n = sum_k C(n,k) * m_k(g) * m_{n-k}(k.u); the series route
    :func:`composition_umbra_series` must and does agree.
    """
    g._check_order(u)
    n_max = u.order
    dotted = [augmentation(n_max)]
    for _ in range(n_max):
        dotted.append(add(dotted[-1], u))
    out = []
    for n in range(n_max + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            mg = g.moment(k)
            if mg == 0:
                continue
            acc += comb(n, k) * mg * dotted[k].moment(n - k)
        out.append(acc)
    return Umbra(out)


def composition_umbra_series(g: Umbra, u: Umbra) -> Umbra:
    """Series route for the composition: f_g(z * f_u(z))."""
    g._check_order(u)
    return from_series(ps.compose(gf(g), gf(u).shift_up()))


def inverse_umbra(u: Umbra) -> Umbra:
    """Compositional inverse: f(result) - 1 is the reversion of f_u - 1."""
    if u.order < 1 or u.moment(1) == 0:
        raise ValueError("inverse_umbra needs a nonzero first moment")
    f = gf(u)
    inner = TruncatedSeries((Fraction(0),) + f.coeffs[1:])
    return from_series(ps.revert(inner) + 1)


def k_umbra(g: Umbra, u: Umbra) -> Umbra:
    """Moments E[g (g - n.u)^(n-1)] for n >= 1, with m_0 = 1.

    Expanding by uncorrelation of g and the dotted copy:
    m_n = sum_{j<n} C(n-1, j) * m_{j+1}(g) * m_{n-1-j}(-n.u).
    Equals the Lagrange-inversion series route :func:`k_umbra_series`.
    """
    g._check_order(u)
    n_max = u.order
    minus_u = dot_scalar(-1, u)
    dotted = augmentation(n_max)
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        dotted = add(dotted, minus_u)
        acc = Fraction(0)
        for j in range(n):
            mg = g.moment(j + 1)
            if mg == 0:
                continue
            acc += comb(n - 1, j) * mg * dotted.moment(n - 1 - j)
        out.append(acc)
    return Umbra(out)


def k_umbra_series(g: Umbra, u: Umbra) -> Umbra:
    """Series route for the same umbra: f_g(revert(z * f_u(z)))."""
    g._check_order(u)
    if u.order == 0:
        return Umbra((1,))
    return from_series(ps.compose(gf(g), ps.revert(gf(u).shift_up())))


def augmentation(order: int) -> Umbra:
    """The umbra of 1: moments 1, 0, 0, ...  Additive identity."""
    return Umbra((1,) + (0,) * order)


def singleton(order: int) -> Umbra:
    """The umbra of 1 + z: moments 1, 1, 0, 0, ..."""
    if order == 0:
        return Umbra((1,))
    return Umbra((1, 1) + (0,) * (order - 1))


def bell(order: int) -> Umbra:
    """The umbra of exp(e^z - 1); its moments are the Bell numbers."""
    inner = TruncatedSeries(
        tuple(Fraction(1, factorial(n)) if n else Fraction(0) for n in range(order + 1))
    )
    return from_series(ps.exp(inner))


def ubar(order: int) -> Umbra:
    """The umbra of 1/(1 - z): moments n!."""
    return Umbra(tuple(factorial(n) for n in range(order + 1)))


def scalar_umbra(a, order: int) -> Umbra:
    """The umbra of e^(a z): moments a^n.  scalar_umbra(1, N) is the unity."""
    a = Fraction(a)
    return Umbra(tuple(a**n for n in range(order + 1)))
