"""Umbrae as exact moment sequences, and the dot-operation algebra on them.

An umbra stands for a moment sequence m_0..m_N with m_0 = 1.  It is in
bijection with a truncated series f (its generating function) through
m_n = n! * [z^n] f(z).  All operations below come in a "moment" form (a
combinatorial rule on the sequences) wherever one exists, with the
generating-function route kept alongside as an independent cross-check:

    add                 binomial convolution      <->  f * g
    dot_scalar(a, u)    Miller's power recurrence on
                        integer moment numerators <->  f^a
    dot(g, u)           --                        <->  f_g(log f_u)
    derivative_umbra    m_n -> n * m_{n-1}        <->  1 + z f(z)
    composition_umbra   rows of (1, u) on g       <->  f_g(z f_u(z))
    inverse_umbra       --                        <->  1 + revert(f - 1)
    k_umbra             gamma(gamma - n.alpha)^(n-1) expansion
                                                  <->  f_g(revert(z f_u(z)))

The two arguments of ``add`` are always treated as distinct (uncorrelated)
umbrae, even when the same object is passed twice; correlated powers of a
single umbra live in :mod:`umbral.symbolic`, never here.

One row kernel applies an integer lower-triangular array over D to an
umbra u: row n dotted with u's numerators, over d_u * D.  Adding one fixed
umbra v again and again runs it on the weight rows w_n[k] = C(n,k) c_{n-k}(v),
built once.  ``add`` is a single step of it.
``iterated_sums(start, v)`` runs it as a triangle: start + k.v read to
order N - k, k = 0..N, all that the rows C(n,k) E[(start + k.v)^(n-k)]
of the exponential Riordan array of (start, v) read.  Those rows are the
Sheffer coefficient table of (gamma, alpha); the kernel applies the rows
of (augmentation, u) to g in ``composition_umbra``, and an array's rows to
a moment vector in ``sheffer.ftra_apply``.
The table of integer dot powers k.u (or k.(-u)), k = 0..N, is
``dot_powers(u, sign)``: the same steps from the augmentation, each to
full order N, built on first use and kept on the umbra (outside ``==``
and ``hash``) for as long as the umbra lives.  ``k_umbra`` and the Abel
form of a Sheffer sequence read entry k to order k - 1, which needs every
entry to order N - 1; the symbolic Abel construction and the Abel checks
read it too.  The series oracles (``*_series``, ``gf`` and everything
built on it) and ``dot_scalar`` read neither, so no identity takes its
oracle from them and Miller's recurrence stays an independent route to k.u.

An umbra is a ``rationals.RationalVector`` of its moments (the canonical
form is described there), so its numerators c_0..c_N over d have c_0 = d.
The moment routes above read and write these numerators directly, and
``moments`` and ``moment`` return the ``Fraction``s.  The series routes
read the stored numerators as their input (``gf`` and ``from_series`` are
the n! bridge of ``series``) but share no kernel with the moment routes:
no weight rows, sum kernel or dot-power table.  Moments and scalar
parameters are exact: a ``float`` raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from . import series as ps
from .rationals import RationalVector, exact, factorial, shared_denominator
from .series import TruncatedSeries

__all__ = [
    "Umbra",
    "from_series",
    "gf",
    "add",
    "iterated_sums",
    "dot_powers",
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


class Umbra(RationalVector):
    """An exact moment sequence m_0..m_N with m_0 = 1;
    ``Umbra(moments, denominator)`` has moments[n] / denominator.

    ``moments`` returns the ``Fraction``s, built on first access and kept;
    so is each table of ``dot_powers``.
    """

    __slots__ = ("_dot_tables",)

    def _adopt(self, num: tuple, den: int):
        if not num or num[0] != den:
            raise ValueError("an umbra needs moments starting with m_0 = 1")
        self._num, self._den = num, den
        self._dot_tables = None

    @property
    def order(self) -> int:
        return len(self._num) - 1

    moments = RationalVector._values

    def moment(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"moment index {n} outside available order {self.order}")
        return self.moments[n]

    def _check_order(self, other: "Umbra"):
        if self.order != other.order:
            raise ValueError(f"umbra order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, Umbra):
            return add(self, other)
        return NotImplemented

    def __repr__(self):
        return f"Umbra({[str(m) for m in self.moments]})"


def from_series(f: TruncatedSeries) -> Umbra:
    """The umbra of a generating function: m_n = n! * [z^n] f(z)."""
    if f._num[0] != f._den:
        raise ValueError("an umbra's generating function must have constant term 1")
    return Umbra(*ps.to_exponential(f))


def gf(u: Umbra) -> TruncatedSeries:
    """Generating function of an umbra, n! [z^n] = m_n; exact inverse of from_series."""
    return ps.from_exponential(u._num, u._den)


def _sum_weights(v: Umbra) -> list:
    """Rows w_n[k] = C(n,k) * c_{n-k}(v): adding v to u is then
    m_n = sum_k c_k(u) * w_n[k], over d_u * d_v."""
    c = v._num
    return [[comb(n, k) * c[n - k] for k in range(n + 1)] for n in range(len(c))]


def _apply_rows(u: Umbra, rows: list, den: int) -> Umbra:
    """Row n of an integer lower-triangular array over ``den``, dotted with
    u's numerators, over d_u * den: the one row kernel of the moment side."""
    a = u._num
    return Umbra.from_integers([sum(map(mul, a, row)) for row in rows], u._den * den)


def add(u: Umbra, v: Umbra) -> Umbra:
    """Sum of two uncorrelated umbrae: binomial convolution of moments.

    One step of the fixed-addend kernel of :func:`iterated_sums` and
    :func:`dot_powers`, on the integer numerators; the denominators multiply.
    """
    u._check_order(v)
    return _apply_rows(u, _sum_weights(v), v._den)


def iterated_sums(start: Umbra, v: Umbra) -> list:
    """start + k.v read to order N - k, for k = 0..N: the triangle that the
    binomial rows of (start, v) read, each an uncorrelated copy of v added
    to the last.

    The weight rows of v are built once; step k is one integer dot product
    per moment up to order N - k and one gcd pass.
    """
    start._check_order(v)
    weights, den = _sum_weights(v), v._den
    sums = [start]
    for top in range(v.order, 0, -1):
        sums.append(_apply_rows(sums[-1], weights[:top], den))
    return sums


def _binomial_rows(sums: list) -> tuple[list, int]:
    """Rows n = 0..N of C(n,k) * E[(start + k.v)^(n-k)], the exponential
    Riordan array of (start, v), as integers over one denominator, read off
    the triangle ``sums = iterated_sums(start, v)``."""
    columns, den = shared_denominator(sums)
    rows = [
        tuple(comb(n, k) * c[n - k] * s for k, (c, s) in enumerate(columns[: n + 1]))
        for n in range(len(columns))
    ]
    return rows, den


def _dot_power_table(u: Umbra, sign: int) -> tuple:
    """k.(sign u) for k = 0..N, each to full order N, by repeated sums from
    the augmentation."""
    v = u if sign > 0 else dot_scalar(-1, u)
    weights, den = _sum_weights(v), v._den
    table = [augmentation(u.order)]
    for _ in range(u.order):
        table.append(_apply_rows(table[-1], weights, den))
    return tuple(table)


def dot_powers(u: Umbra, sign: int = 1) -> tuple:
    """The table k.u (sign 1) or k.(-u) (sign -1) for k = 0..N.

    Built on first use and kept on ``u``, so every moment route on the same
    umbra shares one table; it lives as long as ``u`` does.
    """
    if sign not in (1, -1):
        raise ValueError(f"dot_powers takes sign 1 or -1, not {sign!r}")
    tables = u._dot_tables
    if tables is None:
        tables = u._dot_tables = {}
    table = tables.get(sign)
    if table is None:
        table = tables[sign] = _dot_power_table(u, sign)
    return table


def dot_scalar(a, u: Umbra) -> Umbra:
    """The umbra a.u with generating function f_u(z)^a, any rational a.

    J.C.P. Miller's power recurrence, written on moments:
    n*mu_n = sum_{k=1..n} ((a+1)k - n) * C(n,k) * m_k * mu_{n-k}.
    With a = p/q and m_k = c_k/d over the umbra's denominator d, the
    scaled moments M_n = mu_n * (q d)^n are integers and satisfy
    n*q*M_n = sum_k ((p+q)k - q n) * C(n,k) * c_k * q^k * d^(k-1) * M_{n-k},
    so the whole recurrence runs on integers with exact divisions.
    """
    p, q = (a, 1) if type(a) is int else exact(a).as_integer_ratio()
    c, d = u._num, u._den
    n_max = u.order
    weights = [0] + [c[k] * q**k * d ** (k - 1) for k in range(1, n_max + 1)]
    scaled = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for k in range(1, n + 1):
            if weights[k]:
                acc += ((p + q) * k - q * n) * comb(n, k) * weights[k] * scaled[n - k]
        scaled.append(acc // (n * q))
    scale = q * d
    return Umbra.from_integers([m * scale ** (n_max - n) for n, m in enumerate(scaled)], scale**n_max)


def dot(g: Umbra, u: Umbra) -> Umbra:
    """The umbra g.u with generating function f_g(log f_u(z))."""
    g._check_order(u)
    return from_series(ps.compose(gf(g), ps.log(gf(u))))


def derivative_umbra(u: Umbra) -> Umbra:
    """Moments n * m_{n-1}(u); generating function 1 + z f_u(z)."""
    c = u._num
    return Umbra.from_integers([u._den] + [n * c[n - 1] for n in range(1, len(c))], u._den)


def composition_umbra(g: Umbra, u: Umbra) -> Umbra:
    """Composition of g with u, by the binomial-type moment expansion.

    m_n = sum_k C(n,k) * m_k(g) * m_{n-k}(k.u): the rows of the pair
    (augmentation, u) read by :func:`_binomial_rows` off :func:`iterated_sums`,
    over one denominator D, applied to g by :func:`_apply_rows`, the kernel of
    ``sheffer.ftra_apply``, so every m_n is one integer dot product over
    d_g * D.  The series route :func:`composition_umbra_series` must and does agree.
    """
    g._check_order(u)
    return _apply_rows(g, *_binomial_rows(iterated_sums(augmentation(u.order), u)))


def composition_umbra_series(g: Umbra, u: Umbra) -> Umbra:
    """Series route for the composition: f_g(z * f_u(z))."""
    g._check_order(u)
    return from_series(ps.compose(gf(g), gf(u).shift_up()))


def inverse_umbra(u: Umbra) -> Umbra:
    """Compositional inverse: f(result) - 1 is the reversion of f_u - 1."""
    if u.order < 1 or u._num[1] == 0:
        raise ValueError("inverse_umbra needs a nonzero first moment")
    return from_series(ps.revert(gf(u) - 1) + 1)


def k_umbra(g: Umbra, u: Umbra) -> Umbra:
    """Moments E[g (g - n.u)^(n-1)] for n >= 1, with m_0 = 1.

    Expanding by uncorrelation of g and the dotted copy:
    m_n = sum_{j<n} C(n-1, j) * m_{j+1}(g) * m_{n-1-j}(-n.u).
    Equals the Lagrange-inversion series route :func:`k_umbra_series`.
    The dot powers -n.u come from the shared table ``dot_powers(u, -1)``,
    written over one common denominator D, so every m_n is one integer sum
    over d_g * D.
    """
    g._check_order(u)
    dotted, big = shared_denominator(dot_powers(u, -1))
    c = g._num
    out = [g._den * big]
    for n in range(1, u.order + 1):
        m, s = dotted[n]
        acc = sum(comb(n - 1, j) * c[j + 1] * m[n - 1 - j] for j in range(n) if c[j + 1])
        out.append(acc * s)
    return Umbra.from_integers(out, g._den * big)


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
    return from_series(ps.exp(ps.from_exponential([0] + [1] * order)))


def ubar(order: int) -> Umbra:
    """The umbra of 1/(1 - z): moments n!."""
    return Umbra([factorial(n) for n in range(order + 1)])


def scalar_umbra(a, order: int) -> Umbra:
    """The umbra of e^(a z): moments a^n.  scalar_umbra(1, N) is the unity.

    With a = p/q the numerators p^n q^(N-n) over q^N are already canonical.
    """
    a = exact(a)
    p, q = a.numerator, a.denominator
    return Umbra([p**n * q ** (order - n) for n in range(order + 1)], q**order)
