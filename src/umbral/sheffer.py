"""Sheffer sequences and the exponential Riordan group.

A pair (gamma, alpha) of umbrae encodes the Sheffer sequence with
exponential generating function A(z) e^{x z B(z)}, where A and B are the
generating functions of gamma and alpha.  Its coefficient matrix

    s_{n,k} = C(n,k) * E[(gamma + k.alpha)^(n-k)]

is the exponential Riordan array of the pair; the same numbers fall out of
the series extraction n! [z^n] A(z) (z B(z))^k / k!, which this module
keeps as the independent oracle ``riordan_array_series``: the columns
A (z B)^k as series products, written as an array over one denominator,
so the two routes compare as arrays, on integers.  Pair composition

    (gamma, alpha)(eta, delta) = (gamma + eta.bell.alpha', alpha + delta.bell.alpha')

(with .bell.alpha' the composition umbra) mirrors matrix multiplication,
and the inverse pair is (-1.K(gamma, alpha), -1.K(alpha, alpha)).  Arrays
carry their defining pair so every group operation can be verified on both
the matrix side and the umbra side.  A product's pair (the composed pair)
and a flavor conversion's pair are computed on first access, so matrix
arithmetic that only reads entries never pays for pair composition.
An array is a ``RationalVector`` of its entries, row by row, like an umbra
of its moments, and every operation runs on its integer rows.

The Abel form s_n(x) = E[(x + K)(x + K + n.K(alpha, alpha))^(n-1)], with
K = K(gamma, alpha), is expanded through the moments of the two K umbrae
(Lagrange inversion, and the dot powers n.K(alpha, alpha) to order
n - 1, read from the shared triangle of :func:`umbral.umbra.dot_powers`),
so this module does not need the symbolic engine; the tests keep the
symbolic expansion of the same expectation as its witness.  The
coefficient table is the binomial rows of (gamma, alpha) read off the
triangle of :func:`umbral.umbra.iterated_sums`, by the one helper that
:func:`umbral.umbra.composition_umbra` and ``umbral_compose`` read too;
``ftra_apply`` applies an array by the row kernel of :mod:`umbral.umbra`.  The Sheffer
polynomials are the rows of the array read as polynomials by
:func:`row_polynomials`, so ``sheffer_sequence`` is that step applied to
``riordan_array``, and a caller that already holds the array applies it
directly instead of building the table again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import comb, isqrt, lcm
from operator import mul

from . import series as ps
from .polynomials import Polynomial
from .rationals import RationalVector, factorial
from .umbra import (
    Umbra,
    _apply_rows,
    _binomial_rows,
    _sum_weights,
    add,
    augmentation,
    dot_powers,
    dot_scalar,
    gf,
    iterated_sums,
    k_umbra,
)

__all__ = [
    "UmbraPair",
    "RiordanArray",
    "identity_pair",
    "row_polynomials",
    "sheffer_sequence",
    "sheffer_sequence_series",
    "abel_representation",
    "riordan_array",
    "riordan_array_series",
    "riordan_entries_series",
    "umbral_compose",
    "riordan_multiply",
    "riordan_inverse",
    "ftra_apply",
    "flavor_convert",
]


@dataclass(frozen=True)
class UmbraPair:
    """An ordered pair of equal-order umbrae defining a Sheffer sequence."""

    gamma: Umbra
    alpha: Umbra

    def __post_init__(self):
        if self.gamma.order != self.alpha.order:
            raise ValueError(
                f"pair order mismatch: {self.gamma.order} vs {self.alpha.order}"
            )

    @property
    def order(self) -> int:
        return self.gamma.order


class RiordanArray(RationalVector):
    """Exact lower-triangular matrix with its defining pair.

    A ``RationalVector`` of the entries (n, k), k <= n, row by row: row n of
    ``rows`` is a slice of n + 1 numerators over ``denominator``.  ``==``
    compares the base's pair and the flavor.  The exponential flavor has
    unit diagonal; the ordinary flavor rescales entry (n, k) by k!/n!.
    ``pair`` may be given as a zero-argument callable, called on first access.
    """

    __slots__ = ("_pair", "flavor")

    def __init__(self, pair, rows, denominator: int, flavor: str):
        rows = list(rows)  # read once: an iterator is used up by the check
        if any(len(row) != n + 1 for n, row in enumerate(rows)):
            raise ValueError("row n of a Riordan array holds the n + 1 entries (n, 0..n)")
        super().__init__(chain.from_iterable(rows), denominator)
        self._pair, self.flavor = pair, flavor

    @classmethod
    def from_integers(cls, numerators, denominator: int = 1):
        raise TypeError("a Riordan array is built as RiordanArray(pair, rows, denominator, flavor)")

    @property
    def pair(self) -> UmbraPair:
        if not isinstance(self._pair, UmbraPair):
            self._pair = self._pair()
        return self._pair

    @property
    def order(self) -> int:
        return (isqrt(8 * len(self._num) + 1) - 3) // 2

    @property
    def rows(self) -> tuple:
        num = self._num
        return tuple(num[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2] for n in range(self.order + 1))

    @property
    def entries(self) -> tuple:
        """The square table of entries as ``Fraction``s, zero above the diagonal."""
        values, size, zero = iter(self._values), self.order + 1, (Fraction(0),)
        return tuple(tuple(islice(values, n + 1)) + zero * (size - n - 1) for n in range(size))

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= min(n, k) <= max(n, k) <= self.order:
            raise ValueError(f"entry ({n}, {k}) outside available order {self.order}")
        return self._values[n * (n + 1) // 2 + k] if k <= n else Fraction(0)

    def __eq__(self, other):
        if type(other) is not RiordanArray:
            return NotImplemented
        return self.flavor == other.flavor and super().__eq__(other)

    # a class that defines __eq__ drops the inherited __hash__
    __hash__ = RationalVector.__hash__


def identity_pair(order: int) -> UmbraPair:
    eps = augmentation(order)
    return UmbraPair(eps, eps)


def row_polynomials(array: RiordanArray) -> tuple:
    """Row n of the array as the polynomial sum_k entry(n, k) x^k, n = 0..N;
    for the exponential array of a pair, its Sheffer sequence."""
    return tuple(Polynomial.from_integers(row, array.denominator) for row in array.rows)


def sheffer_sequence(pair: UmbraPair) -> tuple:
    """Sheffer polynomials s_0..s_N from the binomial moment expansion: the
    row polynomials of the pair's array; s_n is monic of degree n."""
    return row_polynomials(riordan_array(pair))


def sheffer_sequence_series(pair: UmbraPair) -> tuple:
    """Oracle route: s_n(x) = n! [z^n] A(z) e^{x z B(z)}, the row polynomials
    of the array extraction."""
    return row_polynomials(riordan_array_series(pair))


def abel_representation(pair: UmbraPair) -> tuple:
    """Sheffer polynomials in their Abel form.

    s_n(x) = E[(x + K)(x + K + S)^(n-1)] with K = K(gamma, alpha) and
    S = n.K(alpha, alpha); both occurrences of K are the same (correlated)
    umbra, S is a fresh one.  Expanding in S, then in K:

        s_n(x) = sum_j C(n-1, j) m_j(S) sum_i C(n-j, i) m_{n-j-i}(K) x^i,

    on integer moment numerators, one division per coefficient.  The inner sums
    read the Appell rows of K (the sum kernel's weight rows, built once), and the
    n.K(alpha, alpha) entry n of one ``dot_powers`` triangle, which holds it to
    order n - 1.  Agrees with :func:`sheffer_sequence`, sharing only ``comb``
    and the fixed-addend step that ``dot_powers`` and ``iterated_sums`` repeat;
    its oracle is the series array.
    """
    kga = k_umbra(pair.gamma, pair.alpha)
    appell, dk = _sum_weights(kga), kga.denominator
    shifts = dot_powers(k_umbra(pair.alpha, pair.alpha))
    polys = [Polynomial((1,))]
    for n in range(1, pair.order + 1):
        shift = shifts[n]
        s, ds = shift.numerators, shift.denominator
        coeffs = [0] * (n + 1)
        for j in range(n):
            w = comb(n - 1, j) * s[j]
            if w:
                for i, e in enumerate(appell[n - j]):
                    coeffs[i] += w * e
        polys.append(Polynomial.from_integers(coeffs, ds * dk))
    return tuple(polys)


def riordan_array(pair: UmbraPair) -> RiordanArray:
    """The exponential Riordan array of a pair: the binomial rows of
    (gamma, alpha).  The ordinary array is ``flavor_convert(riordan_array(pair))``,
    the diagonal similarity that makes the two groups isomorphic."""
    rows, den = _binomial_rows(iterated_sums(pair.gamma, pair.alpha))
    return RiordanArray(pair, rows, den, "exponential")


def riordan_array_series(pair: UmbraPair) -> RiordanArray:
    """Series oracle for the array: s_{n,k} = n! [z^n] A(z) (z B(z))^k / k!.

    Column k is the series A (z B)^k, one product with z B after column
    k - 1; ``series.to_exponential`` reads it on the n! scale as e_n / D_k,
    so s_{n,k} = e_n / (k! D_k), and the rows are written over the lcm L of
    the k! D_k as the integers e_n (L / (k! D_k)), k <= n.
    """
    n_max = pair.order
    zb = gf(pair.alpha).shift_up()
    columns = [gf(pair.gamma)]
    while len(columns) <= n_max:
        columns.append(ps.multiply(columns[-1], zb))
    lifted = [ps.to_exponential(col) for col in columns]
    dens = [factorial(k) * den for k, (_, den) in enumerate(lifted)]
    big = lcm(*dens)
    lifts = [(e, big // den) for (e, _), den in zip(lifted, dens)]
    rows = [[e[n] * s for e, s in lifts[: n + 1]] for n in range(n_max + 1)]
    return RiordanArray(pair, rows, big, "exponential")


def riordan_entries_series(pair: UmbraPair):
    """The entries of :func:`riordan_array_series`, as ``Fraction``s."""
    return riordan_array_series(pair).entries


def umbral_compose(p: UmbraPair, q: UmbraPair) -> UmbraPair:
    """Pair composition mirroring the product of the Riordan arrays; the rows
    of (augmentation, p.alpha) that ``composition_umbra`` reads are built once."""
    if p.order != q.order:
        raise ValueError(f"pair order mismatch: {p.order} vs {q.order}")
    rows, den = _binomial_rows(iterated_sums(augmentation(p.order), p.alpha))
    return UmbraPair(
        add(p.gamma, _apply_rows(q.gamma, rows, den)),
        add(p.alpha, _apply_rows(q.alpha, rows, den)),
    )


def riordan_multiply(a: RiordanArray, b: RiordanArray) -> RiordanArray:
    """Matrix product, one integer dot product per entry over the product of
    the denominators: row n of a against column k of b, each column of b
    collected once; the pair of the result is the composed pair, on demand."""
    if a.flavor != b.flavor:
        raise ValueError(f"Riordan flavor mismatch: {a.flavor} vs {b.flavor}")
    if a.order != b.order:
        raise ValueError(f"Riordan order mismatch: {a.order} vs {b.order}")
    b_rows = b.rows
    columns = [[row[k] for row in b_rows[k:]] for k in range(len(b_rows))]
    rows = [
        [sum(map(mul, row[k : n + 1], columns[k])) for k in range(n + 1)]
        for n, row in enumerate(a.rows)
    ]
    return RiordanArray(
        lambda: umbral_compose(a.pair, b.pair), rows, a.denominator * b.denominator, a.flavor
    )


def riordan_inverse(a: RiordanArray) -> RiordanArray:
    """Group inverse via the pair (-1.K(gamma, alpha), -1.K(alpha, alpha))."""
    if a.flavor != "exponential":
        raise ValueError("only exponential arrays carry the unit diagonal needed here")
    pair = a.pair
    inverse_pair = UmbraPair(
        dot_scalar(-1, k_umbra(pair.gamma, pair.alpha)),
        dot_scalar(-1, k_umbra(pair.alpha, pair.alpha)),
    )
    return riordan_array(inverse_pair)


def ftra_apply(a: RiordanArray, seq: Umbra) -> Umbra:
    """Apply the array to a moment vector, the matrix-vector product, by umbra's row kernel.

    It equals the moments of gamma + seq.bell.alpha'; the riordan-group
    suite checks it against their series f_gamma(z) f_seq(z f_alpha(z)).
    """
    if a.flavor != "exponential":
        raise ValueError("the moment transform is stated for exponential arrays")
    if a.order != seq.order:
        raise ValueError(f"order mismatch: array {a.order} vs sequence {seq.order}")
    return _apply_rows(seq, a.rows, a.denominator)


def flavor_convert(a: RiordanArray) -> RiordanArray:
    """Rescale entry (n, k) by k!/n! (or back); a multiplicative isomorphism.
    Over N! times the denominator, numerator (n, k) gains k! N!/n! (or n! N!/k!)."""
    facts = [factorial(i) for i in range(a.order + 1)]
    top = facts[-1]
    cofacts = [top // f for f in facts]
    to_ordinary = a.flavor == "exponential"
    by_row, by_column = (cofacts, facts) if to_ordinary else (facts, cofacts)
    rows = [
        [c * by_row[n] * by_column[k] for k, c in enumerate(row)] for n, row in enumerate(a.rows)
    ]
    return RiordanArray(
        lambda: a.pair, rows, a.denominator * top, "ordinary" if to_ordinary else "exponential"
    )
