"""Sheffer sequences and the exponential Riordan group.

A pair (gamma, alpha) of umbrae encodes the Sheffer sequence with
exponential generating function A(z) e^{x z B(z)}, where A and B are the
generating functions of gamma and alpha.  Its coefficient matrix

    s_{n,k} = C(n,k) * E[(gamma + k.alpha)^(n-k)]

is the exponential Riordan array of the pair; the same numbers fall out of
the series extraction n! [z^n] A(z) (z B(z))^k / k!, which this module
keeps as the independent oracle.  Pair composition

    (gamma, alpha)(eta, delta) = (gamma + eta.bell.alpha', alpha + delta.bell.alpha')

(with .bell.alpha' the composition umbra) mirrors matrix multiplication,
and the inverse pair is (-1.K(gamma, alpha), -1.K(alpha, alpha)).  Arrays
carry their defining pair so every group operation can be verified on both
the matrix side and the umbra side.  A product's pair (the composed pair)
and a flavor conversion's pair are computed on first access, so matrix
arithmetic that only reads entries never pays for pair composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import series as ps
from .polynomials import Polynomial
from .rationals import factorial
from .symbolic import UmbralSymbol, X, atom
from .umbra import (
    Umbra,
    add,
    augmentation,
    composition_umbra,
    dot_scalar,
    gf,
    k_umbra,
)

__all__ = [
    "UmbraPair",
    "ShefferSequence",
    "RiordanArray",
    "identity_pair",
    "sheffer_sequence",
    "sheffer_sequence_series",
    "abel_representation",
    "riordan_array",
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


@dataclass(frozen=True)
class ShefferSequence:
    """The polynomials s_0..s_N of a pair; s_n is monic of degree n."""

    pair: UmbraPair
    polys: tuple


class RiordanArray:
    """Exact lower-triangular matrix with its defining pair.

    The exponential flavor has unit diagonal; the ordinary flavor rescales
    entry (n, k) by k!/n!.  ``pair`` may be given as a zero-argument
    callable; it is then called on the first access of ``.pair``.
    """

    __slots__ = ("_pair", "entries", "flavor")

    def __init__(self, pair, entries: tuple, flavor: str):
        self._pair = pair
        self.entries = entries
        self.flavor = flavor

    @property
    def pair(self) -> UmbraPair:
        if not isinstance(self._pair, UmbraPair):
            self._pair = self._pair()
        return self._pair

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    def entry(self, n: int, k: int) -> Fraction:
        return self.entries[n][k]


def identity_pair(order: int) -> UmbraPair:
    eps = augmentation(order)
    return UmbraPair(eps, eps)


def _shifted_moments(pair: UmbraPair):
    """E[(gamma + k.alpha)^m] for k = 0..N, as a list of umbrae.

    Each entry adds one more uncorrelated copy of alpha to the previous one.
    """
    shifted = [pair.gamma]
    for _ in range(pair.order):
        shifted.append(add(shifted[-1], pair.alpha))
    return shifted


def _coefficient_table(pair: UmbraPair):
    """s_{n,k} = C(n,k) E[(gamma + k.alpha)^(n-k)] for 0 <= k <= n <= N."""
    shifted = _shifted_moments(pair)
    n_max = pair.order
    rows = []
    for n in range(n_max + 1):
        row = [
            comb(n, k) * shifted[k].moment(n - k) for k in range(n + 1)
        ] + [Fraction(0)] * (n_max - n)
        rows.append(tuple(row))
    return tuple(rows)


def sheffer_sequence(pair: UmbraPair) -> ShefferSequence:
    """Sheffer polynomials from the binomial moment expansion."""
    table = _coefficient_table(pair)
    polys = tuple(Polynomial(row[: n + 1]) for n, row in enumerate(table))
    return ShefferSequence(pair, polys)


def sheffer_sequence_series(pair: UmbraPair) -> tuple:
    """Oracle route: s_n(x) = n! [z^n] A(z) e^{x z B(z)}, via the array extraction."""
    table = riordan_entries_series(pair)
    return tuple(Polynomial(row[: n + 1]) for n, row in enumerate(table))


def abel_representation(pair: UmbraPair) -> ShefferSequence:
    """Sheffer polynomials in their Abel form.

    s_n(x) = E[(x + K)(x + K + n.K_alpha)^(n-1)] with K = K(gamma, alpha);
    both occurrences of K are the same (correlated) symbol, the n.K_alpha
    displacement is a fresh one.  Agrees with :func:`sheffer_sequence`.
    """
    kga = k_umbra(pair.gamma, pair.alpha)
    kaa = k_umbra(pair.alpha, pair.alpha)
    polys = [Polynomial((1,))]
    for n in range(1, pair.order + 1):
        base = atom(X) + atom(UmbralSymbol(kga, label="K"))
        shift = atom(UmbralSymbol(dot_scalar(n, kaa), label=f"{n}.Ka"))
        expr = (base * (base + shift) ** (n - 1)).evaluate()
        polys.append(expr.to_univariate(X))
    return ShefferSequence(pair, tuple(polys))


def riordan_array(pair: UmbraPair, flavor: str = "exponential") -> RiordanArray:
    """The Riordan array of a pair, exponential by construction.

    The ordinary flavor is produced by rescaling the exponential one, the
    same diagonal similarity that makes the two groups isomorphic.
    """
    if flavor not in ("exponential", "ordinary"):
        raise ValueError(f"unknown Riordan flavor: {flavor!r}")
    array = RiordanArray(pair, _coefficient_table(pair), "exponential")
    if flavor == "ordinary":
        array = flavor_convert(array)
    return array


def riordan_entries_series(pair: UmbraPair):
    """Series oracle for the entries: s_{n,k} = n! [z^n] A(z) (z B(z))^k / k!."""
    n_max = pair.order
    a = gf(pair.gamma)
    zb = gf(pair.alpha).shift_up()
    rows = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    column = a
    for k in range(n_max + 1):
        scale = Fraction(1, factorial(k))
        for n in range(n_max + 1):
            rows[n][k] = factorial(n) * column[n] * scale
        if k < n_max:
            column = ps.multiply(column, zb)
    return tuple(tuple(row) for row in rows)


def umbral_compose(p: UmbraPair, q: UmbraPair) -> UmbraPair:
    """Pair composition mirroring the product of the Riordan arrays."""
    if p.order != q.order:
        raise ValueError(f"pair order mismatch: {p.order} vs {q.order}")
    return UmbraPair(
        add(p.gamma, composition_umbra(q.gamma, p.alpha)),
        add(p.alpha, composition_umbra(q.alpha, p.alpha)),
    )


def _matrix_product(a, b, size):
    rows = []
    for n in range(size):
        row = []
        for k in range(size):
            acc = Fraction(0)
            for i in range(k, n + 1):
                acc += a[n][i] * b[i][k]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def riordan_multiply(a: RiordanArray, b: RiordanArray) -> RiordanArray:
    """Matrix product; the pair of the result is the composed pair, on demand."""
    if a.flavor != b.flavor:
        raise ValueError(f"Riordan flavor mismatch: {a.flavor} vs {b.flavor}")
    if a.order != b.order:
        raise ValueError(f"Riordan order mismatch: {a.order} vs {b.order}")
    entries = _matrix_product(a.entries, b.entries, a.order + 1)
    return RiordanArray(lambda: umbral_compose(a.pair, b.pair), entries, a.flavor)


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
    """Apply the array to a moment vector.

    The matrix-vector product must equal the moments of
    gamma + seq.bell.alpha' (the composition-umbra route); both are
    computed and compared before returning.
    """
    if a.flavor != "exponential":
        raise ValueError("the moment transform is stated for exponential arrays")
    if a.order != seq.order:
        raise ValueError(f"order mismatch: array {a.order} vs sequence {seq.order}")
    matrix_route = tuple(
        sum((a.entry(n, k) * seq.moment(k) for k in range(n + 1)), Fraction(0))
        for n in range(a.order + 1)
    )
    umbra_route = add(a.pair.gamma, composition_umbra(seq, a.pair.alpha))
    if matrix_route != umbra_route.moments:
        raise ArithmeticError(
            "matrix and umbra transform routes disagree; this is a bug"
        )
    return umbra_route


def flavor_convert(a: RiordanArray) -> RiordanArray:
    """Rescale entry (n, k) by k!/n! (or back); a multiplicative isomorphism."""
    if a.flavor == "exponential":
        new_flavor = "ordinary"
        scale = lambda n, k: Fraction(factorial(k), factorial(n))
    else:
        new_flavor = "exponential"
        scale = lambda n, k: Fraction(factorial(n), factorial(k))
    entries = tuple(
        tuple(a.entry(n, k) * scale(n, k) for k in range(a.order + 1))
        for n in range(a.order + 1)
    )
    return RiordanArray(lambda: a.pair, entries, new_flavor)
