"""Formal umbral polynomials: distinct symbols, the variables x and y, and
the evaluation functional.

The evaluation E is linear and factorizes over distinct symbols,

    E[x^a * s1^b * s2^c * ...] = x^a * m_b(s1) * m_c(s2) * ...,

so which occurrences share a symbol decides everything.  Two symbols with
different identities are uncorrelated even when bound to equal moment
sequences; a fresh symbol must be minted for every independent copy, and
the helpers here make that explicit rather than implicit.

Expressions are sparse polynomials over the atoms {x, y} and any number of
umbral symbols, with exact rational coefficients.  A second variable y is
supported so two-variable identities can be checked as exact polynomial
equalities rather than at sampled points.

Powers are built by repeated multiplication, p^n = p^(n-1) * p, not by
repeated squaring.  The bases here are sparse (two or three atoms, such as
x + K + s), and for sparse polynomials each squaring multiplies two dense
intermediate powers, so squaring costs more monomial products than the
plain loop (R. J. Fateman, "On the computation of powers of sparse
polynomials", Stud. Appl. Math. 53, 1974).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .polynomials import Polynomial
from .umbra import Umbra, dot_scalar

__all__ = [
    "FormalVariable",
    "X",
    "Y",
    "UmbralSymbol",
    "UmbralPolynomial",
    "atom",
    "constant",
    "substitute",
    "abel",
    "abel_expression",
]


class FormalVariable:
    """A commuting variable (x or y) surviving evaluation untouched."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


X = FormalVariable("x")
Y = FormalVariable("y")

_ids = itertools.count()


class UmbralSymbol:
    """A symbol bound to an umbra.  Identity, not binding, decides correlation."""

    __slots__ = ("binding", "label", "_id")

    def __init__(self, binding: Umbra, label: str | None = None):
        self.binding = binding
        self._id = next(_ids)
        self.label = label if label is not None else f"s{self._id}"

    def __repr__(self):
        return self.label


def _sort_key(a):
    if isinstance(a, FormalVariable):
        return (0, a.name, 0)
    return (1, "", a._id)


def _coerce_operand(value):
    if isinstance(value, UmbralPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return constant(value)
    if isinstance(value, (FormalVariable, UmbralSymbol)):
        return atom(value)
    return None


class UmbralPolynomial:
    """Sparse polynomial over {x, y} and umbral symbols, rationals as scalars.

    Monomial keys are canonically sorted tuples of (atom, exponent); zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __add__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return UmbralPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UmbralPolynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UmbralPolynomial({m: c * other for m, c in self.terms.items()})
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return UmbralPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of umbral polynomials are not defined")
        result = constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: tuple(_sort_key(a) + (e,) for a, e in m)):
            c = self.terms[m]
            factors = [f"{a!r}^{e}" if e > 1 else f"{a!r}" for a, e in m]
            bits.append(f"{c}*{'*'.join(factors)}" if factors else str(c))
        return " + ".join(bits)

    def evaluate(self) -> "UmbralPolynomial":
        """Apply E: replace each symbol power by its moment, keep x and y."""
        out: dict = {}
        for m, c in self.terms.items():
            value = c
            rest = []
            for a, e in m:
                if isinstance(a, FormalVariable):
                    rest.append((a, e))
                else:
                    if e > a.binding.order:
                        raise ValueError(
                            f"symbol {a.label} raised to {e} exceeds its moment order {a.binding.order}"
                        )
                    value *= a.binding.moment(e)
            if value != 0:
                key = tuple(rest)
                out[key] = out.get(key, Fraction(0)) + value
        return UmbralPolynomial(out)

    def formal_derivative(self, wrt) -> "UmbralPolynomial":
        """Termwise power-rule derivative in one atom (a variable or symbol)."""
        out: dict = {}
        for m, c in self.terms.items():
            for i, (a, e) in enumerate(m):
                if a is wrt:
                    if e > 1:
                        reduced = m[:i] + ((a, e - 1),) + m[i + 1 :]
                    else:
                        reduced = m[:i] + m[i + 1 :]
                    out[reduced] = out.get(reduced, Fraction(0)) + c * e
                    break
        return UmbralPolynomial(out)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError("not a constant expression")
        return self.terms[()]

    def to_univariate(self, var: FormalVariable = X) -> Polynomial:
        """Convert to a dense polynomial in one variable; others must be absent."""
        coeffs: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            if not m:
                coeffs[0] = coeffs.get(0, Fraction(0)) + c
            elif len(m) == 1 and m[0][0] is var:
                e = m[0][1]
                coeffs[e] = coeffs.get(e, Fraction(0)) + c
            else:
                raise ValueError(f"expression is not univariate in {var!r}: {self!r}")
        top = max(coeffs, default=0)
        return Polynomial(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


def _merge_monomials(m1, m2):
    exps: dict = {}
    order: list = []
    for a, e in itertools.chain(m1, m2):
        if a in exps:
            exps[a] += e
        else:
            exps[a] = e
            order.append(a)
    order.sort(key=_sort_key)
    return tuple((a, exps[a]) for a in order)


def atom(a) -> UmbralPolynomial:
    """The polynomial consisting of a single variable or symbol."""
    return UmbralPolynomial({((a, 1),): Fraction(1)})


def constant(c) -> UmbralPolynomial:
    return UmbralPolynomial({(): Fraction(c)})


def substitute(poly: Polynomial, arg) -> UmbralPolynomial:
    """poly(arg) for an umbral polynomial, variable or symbol ``arg``.

    Sums c_k arg^k rather than nesting Horner-style: for arg = x + y the
    power has k + 1 monomials, a Horner partial sum (k+1)(k+2)/2.
    """
    result = constant(0)
    power = constant(1)
    for k, c in enumerate(poly.coeffs):
        if k:
            power = power * arg
        if c != 0:
            result = result + power * c
    return result


def abel_expression(n: int, base: UmbralPolynomial, u: Umbra) -> UmbralPolynomial:
    """The unevaluated Abel construction base * (base + s)^(n-1).

    The displacement s is a fresh symbol bound to n.u, so both occurrences
    of ``base`` stay correlated while s is independent of everything else.
    Returns 1 for n = 0.
    """
    if n < 0:
        raise ValueError("Abel polynomials need n >= 0")
    if n == 0:
        return constant(1)
    if u.order < n:
        raise ValueError(f"umbra order {u.order} too small for the degree-{n} Abel polynomial")
    shift = atom(UmbralSymbol(dot_scalar(n, u)))
    return base * (base + shift) ** (n - 1)


def abel(n: int, g, u: Umbra):
    """Abel polynomial g(g + n.u)^(n-1), evaluated.

    With g = X the result is a monic degree-n Polynomial in x; with g an
    umbral symbol the result is the exact rational E[g (g + n.u)^(n-1)].
    """
    expr = abel_expression(n, atom(g), u).evaluate()
    if isinstance(g, FormalVariable):
        return expr.to_univariate(g)
    return expr.constant_value()
