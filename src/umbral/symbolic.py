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

Representation.  Every atom has an integer id: x is -2, y is -1, and each
umbral symbol takes the next value of a counter (0, 1, ...), so sorting by
id gives the canonical order x, y, then symbols by age.  A polynomial keeps
its atoms as one tuple sorted by id, and its terms as a dict from a packed
monomial to a coefficient.  A packed monomial is one Python int holding the
exponent of the i-th atom in bits [15i, 15i + 15), so the product of two
monomials over the same atoms is one integer addition (M. Monagan and
R. Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Operands over different atoms are first
re-encoded onto the sorted union of their atoms.  An exponent above the
slot bound 2^15 - 1 = 32767 would carry into the next slot, so each
polynomial carries a bound on its exponents, and the constructor and any
product whose operands' bounds sum past the slot raise ``ValueError``.
Coefficients are the package's one exact form: integer numerators over
one positive denominator, in lowest terms by ``rationals.lowest_terms``.
Evaluation reads each bound umbra's numerators over its denominator d as
they are; m_0 = d, so a term gains one d for each symbol it lacks, and an
umbra with d = 1 costs nothing extra.  ``constant_value`` and
``to_univariate`` hand back ``Fraction``s.

Powers are built by repeated multiplication, p^n = p^(n-1) * p, not by
repeated squaring.  The bases here are sparse (two or three atoms, such as
x + K + s), and for sparse polynomials each squaring multiplies two dense
intermediate powers, so squaring costs more monomial products than the
plain loop (R. J. Fateman, "On the computation of powers of sparse
polynomials", Stud. Appl. Math. 53, 1974).  Where the terms can be written
down, nothing is multiplied: ``abel_expression`` expands base * (base +
s)^(n-1) by the binomial theorem in its fresh symbol s, which needs only
the powers of base, and ``substitute`` writes a polynomial in a bare atom
straight onto that atom's exponents.  ``binomial_sum``, the right side of
the binomial-type identities, adds every monomial product into one dict.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm, prod
from operator import attrgetter

from .polynomials import Polynomial
from .rationals import exact, lowest_terms
from .umbra import Umbra, dot_powers

__all__ = [
    "FormalVariable",
    "X",
    "Y",
    "UmbralSymbol",
    "UmbralPolynomial",
    "atom",
    "constant",
    "substitute",
    "binomial_sum",
    "abel",
    "abel_expression",
]

_SLOT_BITS = 15
_SLOT_MAX = (1 << _SLOT_BITS) - 1


class FormalVariable:
    """A commuting variable (x or y) surviving evaluation untouched.

    Its atom id is negative, below every symbol's.
    """

    __slots__ = ("name", "_id")

    def __init__(self, name: str, atom_id: int):
        self.name = name
        self._id = atom_id

    def __repr__(self):
        return self.name


X = FormalVariable("x", -2)
Y = FormalVariable("y", -1)

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


_atom_id = attrgetter("_id")


def _make(atoms: tuple, terms: dict, top: int, den: int = 1) -> "UmbralPolynomial":
    """A polynomial from nonzero numerators already in lowest terms over den."""
    p = object.__new__(UmbralPolynomial)
    p._atoms, p._terms, p._top, p._den = atoms, terms, top, den
    return p


def _reduced(atoms: tuple, terms: dict, top: int, den: int) -> "UmbralPolynomial":
    """A polynomial from integer numerators over den > 0: zeros dropped, then
    brought to lowest terms by ``lowest_terms``."""
    terms = {m: c for m, c in terms.items() if c}
    if den != 1:
        num, den = lowest_terms(terms.values(), den)
        terms = dict(zip(terms, num))
    return _make(atoms, terms, top, den)


def _onto(p: "UmbralPolynomial", atoms: tuple) -> dict:
    """The terms of ``p`` packed over ``atoms``, a sorted superset of its atoms."""
    old = p._atoms
    if atoms[: len(old)] == old:
        return p._terms
    slot = {a: i for i, a in enumerate(atoms)}
    moves = [(i * _SLOT_BITS, slot[a] * _SLOT_BITS) for i, a in enumerate(old)]
    out = {}
    for m, c in p._terms.items():
        packed = 0
        for src, dst in moves:
            packed |= ((m >> src) & _SLOT_MAX) << dst
        out[packed] = c
    return out


def _aligned(p: "UmbralPolynomial", q: "UmbralPolynomial"):
    """One atom tuple for both operands, and both term dicts packed over it."""
    if p._atoms == q._atoms:
        return p._atoms, p._terms, q._terms
    atoms = tuple(sorted(set(p._atoms).union(q._atoms), key=_atom_id))
    return atoms, _onto(p, atoms), _onto(q, atoms)


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

    Built from ``{((atom, exponent), ...): coefficient}``; held as packed
    monomials over a sorted atom tuple, each mapped to an integer numerator
    over the one denominator ``_den`` (see the module docstring).  Zero
    coefficients are never stored.
    """

    __slots__ = ("_atoms", "_terms", "_top", "_den")

    def __init__(self, terms: dict | None = None):
        terms = terms or {}
        atoms = tuple(sorted({a for mono in terms for a, _ in mono}, key=_atom_id))
        slot = {a: i * _SLOT_BITS for i, a in enumerate(atoms)}
        out: dict = {}
        top = 0
        for mono, c in terms.items():
            exps: dict = {}
            for a, e in mono:
                exps[a] = exps.get(a, 0) + e
            packed = 0
            for a, e in exps.items():
                if not 0 <= e <= _SLOT_MAX:
                    raise ValueError(f"exponent {e} of {a!r} outside 0..{_SLOT_MAX}")
                packed += e << slot[a]
                top = max(top, e)
            out[packed] = out.get(packed, 0) + exact(c)
        den = lcm(*(c.denominator for c in out.values()))
        num, self._den = lowest_terms([c.numerator * (den // c.denominator) for c in out.values()], den)
        self._atoms, self._top = atoms, top
        self._terms = {m: c for m, c in zip(out, num) if c}

    def __add__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        atoms, a, b = _aligned(self, other)
        den = lcm(self._den, other._den)
        lift, other_lift = den // self._den, den // other._den
        out = {m: c * lift for m, c in a.items()} if lift != 1 else dict(a)
        get = out.get
        # touch only b's terms: sums grow by small pieces (substitute, verify)
        for m, c in b.items():
            s = get(m, 0) + c * other_lift
            if s:
                out[m] = s
            else:
                del out[m]
        top = max(self._top, other._top)
        return _make(atoms, out, top) if den == 1 else _reduced(atoms, out, top, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self._atoms, {m: -c for m, c in self._terms.items()}, self._top, self._den)

    def __mul__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        top = self._top + other._top
        if top > _SLOT_MAX:
            raise ValueError(f"a product exponent may reach {top}, past the slot bound {_SLOT_MAX}")
        atoms, a, b = _aligned(self, other)
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return _reduced(atoms, out, top, self._den * other._den)

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
        _, a, b = _aligned(self, other)
        return self._den == other._den and a == b

    def __hash__(self):
        # a constant equals its scalar, so it hashes as the scalar does
        if self._terms.keys() <= {0}:
            return hash(Fraction(self._terms.get(0, 0), self._den))
        return hash(frozenset(self._decoded().items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        terms = self._decoded()
        for m in sorted(terms, key=lambda m: tuple((a._id, e) for a, e in m)):
            factors = [f"{a!r}^{e}" if e > 1 else f"{a!r}" for a, e in m]
            bits.append(f"{terms[m]}*{'*'.join(factors)}" if factors else str(terms[m]))
        return " + ".join(bits)

    def _decoded(self) -> dict:
        """The terms in the constructor's form, {((atom, exponent), ...): coeff}."""
        out = {}
        for m, c in self._terms.items():
            mono = []
            for i, a in enumerate(self._atoms):
                e = (m >> (i * _SLOT_BITS)) & _SLOT_MAX
                if e:
                    mono.append((a, e))
            out[tuple(mono)] = Fraction(c, self._den)
        return out

    def evaluate(self) -> "UmbralPolynomial":
        """Apply E: replace each symbol power by its moment, keep x and y."""
        atoms = self._atoms
        nvars = sum(a._id < 0 for a in atoms)  # the variables sort first
        symbols = [
            (i * _SLOT_BITS, a, a.binding.numerators, a.binding.denominator)
            for i, a in enumerate(atoms[nvars:], nvars)
        ]
        keep = (1 << (nvars * _SLOT_BITS)) - 1
        out: dict = {}
        get = out.get
        for m, c in self._terms.items():
            value = c
            for shift, a, moments, d in symbols:
                e = (m >> shift) & _SLOT_MAX
                if e:
                    if e >= len(moments):
                        raise ValueError(
                            f"symbol {a.label} raised to {e} exceeds its moment order {a.binding.order}"
                        )
                    value *= moments[e]
                elif d != 1:  # E[s^0] = m_0/d with m_0 = d
                    value *= d
            if value:
                key = m & keep
                out[key] = get(key, 0) + value
        den = prod((d for *_, d in symbols), start=self._den)
        return _reduced(atoms[:nvars], out, self._top, den)

    def formal_derivative(self, wrt) -> "UmbralPolynomial":
        """Termwise power-rule derivative in one atom (a variable or symbol)."""
        if wrt not in self._atoms:
            return _make(self._atoms, {}, 0)
        shift = self._atoms.index(wrt) * _SLOT_BITS
        unit = 1 << shift
        out = {}
        for m, c in self._terms.items():
            e = (m >> shift) & _SLOT_MAX
            if e:
                out[m - unit] = c * e
        return _reduced(self._atoms, out, self._top, self._den)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if len(self._terms) != 1 or 0 not in self._terms:
            raise ValueError("not a constant expression")
        return Fraction(self._terms[0], self._den)

    def to_univariate(self, var: FormalVariable = X) -> Polynomial:
        """Convert to a dense polynomial in one variable; others must be absent."""
        shift, own = 0, 0
        if var in self._atoms:
            shift = self._atoms.index(var) * _SLOT_BITS
            own = _SLOT_MAX << shift
        coeffs = {}
        for m, c in self._terms.items():
            if m & ~own:
                raise ValueError(f"expression is not univariate in {var!r}: {self!r}")
            coeffs[m >> shift] = c
        return Polynomial([coeffs.get(i, 0) for i in range(max(coeffs, default=0) + 1)], self._den)


def atom(a) -> UmbralPolynomial:
    """The polynomial consisting of a single variable or symbol."""
    return _make((a,), {1: 1}, 1)


def constant(c) -> UmbralPolynomial:
    c = exact(c)
    return _make((), {0: c.numerator} if c else {}, 0, c.denominator)


def substitute(poly: Polynomial, arg) -> UmbralPolynomial:
    """poly(arg) for an umbral polynomial, variable or symbol ``arg``.

    For a bare atom a, c_k a^k is one packed monomial, so the numerators
    are written straight onto a's exponents.  Otherwise c_k arg^k is added
    into one dict, arg^k by repeated multiplication, rather than nested
    Horner-style: for arg = x + y the power has k + 1 monomials, a Horner
    partial sum (k+1)(k+2)/2.  Each arg^k is lifted onto the denominator
    of poly times that of arg^degree.
    """
    arg = _coerce_operand(arg)
    if arg is None:
        raise TypeError("substitute needs an umbral polynomial, variable, symbol or rational")
    num, pden = poly.numerators, poly.denominator
    degree = len(num) - 1
    if len(arg._atoms) == 1 and arg._terms == {1: 1} and arg._den == 1:
        if degree > _SLOT_MAX:
            raise ValueError(f"a power exponent may reach {degree}, past the slot bound {_SLOT_MAX}")
        return _make(arg._atoms, {k: c for k, c in enumerate(num) if c}, max(degree, 0), pden)
    den = pden * arg._den ** max(degree, 0)
    out = {0: num[0] * (den // pden)} if num else {}
    get = out.get
    power = arg
    for k in range(1, degree + 1):
        if k > 1:
            power = power * arg
        c = num[k]
        if c:
            c *= den // (pden * power._den)
            for m, pc in power._terms.items():
                out[m] = get(m, 0) + c * pc
    return _reduced(arg._atoms, out, max(degree, 0) * arg._top, den)


def binomial_sum(xs, ys, n: int) -> UmbralPolynomial:
    """sum_k C(n,k) xs[k] ys[n-k] for umbral polynomials xs[0..n] and ys[0..n].

    Each operand is packed once onto the union of the operands' atoms, and
    every monomial product is added straight into one term dict, so no
    partial sum is copied; each product is lifted onto the lcm of the
    products' denominators.  A product whose operands' exponent bounds sum
    past the slot raises ``ValueError``, as the operators would.
    """
    pairs = [(comb(n, k), xs[k], ys[n - k]) for k in range(n + 1)]
    den = lcm(*(p._den * q._den for _, p, q in pairs))
    atoms = tuple(sorted({a for _, p, q in pairs for a in p._atoms + q._atoms}, key=_atom_id))
    top = max(p._top + q._top for _, p, q in pairs)
    if top > _SLOT_MAX:
        raise ValueError(f"a product exponent may reach {top}, past the slot bound {_SLOT_MAX}")
    out: dict = {}
    get = out.get
    for weight, p, q in pairs:
        weight *= den // (p._den * q._den)
        right = _onto(q, atoms).items()
        for m1, c1 in _onto(p, atoms).items():
            c1 *= weight
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    return _reduced(atoms, out, top, den)


def abel_expression(n: int, base: UmbralPolynomial, u: Umbra) -> UmbralPolynomial:
    """The unevaluated Abel construction base * (base + s)^(n-1), expanded
    by the binomial theorem in s as sum_j C(n-1, j) base^(j+1) s^(n-1-j).

    The displacement s is a fresh symbol bound to n.u read to order n - 1,
    all that s^(n-1-j) reads: entry n of the shared triangle ``dot_powers(u)``.
    Both occurrences of ``base`` stay correlated while s is independent of
    everything else.  Minted here, s takes the last slot, so base^(j+1)
    keeps its packed monomials and the terms of different j never merge;
    the only products are the powers of ``base``, and on a bare atom a each
    term a^(j+1) s^(n-1-j) is written directly.  Each base^(j+1) is lifted
    onto the denominator of base^n.  The exponent bound is that of the
    product, and past the slot it raises ``ValueError`` as the product
    would.  Returns 1 for n = 0.
    """
    if n < 0:
        raise ValueError("Abel polynomials need n >= 0")
    if n == 0:
        return constant(1)
    if u.order < n:
        raise ValueError(f"umbra order {u.order} too small for the degree-{n} Abel polynomial")
    shift = UmbralSymbol(dot_powers(u)[n])
    top = base._top + (n - 1) * max(base._top, 1)
    if top > _SLOT_MAX:
        raise ValueError(f"a product exponent may reach {top}, past the slot bound {_SLOT_MAX}")
    slot = len(base._atoms) * _SLOT_BITS
    atoms = base._atoms + (shift,)
    if len(base._atoms) == 1 and base._terms == {1: 1} and base._den == 1:
        return _make(atoms, {j + 1 + ((n - 1 - j) << slot): comb(n - 1, j) for j in range(n)}, top)
    den = base._den**n
    out = {}
    power = base
    for j in range(n):
        if j:
            power = power * base
        weight, lift = comb(n - 1, j) * (den // power._den), (n - 1 - j) << slot
        for m, c in power._terms.items():
            out[m + lift] = c * weight
    return _reduced(atoms, out, top, den)


def abel(n: int, g, u: Umbra):
    """Abel polynomial g(g + n.u)^(n-1), evaluated.

    With g = X the result is a monic degree-n Polynomial in x; with g an
    umbral symbol the result is the exact rational E[g (g + n.u)^(n-1)].
    """
    expr = abel_expression(n, atom(g), u).evaluate()
    if isinstance(g, FormalVariable):
        return expr.to_univariate(g)
    return expr.constant_value()
