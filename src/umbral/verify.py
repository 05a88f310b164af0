"""Seeded identity suites: every structural fact the package relies on,
checked exactly on pseudo-random umbrae.

Random umbrae are moment sequences with m_0 = 1 and small integer moments
drawn from a seeded generator, so a failing check always comes with a
reproducible counterexample.  All equalities are exact rational (or exact
polynomial) equalities; there are no tolerances anywhere.

The suites are shared by the test suite and the ``umbral verify``
command.  Each identity that takes more than one statement to check is
written once, as an ``<identity>_failure`` function that returns the first
counterexample (as ``n=… lhs=… rhs=…`` text) or None; the suites and the
tests call the same functions on their own draws.

A suite is a generator of checks ``(identity, ok, detail)``, where
``detail`` is the counterexample text or a zero-argument callable that
builds it.  ``run_suite`` folds the stream into one ``CheckResult`` per
identity, in the order first checked, and keeps the first counterexample:
it calls ``detail`` at that failure, while the suite waits at the check and
its draw is still current, so a passing run never builds the text.  A crash
anywhere in the stream is the suite's one failed check.

A suite builds each value once and reads it wherever it is needed: the
sheffer suite reads its Sheffer sequence off the Riordan array it checks,
with ``sheffer.row_polynomials`` (the step ``sheffer_sequence`` itself
takes), and its series array as the oracle of both the array and the Abel
form; the riordan-group suite reuses the product of each trial's first
two arrays in the associativity and flavor checks.

``ROUTES`` says what each printed identity compares, keyed by (suite,
identity).  A route row is two computations of one value, each side given
as the names it reads, down to the series operations, the umbra/series
bridge (``gf``, ``from_series``, ``series.to_exponential`` and
``from_exponential``) and the moment kernels; a law row, ``("law",
names)``, is a property or closed form that the names it reads must
satisfy.  A name is the binding a call looks up: a ``from`` import copies
a function, so ``verify.k_umbra`` and ``sheffer.k_umbra`` are two names.
A row names exactly those of the table's names whose wrong result fails
it, and no name is on both sides of a route.  ``tests/test_routes.py``
perturbs each name in turn and sees exactly the rows that name it fail.

Three kernels sit below the table, because both sides of a route read
them and no perturbation of one can tell the sides apart; each is checked
instead against a reference that shares no code with it:
``polynomials.integer_product`` (the explicit sums call it as
``families.integer_product``, the generating functions through
``Polynomial`` products) by
``tests/test_polynomials.py::test_arithmetic_matches_the_fraction_reference``,
``rationals.lowest_terms`` (every exact value, the coefficients of
``symbolic`` among them) by
``tests/test_rationals.py::test_lowest_terms_matches_the_fraction_reference``,
and ``math.comb`` (every binomial weight) by
``tests/test_rationals.py::test_binomial_integer_tops_match_falling_factorial``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from random import Random

from . import families as fam
from . import series as ps
from .polynomials import Polynomial, binomial_poly
from .rationals import binomial, factorial
from .sheffer import (
    RiordanArray,
    UmbraPair,
    abel_representation,
    flavor_convert,
    ftra_apply,
    identity_pair,
    riordan_array,
    riordan_array_series,
    riordan_inverse,
    riordan_multiply,
    row_polynomials,
    sheffer_sequence,
    umbral_compose,
)
from .symbolic import UmbralSymbol, X, Y, abel_expression, atom, binomial_sum, substitute
from .umbra import (
    Umbra,
    add,
    augmentation,
    bell,
    composition_umbra,
    composition_umbra_series,
    derivative_umbra,
    dot,
    dot_powers,
    dot_scalar,
    from_series,
    gf,
    inverse_umbra,
    k_umbra,
    k_umbra_series,
    scalar_umbra,
    singleton,
)

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
    "random_umbra",
    "abel_identity_failure",
    "abel_polynomial_form_failure",
    "abel_derivative_rule_failure",
    "abel_binomial_identity_failure",
    "sheffer_identity_failure",
    "chebyshev_recurrence_failure",
    "chebyshev_shifted_basis_failure",
    "pidduck_quotient_failure",
    "master_degenerate_slots_failure",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_umbra(rng: Random, order: int) -> Umbra:
    """A moment sequence with m_0 = 1 and seeded integer moments in -3..3."""
    return Umbra([1] + [rng.randint(-3, 3) for _ in range(order)])


def _random_polynomial(rng: Random, degree: int) -> Polynomial:
    coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]
    return Polynomial(coeffs)


def _fmt(u: Umbra) -> str:
    return "[" + ", ".join(str(m) for m in u.moments) + "]"


def _binomial_type_failure(at_sum, at_x, at_y, n_max: int):
    """First n <= n_max where at_sum(n) != sum_k C(n,k) at_x[k] at_y[n-k], else None."""
    for n in range(n_max + 1):
        if at_sum(n) != binomial_sum(at_x, at_y, n):
            return n
    return None


def sheffer_identity_failure(polys, assoc, n_max: int):
    """First n <= n_max where s_n(x + y) != sum_k C(n,k) p_k(x) s_{n-k}(y), else None,
    for a Sheffer sequence ``polys`` (s_n) and its associated sequence ``assoc`` (p_k)."""
    px = [substitute(p, X) for p in assoc[: n_max + 1]]
    sy = [substitute(p, Y) for p in polys[: n_max + 1]]
    xy = atom(X) + atom(Y)
    return _binomial_type_failure(lambda n: substitute(polys[n], xy), px, sy, n_max)


def _head(u: Umbra, top: int) -> Umbra:  # m_0..m_top: all that a check capped at top reads
    return Umbra.from_integers(u.numerators[: top + 1], u.denominator)


def abel_identity_failure(alpha: Umbra, gamma: Umbra, delta: Umbra):
    """First ``n=… lhs=… rhs=…`` up to the order where E[(delta+gamma)^n] !=
    sum_k C(n,k) E[(delta+k.alpha)^(n-k)] E[gamma(gamma-k.alpha)^(k-1)], else None:
    the left side is the umbra of f_delta f_gamma, the right side the array of
    (delta, alpha) applied to the Abel weights, which are the moments of K(gamma, alpha)."""
    lhs = from_series(ps.multiply(gf(delta), gf(gamma)))
    rhs = ftra_apply(riordan_array(UmbraPair(delta, alpha)), k_umbra(gamma, alpha))
    if lhs == rhs:
        return None
    n = next(n for n, (a, b) in enumerate(zip(lhs.moments, rhs.moments)) if a != b)
    return f"n={n} lhs={lhs.moment(n)} rhs={rhs.moment(n)}"


def abel_polynomial_form_failure(alpha: Umbra, gamma: Umbra, delta: Umbra, qs):
    """First ``q#i=… lhs=… rhs=…`` where E[q(delta+gamma)] != sum_k
    E[q^(k)(delta+k.alpha)] E[gamma(gamma-k.alpha)^(k-1)] / k!, else None:
    the left side reads the moments of f_delta f_gamma, the right side expands symbolically on
    the moments of K(gamma, alpha); each umbra is read only up to the top degree of ``qs``."""
    alpha, gamma, delta = (_head(u, max(q.degree for q in qs)) for u in (alpha, gamma, delta))
    weights = k_umbra(gamma, alpha).moments
    dotted = dot_powers(alpha)
    sums = from_series(ps.multiply(gf(delta), gf(gamma))).moments  # E[(delta + gamma)^j]
    for qi, q in enumerate(qs):
        lhs = sum(c * m for c, m in zip(q.coeffs, sums))
        rhs = Fraction(0)
        deriv = q
        for k in range(q.degree + 1):
            arg = atom(UmbralSymbol(delta)) + atom(UmbralSymbol(dotted[k]))
            value = substitute(deriv, arg).evaluate().constant_value()
            rhs += value * weights[k] / factorial(k)
            deriv = deriv.derivative()
        if lhs != rhs:
            return f"q#{qi}={q} lhs={lhs} rhs={rhs}"
    return None


def abel_derivative_rule_failure(u: Umbra, n_max: int):
    """First ``n=… lhs=… rhs=…`` in 1..n_max where d/dx A_n(x) != n A_{n-1}(x + u'),
    u' a fresh copy of ``u``, else None; ``u`` is read only up to n_max."""
    u = _head(u, n_max)
    for n in range(1, n_max + 1):
        lhs = abel_expression(n, atom(X), u).formal_derivative(X).evaluate().to_univariate()
        base = atom(X) + atom(UmbralSymbol(u))
        rhs = abel_expression(n - 1, base, u).evaluate().to_univariate() * n
        if lhs != rhs:
            return f"n={n} lhs={lhs} rhs={rhs}"
    return None


def abel_binomial_identity_failure(u: Umbra, n_max: int):
    """First ``n=…`` up to n_max where A_n(x+y) != sum_k C(n,k) A_k(x) A_{n-k}(y)
    for the Abel polynomials A_n of ``u``, else None; ``u`` is read only up to n_max."""
    u = _head(u, n_max)
    # E factorizes over the distinct shift symbols of A_k(x) and A_{n-k}(y)
    ax = [abel_expression(k, atom(X), u).evaluate() for k in range(n_max + 1)]
    ay = [abel_expression(k, atom(Y), u).evaluate() for k in range(n_max + 1)]
    xy = atom(X) + atom(Y)
    bad = _binomial_type_failure(lambda n: abel_expression(n, xy, u).evaluate(), ax, ay, n_max)
    return None if bad is None else f"n={bad}"


def suite_abel(order: int, seed: int) -> Iterator[tuple]:
    """The Abel expansion of binomial moments and its polynomial corollaries."""
    rng = Random(seed)

    for trial in range(25):
        a, g, d = (random_umbra(rng, order) for _ in range(3))
        bad = abel_identity_failure(a, g, d)
        yield (
            "abel-identity",
            bad is None,
            lambda: f"trial={trial} {bad} alpha={_fmt(a)} gamma={_fmt(g)} delta={_fmt(d)}",
        )

    # polynomial form for monomials q = x^j and for random polynomials
    # (linearity makes them equivalent; both are exercised); deg q cannot
    # exceed the moment order
    rng_q = Random(seed + 1)
    max_deg = min(6, order)
    polys = [Polynomial((0,) * j + (1,)) for j in range(max_deg + 1)]
    if max_deg >= 1:
        polys += [_random_polynomial(rng_q, rng_q.randint(1, max_deg)) for _ in range(4)]
    a, g, d = (random_umbra(rng_q, order) for _ in range(3))
    bad = abel_polynomial_form_failure(a, g, d, polys)
    yield "abel-identity-polynomial-form", bad is None, lambda: f"{bad} alpha={_fmt(a)}"

    if order >= 1:  # the rule starts at degree 1; order 0 does not list it
        rng_d = Random(seed + 2)
        for trial in range(10):
            u = random_umbra(rng_d, order)
            bad = abel_derivative_rule_failure(u, min(order, 10))
            yield "abel-derivative-rule", bad is None, lambda: f"trial={trial} {bad} u={_fmt(u)}"

    rng_b = Random(seed + 3)
    for trial in range(10):
        u = random_umbra(rng_b, order)
        bad = abel_binomial_identity_failure(u, min(order, 8))
        yield "abel-binomial-identity", bad is None, lambda: f"trial={trial} {bad} u={_fmt(u)}"


def suite_lif(order: int, seed: int) -> Iterator[tuple]:
    """Lagrange inversion: moment route vs series reversion, plus corollaries."""
    rng = Random(seed)

    for trial in range(25):
        g = random_umbra(rng, order)
        a = random_umbra(rng, order)

        moment_route = k_umbra(g, a)
        series_route = k_umbra_series(g, a)
        yield (
            "lagrange-inversion-moments",
            moment_route == series_route,
            lambda: f"trial={trial} moment={_fmt(moment_route)} series={_fmt(series_route)} "
            f"gamma={_fmt(g)} alpha={_fmt(a)}",
        )

        # coefficient form: n [z^n] f_g(revert(z f_a)) = m_n / (n-1)! = [z^(n-1)] f_g' / f_a^n,
        # the right side one integer dot product over the product of the denominators
        if order >= 1:
            fgd, fa = gf(g).derivative(), gf(a)
            k, dk = moment_route.numerators, moment_route.denominator
            for n in range(1, order + 1):
                neg_power = ps.power(fa.truncate(n - 1), -n)  # f_a^(-n) up to z^(n-1)
                rhs = sum(map(mul, fgd.numerators[:n], reversed(neg_power.numerators)))
                den = fgd.denominator * neg_power.denominator
                lhs_den = dk * factorial(n - 1)
                yield (
                    "lagrange-inversion-coefficients",
                    k[n] * den == rhs * lhs_den,
                    lambda: f"trial={trial} n={n} lhs={Fraction(k[n], lhs_den)} "
                    f"rhs={Fraction(rhs, den)}",
                )

        # composition umbra: binomial moment expansion vs series composition
        comp_m = composition_umbra(g, a)
        comp_s = composition_umbra_series(g, a)
        yield (
            "composition-two-routes",
            comp_m == comp_s,
            lambda: f"trial={trial} moment={_fmt(comp_m)} series={_fmt(comp_s)}",
        )

        # the derivative umbra is the compositional inverse of the
        # derivative of -1.K(u), for every umbra u (inversion needs order >= 1)
        if order >= 1:
            lhs = derivative_umbra(a)
            rhs = inverse_umbra(derivative_umbra(dot_scalar(-1, k_umbra(a, a))))
            yield (
                "derivative-inverse-relation",
                lhs == rhs,
                lambda: f"trial={trial} lhs={_fmt(lhs)} rhs={_fmt(rhs)} u={_fmt(a)}",
            )


def suite_duality(order: int, seed: int) -> Iterator[tuple]:
    """Singleton/Bell duality and the small moment-algebra laws."""
    rng = Random(seed)
    chi = singleton(order)
    b = bell(order)
    unity = scalar_umbra(1, order)
    eps = augmentation(order)

    yield "singleton-bell-duality", dot(chi, b) == unity, lambda: f"got {_fmt(dot(chi, b))}"
    yield "bell-singleton-duality", dot(b, chi) == unity, lambda: f"got {_fmt(dot(b, chi))}"
    bell5 = bell(5)
    yield (
        "bell-moments",
        bell5.moments == (1, 1, 2, 5, 15, 52),
        lambda: f"got {_fmt(bell5)}",
    )

    for trial in range(10):
        u = random_umbra(rng, order)
        yield "additive-identity", add(u, eps) == u, lambda: f"trial={trial} u={_fmt(u)}"

        x, y = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = dot_scalar(x, dot_scalar(y, u))
        rhs = dot_scalar(x * y, u)
        yield (
            "scalar-dot-multiplicative",
            lhs == rhs,
            lambda: f"trial={trial} a={x} b={y} u={_fmt(u)}",
        )

        k = rng.randint(1, 4)
        iterated = eps
        for _ in range(k):
            iterated = add(iterated, u)
        yield (
            "integer-dot-is-iterated-sum",
            dot_scalar(k, u) == iterated,
            lambda: f"trial={trial} k={k} u={_fmt(u)}",
        )
        yield (
            "dot-cancellation",
            add(dot_scalar(k, u), dot_scalar(-k, u)) == eps,
            lambda: f"trial={trial} k={k} u={_fmt(u)}",
        )

        if order >= 1 and u.moment(1) != 0:
            yield (
                "inverse-involution",
                inverse_umbra(inverse_umbra(u)) == u,
                lambda: f"trial={trial} u={_fmt(u)}",
            )

        a = Fraction(rng.randint(-3, 3))
        scaled = dot(u, scalar_umbra(a, order))
        expected = Umbra([u.moment(n) * a**n for n in range(order + 1)])
        yield (
            "dot-scalar-right",
            scaled == expected,
            lambda: f"trial={trial} a={a} u={_fmt(u)}",
        )


def suite_sheffer(order: int, seed: int) -> Iterator[tuple]:
    """Sheffer coefficients, the Abel form, and the two-variable identities."""
    rng = Random(seed)

    for trial in range(10):
        pair = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))

        array, oracle = riordan_array(pair), riordan_array_series(pair)
        seq = row_polynomials(array)
        yield (
            "sheffer-coefficient-extraction",
            array == oracle,
            lambda: f"trial={trial} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
        )
        monic = all(
            p.degree == n and p.numerators[n] == p.denominator for n, p in enumerate(seq)
        )
        yield "sheffer-monic", monic, f"trial={trial}"

        # the Abel form shares the sum kernel with ``array``: check it on the series rows
        yield (
            "sheffer-abel-representation",
            abel_representation(pair) == row_polynomials(oracle),
            lambda: f"trial={trial} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
        )

        # Sheffer identity: s_n(x+y) = sum C(n,k) p_k(x) s_{n-k}(y), with
        # (p_k) the associated sequence of the same alpha
        n_max = min(order, 8)
        assoc = sheffer_sequence(UmbraPair(augmentation(n_max), _head(pair.alpha, n_max)))
        bad = sheffer_identity_failure(seq, assoc, n_max)
        yield (
            "sheffer-identity",
            bad is None,
            lambda: f"trial={trial} n={bad} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
        )
        bad = sheffer_identity_failure(assoc, assoc, n_max)
        yield (
            "binomial-identity",
            bad is None,
            lambda: f"trial={trial} n={bad} alpha={_fmt(pair.alpha)}",
        )


def suite_riordan_group(order: int, seed: int) -> Iterator[tuple]:
    """The array group: composition, inverses, named arrays, conversions."""
    rng = Random(seed)

    def written_out(entry):
        """The exponential array with integer entry(n, k) at k <= n; it carries
        no pair and is only compared."""
        rows = [[entry(n, k) for k in range(n + 1)] for n in range(order + 1)]
        return RiordanArray(None, rows, 1, "exponential")

    ident = riordan_array(identity_pair(order))
    identity = written_out(lambda n, k: int(n == k))
    yield "identity-array", ident == identity, ""

    pascal = riordan_array(UmbraPair(scalar_umbra(1, order), augmentation(order)))
    yield "pascal-array", pascal == written_out(comb), ""
    yield (
        "signed-pascal-inverse",
        riordan_inverse(pascal) == written_out(lambda n, k: (-1) ** (n - k) * comb(n, k)),
        "",
    )
    yield (
        "pascal-squared",
        riordan_multiply(pascal, pascal) == written_out(lambda n, k: comb(n, k) * 2 ** (n - k)),
        "",
    )

    for trial in range(10):
        p = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        q = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        r = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        ap, aq, ar = riordan_array(p), riordan_array(q), riordan_array(r)

        composed = riordan_array(umbral_compose(p, q))
        product = riordan_multiply(ap, aq)
        yield (
            "pair-composition-matches-matrix-product",
            composed == product,
            lambda: f"trial={trial} gamma={_fmt(p.gamma)} alpha={_fmt(p.alpha)} "
            f"eta={_fmt(q.gamma)} delta={_fmt(q.alpha)}",
        )

        yield (
            "identity-laws",
            riordan_multiply(ap, ident) == ap and riordan_multiply(ident, ap) == ap,
            f"trial={trial}",
        )

        inv = riordan_inverse(ap)
        yield (
            "inverse-two-sided",
            riordan_multiply(ap, inv) == identity and riordan_multiply(inv, ap) == identity,
            lambda: f"trial={trial} gamma={_fmt(p.gamma)} alpha={_fmt(p.alpha)}",
        )
        yield (
            "inverse-involution",
            riordan_inverse(inv) == ap,
            f"trial={trial}",
        )

        assoc_l = riordan_multiply(product, ar)
        assoc_r = riordan_multiply(ap, riordan_multiply(aq, ar))
        yield "associativity", assoc_l == assoc_r, f"trial={trial}"

        conv_prod = flavor_convert(product)
        prod_conv = riordan_multiply(flavor_convert(ap), flavor_convert(aq))
        yield (
            "flavor-conversion-multiplicative",
            conv_prod == prod_conv,
            f"trial={trial}",
        )
        yield (
            "flavor-conversion-involution",
            flavor_convert(flavor_convert(ap)) == ap,
            f"trial={trial}",
        )

        # the matrix route against the series of gamma + seq.bell.alpha': f_gamma f_seq(z f_alpha)
        seq = random_umbra(rng, order)
        via_series = ps.multiply(gf(p.gamma), ps.compose(gf(seq), gf(p.alpha).shift_up()))
        yield (
            "moment-transform-two-routes",
            ftra_apply(ap, seq) == from_series(via_series),
            f"trial={trial}",
        )

    bell_seq = bell(order)
    yield (
        "pascal-shifts-bell",
        ftra_apply(pascal, bell_seq).moments == bell(order + 1).moments[1:],
        "",
    )
    yield (
        "pascal-row-sums",
        ftra_apply(pascal, scalar_umbra(1, order)).moments
        == tuple(Fraction(2) ** n for n in range(order + 1)),
        "",
    )


def chebyshev_recurrence_failure(u):
    """First ``n=… got=… expected=…`` where the Chebyshev rows U_0, U_1, …
    break U_n = 2x U_{n-1} - U_{n-2}, else None."""
    two_x = Polynomial((0, 2))
    for n in range(2, len(u)):
        expected = two_x * u[n - 1] - u[n - 2]
        if u[n] != expected:
            return f"n={n} got={u[n]} expected={expected}"
    return None


def chebyshev_shifted_basis_failure(u):
    """First ``n=… got=… expected=…`` where a Chebyshev row U_n of ``u`` is not
    sum_k C(n+k+1, n-k) 2^k (x-1)^k, else None."""
    xm1 = Polynomial((-1, 1))
    shifted = [2**k * xm1**k for k in range(len(u))]
    for n in range(len(u)):
        display = sum((binomial(n + k + 1, n - k) * shifted[k] for k in range(n + 1)), Polynomial())
        if display != u[n]:
            return f"n={n} got={display} expected={u[n]}"
    return None


def pidduck_quotient_failure(pidduck, mittag_leffler):
    """First ``n=…`` where the Pidduck row P_n != sum_j n!/j! M_j over the
    Mittag-Leffler rows (the egf ratio 1/(1-z) of the two), else None."""
    for n in range(len(pidduck)):
        scale = (Fraction(factorial(n), factorial(j)) for j in range(n + 1))
        if pidduck[n] != sum((m * s for m, s in zip(mittag_leffler, scale)), Polynomial()):
            return f"n={n}"
    return None


def master_degenerate_slots_failure(n_max: int, ys):
    """First ``n=… y=…`` up to n_max where the master slots q = t = 0 do not collapse
    to n! C(y, n) x^n, else None; y = None is the indeterminate slot (``n=…``)."""
    slots = (fam.MasterParams.of(Polynomial.x(), y, 0, 0) for y in ys)
    tables = [fam.master_table(n_max, p)[0] for p in slots]
    for n in range(n_max + 1):
        monomial = Polynomial((0,) * n + (1,)) * factorial(n)
        for y, rows in zip(ys, tables):
            expected = monomial * (binomial_poly(n) if y is None else binomial(y, n))
            if rows[n] != expected:
                return f"n={n}" if y is None else f"n={n} y={y}"
    return None


def suite_families(order: int, seed: int) -> Iterator[tuple]:
    """Explicit sums vs generating functions for the five families."""
    n_max = order

    # each family takes the options it names and ignores the rest
    options = {"lam": Fraction(3, 2), "b": Fraction(1, 2), "c": Fraction(3)}
    explicit = {kind: fam.family_table(kind, n_max, **options)[0] for kind in fam.FAMILY_NAMES}
    via_gf = {kind: fam.gf_rows(kind, n_max, **options) for kind in fam.FAMILY_NAMES}
    for kind, rows in explicit.items():
        for n, (lhs, rhs) in enumerate(zip(rows, via_gf[kind])):
            yield (
                f"explicit-vs-gf:{kind}",
                lhs == rhs,
                lambda: f"n={n} explicit={lhs} gf={rhs}",
            )

    if n_max >= 2:  # the recurrence starts at n = 2; lower orders do not list it
        bad = chebyshev_recurrence_failure(explicit["chebyshev-u"])
        yield "chebyshev-recurrence", bad is None, bad

    # the explicit sums at the specializing slots against the generating
    # functions of the families they reduce to (chebyshev-u and mittag-leffler
    # take no options); Mittag-Leffler is the Meixner pattern at (b, c) = (0, -1),
    # the b > 0 restriction lifted for this structural identity only
    specializations = (
        ("gegenbauer-reduces-to-chebyshev", "chebyshev-u",
         fam.family_table("gegenbauer", n_max, lam=1)[0]),
        ("mittag-leffler-meixner-specialization", "mittag-leffler",
         fam.master_table(n_max, fam.meixner_params(0, -1))[0]),
    )
    for name, kind, rows in specializations:
        for n, (lhs, rhs) in enumerate(zip(rows, via_gf[kind], strict=True)):
            yield name, lhs == rhs, f"n={n}"

    cap = min(n_max, 8) + 1
    bad = pidduck_quotient_failure(explicit["pidduck"][:cap], explicit["mittag-leffler"][:cap])
    yield "pidduck-mittag-leffler-quotient", bad is None, bad
    bad = chebyshev_shifted_basis_failure(explicit["chebyshev-u"][:cap])
    yield "chebyshev-shifted-basis-display", bad is None, bad
    ys = (Fraction(0), Fraction(2), Fraction(7, 2))
    bad = master_degenerate_slots_failure(min(n_max, 6), ys)
    yield "master-degenerate-slots", bad is None, bad
    bad = master_degenerate_slots_failure(min(n_max, 6), (None,))
    yield "master-degenerate-slots-indeterminate", bad is None, bad

    # master explicit sum vs master generating function on generic slots
    generic = [
        fam.MasterParams.of(Polynomial((2, -2)), Fraction(-5, 2), Fraction(3), Fraction(1, 2)),
        fam.MasterParams.of(Polynomial((0, 1)), None, Fraction(2), Fraction(3, 4)),
        fam.MasterParams.of(Fraction(1, 3), Fraction(4), Fraction(0), Fraction(2)),
    ]
    top = min(n_max, 7)
    for pi, p in enumerate(generic):
        pairs = zip(fam.master_table(top, p)[0], fam.master_gf_rows(top, p), strict=True)
        for n, (row, via_gf) in enumerate(pairs):
            yield "master-explicit-vs-gf", row == via_gf, f"params#{pi} n={n}"


_SUITES = {
    "abel": suite_abel,
    "lif": suite_lif,
    "duality": suite_duality,
    "sheffer": suite_sheffer,
    "riordan-group": suite_riordan_group,
    "families": suite_families,
}
SUITE_NAMES = tuple(_SUITES)

# (suite, identity) -> (names one route reads, names the other reads), or
# ("law", names the check reads); see the module docstring
_ARRAY = "verify.riordan_array sheffer.iterated_sums"
_BRIDGE = "series.to_exponential series.from_exponential"
_LIBRARY_GF = "umbra.gf umbra.from_series " + _BRIDGE  # umbra functions built on series
_VERIFY_GF = "series.multiply verify.gf verify.from_series " + _BRIDGE
_TABLE = "umbra._dot_power_table"
_WEIGHTS = "verify.k_umbra " + _TABLE
_INVERSE = "verify.riordan_inverse sheffer.k_umbra " + _TABLE
_SERIES_ARRAY = "verify.riordan_array_series sheffer.gf series.multiply " + _BRIDGE
_GF = "families.gf_rows series.power " + _BRIDGE
_EGF = _GF + " series.multiply series.exp series.log"
_BELL_DOT = "verify.dot verify.bell series.compose series.exp series.log " + _LIBRARY_GF
ROUTES = {
    ("abel", "abel-identity"): (_VERIFY_GF, f"verify.ftra_apply {_WEIGHTS} {_ARRAY}"),
    ("abel", "abel-identity-polynomial-form"): (
        _VERIFY_GF, f"verify.substitute verify.dot_powers {_WEIGHTS}"),
    ("abel", "abel-derivative-rule"): ("law", "verify.abel_expression " + _TABLE),
    ("abel", "abel-binomial-identity"): ("law", "verify.abel_expression " + _TABLE),
    ("lif", "lagrange-inversion-moments"): (
        "verify.k_umbra " + _TABLE, "verify.k_umbra_series series.compose series.revert "
        + _LIBRARY_GF),
    ("lif", "lagrange-inversion-coefficients"): (
        "verify.k_umbra " + _TABLE, "verify.gf series.power " + _BRIDGE),
    ("lif", "composition-two-routes"): (
        "verify.composition_umbra umbra.iterated_sums",
        "verify.composition_umbra_series series.compose " + _LIBRARY_GF),
    ("lif", "derivative-inverse-relation"): ("law", "verify.derivative_umbra verify.inverse_umbra "
        f"verify.k_umbra verify.dot_scalar series.revert {_TABLE} {_LIBRARY_GF}"),
    ("duality", "singleton-bell-duality"): ("law", _BELL_DOT),
    ("duality", "bell-singleton-duality"): ("law", _BELL_DOT),
    ("duality", "bell-moments"): ("law", "verify.bell series.exp umbra.from_series " + _BRIDGE),
    ("duality", "additive-identity"): ("law", "verify.add"),
    ("duality", "scalar-dot-multiplicative"): ("law", "verify.dot_scalar"),
    ("duality", "integer-dot-is-iterated-sum"): ("verify.dot_scalar", "verify.add"),
    ("duality", "dot-cancellation"): ("law", "verify.dot_scalar verify.add"),
    ("duality", "inverse-involution"): ("law", "verify.inverse_umbra series.revert " + _LIBRARY_GF),
    ("duality", "dot-scalar-right"): ("law", "verify.dot series.compose series.log " + _LIBRARY_GF),
    ("sheffer", "sheffer-coefficient-extraction"): (_ARRAY, _SERIES_ARRAY),
    ("sheffer", "sheffer-monic"): ("law", "verify.row_polynomials"),
    ("sheffer", "sheffer-abel-representation"): (
        "verify.abel_representation sheffer.k_umbra " + _TABLE,
        "verify.row_polynomials " + _SERIES_ARRAY),
    ("sheffer", "sheffer-identity"): ("law",
        "verify.row_polynomials verify.sheffer_sequence verify.substitute " + _ARRAY),
    ("sheffer", "binomial-identity"): ("law",
        "verify.sheffer_sequence verify.substitute sheffer.iterated_sums"),
    ("riordan-group", "identity-array"): ("law", _ARRAY),
    ("riordan-group", "pascal-array"): ("law", _ARRAY),
    ("riordan-group", "signed-pascal-inverse"): ("law", _INVERSE + " sheffer.iterated_sums"),
    ("riordan-group", "pascal-squared"): ("law", "verify.riordan_multiply " + _ARRAY),
    ("riordan-group", "pair-composition-matches-matrix-product"): ("law",
        "verify.riordan_multiply " + _ARRAY),
    ("riordan-group", "identity-laws"): ("law", "verify.riordan_multiply " + _ARRAY),
    ("riordan-group", "inverse-two-sided"): ("law",
        f"verify.riordan_multiply {_INVERSE} {_ARRAY}"),
    ("riordan-group", "inverse-involution"): ("law", "verify.riordan_array " + _INVERSE),
    ("riordan-group", "associativity"): ("law", "verify.riordan_multiply"),
    ("riordan-group", "flavor-conversion-multiplicative"): ("law",
        "verify.riordan_multiply verify.flavor_convert"),
    ("riordan-group", "flavor-conversion-involution"): ("law", "verify.flavor_convert"),
    ("riordan-group", "moment-transform-two-routes"): (
        "verify.ftra_apply " + _ARRAY, "series.compose " + _VERIFY_GF),
    ("riordan-group", "pascal-shifts-bell"): ("law",
        f"verify.ftra_apply verify.bell series.exp umbra.from_series {_BRIDGE} {_ARRAY}"),
    ("riordan-group", "pascal-row-sums"): ("law", "verify.ftra_apply " + _ARRAY),
    ("families", "explicit-vs-gf:chebyshev-u"): ("families.master_table", _GF),
    ("families", "explicit-vs-gf:gegenbauer"): ("families.master_table", _GF),
    ("families", "explicit-vs-gf:meixner1"): ("families.master_table", _EGF),
    ("families", "explicit-vs-gf:mittag-leffler"): ("families.master_table", _EGF),
    ("families", "explicit-vs-gf:pidduck"): ("families.master_table", _EGF),
    ("families", "chebyshev-recurrence"): ("law", "families.master_table"),
    ("families", "gegenbauer-reduces-to-chebyshev"): ("families.master_table", _GF),
    ("families", "mittag-leffler-meixner-specialization"): ("families.master_table", _EGF),
    ("families", "pidduck-mittag-leffler-quotient"): ("law", "families.master_table"),
    ("families", "chebyshev-shifted-basis-display"): ("law",
        "families.master_table verify.binomial"),
    ("families", "master-degenerate-slots"): ("law", "families.master_table verify.binomial"),
    ("families", "master-degenerate-slots-indeterminate"): ("law", "families.master_table"),
    ("families", "master-explicit-vs-gf"): (
        "families.master_table", "families.master_gf_rows series.multiply series.power " + _BRIDGE),
}


def run_suite(name: str, order: int, seed: int) -> list[CheckResult]:
    """Run one suite: one result per identity, in the order first checked, failed
    at its first counterexample, whose detail ends with the command that repeats it."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    results: dict[str, CheckResult] = {}
    try:
        for identity, ok, detail in _SUITES[name](order=order, seed=seed):
            entry = results.setdefault(identity, CheckResult(identity, True))
            if not ok and entry.passed:  # the suite waits here, so detail reads its current draw
                entry.passed, entry.detail = False, detail() if callable(detail) else detail
    except Exception as exc:  # a crash inside a suite is a failed check, never a traceback
        error = CheckResult(f"suite-error:{name}", False, f"{type(exc).__name__}: {exc}")
        results = {error.name: error}
    repro = f"repro: umbral verify {name} --order {order} --seed {seed}"
    for r in results.values():
        if not r.passed:
            r.detail = f"{r.detail}; {repro}" if r.detail else repro
    return list(results.values())


def run_suites(names, order: int, seed: int) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(run_suite(name, order, seed))
    return results
