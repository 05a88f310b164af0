"""Seeded identity suites: every structural fact the package relies on,
checked exactly on pseudo-random umbrae.

Random umbrae are moment sequences with m_0 = 1 and small integer moments
drawn from a seeded generator, so a failing check always comes with a
reproducible counterexample.  All equalities are exact rational (or exact
polynomial) equalities; there are no tolerances anywhere.

The suites are shared by the test suite and the ``umbral verify``
command.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import families as fam
from . import series as ps
from .polynomials import Polynomial, binomial_poly
from .rationals import binomial, factorial
from .sheffer import (
    UmbraPair,
    abel_representation,
    flavor_convert,
    ftra_apply,
    identity_pair,
    riordan_array,
    riordan_entries_series,
    riordan_inverse,
    riordan_multiply,
    sheffer_sequence,
    umbral_compose,
)
from .symbolic import UmbralPolynomial, UmbralSymbol, X, Y, abel_expression, atom, constant
from .umbra import (
    Umbra,
    add,
    augmentation,
    bell,
    composition_umbra,
    composition_umbra_series,
    derivative_umbra,
    dot,
    dot_scalar,
    gf,
    inverse_umbra,
    k_umbra,
    k_umbra_series,
    scalar_umbra,
    singleton,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites", "random_umbra"]

SUITE_NAMES = ("abel", "lif", "duality", "sheffer", "riordan-group", "families")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Recorder:
    """Collects per-identity outcomes; keeps only the first counterexample."""

    def __init__(self):
        self.results: list[CheckResult] = []
        self._index: dict[str, int] = {}

    def check(self, name: str, ok: bool, detail: str = ""):
        if name not in self._index:
            self._index[name] = len(self.results)
            self.results.append(CheckResult(name, True))
        entry = self.results[self._index[name]]
        if not ok and entry.passed:
            entry.passed = False
            entry.detail = detail


def random_umbra(rng: Random, order: int, low: int = -3, high: int = 3) -> Umbra:
    """A moment sequence with m_0 = 1 and small seeded integer moments."""
    return Umbra([1] + [rng.randint(low, high) for _ in range(order)])


def _random_polynomial(rng: Random, degree: int) -> Polynomial:
    coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]
    return Polynomial(coeffs)


def _fmt(u: Umbra) -> str:
    return "[" + ", ".join(str(m) for m in u.moments) + "]"


def _abel_factor(g: Umbra, u: Umbra, k: int) -> Fraction:
    """E[g (g - k.u)^(k-1)], the Abel-type weight; 1 when k = 0."""
    if k == 0:
        return Fraction(1)
    gs = atom(UmbralSymbol(g))
    shift = atom(UmbralSymbol(dot_scalar(-k, u)))
    return (gs * (gs + shift) ** (k - 1)).evaluate().constant_value()


def _subst(poly: Polynomial, arg: UmbralPolynomial) -> UmbralPolynomial:
    """poly evaluated at an umbral-polynomial argument."""
    result = constant(0)
    power = constant(1)
    for c in poly.coeffs:
        if c != 0:
            result = result + power * c
        power = power * arg
    return result


def _lift(poly: Polynomial, var) -> UmbralPolynomial:
    return _subst(poly, atom(var))


def suite_abel(order: int = 10, seed: int = 0, trials: int = 25) -> list[CheckResult]:
    """The Abel expansion of binomial moments and its polynomial corollaries."""
    rng = Random(seed)
    rec = _Recorder()

    for trial in range(trials):
        a = random_umbra(rng, order)
        g = random_umbra(rng, order)
        d = random_umbra(rng, order)
        shifted = [add(d, dot_scalar(k, a)) for k in range(order + 1)]
        factors = [_abel_factor(g, a, k) for k in range(order + 1)]
        lhs_umbra = add(d, g)
        for n in range(order + 1):
            lhs = lhs_umbra.moment(n)
            rhs = sum(
                (binomial(n, k) * shifted[k].moment(n - k) * factors[k] for k in range(n + 1)),
                Fraction(0),
            )
            rec.check(
                "abel-identity",
                lhs == rhs,
                f"trial={trial} n={n} lhs={lhs} rhs={rhs} "
                f"alpha={_fmt(a)} gamma={_fmt(g)} delta={_fmt(d)}",
            )

    # polynomial form: q(delta + gamma) expanded along Abel weights, for
    # monomials q = x^j and for random polynomials (linearity makes them
    # equivalent; both are exercised); deg q cannot exceed the moment order
    rng_q = Random(seed + 1)
    max_deg = min(6, order)
    polys = [Polynomial((0,) * j + (1,)) for j in range(max_deg + 1)]
    if max_deg >= 1:
        polys += [_random_polynomial(rng_q, rng_q.randint(1, max_deg)) for _ in range(4)]
    a = random_umbra(rng_q, order)
    g = random_umbra(rng_q, order)
    d = random_umbra(rng_q, order)
    factors = [_abel_factor(g, a, k) for k in range(order + 1)]
    for qi, q in enumerate(polys):
        deg = q.degree
        lhs = _subst(q, atom(UmbralSymbol(d)) + atom(UmbralSymbol(g))).evaluate().constant_value()
        rhs = Fraction(0)
        deriv = q
        for k in range(deg + 1):
            arg = atom(UmbralSymbol(d)) + atom(UmbralSymbol(dot_scalar(k, a)))
            value = _subst(deriv, arg).evaluate().constant_value()
            rhs += value * factors[k] / factorial(k)
            deriv = deriv.derivative()
        rec.check(
            "abel-identity-polynomial-form",
            lhs == rhs,
            f"q#{qi}={q} lhs={lhs} rhs={rhs} alpha={_fmt(a)}",
        )

    # derivative rule: d/dx of the degree-n Abel polynomial is n times the
    # degree-(n-1) one shifted by a fresh copy of the umbra
    rng_d = Random(seed + 2)
    for trial in range(10):
        u = random_umbra(rng_d, order)
        for n in range(1, min(order, 10) + 1):
            lhs = abel_expression(n, atom(X), u).formal_derivative(X).evaluate().to_univariate()
            base = atom(X) + atom(UmbralSymbol(u))
            rhs = (abel_expression(n - 1, base, u) * n).evaluate().to_univariate()
            rec.check(
                "abel-derivative-rule",
                lhs == rhs,
                f"trial={trial} n={n} lhs={lhs} rhs={rhs} u={_fmt(u)}",
            )

    # binomial identity of Abel polynomials, as exact two-variable polynomials
    rng_b = Random(seed + 3)
    for trial in range(10):
        u = random_umbra(rng_b, order)
        for n in range(min(order, 8) + 1):
            lhs = abel_expression(n, atom(X) + atom(Y), u).evaluate()
            rhs = constant(0)
            for k in range(n + 1):
                left = abel_expression(k, atom(X), u)
                right = abel_expression(n - k, atom(Y), u)
                rhs = rhs + binomial(n, k) * (left * right).evaluate()
            rec.check(
                "abel-binomial-identity",
                lhs == rhs,
                f"trial={trial} n={n} u={_fmt(u)}",
            )

    return rec.results


def suite_lif(order: int = 12, seed: int = 0, trials: int = 25) -> list[CheckResult]:
    """Lagrange inversion: moment route vs series reversion, plus corollaries."""
    rng = Random(seed)
    rec = _Recorder()

    for trial in range(trials):
        g = random_umbra(rng, order)
        a = random_umbra(rng, order)

        moment_route = k_umbra(g, a)
        series_route = k_umbra_series(g, a)
        rec.check(
            "lagrange-inversion-moments",
            moment_route == series_route,
            f"trial={trial} moment={_fmt(moment_route)} series={_fmt(series_route)} "
            f"gamma={_fmt(g)} alpha={_fmt(a)}",
        )

        # coefficient form: n [z^n] f_g(revert(z f_a)) = [z^(n-1)] f_g' / f_a^n
        if order >= 1:
            fg, fa = gf(g), gf(a)
            fgd = fg.derivative()
            kcoeffs = gf(moment_route)
            for n in range(1, order + 1):
                rhs = ps.multiply(fgd, ps.power(fa, -n).truncate(order - 1))[n - 1]
                rec.check(
                    "lagrange-inversion-coefficients",
                    n * kcoeffs[n] == rhs,
                    f"trial={trial} n={n} lhs={n * kcoeffs[n]} rhs={rhs}",
                )

        # composition umbra: binomial moment expansion vs series composition
        comp_m = composition_umbra(g, a)
        comp_s = composition_umbra_series(g, a)
        rec.check(
            "composition-two-routes",
            comp_m == comp_s,
            f"trial={trial} moment={_fmt(comp_m)} series={_fmt(comp_s)}",
        )

        # the derivative umbra is the compositional inverse of the
        # derivative of -1.K(u), for every umbra u (inversion needs order >= 1)
        if order >= 1:
            lhs = derivative_umbra(a)
            rhs = inverse_umbra(derivative_umbra(dot_scalar(-1, k_umbra(a, a))))
            rec.check(
                "derivative-inverse-relation",
                lhs == rhs,
                f"trial={trial} lhs={_fmt(lhs)} rhs={_fmt(rhs)} u={_fmt(a)}",
            )

    return rec.results


def suite_duality(order: int = 12, seed: int = 0, trials: int = 10) -> list[CheckResult]:
    """Singleton/Bell duality and the small moment-algebra laws."""
    rng = Random(seed)
    rec = _Recorder()
    chi = singleton(order)
    b = bell(order)
    unity = scalar_umbra(1, order)
    eps = augmentation(order)

    rec.check("singleton-bell-duality", dot(chi, b) == unity, f"got {_fmt(dot(chi, b))}")
    rec.check("bell-singleton-duality", dot(b, chi) == unity, f"got {_fmt(dot(b, chi))}")
    bell5 = bell(5)
    rec.check(
        "bell-moments",
        bell5.moments == (1, 1, 2, 5, 15, 52),
        f"got {_fmt(bell5)}",
    )

    for trial in range(trials):
        u = random_umbra(rng, order)
        rec.check("additive-identity", add(u, eps) == u, f"trial={trial} u={_fmt(u)}")

        x, y = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = dot_scalar(x, dot_scalar(y, u))
        rhs = dot_scalar(x * y, u)
        rec.check(
            "scalar-dot-multiplicative",
            lhs == rhs,
            f"trial={trial} a={x} b={y} u={_fmt(u)}",
        )

        k = rng.randint(1, 4)
        iterated = eps
        for _ in range(k):
            iterated = add(iterated, u)
        rec.check(
            "integer-dot-is-iterated-sum",
            dot_scalar(k, u) == iterated,
            f"trial={trial} k={k} u={_fmt(u)}",
        )
        rec.check(
            "dot-cancellation",
            add(dot_scalar(k, u), dot_scalar(-k, u)) == eps,
            f"trial={trial} k={k} u={_fmt(u)}",
        )

        if order >= 1 and u.moment(1) != 0:
            rec.check(
                "inverse-involution",
                inverse_umbra(inverse_umbra(u)) == u,
                f"trial={trial} u={_fmt(u)}",
            )

        a = Fraction(rng.randint(-3, 3))
        scaled = dot(u, scalar_umbra(a, order))
        expected = Umbra([u.moment(n) * a**n for n in range(order + 1)])
        rec.check(
            "dot-scalar-right",
            scaled == expected,
            f"trial={trial} a={a} u={_fmt(u)}",
        )

    return rec.results


def suite_sheffer(order: int = 12, seed: int = 0, trials: int = 10) -> list[CheckResult]:
    """Sheffer coefficients, the Abel form, and the two-variable identities."""
    rng = Random(seed)
    rec = _Recorder()

    for trial in range(trials):
        pair = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))

        seq = sheffer_sequence(pair)
        array = riordan_array(pair)
        oracle_entries = riordan_entries_series(pair)
        rec.check(
            "sheffer-coefficient-extraction",
            array.entries == oracle_entries,
            f"trial={trial} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
        )
        monic = all(p.degree == n and p.coeff(n) == 1 for n, p in enumerate(seq.polys))
        rec.check("sheffer-monic", monic, f"trial={trial}")

        abel_seq = abel_representation(pair)
        rec.check(
            "sheffer-abel-representation",
            abel_seq.polys == seq.polys,
            f"trial={trial} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
        )

        # Sheffer identity: s_n(x+y) = sum C(n,k) p_k(x) s_{n-k}(y), with
        # (p_k) the associated sequence of the same alpha
        assoc = sheffer_sequence(UmbraPair(augmentation(order), pair.alpha))
        for n in range(min(order, 8) + 1):
            lhs = _subst(seq.polys[n], atom(X) + atom(Y))
            rhs = constant(0)
            for k in range(n + 1):
                rhs = rhs + binomial(n, k) * _lift(assoc.polys[k], X) * _lift(
                    seq.polys[n - k], Y
                )
            rec.check(
                "sheffer-identity",
                lhs == rhs,
                f"trial={trial} n={n} gamma={_fmt(pair.gamma)} alpha={_fmt(pair.alpha)}",
            )
            lhs_b = _subst(assoc.polys[n], atom(X) + atom(Y))
            rhs_b = constant(0)
            for k in range(n + 1):
                rhs_b = rhs_b + binomial(n, k) * _lift(assoc.polys[k], X) * _lift(
                    assoc.polys[n - k], Y
                )
            rec.check(
                "binomial-identity",
                lhs_b == rhs_b,
                f"trial={trial} n={n} alpha={_fmt(pair.alpha)}",
            )

    return rec.results


def suite_riordan_group(order: int = 12, seed: int = 0, trials: int = 10) -> list[CheckResult]:
    """The array group: composition, inverses, named arrays, conversions."""
    rng = Random(seed)
    rec = _Recorder()

    ident = riordan_array(identity_pair(order))
    identity_entries = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(order + 1))
        for i in range(order + 1)
    )
    rec.check("identity-array", ident.entries == identity_entries, "")

    pascal = riordan_array(UmbraPair(scalar_umbra(1, order), augmentation(order)))
    rec.check(
        "pascal-array",
        all(
            pascal.entry(n, k) == binomial(n, k)
            for n in range(order + 1)
            for k in range(order + 1)
        ),
        "",
    )
    signed = riordan_inverse(pascal)
    rec.check(
        "signed-pascal-inverse",
        all(
            signed.entry(n, k) == (-1) ** (n - k) * binomial(n, k)
            for n in range(order + 1)
            for k in range(n + 1)
        ),
        "",
    )
    rec.check(
        "pascal-squared",
        all(
            riordan_multiply(pascal, pascal).entry(n, k) == binomial(n, k) * 2 ** (n - k)
            for n in range(order + 1)
            for k in range(n + 1)
        ),
        "",
    )

    for trial in range(trials):
        p = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        q = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        r = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        ap, aq, ar = riordan_array(p), riordan_array(q), riordan_array(r)

        composed = riordan_array(umbral_compose(p, q))
        product = riordan_multiply(ap, aq)
        rec.check(
            "pair-composition-matches-matrix-product",
            composed.entries == product.entries,
            f"trial={trial} gamma={_fmt(p.gamma)} alpha={_fmt(p.alpha)} "
            f"eta={_fmt(q.gamma)} delta={_fmt(q.alpha)}",
        )

        rec.check(
            "identity-laws",
            riordan_multiply(ap, ident).entries == ap.entries
            and riordan_multiply(ident, ap).entries == ap.entries,
            f"trial={trial}",
        )

        inv = riordan_inverse(ap)
        rec.check(
            "inverse-two-sided",
            riordan_multiply(ap, inv).entries == identity_entries
            and riordan_multiply(inv, ap).entries == identity_entries,
            f"trial={trial} gamma={_fmt(p.gamma)} alpha={_fmt(p.alpha)}",
        )
        rec.check(
            "inverse-involution",
            riordan_inverse(inv).entries == ap.entries,
            f"trial={trial}",
        )

        assoc_l = riordan_multiply(riordan_multiply(ap, aq), ar)
        assoc_r = riordan_multiply(ap, riordan_multiply(aq, ar))
        rec.check("associativity", assoc_l.entries == assoc_r.entries, f"trial={trial}")

        conv_prod = flavor_convert(riordan_multiply(ap, aq))
        prod_conv = riordan_multiply(flavor_convert(ap), flavor_convert(aq))
        rec.check(
            "flavor-conversion-multiplicative",
            conv_prod.entries == prod_conv.entries,
            f"trial={trial}",
        )
        rec.check(
            "flavor-conversion-involution",
            flavor_convert(flavor_convert(ap)).entries == ap.entries,
            f"trial={trial}",
        )

        seq = random_umbra(rng, order)
        transformed = ftra_apply(ap, seq)  # raises if the two routes disagree
        rec.check(
            "moment-transform-two-routes",
            transformed == add(p.gamma, composition_umbra(seq, p.alpha)),
            f"trial={trial}",
        )

    bell_seq = bell(order)
    rec.check(
        "pascal-shifts-bell",
        ftra_apply(pascal, bell_seq).moments == bell(order + 1).moments[1:],
        "",
    )
    rec.check(
        "pascal-row-sums",
        ftra_apply(pascal, scalar_umbra(1, order)).moments
        == tuple(Fraction(2) ** n for n in range(order + 1)),
        "",
    )

    return rec.results


def suite_families(order: int = 10, seed: int = 0, trials: int = 0) -> list[CheckResult]:
    """Explicit sums vs generating functions for the five families."""
    rec = _Recorder()
    n_max = order

    oracles = {
        "chebyshev-u": lambda n: fam.gf_oracle("chebyshev-u", n),
        "gegenbauer": lambda n: fam.gf_oracle("gegenbauer", n, lam=Fraction(3, 2)),
        "meixner1": lambda n: fam.gf_oracle("meixner1", n, b=Fraction(1, 2), c=3),
        "mittag-leffler": lambda n: fam.gf_oracle("mittag-leffler", n),
        "pidduck": lambda n: fam.gf_oracle("pidduck", n),
    }
    explicit = {
        "chebyshev-u": lambda n: fam.chebyshev_u(n),
        "gegenbauer": lambda n: fam.gegenbauer(n, Fraction(3, 2)),
        "meixner1": lambda n: fam.meixner1(n, Fraction(1, 2), 3),
        "mittag-leffler": lambda n: fam.mittag_leffler(n),
        "pidduck": lambda n: fam.pidduck(n),
    }
    for kind in fam.FAMILY_NAMES:
        for n in range(n_max + 1):
            lhs = explicit[kind](n)
            rhs = oracles[kind](n)
            rec.check(
                f"explicit-vs-gf:{kind}",
                lhs == rhs,
                f"n={n} explicit={lhs} gf={rhs}",
            )

    # Tchebychev three-term recurrence
    u_prev, u_curr = fam.chebyshev_u(0), fam.chebyshev_u(1)
    two_x = Polynomial((0, 2))
    for n in range(2, n_max + 1):
        u_next = fam.chebyshev_u(n)
        rec.check(
            "chebyshev-recurrence",
            u_next == two_x * u_curr - u_prev,
            f"n={n} got={u_next} expected={two_x * u_curr - u_prev}",
        )
        u_prev, u_curr = u_curr, u_next

    for n in range(n_max + 1):
        rec.check(
            "gegenbauer-reduces-to-chebyshev",
            fam.gegenbauer(n, 1) == fam.chebyshev_u(n),
            f"n={n}",
        )

    # Mittag-Leffler is the Meixner pattern at (b, c) = (0, -1); the b > 0
    # restriction is lifted for this structural identity only
    for n in range(n_max + 1):
        via_meixner = fam.master_polynomial(n, fam.meixner_params(0, -1))
        rec.check(
            "mittag-leffler-meixner-specialization",
            via_meixner == fam.mittag_leffler(n),
            f"n={n}",
        )

    # Pidduck/Mittag-Leffler quotient: the extra 1/(1-z) factor means
    # P_n = sum_j n!/j! M_j
    for n in range(min(n_max, 8) + 1):
        quotient_sum = Polynomial()
        for j in range(n + 1):
            quotient_sum = quotient_sum + fam.mittag_leffler(j) * Fraction(
                factorial(n), factorial(j)
            )
        rec.check(
            "pidduck-mittag-leffler-quotient",
            fam.pidduck(n) == quotient_sum,
            f"n={n}",
        )

    # shifted-basis value of the second Tchebychev polynomial:
    # sum_k binom(n+k+1, n-k) 2^k (x-1)^k at n = 2 equals 4x^2 - 1
    xm1 = Polynomial((-1, 1))
    display = Polynomial()
    for k in range(3):
        display = display + binomial(2 + k + 1, 2 - k) * 2**k * xm1**k
    rec.check(
        "chebyshev-shifted-basis-display",
        display == Polynomial((-1, 0, 4)),
        f"got {display}",
    )

    # degenerate master slots q = t = 0 collapse to a single monomial
    for n in range(min(n_max, 6) + 1):
        for y in (Fraction(0), Fraction(2), Fraction(7, 2)):
            p = fam.MasterParams.of(Polynomial.x(), y, 0, 0)
            expected = Polynomial((0,) * n + (1,)) * (factorial(n) * binomial(y, n))
            rec.check(
                "master-degenerate-slots",
                fam.master_polynomial(n, p) == expected,
                f"n={n} y={y}",
            )
        p_ind = fam.MasterParams.of(Polynomial.x(), None, 0, 0)
        expected_ind = binomial_poly(n) * Polynomial((0,) * n + (1,)) * factorial(n)
        rec.check(
            "master-degenerate-slots-indeterminate",
            fam.master_polynomial(n, p_ind) == expected_ind,
            f"n={n}",
        )

    # master explicit sum vs master generating function on generic slots
    generic = [
        fam.MasterParams.of(Polynomial((2, -2)), Fraction(-5, 2), Fraction(3), Fraction(1, 2)),
        fam.MasterParams.of(Polynomial((0, 1)), None, Fraction(2), Fraction(3, 4)),
        fam.MasterParams.of(Fraction(1, 3), Fraction(4), Fraction(0), Fraction(2)),
    ]
    for pi, p in enumerate(generic):
        for n in range(min(n_max, 7) + 1):
            rec.check(
                "master-explicit-vs-gf",
                fam.master_polynomial(n, p) == fam.master_gf_polynomial(n, p),
                f"params#{pi} n={n}",
            )

    return rec.results


_SUITES = {
    "abel": suite_abel,
    "lif": suite_lif,
    "duality": suite_duality,
    "sheffer": suite_sheffer,
    "riordan-group": suite_riordan_group,
    "families": suite_families,
}


def run_suite(name: str, order: int, seed: int) -> list[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    return _SUITES[name](order=order, seed=seed)


def run_suites(names, order: int = 12, seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(run_suite(name, order, seed))
    return results
