from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbral import umbra, verify
from umbral.polynomials import Polynomial
from umbral.symbolic import (
    _SLOT_MAX,
    UmbralPolynomial,
    UmbralSymbol,
    X,
    Y,
    abel,
    abel_expression,
    atom,
    binomial_sum,
    constant,
    substitute,
)
from umbral.umbra import Umbra, augmentation, dot_scalar, scalar_umbra, singleton, ubar
from umbral.verify import (
    abel_binomial_identity_failure,
    abel_derivative_rule_failure,
    abel_identity_failure,
    abel_polynomial_form_failure,
    random_umbra,
)

F = Fraction


# --- evaluation ------------------------------------------------------------


def test_evaluate_kills_high_singleton_powers():
    s = UmbralSymbol(singleton(4))
    expr = atom(X) ** 2 * atom(s) ** 3
    assert expr.evaluate() == constant(0)


def test_evaluate_binomial_expansion():
    s = UmbralSymbol(ubar(4))
    expr = (atom(X) + atom(s)) ** 2
    assert expr.evaluate().to_univariate() == Polynomial((2, 2, 1))


def test_evaluate_uncorrelated_versus_correlated():
    s1 = UmbralSymbol(singleton(3))
    s2 = UmbralSymbol(singleton(3))
    assert (atom(s1) * atom(s2)).evaluate().constant_value() == 1
    assert (atom(s1) * atom(s1)).evaluate().constant_value() == 0


def test_evaluate_exponent_over_order_raises():
    s = UmbralSymbol(singleton(2))
    with pytest.raises(ValueError):
        (atom(s) ** 3).evaluate()


def test_evaluate_is_linear_over_coefficients():
    rng = Random(1)
    u = random_umbra(rng, 6)
    s = UmbralSymbol(u)
    expr = constant(3) * atom(s) ** 2 - atom(s) * F(1, 2) + 7
    got = expr.evaluate().constant_value()
    assert got == 3 * u.moment(2) - F(1, 2) * u.moment(1) + 7


# --- packed exponent slots ----------------------------------------------------


def test_constructor_rejects_an_exponent_past_the_slot():
    s = UmbralSymbol(ubar(2))
    assert UmbralPolynomial({((X, _SLOT_MAX), (s, 1)): 1}) != UmbralPolynomial({((s, 2),): 1})
    with pytest.raises(ValueError):
        UmbralPolynomial({((X, _SLOT_MAX + 1),): 1})
    with pytest.raises(ValueError):
        UmbralPolynomial({((X, 1), (s, _SLOT_MAX), (s, 1)): 1})  # repeated atom, summed
    with pytest.raises(ValueError):
        UmbralPolynomial({((X, -1),): 1})


def test_product_past_the_slot_raises_instead_of_carrying():
    s = UmbralSymbol(ubar(2))
    near = UmbralPolynomial({((X, _SLOT_MAX - 1),): 1}) + atom(s)
    full = near * atom(X)  # top degrees sum to the bound exactly: still fits
    assert full == UmbralPolynomial({((X, _SLOT_MAX),): 1, ((X, 1), (s, 1)): 1})
    with pytest.raises(ValueError):
        full * atom(X)
    with pytest.raises(ValueError):
        near * near


# --- formal derivative -------------------------------------------------------


def test_derivative_power_rule():
    expr = atom(X) ** 3
    assert expr.formal_derivative(X) == constant(3) * atom(X) ** 2


def test_derivative_product_rule_two_atoms():
    g = UmbralSymbol(ubar(3))
    s = UmbralSymbol(ubar(3))
    expr = atom(g) * (atom(g) + atom(s))
    expected = constant(2) * atom(g) + atom(s)
    assert expr.formal_derivative(g) == expected


def test_derivative_of_constant_is_zero():
    assert constant(5).formal_derivative(X) == constant(0)
    expr = atom(Y) ** 2
    assert expr.formal_derivative(X) == constant(0)


def test_a_constant_hashes_as_its_scalar():
    for scalar in (3, F(1, 2), 0):
        assert constant(scalar) == scalar
        assert hash(constant(scalar)) == hash(scalar)
        assert len({constant(scalar), scalar}) == 1
    assert hash(atom(X) - atom(X)) == hash(0)


# --- Abel polynomials -----------------------------------------------------------


def test_abel_augmentation_gives_monomials():
    for n in range(6):
        assert abel(n, X, augmentation(6)) == Polynomial((0,) * n + (1,))


def test_abel_scalar_values():
    assert abel(2, X, scalar_umbra(2, 4)) == Polynomial((0, 4, 1))  # x(x + 2a), a=2
    assert abel(3, X, scalar_umbra(1, 4)) == Polynomial((0, 9, 6, 1))  # x(x+3)^2


def test_abel_zero_is_one():
    assert abel(0, X, ubar(4)) == Polynomial((1,))


def test_abel_insufficient_order():
    with pytest.raises(ValueError):
        abel(5, X, ubar(3))


def test_abel_monic_of_degree_n():
    rng = Random(2)
    for _ in range(8):
        u = random_umbra(rng, 8)
        n = rng.randint(1, 8)
        p = abel(n, X, u)
        assert p.degree == n
        assert p.coeff(n) == 1


# --- the derivative rule for Abel polynomials --------------------------------------


def test_abel_derivative_rule():
    rng = Random(3)
    for _ in range(10):
        assert abel_derivative_rule_failure(random_umbra(rng, 10), 10) is None


# --- the Abel identity ----------------------------------------------------------------


def test_abel_identity_exact():
    rng = Random(4)
    for _ in range(10):
        a, g, d = (random_umbra(rng, 10) for _ in range(3))
        assert abel_identity_failure(a, g, d) is None


def test_abel_identity_polynomial_form():
    # same expansion applied to q(delta + gamma) for monomials and a dense q
    rng = Random(5)
    a, g, d = (random_umbra(rng, 8) for _ in range(3))
    qs = [Polynomial((0,) * j + (1,)) for j in range(7)]
    qs.append(Polynomial((3, -1, 0, 2, F(1, 2), 0, 1)))
    assert abel_polynomial_form_failure(a, g, d, qs) is None


# --- the binomial identity of Abel polynomials -------------------------------------------


def test_abel_binomial_identity_bivariate():
    rng = Random(6)
    for _ in range(6):
        assert abel_binomial_identity_failure(random_umbra(rng, 8), 8) is None


# --- the direct builds against the product route ----------------------------------------------

rationals = st.integers(min_value=-3, max_value=3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
umbrae = st.builds(
    lambda ms: Umbra([1, *ms]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=8)
    | st.lists(rationals, min_size=8, max_size=8),
)
laws = settings(max_examples=40, deadline=None)


def _bases(k: Umbra):
    """x, x + y, x + K, a bare symbol and 2x - 1/3; K and the bare symbol are bound to ``k``."""
    return [
        atom(X),
        atom(X) + atom(Y),
        atom(X) + atom(UmbralSymbol(k)),
        atom(UmbralSymbol(k)),
        atom(X) * 2 - F(1, 3),
    ]


@laws
@given(st.integers(min_value=0, max_value=8), umbrae, umbrae)
def test_abel_expression_matches_the_product_route(n, u, k):
    for base in _bases(k):
        got = abel_expression(n, base, u)
        if n == 0:
            expected = constant(1)
        else:
            shift = atom(UmbralSymbol(dot_scalar(n, u)))
            expected = base * (base + shift) ** (n - 1)
        assert got.evaluate() == expected.evaluate()
        assert got.formal_derivative(X).evaluate() == expected.formal_derivative(X).evaluate()


def test_binomial_sum_matches_the_operator_sum():
    rng = Random(16)
    s = UmbralSymbol(ubar(8))
    args = (X, Y, atom(X) + atom(s), atom(Y) + atom(X))

    def operand():
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        return substitute(Polynomial(coeffs), rng.choice(args))

    for _ in range(30):
        n = rng.randint(0, 5)
        xs, ys = [operand() for _ in range(n + 1)], [operand() for _ in range(n + 1)]
        expected = sum((comb(n, k) * xs[k] * ys[n - k] for k in range(n + 1)), constant(0))
        assert binomial_sum(xs, ys, n) == expected
    high = UmbralPolynomial({((X, 20000),): 1})
    with pytest.raises(ValueError):
        binomial_sum([high], [high], 0)


def test_abel_expression_keeps_the_slot_bound():
    with pytest.raises(ValueError):
        abel_expression(2, UmbralPolynomial({((X, 20000),): 1}), ubar(4))


def _as_poly(arg):
    return arg if isinstance(arg, UmbralPolynomial) else atom(arg)


@laws
@given(st.lists(rationals, max_size=7))
@example([])
@example([F(-2, 3)])
def test_substitute_matches_the_power_sum(coeffs):
    p = Polynomial(coeffs)
    s = UmbralSymbol(ubar(8))
    for arg in (X, Y, s, atom(X), atom(s), atom(X) + atom(Y), atom(X) + atom(s)):
        expected = constant(0)
        for k, c in enumerate(p.coeffs):
            expected = expected + c * _as_poly(arg) ** k
        assert substitute(p, arg) == expected


def test_abel_and_sheffer_suites_hold_on_rational_draws(monkeypatch):
    # every other draw has moments p/q with q <= 3, so the suites' symbolic
    # checks evaluate over denominators and substitute rational polynomials
    integer_draw, draws = verify.random_umbra, []

    def rational_draw(rng, order):
        draws.append(order)
        if len(draws) % 2:
            return integer_draw(rng, order)
        return Umbra([1] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])

    monkeypatch.setattr(verify, "random_umbra", rational_draw)
    for suite in ("abel", "sheffer"):
        results = verify.run_suite(suite, 8, 42)
        assert [r for r in results if not r.passed] == []
    assert len(draws) > 1


def test_capped_checks_read_their_draws_only_to_their_caps(monkeypatch):
    # at order 24 only the K(gamma, alpha) weights of abel-identity need
    # full-order dot-power tables; the other abel checks stop at degree 10,
    # and the sheffer identities read the associated sequences to n = 8
    tables, assoc = [], []
    build_table, build_assoc = umbra._dot_power_table, verify.sheffer_sequence

    def table(u, sign):
        tables.append(u.order)
        return build_table(u, sign)

    def associated(pair):
        assoc.append(pair.order)
        return build_assoc(pair)

    monkeypatch.setattr(umbra, "_dot_power_table", table)
    monkeypatch.setattr(verify, "sheffer_sequence", associated)
    assert all(r.passed for r in verify.run_suite("abel", 24, 42))
    assert tables.count(24) == 25 and max(order for order in tables if order != 24) <= 10
    assert all(r.passed for r in verify.run_suite("sheffer", 24, 42))
    assert assoc == [8] * 10
