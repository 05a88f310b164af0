"""Property-based laws on generated umbrae and series, orders 0 and up."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.polynomials import Polynomial
from umbral.series import TruncatedSeries, exp, log, power
from umbral.sheffer import (
    UmbraPair,
    flavor_convert,
    riordan_array,
    riordan_inverse,
    riordan_multiply,
    umbral_compose,
)
from umbral.umbra import Umbra, add, augmentation, dot_scalar

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exponents = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def umbrae(draw, order):
    return Umbra([1] + draw(st.lists(small_rationals, min_size=order, max_size=order)))


@st.composite
def umbra_lists(draw, count, max_order):
    order = draw(st.integers(min_value=0, max_value=max_order))
    return [draw(umbrae(order)) for _ in range(count)]


@st.composite
def unit_series(draw, max_order=7):
    order = draw(st.integers(min_value=0, max_value=max_order))
    tail = draw(st.lists(small_rationals, min_size=order, max_size=order))
    return TruncatedSeries([1] + tail)


laws = settings(max_examples=40, deadline=None)


@laws
@given(umbra_lists(1, 6), st.integers(min_value=-4, max_value=4))
def test_integer_dot_is_iterated_sum(us, k):
    (u,) = us
    iterated = augmentation(u.order)
    for _ in range(abs(k)):
        iterated = add(iterated, u)
    if k >= 0:
        assert dot_scalar(k, u) == iterated
    else:
        assert add(dot_scalar(k, u), iterated) == augmentation(u.order)


@laws
@given(umbra_lists(1, 5), exponents, exponents)
def test_dot_scalar_multiplicative(us, a, b):
    (u,) = us
    assert dot_scalar(a, dot_scalar(b, u)) == dot_scalar(a * b, u)


@laws
@given(unit_series(), exponents)
def test_power_matches_exp_log(f, a):
    # the exp/log route is the oracle for the one-pass recurrence
    assert power(f, a) == exp(log(f) * a)


def test_power_polynomial_exponent_and_coefficients():
    x = Polynomial.x()
    f = TruncatedSeries([1, Fraction(-1, 2), 3, 0, Fraction(2, 3), -1])
    assert power(f, x) == exp(log(f) * x)
    kernel = TruncatedSeries(
        [Polynomial((1,)), Polynomial((0, -2)), Polynomial((1,))] + [Polynomial()] * 4
    )
    for a in (Fraction(-3, 2), x, x * x - 1):
        assert power(kernel, a) == exp(log(kernel) * a)


@settings(max_examples=15, deadline=None)
@given(umbra_lists(4, 4))
def test_product_pair_is_composed_pair(us):
    p, q = UmbraPair(us[0], us[1]), UmbraPair(us[2], us[3])
    composed = umbral_compose(p, q)
    product = riordan_multiply(riordan_array(p), riordan_array(q))
    assert flavor_convert(product).pair == composed
    assert product.pair == composed
    assert product.entries == riordan_array(composed).entries

    identity = riordan_array(UmbraPair(augmentation(p.order), augmentation(p.order)))
    inverse = riordan_inverse(product)
    assert riordan_multiply(product, inverse).entries == identity.entries
    assert riordan_multiply(inverse, product).entries == identity.entries
