"""Property-based laws on generated umbrae and series, orders 0 and up, on
the umbra-spec parser, and on every registered polynomial family."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umbral import cli
from umbral.families import FAMILY_NAMES, family_polynomial, gf_oracle
from umbral.polynomials import Polynomial
from umbral.series import TruncatedSeries, exp, log, power
from umbral.sheffer import (
    UmbraPair,
    flavor_convert,
    identity_pair,
    riordan_array,
    riordan_inverse,
    riordan_multiply,
    umbral_compose,
)
from umbral.symbolic import UmbralPolynomial, UmbralSymbol, X, Y, abel, atom
from umbral.umbra import (
    Umbra,
    add,
    augmentation,
    dot_scalar,
    from_series,
    gf,
    inverse_umbra,
    k_umbra,
)
from umbral.verify import abel_identity_failure

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
@given(umbra_lists(1, 8), exponents)
def test_dot_scalar_matches_exp_log(us, a):
    # the series exp/log route shares nothing with the moment recurrence
    (u,) = us
    assert dot_scalar(a, u) == from_series(exp(log(gf(u)) * a))


@laws
@given(umbra_lists(2, 6))
def test_abel_weights_are_k_umbra_moments(us):
    # E[g (g - n.u)^(n-1)] by symbolic evaluation against the moment expansion
    g, u = us
    neg_u = dot_scalar(-1, u)
    weights = tuple(abel(n, UmbralSymbol(g), neg_u) for n in range(u.order + 1))
    assert weights == k_umbra(g, u).moments


@settings(max_examples=15, deadline=None)
@given(umbra_lists(3, 5))
def test_abel_identity_on_generated_triples(us):
    assert abel_identity_failure(*us) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(umbrae))
def test_inverse_umbra_is_an_involution(u):
    assume(u.moment(1) != 0)
    assert inverse_umbra(inverse_umbra(u)) == u


@pytest.mark.parametrize("n", range(13))
def test_sparse_power_is_multinomial_sum(n):
    # the sum is built term by term, with no polynomial product
    s = UmbralSymbol(augmentation(0))
    terms = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            monomial = tuple((a, e) for a, e in ((X, i), (Y, j), (s, k)) if e)
            terms[monomial] = Fraction(factorial(n), factorial(i) * factorial(j) * factorial(k))
    assert (atom(X) + atom(Y) + atom(s)) ** n == UmbralPolynomial(terms)


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


@settings(max_examples=15, deadline=None)
@given(umbra_lists(6, 4))
def test_riordan_associativity_and_identity_laws(us):
    a, b, c = (riordan_array(UmbraPair(us[i], us[i + 1])) for i in (0, 2, 4))
    left = riordan_multiply(riordan_multiply(a, b), c)
    assert left.entries == riordan_multiply(a, riordan_multiply(b, c)).entries
    identity = riordan_array(identity_pair(a.order))
    assert riordan_multiply(a, identity).entries == a.entries
    assert riordan_multiply(identity, a).entries == a.entries


@settings(max_examples=20, deadline=None)
@given(umbra_lists(2, 6))
def test_riordan_inverse_is_an_involution(us):
    a = riordan_array(UmbraPair(*us))
    assert riordan_inverse(riordan_inverse(a)).entries == a.entries


@settings(max_examples=20, deadline=None)
@given(umbra_lists(4, 5))
def test_flavor_conversion_is_involutive_and_multiplicative(us):
    a, b = riordan_array(UmbraPair(us[0], us[1])), riordan_array(UmbraPair(us[2], us[3]))
    assert flavor_convert(flavor_convert(a)).entries == a.entries
    converted = riordan_multiply(flavor_convert(a), flavor_convert(b))
    assert flavor_convert(riordan_multiply(a, b)).entries == converted.entries


# --- the umbra-spec parser -----------------------------------------------------

spec_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
spec_trees = st.recursive(
    st.sampled_from(("eps", "chi", "bell", "ubar")).map(lambda name: (name,))
    | spec_rationals.map(lambda a: ("scalar", a))
    | st.lists(spec_rationals, min_size=1, max_size=4).map(lambda cs: ("egf", tuple(cs))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("add", "dot", "k")), inner, inner),
        st.tuples(st.just("dotscalar"), spec_rationals, inner),
        st.tuples(st.sampled_from(("deriv", "inv")), inner),
    ),
    max_leaves=12,
)


@st.composite
def mangled_specs(draw):
    """A valid spec with a few short spans replaced, so parses fail deep inside."""
    text = cli.spec_to_text(draw(spec_trees))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 3)))
        text = text[:i] + draw(st.text(alphabet="(),/-019 adegk", max_size=2)) + text[j:]
    return text



@settings(max_examples=200, deadline=None)
@given(mangled_specs() | st.text(max_size=30))
def test_parser_is_total(text):
    try:
        tree = cli.parse_umbra_spec(text)
    except cli.SpecParseError:
        return
    assert cli.parse_umbra_spec(cli.spec_to_text(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(spec_trees)
def test_parser_round_trips_generated_trees(tree):
    assert cli.parse_umbra_spec(cli.spec_to_text(tree)) == tree


# --- the family registry ---------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_every_family_explicit_row_matches_its_gf(lam, b, c):
    assume(c not in (0, 1) and not (b.denominator == 1 and b <= 0))
    options = {"lam": lam, "b": b, "c": c}
    for kind in FAMILY_NAMES:
        for n in range(9):
            assert family_polynomial(kind, n, **options) == gf_oracle(kind, n, **options)
