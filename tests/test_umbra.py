from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.families import MasterParams, family_table, gf_rows
from umbral.polynomials import Polynomial
from umbral.rationals import binomial, exact, factorial, falling_factorial
from umbral.series import TruncatedSeries, multiply, power, revert
from umbral.symbolic import X, UmbralPolynomial, constant
from umbral.umbra import (
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
    iterated_sums,
    k_umbra,
    k_umbra_series,
    scalar_umbra,
    singleton,
    ubar,
)
from umbral.verify import random_umbra

F = Fraction


def S(*coeffs):
    return TruncatedSeries(coeffs)


# --- construction and the series bijection -----------------------------------


def test_from_series_special_cases():
    assert from_series(TruncatedSeries.one(2)) == augmentation(2)
    assert from_series(S(1, 1, 0, 0)) == singleton(3)
    geometric = S(1, 1, 1, 1, 1)
    assert from_series(geometric) == ubar(4)
    assert ubar(4).moments == (1, 1, 2, 6, 24)


def test_from_series_requires_unit_constant():
    with pytest.raises(ValueError):
        from_series(S(2, 0))
    with pytest.raises(ValueError):
        Umbra((0, 1))


def test_constructor_rejects_empty_and_non_unit_start():
    for moments in ((), [], (2, 1), (F(1, 2),), (0,)):
        with pytest.raises(ValueError):
            Umbra(moments)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Umbra([1, 0.1])
    with pytest.raises(TypeError):
        Umbra([1.0, 2])
    with pytest.raises(TypeError):
        dot_scalar(0.5, ubar(3))
    with pytest.raises(TypeError):
        scalar_umbra(0.5, 3)
    # every other entry point of an exact value refuses them too
    refused = [
        lambda: constant(0.1),
        lambda: UmbralPolynomial({((X, 1),): 0.25}),
        lambda: binomial(0.5, 2),
        lambda: falling_factorial(0.5, 2),
        lambda: exact(0.5),
        lambda: MasterParams.of(Polynomial.x(), 0.5, 1, 1),
        lambda: MasterParams.of(0.5, 1, 1, 1),
        lambda: family_table("gegenbauer", 2, lam=0.1),
        lambda: gf_rows("gegenbauer", 2, lam=0.1),
        lambda: family_table("meixner1", 2, b=0.5, c=3),
        lambda: family_table("meixner1", 2, b=1, c=0.5),
        lambda: power(TruncatedSeries((1, 2, 3)), 0.5),
        lambda: Polynomial((1, 2))(0.5),
    ]
    for entry_point in refused:
        with pytest.raises(TypeError):
            entry_point()


def test_moments_are_cached_fractions():
    rng = Random(21)
    for _ in range(6):
        u = random_umbra(rng, rng.randint(0, 6))  # built from ints
        for v in (u, add(u, u), dot_scalar(F(1, 3), u)):  # and by the kernels
            assert all(type(m) is Fraction for m in v.moments)
            assert v.moments is v.moments
            assert type(v.moment(v.order)) is Fraction


def test_integer_moments_skip_fractions_for_the_same_umbra():
    rng = Random(16)
    for _ in range(100):
        ints = [1] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))]
        u, v = Umbra(ints), Umbra(map(Fraction, ints))
        assert (u.numerators, u.denominator) == (v.numerators, v.denominator)
        assert hash(u) == hash(v) and repr(u) == repr(v)
        assert u.moments == v.moments and all(type(m) is Fraction for m in u.moments)
    # a bool is no int to the fast path: it is admitted as a Fraction
    flag = Umbra([1, True])
    assert flag == Umbra([1, 1]) and all(type(c) is int for c in flag.numerators)


def test_numerators_over_least_common_denominator():
    u = Umbra([1, F(1, 2), F(-2, 3), 4])
    assert u.numerators == (6, 3, -4, 24)
    assert u.denominator == 6
    assert u.moments == (1, F(1, 2), F(-2, 3), 4)
    assert repr(u) == "Umbra(['1', '1/2', '-2/3', '4'])"
    assert ubar(3).numerators == (1, 1, 2, 6) and ubar(3).denominator == 1


def test_gf_roundtrip():
    assert gf(augmentation(3)) == TruncatedSeries.one(3)
    assert gf(singleton(3)) == S(1, 1, 0, 0)
    rng = Random(3)
    for _ in range(10):
        u = random_umbra(rng, rng.randint(0, 9))
        assert from_series(gf(u)) == u


# --- add ----------------------------------------------------------------------


def test_add_identity():
    u = ubar(5)
    assert add(u, augmentation(5)) == u
    assert u + augmentation(5) == u


def test_add_two_singletons():
    assert add(singleton(3), singleton(3)).moments == (1, 2, 2, 0)


def test_add_two_ubars():
    total = add(ubar(4), ubar(4))
    assert total.moments == tuple(factorial(n + 1) for n in range(5))


def test_add_agrees_with_series_product():
    rng = Random(4)
    for _ in range(15):
        order = rng.randint(0, 9)
        u, v = random_umbra(rng, order), random_umbra(rng, order)
        assert add(u, v) == from_series(multiply(gf(u), gf(v)))


def test_add_order_mismatch():
    with pytest.raises(ValueError):
        add(ubar(3), ubar(4))


# --- dot operations -------------------------------------------------------------


def test_dot_scalar_zero_gives_augmentation():
    assert dot_scalar(0, ubar(4)) == augmentation(4)


def test_dot_scalar_minus_one_ubar():
    assert dot_scalar(-1, ubar(3)).moments == (1, -1, 0, 0)


def test_dot_scalar_two_matches_iterated_add():
    chi = singleton(4)
    assert dot_scalar(2, chi) == add(chi, chi)


def test_dot_scalar_agrees_with_series_power():
    rng = Random(5)
    for _ in range(12):
        order = rng.randint(0, 8)
        u = random_umbra(rng, order)
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert dot_scalar(a, u) == from_series(power(gf(u), a))


def test_duality_relations():
    chi, b, unity = singleton(6), bell(6), scalar_umbra(1, 6)
    assert dot(chi, b) == unity
    assert dot(b, chi) == unity


def test_dot_with_scalar_umbra_rescales_moments():
    g = ubar(4)
    a = F(3)
    expected = Umbra([g.moment(n) * a**n for n in range(5)])
    assert dot(g, scalar_umbra(a, 4)) == expected
    assert dot(g, scalar_umbra(1, 4)) == g


# --- derivative umbra -----------------------------------------------------------


def test_derivative_of_augmentation_is_singleton():
    assert derivative_umbra(augmentation(4)) == singleton(4)


def test_derivative_of_ubar():
    # defining recurrence m_n = n * m_{n-1}; cross-check: gf 1 + z/(1-z)
    assert derivative_umbra(ubar(3)).moments == (1, 1, 2, 6)
    assert gf(derivative_umbra(ubar(3))) == S(1, 1, 1, 1)


def test_derivative_of_singleton():
    assert derivative_umbra(singleton(3)).moments == (1, 1, 2, 0)


def test_derivative_gf_relation():
    rng = Random(6)
    for _ in range(10):
        order = rng.randint(1, 9)
        u = random_umbra(rng, order)
        lifted = gf(u).shift_up() + 1
        assert gf(derivative_umbra(u)) == lifted


# --- composition umbra ------------------------------------------------------------


def test_composition_with_augmentation_inner():
    g = ubar(4)
    assert composition_umbra(g, augmentation(4)) == g


def test_composition_with_augmentation_outer():
    assert composition_umbra(augmentation(4), ubar(4)) == augmentation(4)


def test_composition_lah_moments():
    # unity composed with 1/(1-z): e^{z/(1-z)}, the Lah-number egf
    got = composition_umbra(scalar_umbra(1, 3), ubar(3))
    assert got.moments == (1, 1, 3, 13)


def test_composition_two_routes_agree():
    rng = Random(7)
    for _ in range(12):
        order = rng.randint(0, 9)
        g, u = random_umbra(rng, order), random_umbra(rng, order)
        assert composition_umbra(g, u) == composition_umbra_series(g, u)


def test_composition_builds_no_dot_power_table():
    # the composition reads the truncated triangle of iterated sums only
    g, u = random_umbra(Random(11), 8), random_umbra(Random(12), 8)
    got = composition_umbra(g, u)
    assert u._dot_tables is None
    assert got == composition_umbra_series(g, u)


# --- compositional inverse ----------------------------------------------------------


def test_inverse_of_singleton():
    assert inverse_umbra(singleton(5)) == singleton(5)


def test_inverse_of_unity():
    # reversion of e^z - 1 is log(1+z); the result has gf 1 + log(1+z),
    # which is also the umbra dot(chi, chi); composing back along
    # unity.bell.inverse returns the singleton
    unity = scalar_umbra(1, 5)
    inv = inverse_umbra(unity)
    assert gf(inv) == revert(S(0, 1, F(1, 2), F(1, 6), F(1, 24), F(1, 120))) + 1
    assert inv.moments == (1, 1, -1, 2, -6, 24)
    assert inv == dot(singleton(5), singleton(5))
    assert dot(dot(unity, bell(5)), inv) == singleton(5)


def test_inverse_is_involution():
    rng = Random(8)
    for _ in range(12):
        order = rng.randint(1, 9)
        u = random_umbra(rng, order)
        if u.moment(1) == 0:
            continue
        assert inverse_umbra(inverse_umbra(u)) == u


def test_inverse_needs_nonzero_first_moment():
    with pytest.raises(ValueError):
        inverse_umbra(augmentation(4))


def test_inverse_defining_similarity():
    # u.bell.inverse(u) is the singleton, for any invertible u
    rng = Random(9)
    for _ in range(8):
        order = rng.randint(1, 8)
        u = random_umbra(rng, order)
        if u.moment(1) == 0:
            continue
        assert dot(dot(u, bell(order)), inverse_umbra(u)) == singleton(order)


# --- the K umbra ---------------------------------------------------------------------


def test_k_umbra_with_augmentation_inner():
    g = ubar(5)
    assert k_umbra(g, augmentation(5)) == g


def test_k_umbra_with_augmentation_outer():
    assert k_umbra(augmentation(5), ubar(5)) == augmentation(5)


def test_k_umbra_singleton_pair():
    got = k_umbra(singleton(4), singleton(4))
    assert got.moments == (1, 1, -2, 12, -120)
    assert got == k_umbra_series(singleton(4), singleton(4))


def test_k_umbra_matches_series_reversion():
    rng = Random(10)
    for _ in range(15):
        order = rng.randint(0, 10)
        g, u = random_umbra(rng, order), random_umbra(rng, order)
        assert k_umbra(g, u) == k_umbra_series(g, u)


def test_k_umbra_matches_sympy_reversion():
    # third oracle: f_g composed with sympy's reversion of z f_u(z), over QQ
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_series_reversion, rs_trunc

    ring_, x, y = ring("x, y", QQ)

    def qq(c):
        return QQ(c.numerator, c.denominator)

    rng = Random(37)
    for order in range(1, 9):
        g, u = random_umbra(rng, order), random_umbra(rng, order)
        z_fu = ring_.zero
        for i, c in enumerate(gf(u).coeffs[:order]):
            z_fu += qq(c) * x ** (i + 1)
        reverted = rs_series_reversion(z_fu, x, order + 1, y)
        composed, term = ring_.zero, ring_.one
        for c in gf(g).coeffs:
            composed += qq(c) * term
            term = rs_trunc(term * reverted, y, order + 1)
        moments = [F(0)] * (order + 1)
        for (ex, ey), c in composed.terms():
            assert ex == 0
            moments[ey] = F(int(c.numerator), int(c.denominator)) * factorial(ey)
        assert k_umbra(g, u).moments == tuple(moments)


def test_derivative_inverse_relation():
    # the derivative umbra of u is the compositional inverse of the
    # derivative umbra of -1.K(u)
    rng = Random(11)
    for _ in range(12):
        order = rng.randint(1, 10)
        u = random_umbra(rng, order)
        lhs = derivative_umbra(u)
        rhs = inverse_umbra(derivative_umbra(dot_scalar(-1, k_umbra(u, u))))
        assert lhs == rhs


def test_k_umbra_derivative_shift():
    # deriving the first slot matches shifting it down by one copy and
    # deriving afterwards: K(deriv(g), u) = deriv(K(g - 1.u, u))
    rng = Random(14)
    for _ in range(10):
        order = rng.randint(1, 10)
        g, u = random_umbra(rng, order), random_umbra(rng, order)
        lhs = k_umbra(derivative_umbra(g), u)
        rhs = derivative_umbra(k_umbra(add(g, dot_scalar(-1, u)), u))
        assert lhs == rhs


# --- misc ------------------------------------------------------------------------------


def test_dot_scalar_composes_multiplicatively():
    rng = Random(12)
    for _ in range(10):
        order = rng.randint(0, 8)
        u = random_umbra(rng, order)
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = F(rng.randint(-4, 4), rng.randint(1, 3))
        assert dot_scalar(a, dot_scalar(b, u)) == dot_scalar(a * b, u)


def test_dot_cancellation():
    rng = Random(13)
    for _ in range(10):
        order = rng.randint(0, 8)
        u = random_umbra(rng, order)
        k = rng.randint(1, 5)
        assert add(dot_scalar(k, u), dot_scalar(-k, u)) == augmentation(order)


def test_bell_moments():
    assert bell(5).moments == (1, 1, 2, 5, 15, 52)


def test_order_zero_umbrae():
    # everything degenerates to the single moment m_0 = 1
    only = Umbra((1,))
    assert bell(0) == singleton(0) == ubar(0) == augmentation(0) == only
    assert add(only, only) == only
    assert dot(only, only) == only
    assert composition_umbra(only, only) == composition_umbra_series(only, only) == only
    assert k_umbra(only, only) == k_umbra_series(only, only) == only


# --- the shared dot-power table and its sum kernel -----------------------------------

moment_values = st.integers(min_value=-4, max_value=4) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
table_laws = settings(max_examples=40, deadline=None)


@st.composite
def umbra_pairs(draw):
    """Two umbrae of one order in 0..10, with integer and fractional moments."""
    order = draw(st.integers(min_value=0, max_value=10))
    tail = st.lists(moment_values, min_size=order, max_size=order)
    return Umbra([1] + draw(tail)), Umbra([1] + draw(tail))


@table_laws
@given(umbra_pairs(), st.sampled_from((1, -1)))
def test_dot_powers_match_miller_recurrence(pair, sign):
    # the table is iterated sums; Miller's recurrence is its independent route
    u = pair[0]
    table = dot_powers(u, sign)
    assert len(table) == u.order + 1
    for k, dotted in enumerate(table):
        assert dotted == dot_scalar(sign * k, u)


@table_laws
@given(umbra_pairs())
def test_iterated_sums_are_chained_adds(pair):
    # entry k is w + k.u read to order N - k: the triangle the Sheffer table reads
    w, u = pair
    sums = iterated_sums(w, u)
    assert len(sums) == w.order + 1
    chained = w
    for k, total in enumerate(sums):
        assert total == Umbra(chained.moments[: w.order - k + 1])
        chained = add(chained, u)


@table_laws
@given(umbra_pairs(), st.sampled_from((1, -1)))
def test_dot_power_table_is_cached_outside_equality(pair, sign):
    u = pair[0]
    twin = Umbra(u.moments)
    before = hash(u)
    table = dot_powers(u, sign)
    assert dot_powers(u, sign) is table
    assert u == twin and hash(u) == hash(twin) == before
    assert twin._dot_tables is None


def test_dot_powers_refuse_other_signs():
    with pytest.raises(ValueError):
        dot_powers(bell(3), 2)
