from fractions import Fraction
from random import Random

import pytest

from umbral.rationals import binomial, factorial
from umbral.series import TruncatedSeries, compose, exp, log, multiply, power, revert

F = Fraction


def S(*coeffs):
    return TruncatedSeries(coeffs)


def random_series(rng, order, c0=None, c1=None):
    coeffs = [rng.randint(-3, 3) for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = c0
    if c1 is not None:
        coeffs[1] = c1
    return TruncatedSeries(coeffs)


# --- multiply ---------------------------------------------------------------


def test_multiply_polynomial_square():
    one_plus_z = S(1, 1, 0, 0)
    assert multiply(one_plus_z, one_plus_z) == S(1, 2, 1, 0)


def test_multiply_identity():
    f = S(3, -1, F(1, 2), 7)
    assert multiply(f, TruncatedSeries.one(3)) == f


def test_multiply_geometric_telescope():
    assert multiply(S(1, -1, 0, 0), S(1, 1, 1, 1)) == S(1, 0, 0, 0)


def test_multiply_order_mismatch():
    with pytest.raises(ValueError):
        multiply(S(1, 1), S(1, 1, 1))


# --- exp / log --------------------------------------------------------------


def test_exp_of_z():
    assert exp(TruncatedSeries.z(3)) == S(1, 1, F(1, 2), F(1, 6))


def test_exp_of_zero():
    assert exp(TruncatedSeries.zero(4)) == TruncatedSeries.one(4)


def test_exp_bell_numbers_against_double_sum():
    # oracle: sum_k (e^z - 1)^k / k!, accumulated with bare multiplications
    order = 4
    expz_minus_1 = TruncatedSeries(
        [F(0)] + [F(1, factorial(n)) for n in range(1, order + 1)]
    )
    oracle = TruncatedSeries.zero(order)
    term = TruncatedSeries.one(order)
    for k in range(order + 1):
        oracle = oracle + term * F(1, factorial(k))
        term = multiply(term, expz_minus_1)
    result = exp(expz_minus_1)
    assert result == oracle
    bell_numbers = [factorial(n) * result[n] for n in range(order + 1)]
    assert bell_numbers == [1, 1, 2, 5, 15]


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        exp(S(1, 1))


def test_log_mercator():
    assert log(S(1, 1, 0, 0)) == S(0, 1, F(-1, 2), F(1, 3))


def test_log_of_one():
    assert log(TruncatedSeries.one(5)) == TruncatedSeries.zero(5)


def test_log_exp_roundtrip():
    g = S(0, 1, 1, 0, 0)  # z + z^2
    assert log(exp(g)) == g


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        log(S(0, 1))


# --- power ------------------------------------------------------------------


def test_power_geometric():
    assert power(S(1, 1, 0, 0), -1) == S(1, -1, 1, -1)


def test_power_zero_exponent():
    assert power(S(1, 5, -2), 0) == TruncatedSeries.one(2)


def test_power_half_integer_against_binomial_theorem():
    # (1 - z)^(-1/2): coefficients binomial(-1/2, k) (-1)^k
    expected = [binomial(F(-1, 2), k) * (-1) ** k for k in range(3)]
    assert expected == [1, F(1, 2), F(3, 8)]
    assert power(S(1, -1, 0), F(-1, 2)) == TruncatedSeries(expected)


# --- compose ----------------------------------------------------------------


def test_compose_identity():
    f = S(1, 4, -2, F(7, 3))
    assert compose(f, TruncatedSeries.z(3)) == f


def test_compose_ordered_bell_against_term_sum():
    # 1/(1-w) at w = e^z - 1; oracle accumulates sum_k (e^z - 1)^k directly
    order = 3
    geom = S(1, 1, 1, 1)
    expz_minus_1 = TruncatedSeries([F(0)] + [F(1, factorial(n)) for n in range(1, order + 1)])
    oracle = TruncatedSeries.zero(order)
    term = TruncatedSeries.one(order)
    for _ in range(order + 1):
        oracle = oracle + term
        term = multiply(term, expz_minus_1)
    assert compose(geom, expz_minus_1) == oracle
    assert oracle == S(1, 1, F(3, 2), F(13, 6))


def test_compose_exp_log_roundtrip():
    one_plus_z = S(1, 1, 0, 0, 0)
    assert compose(exp(TruncatedSeries.z(4)), log(one_plus_z)) == one_plus_z


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        compose(S(1, 1), S(1, 0))


# --- revert -----------------------------------------------------------------


def test_revert_identity():
    z = TruncatedSeries.z(4)
    assert revert(z) == z


def catalan_fixed_point(order):
    # oracle for the inverse of z - z^2: iterate g <- z + g^2
    g = TruncatedSeries.zero(order)
    z = TruncatedSeries.z(order)
    for _ in range(order + 1):
        g = z + multiply(g, g)
    return g


def test_revert_catalan():
    f = S(0, 1, -1, 0, 0)
    g = revert(f)
    assert g == catalan_fixed_point(4)
    assert g == S(0, 1, 1, 2, 5)
    assert compose(f, g) == TruncatedSeries.z(4)
    assert compose(g, f) == TruncatedSeries.z(4)


def test_revert_alternating_catalan():
    g = revert(S(0, 1, 1, 0, 0))
    assert g == S(0, 1, -1, 2, -5)


def test_revert_preconditions():
    with pytest.raises(ValueError):
        revert(S(1, 1))
    with pytest.raises(ValueError):
        revert(S(0, 0, 1))
    with pytest.raises(ValueError):
        revert(S(0))


def random_reversible(rng, order):
    coeffs = [F(0), F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))]
    coeffs += [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order - 1)]
    return TruncatedSeries(coeffs)


def test_revert_matches_sympy_reversion():
    # third oracle: sympy's own series reversion over QQ
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_series_reversion

    ring_, x, y = ring("x, y", QQ)
    rng = Random(31)
    for order in range(1, 11):
        f = random_reversible(rng, order)
        p = ring_.zero
        for i, c in enumerate(f.coeffs):
            p += QQ(c.numerator, c.denominator) * x**i
        expected = [F(0)] * (order + 1)
        for (ex, ey), c in rs_series_reversion(p, x, order + 1, y).terms():
            assert ex == 0
            expected[ey] = F(int(c.numerator), int(c.denominator))
        assert revert(f) == TruncatedSeries(expected)


@pytest.mark.parametrize("order", [1, 2, 32])
def test_revert_is_two_sided_inverse(order):
    rng = Random(32 + order)
    z = TruncatedSeries.z(order)
    for _ in range(3):
        f = random_reversible(rng, order)
        g = revert(f)
        assert compose(f, g) == z
        assert compose(g, f) == z


# --- randomized invariants ----------------------------------------------------


def test_exp_log_inverse_randomized():
    rng = Random(11)
    for _ in range(20):
        order = rng.randint(1, 9)
        f = random_series(rng, order, c0=1)
        assert exp(log(f)) == f
        g = random_series(rng, order, c0=0)
        assert log(exp(g)) == g


def test_revert_roundtrip_randomized():
    rng = Random(12)
    z_cache = {}
    for _ in range(20):
        order = rng.randint(2, 9)
        f = random_series(rng, order, c0=0, c1=rng.choice([1, -1, 2, 3]))
        g = revert(f)
        z = z_cache.setdefault(order, TruncatedSeries.z(order))
        assert compose(f, g) == z
        assert compose(g, f) == z


def test_power_additivity_randomized():
    rng = Random(13)
    for _ in range(15):
        order = rng.randint(1, 8)
        f = random_series(rng, order, c0=1)
        a = F(rng.randint(-6, 6), rng.randint(1, 4))
        b = F(rng.randint(-6, 6), rng.randint(1, 4))
        assert multiply(power(f, a), power(f, b)) == power(f, a + b)


def test_multiply_commutative_associative_randomized():
    rng = Random(14)
    for _ in range(15):
        order = rng.randint(0, 8)
        f = random_series(rng, order)
        g = random_series(rng, order)
        h = random_series(rng, order)
        assert multiply(f, g) == multiply(g, f)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
