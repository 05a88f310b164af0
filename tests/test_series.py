from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral import series as ps
from umbral.polynomials import Polynomial
from umbral.rationals import binomial, factorial
from umbral.series import TruncatedSeries, compose, exp, log, multiply, power, revert
from umbral.umbra import Umbra, dot_scalar, from_series, gf, inverse_umbra, ubar

try:
    from sympy import QQ
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import (
        rs_exp,
        rs_log,
        rs_mul,
        rs_nth_root,
        rs_pow,
        rs_series_reversion,
    )
except ImportError:  # the sympy oracles are skipped, the other tests still run
    QQ = None
needs_sympy = pytest.mark.skipif(QQ is None, reason="sympy is not installed")

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


def _inverse_umbra_series(a, order):
    # f - 1 for the inverse of a.ubar: k! f_k has a denominator a^k
    return gf(inverse_umbra(dot_scalar(a, ubar(order)))) - 1


def _spy_on_the_solve(monkeypatch):
    # the denominator of each series the triangular solve runs on
    solved = []
    solve = ps._solve_revert

    def spy(c, d):
        solved.append(d)
        return solve(c, d)

    monkeypatch.setattr(ps, "_solve_revert", spy)
    return solved, solve


@pytest.mark.parametrize("order", [1, 2, 12, 24])
def test_rescaled_revert_matches_the_plain_solve(order, monkeypatch):
    # revert may solve on f(L z) with L = q^2; the solve on f itself must agree
    rng = Random(64 + order)
    inputs = [random_reversible(rng, order) for _ in range(4)]
    inputs += [_inverse_umbra_series(a, order) for a in (3, -2, 6)]
    solved, solve = _spy_on_the_solve(monkeypatch)
    for f in inputs:
        c, d = ps.to_exponential(f)
        assert revert(f) == solve(c, d)
        if order >= 12 and f in inputs[4:]:
            assert solved[-1] < d


def test_revert_rescales_only_when_the_solve_shrinks(monkeypatch):
    solved, _ = _spy_on_the_solve(monkeypatch)
    # f_1 integral: L = 1
    revert(TruncatedSeries([0, F(2), F(-1, 3), F(5, 7)]))
    # L = 9 would give d' = 7 against d = 21, and 81 * 7 > 21
    revert(TruncatedSeries([0, F(2, 3), F(-1, 3), F(5, 7)]))
    # 3/2 z + z^2: L = 4 would give d' = 1 against d = 2, and 16 > 2
    revert(TruncatedSeries([0, F(3, 2), F(1)]))
    assert solved == [21, 21, 2]
    # the series of inv(3.ubar): d' = 1 against d = 3^12
    f = _inverse_umbra_series(3, 12)
    assert ps.to_exponential(f)[1] == 3**12
    revert(f)
    assert solved[-1] == 1


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


# --- the integer kernels against sympy's ring series over QQ ---------------------
# Orders 0..12, zero coefficients, negative and fractional linear coefficients,
# and Polynomial coefficients (a polynomial in x is a polynomial in the second
# ring generator).  Every result coefficient must be a reduced Fraction or a
# Polynomial of reduced Fractions.

kernel_laws = settings(max_examples=30, deadline=None)
if QQ is not None:
    RING, RZ, RX = ring("z, x", QQ)

rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=7)
)
polynomials = st.lists(rationals, max_size=3).map(Polynomial)
exponents = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def tails(order, elements):
    return st.lists(elements, min_size=order, max_size=order)


@st.composite
def series(draw, elements=rationals, head=None, max_order=12):
    order = draw(st.integers(min_value=0, max_value=max_order))
    c0 = draw(elements) if head is None else head
    return TruncatedSeries([c0] + draw(tails(order, elements)))


@st.composite
def series_pairs(draw, inner_head=None):
    """Two series of one order; the second, drawn on the exponential scale
    (c_k / k!) half the time, has denominators that grow with k."""
    f = draw(series(st.one_of(rationals, polynomials)))
    elements = st.one_of(rationals, polynomials)
    c0 = draw(elements) if inner_head is None else inner_head
    g = [c0] + draw(tails(f.order, elements))
    if draw(st.booleans()):
        g = [c * F(1, factorial(k)) for k, c in enumerate(g)]
    return f, TruncatedSeries(g)


@st.composite
def reversible(draw):
    order = draw(st.integers(min_value=1, max_value=12))
    c1 = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
    return TruncatedSeries([0, c1] + draw(tails(order - 1, rationals)))


def to_ring(f):
    out = RING.zero
    for i, c in enumerate(f.coeffs):
        poly = c if isinstance(c, Polynomial) else Polynomial((c,))
        for j, a in enumerate(poly.coeffs):
            out += QQ(a.numerator, a.denominator) * RZ**i * RX**j
    return out


def from_ring(p, order):
    rows = [{} for _ in range(order + 1)]
    for (i, j), c in p.terms():
        rows[i][j] = F(int(c.numerator), int(c.denominator))
    return [Polynomial(row.get(j, 0) for j in range(max(row, default=-1) + 1)) for row in rows]


def assert_matches(result, expected, order):
    assert result.order == order
    for c in result.coeffs:
        for a in c.coeffs if isinstance(c, Polynomial) else (c,):
            assert isinstance(a, F) and a.denominator > 0 and gcd(a.numerator, a.denominator) == 1
    got = [c if isinstance(c, Polynomial) else Polynomial((c,)) for c in result.coeffs]
    assert got == from_ring(expected, order)


@needs_sympy
@kernel_laws
@given(series_pairs())
def test_multiply_matches_rs_mul(pair):
    f, g = pair
    n = f.order + 1
    assert_matches(multiply(f, g), rs_mul(to_ring(f), to_ring(g), RZ, n), f.order)


@needs_sympy
@kernel_laws
@given(series_pairs(inner_head=F(0)))
def test_compose_matches_sympy_horner(pair):
    f, g = pair
    n = f.order + 1
    expected, inner_power = RING.zero, RING.one
    for c in f.coeffs:
        expected += to_ring(TruncatedSeries([c])) * inner_power
        inner_power = rs_mul(inner_power, to_ring(g), RZ, n)
    assert_matches(compose(f, g), expected, f.order)


@needs_sympy
@kernel_laws
@given(series(st.one_of(rationals, polynomials), head=1), exponents)
def test_power_matches_rs_pow(f, a):
    n = f.order + 1
    root = rs_nth_root(to_ring(f), a.denominator, RZ, n)
    assert_matches(power(f, a), rs_pow(root, a.numerator, RZ, n), f.order)


@needs_sympy
@kernel_laws
@given(series(st.one_of(rationals, polynomials), head=1), polynomials)
def test_polynomial_power_matches_rs_exp_log(f, a):
    n = f.order + 1
    expected = rs_exp(to_ring(TruncatedSeries([a])) * rs_log(to_ring(f), RZ, n), RZ, n)
    assert_matches(power(f, a), expected, f.order)


@needs_sympy
@kernel_laws
@given(reversible())
def test_revert_matches_rs_series_reversion(f):
    ring_, z, w = ring("z, w", QQ)
    p = ring_.zero
    for i, c in enumerate(f.coeffs):
        p += QQ(c.numerator, c.denominator) * z**i
    expected = RING.zero
    for (i, j), c in rs_series_reversion(p, z, f.order + 1, w).terms():
        assert i == 0
        expected += c * RZ**j
    assert_matches(revert(f), expected, f.order)


@needs_sympy
@kernel_laws
@given(series(st.one_of(rationals, polynomials), head=F(0)))
def test_exp_matches_rs_exp(f):
    assert_matches(exp(f), rs_exp(to_ring(f), RZ, f.order + 1), f.order)


@needs_sympy
@kernel_laws
@given(series(st.one_of(rationals, polynomials), head=1))
def test_log_matches_rs_log(f):
    assert_matches(log(f), rs_log(to_ring(f), RZ, f.order + 1), f.order)


# --- the canonical form: integer numerators over one denominator --------------------
# Orders 0..10, integer and fractional coefficients.  Every rational series,
# built from coefficients or returned by an operation, holds integers over a
# positive denominator that shares no factor with all of them.

coefficient_values = st.integers(min_value=-4, max_value=4) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
canonical_laws = settings(max_examples=40, deadline=None)


@st.composite
def rational_series(draw, head=None, order=None):
    if order is None:
        order = draw(st.integers(min_value=0, max_value=10))
    c0 = draw(coefficient_values) if head is None else head
    return TruncatedSeries([c0] + draw(tails(order, coefficient_values)))


def assert_canonical(f):
    num, den = f.numerators, f.denominator
    assert all(type(c) is int for c in num)
    assert den > 0 and gcd(den, *num) == 1
    assert all(f.coeffs[n] == f[n] == F(c, den) for n, c in enumerate(num))


@canonical_laws
@given(rational_series(), st.data())
def test_every_result_is_in_lowest_terms(f, data):
    g = data.draw(rational_series(order=f.order))
    unit = f - f[0] + 1  # constant term 1
    results = [f, -f, f + 1, f - g, f * F(2, 3), f * 0, multiply(f, g), f.truncate(0)]
    results += [unit, f.shift_up(), power(unit, F(-3, 2)), compose(f, g.shift_up())]
    if f.order >= 1:
        results += [f.derivative(), revert(unit.shift_up())]
    for result in results:
        assert_canonical(result)


def as_polynomial(c):
    return c if isinstance(c, Polynomial) else Polynomial((c,))


@st.composite
def compose_pairs(draw):
    """f with integer, fractional or polynomial coefficients, orders 0..12, and an
    inner g with no constant term, half the time on the exponential scale."""
    elements = draw(st.sampled_from([st.integers(-9, 9), rationals, polynomials]))
    f = draw(series(elements))
    g = [0] + draw(tails(f.order, st.one_of(rationals, polynomials)))
    if draw(st.booleans()):
        g = [c * F(1, factorial(k)) for k, c in enumerate(g)]
    return f, TruncatedSeries(g)


@canonical_laws
@given(compose_pairs())
def test_compose_matches_full_length_horner(pair):
    # the reference convolves every Horner step to the full order
    f, g = pair
    n = f.order
    acc = [0] * (n + 1)
    for c in reversed(f.coeffs):
        acc = [sum((acc[i] * g[k - i] for i in range(k + 1)), 0) for k in range(n + 1)]
        acc[0] += c
    assert list(map(as_polynomial, compose(f, g).coeffs)) == list(map(as_polynomial, acc))


@canonical_laws
@given(series(st.one_of(rationals, polynomials), head=1))
def test_exp_and_log_stay_canonical_and_invert(f):
    # orders 0..12; a rational result is integers in lowest terms, a
    # polynomial one is canonical polynomials over 1
    g = log(f)
    for result in (g, exp(g)):
        if any(isinstance(c, Polynomial) for c in result.numerators):
            assert result.denominator == 1
        else:
            assert_canonical(result)
    assert exp(g) == f and log(exp(g)) == g


def test_polynomial_coefficients_have_one_form():
    # a series has one stored form whatever type its coefficients came in:
    # constant polynomials are stored as rationals, and a non-constant one
    # makes every coefficient a polynomial
    x = Polynomial.x()
    g = TruncatedSeries([0, 0, F(1, 2), Polynomial()])
    assert g == S(0, 0, F(1, 2), 0) and log(exp(g)) == g
    mixed, lifted = S(F(1, 2), x), S(Polynomial((F(1, 2),)), x)
    assert mixed == lifted and hash(mixed) == hash(lifted)
    assert mixed.numerators == (Polynomial((F(1, 2),)), x) and mixed.denominator == 1
    assert mixed.truncate(0) == S(F(1, 2)) and mixed.truncate(0).numerators == (1,)


def test_indexing_reads_only_the_coefficients_0_to_the_order():
    # a negative index or one past the order names the order, and iteration
    # through indexing stops after the top coefficient
    x = Polynomial.x()
    for f in (S(1, F(1, 2), -3), S(1, x, F(2, 3))):
        assert list(f) == list(f.coeffs) and f[2] == f.coeffs[2]
        for n in (-1, 3):
            with pytest.raises(IndexError, match=f"index {n} outside available order 2"):
                f[n]


@canonical_laws
@given(rational_series(), rational_series())
def test_equality_and_hash_follow_the_coefficients(f, g):
    assert (f == g) == (f.coeffs == g.coeffs)
    rebuilt = TruncatedSeries(f.coeffs)
    scaled = TruncatedSeries([6 * c for c in f.numerators], 6 * f.denominator)
    for twin in (rebuilt, scaled):
        assert twin == f and hash(twin) == hash(f)
        assert (twin.numerators, twin.denominator) == (f.numerators, f.denominator)


@canonical_laws
@given(rational_series(head=1), st.data())
def test_umbra_and_series_round_trip(f, data):
    moments = data.draw(tails(f.order, coefficient_values))
    u = Umbra([1] + moments)
    assert_canonical(gf(u))
    assert from_series(gf(u)) == u
    assert gf(from_series(f)) == f


integer_numerators = st.integers(min_value=-60, max_value=60)


def _over(c, den):
    return c / den if isinstance(c, Polynomial) else F(c, den)


@canonical_laws
@given(
    st.one_of(
        st.lists(integer_numerators, min_size=1, max_size=13),
        st.lists(st.lists(integer_numerators, max_size=3).map(Polynomial), min_size=1, max_size=13),
    ),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=40),
)
def test_the_exponential_bridge(numerators, d, b):
    # n! g_n = c_n / (d b^n), and to_exponential reads the n! g_n back
    g = ps.from_exponential(numerators, d, b)
    scaled = [_over(c, d * b**n) for n, c in enumerate(numerators)]
    assert g == TruncatedSeries([_over(c, factorial(n)) for n, c in enumerate(scaled)])
    c, e = ps.to_exponential(g)
    assert [_over(x, e) for x in c] == scaled
    assert ps.from_exponential(c, e) == g
    if b == 1 and d == 1:
        assert ps.from_exponential(numerators) == g


@canonical_laws
@given(st.lists(polynomials, min_size=1, max_size=11), rationals)
def test_polynomial_coefficients_stay_over_one(coeffs, c):
    # constant polynomials only: the series of their values
    f = TruncatedSeries(coeffs)
    if any(p.degree > 0 for p in coeffs):
        assert f.coeffs == f.numerators == tuple(coeffs) and f.denominator == 1
    else:
        assert f == TruncatedSeries([p.coeff(0) for p in coeffs])
    assert (f * c).coeffs == tuple(p * c for p in coeffs)
    assert (f + c).coeffs == (coeffs[0] + c,) + tuple(coeffs[1:])
    assert f.shift_up().coeffs == (0,) + tuple(coeffs[:-1])
