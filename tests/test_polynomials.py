from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.polynomials import Polynomial, binomial_poly, falling_factorial_poly


def test_construction_trims_trailing_zeros():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial(()).degree == -1
    assert Polynomial((0, 0)).is_zero()


def test_ring_arithmetic():
    x = Polynomial.x()
    p = (x + 1) * (x - 1)
    assert p == Polynomial((-1, 0, 1))
    assert p + 1 == x * x
    assert (x + 1) ** 3 == Polynomial((1, 3, 3, 1))
    assert -(x - 2) == 2 - x
    assert (2 * x) / 4 == Polynomial((0, Fraction(1, 2)))


def test_scalar_equality_and_eval():
    assert Polynomial((5,)) == 5
    assert Polynomial((0, 1)) != 1
    p = Polynomial((-1, 0, 4))  # 4x^2 - 1
    assert p(Fraction(1, 2)) == 0
    assert p(2) == 15


def test_a_constant_hashes_as_its_scalar():
    for scalar in (3, Fraction(1, 2), 0):
        assert hash(Polynomial((scalar,))) == hash(scalar)
        assert len({Polynomial((scalar,)), scalar}) == 1
    assert hash(Polynomial()) == hash(0)


def test_derivative():
    p = Polynomial((7, 0, 0, 1))  # x^3 + 7
    assert p.derivative() == Polynomial((0, 0, 3))
    assert Polynomial((3,)).derivative().is_zero()


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Polynomial.x() ** -1


def test_binomial_poly_values():
    # binomial(x, 2) = x(x-1)/2
    b2 = binomial_poly(2)
    assert b2 == Polynomial((0, Fraction(-1, 2), Fraction(1, 2)))
    for v in range(6):
        assert b2(v) == v * (v - 1) // 2
    assert binomial_poly(0) == 1
    assert falling_factorial_poly(3)(5) == 5 * 4 * 3


def test_pretty():
    assert Polynomial((-1, 0, 4)).pretty() == "4x^2 - 1"
    assert Polynomial((0, Fraction(7, 4))).pretty() == "(7/4)x"
    assert Polynomial(()).pretty() == "0"
    assert Polynomial((0, -1)).pretty() == "-x"


# --- the integer representation against a plain list of Fractions -------------------------

rationals = st.integers(min_value=-6, max_value=6) | st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)
coeff_lists = st.lists(rationals, max_size=7)
nonzero = rationals.filter(lambda r: r != 0)
laws = settings(max_examples=60, deadline=None)


def ref(coeffs):
    """The reference value: Fractions with the trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a, b):
    return ref(x + y for x, y in zip_longest(ref(a), ref(b), fillvalue=Fraction(0)))


def ref_mul(a, b):
    a, b = ref(a), ref(b)
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_eval(a, v):
    return sum((c * Fraction(v) ** k for k, c in enumerate(ref(a))), Fraction(0))


@laws
@given(coeff_lists, coeff_lists, rationals, nonzero)
def test_arithmetic_matches_the_fraction_reference(a, b, s, t):
    p, q = Polynomial(a), Polynomial(b)
    assert p.coeffs == ref(a)
    assert (p + q).coeffs == ref_add(a, b)
    assert (p - q).coeffs == ref_add(a, [-c for c in b])
    assert (-p).coeffs == ref(-Fraction(c) for c in a)
    assert (p * q).coeffs == ref_mul(a, b)
    assert (p * s).coeffs == (s * p).coeffs == ref(c * s for c in a)
    assert (p + s).coeffs == (s + p).coeffs == ref_add(a, [s])
    assert (s - p).coeffs == ref_add([s], [-c for c in a])
    assert (p / t).coeffs == ref(Fraction(c) / t for c in a)
    assert p.derivative().coeffs == ref(k * Fraction(c) for k, c in enumerate(a))[1:]
    assert p(s) == ref_eval(a, s)


@laws
@given(coeff_lists, st.integers(min_value=-30, max_value=30).filter(bool))
def test_equal_values_share_numerators_denominator_and_hash(a, m):
    p = Polynomial(a)
    den = 1
    for c in a:
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    scaled = Polynomial([int(Fraction(c) * den * m) for c in a], den * m)
    for other in (scaled, (p * m) / m, p + Polynomial() - 0, Polynomial(p.coeffs)):
        assert other == p
        assert (other.numerators, other.denominator) == (p.numerators, p.denominator)
        assert hash(other) == hash(p)


@laws
@given(coeff_lists, st.integers(min_value=0, max_value=4), nonzero)
def test_zero_trailing_zeros_and_negative_scalars_normalize(a, zeros, t):
    p = Polynomial(a)
    assert Polynomial(list(a) + [0] * zeros) == p
    assert p.denominator > 0
    assert gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0
    for q in (p / -abs(t), p * -abs(t), Polynomial(p.numerators, -p.denominator)):
        assert q.denominator > 0 and gcd(q.denominator, *q.numerators) == 1
    for zero in (Polynomial([0] * zeros), p * 0, p - p, Polynomial([0] * zeros, -7)):
        assert (zero.numerators, zero.denominator) == ((), 1)
        assert zero.is_zero() and zero.degree == -1 and zero == 0


def test_float_coefficients_are_refused():
    # the type check runs before trailing zeros are stripped
    for coeffs in ((1, 0.5), (1, 0.0), (0.0,)):
        with pytest.raises(TypeError):
            Polynomial(coeffs)
    with pytest.raises(TypeError):
        Polynomial.x() * 1.5
    with pytest.raises(TypeError):
        Polynomial.x() + 0.5
    with pytest.raises(ZeroDivisionError):
        Polynomial.x() / 0
