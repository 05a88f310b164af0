from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.rationals import (
    binomial,
    falling_factorial,
    factorial,
    format_numerators,
    format_rational,
    lowest_terms,
    parse_rational,
    shared_denominator,
)
from umbral.polynomials import Polynomial
from umbral.series import TruncatedSeries
from umbral.sheffer import RiordanArray
from umbral.umbra import Umbra

VECTOR_TYPES = (Umbra, TruncatedSeries, Polynomial)
# vector length -> rows of the array whose entries, row by row, it holds
TRIANGLES = {n * (n + 1) // 2: n for n in range(1, 5)}


def product_oracle(top, k):
    # direct falling product, written independently of the implementation
    top = Fraction(top)
    out = Fraction(1)
    for i in range(k):
        out *= top - i
    return out


def test_binomial_pascal_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1


def test_binomial_negative_top():
    assert product_oracle(-1, 3) / 6 == -1
    assert binomial(-1, 3) == -1


def test_binomial_fractional_top():
    assert product_oracle(Fraction(1, 2), 2) / 2 == Fraction(-1, 8)
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_binomial_small_integer_top_vanishes():
    # top a nonnegative integer below k gives zero
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


def test_binomial_integer_tops_match_falling_factorial():
    for top in range(-20, 21):
        for k in range(0, 21):
            expected = falling_factorial(top, k) / factorial(k)
            assert binomial(top, k) == expected
            assert binomial(Fraction(top, 1), k) == expected
            assert type(binomial(top, k)) is Fraction
            if 0 <= top < k:
                assert binomial(top, k) == 0


def test_binomial_fractional_tops_unchanged():
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(Fraction(-1, 2), 3) == Fraction(-5, 16)
    for num in range(-9, 10):
        for den in (2, 3, 7):
            top = Fraction(num, den)
            if top.denominator == 1:
                continue
            for k in range(0, 8):
                assert binomial(top, k) == product_oracle(top, k) / factorial(k)


def test_falling_factorial_values():
    assert falling_factorial(4, 4) == 24
    assert falling_factorial(Fraction(7, 3), 0) == 1
    assert falling_factorial(-13, 0) == 1
    assert falling_factorial(-2, 3) == -24


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        binomial(3, -1)
    with pytest.raises(ValueError):
        falling_factorial(3, -2)
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_times_factorial_is_falling_factorial():
    rng = Random(7)
    for _ in range(50):
        top = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        k = rng.randint(0, 8)
        assert binomial(top, k) * factorial(k) == falling_factorial(top, k)
        assert falling_factorial(top, k) == product_oracle(top, k)


def test_binomial_symmetry_and_pascal_recurrence():
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n, n - k)
            if 1 <= k and n >= 1:
                assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_format_parse_roundtrip():
    values = [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]
    for v in values:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(ValueError):
        parse_rational("not-a-number")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational_other_inputs():
    # ints are printed as they are; anything else goes through Fraction
    assert [format_rational(v) for v in (0, -12, 10**30)] == ["0", "-12", str(10**30)]
    assert format_rational(True) == "1"
    assert format_rational("3/6") == "1/2"
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_shared_denominator_lifts_onto_the_lcm():
    values = [Polynomial((1, Fraction(1, 2))), Umbra([1, Fraction(-2, 3)]), Polynomial((5,))]
    pairs, den = shared_denominator(values)
    assert den == 6
    assert pairs == [((2, 1), 3), ((3, -2), 2), ((5,), 6)]
    for v, (num, lift) in zip(values, pairs):
        assert [Fraction(c * lift, den) for c in num] == [Fraction(c, v.denominator) for c in num]
    assert shared_denominator([]) == ([], 1)


@pytest.mark.parametrize("cls", VECTOR_TYPES, ids=lambda cls: cls.__name__)
def test_integer_values_skip_fractions_for_the_same_pair(cls):
    # the one canonical form of rationals.RationalVector, for each type on it
    values_of = (lambda v: v.moments) if cls is Umbra else (lambda v: v.coeffs)
    rng = Random(16)
    for _ in range(200):
        d = rng.choice((-1, 1)) * rng.randint(1, 30)
        # d / d first: an umbra starts with m_0 = 1
        ints = [d] + [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))] + [0] * rng.randint(0, 3)
        v, w = cls(ints, d), cls([Fraction(c) for c in ints], d)
        pair = (v.numerators, v.denominator)
        assert pair == (w.numerators, w.denominator)
        assert v == w and hash(v) == hash(w)
        assert values_of(v) == tuple(Fraction(c, v.denominator) for c in v.numerators)
        assert values_of(v) is values_of(v) and all(type(x) is Fraction for x in values_of(v))
        if ints[-1]:  # no trailing zero for the polynomial to trim
            twins = [other(ints, d) for other in VECTOR_TYPES if other is not cls]
            if len(ints) in TRIANGLES:  # the entries of an array, row by row
                rows = [ints[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2] for n in range(TRIANGLES[len(ints)])]
                twins.append(RiordanArray(None, rows, d, "exponential"))
            for twin in twins:
                assert (twin.numerators, twin.denominator) == pair
                assert v != twin and twin != v
    for floats in ([1, 0.5], [1.0], [1, 0.0]):
        with pytest.raises(TypeError):
            cls(floats)
    for values in ([], [3, 0], [Fraction(3), Fraction(0)]):
        with pytest.raises(ZeroDivisionError):
            cls(values, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=6),
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool) | st.sampled_from([-720, 6, 2**40]),
)
def test_lowest_terms_matches_the_fraction_reference(numerators, denominator):
    # Fraction reduces each value on its own: the canonical denominator is the
    # lcm of theirs, and each numerator the value over it
    values = [Fraction(c, denominator) for c in numerators]
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    expected = tuple(v.numerator * (den // v.denominator) for v in values)
    assert lowest_terms(numerators, denominator) == (expected, den)
    with pytest.raises(ZeroDivisionError):
        lowest_terms(numerators, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=6),
    st.integers(min_value=1, max_value=10**20) | st.sampled_from([1, 2, 6, 720]),
)
def test_format_numerators_writes_what_format_rational_writes(numerators, denominator):
    numerators += [0, -denominator, denominator, -1]
    expected = [format_rational(Fraction(c, denominator)) for c in numerators]
    assert format_numerators(numerators, denominator) == expected


@pytest.mark.parametrize("cls", VECTOR_TYPES, ids=lambda cls: cls.__name__)
def test_from_integers_is_the_constructor_on_integer_lists(cls):
    rng = Random(21)
    for _ in range(20):
        den = rng.choice([1, 2, 6, -4, 35])
        values = [den] + [rng.randint(-40, 40) for _ in range(rng.randint(0, 5))] + [0]
        built, fast = cls(values, den), cls.from_integers(values, den)
        assert fast == built and fast.numerators == built.numerators
        assert fast.denominator == built.denominator > 0
    # the subclass invariants hold on this path too
    with pytest.raises(ValueError):
        Umbra.from_integers([2, 1], 1)
    with pytest.raises(ValueError):
        TruncatedSeries.from_integers([])
    assert Polynomial.from_integers([3, 0, 0], 6).numerators == (1,)
    # an array is built with its pair and flavor, and row n holds n + 1 entries
    with pytest.raises(TypeError):
        RiordanArray.from_integers([1, 0, 1], 1)
    with pytest.raises(TypeError):
        RiordanArray([1, 0, 1], 1)
    with pytest.raises(ValueError):
        RiordanArray(None, [[1], [0, 1, 0]], 1, "exponential")
    with pytest.raises(ValueError):
        RiordanArray(None, [[1], [0], [0, 0, 1]], 1, "exponential")


def test_an_array_reads_an_iterator_of_rows_once():
    # as the other vector types read an iterator of values
    rows = [[1] * (n + 1) for n in range(3)]
    built = RiordanArray(None, ([1] * (n + 1) for n in range(3)), 1, "exponential")
    assert built.order == 2 and built.rows == tuple(map(tuple, rows))
    assert built == RiordanArray(None, rows, 1, "exponential")
    assert Umbra(iter([1, 2])) == Umbra([1, 2]) and Polynomial(iter([0, 1])) == Polynomial.x()
