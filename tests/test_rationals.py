from fractions import Fraction
from random import Random

import pytest

from umbral.rationals import (
    binomial,
    falling_factorial,
    factorial,
    format_rational,
    parse_rational,
)


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
