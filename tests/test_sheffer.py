from fractions import Fraction
from random import Random

import pytest

from umbral import sheffer, umbra
from umbral.polynomials import Polynomial
from umbral.rationals import binomial, factorial
from umbral.sheffer import (
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
    sheffer_sequence_series,
    umbral_compose,
)
from umbral.umbra import (
    Umbra,
    add,
    augmentation,
    bell,
    composition_umbra,
    scalar_umbra,
    singleton,
    ubar,
)
from umbral.verify import random_umbra, sheffer_identity_failure

F = Fraction


def random_pair(rng, order):
    return UmbraPair(random_umbra(rng, order), random_umbra(rng, order))


def pascal(order):
    return riordan_array(UmbraPair(scalar_umbra(1, order), augmentation(order)))


# --- Sheffer sequences -------------------------------------------------------


def test_identity_pair_gives_monomials():
    seq = sheffer_sequence(identity_pair(5))
    for n, p in enumerate(seq):
        assert p == Polynomial((0,) * n + (1,))


def test_appell_of_ubar():
    seq = sheffer_sequence(UmbraPair(ubar(4), augmentation(4)))
    assert seq[2] == Polynomial((2, 2, 1))
    # Appell polynomials are plain binomial shifts of the moments
    for n, p in enumerate(seq):
        expected = Polynomial(
            [binomial(n, k) * ubar(4).moment(n - k) for k in range(n + 1)]
        )
        assert p == expected


def test_associated_of_singleton():
    seq = sheffer_sequence(UmbraPair(augmentation(4), singleton(4)))
    assert seq[2] == Polynomial((0, 2, 1))


def test_sequence_matches_series_extraction():
    rng = Random(21)
    for _ in range(6):
        pair = random_pair(rng, rng.randint(0, 9))
        assert sheffer_sequence(pair) == sheffer_sequence_series(pair)


def test_sequence_is_monic():
    rng = Random(22)
    for _ in range(6):
        pair = random_pair(rng, 8)
        for n, p in enumerate(sheffer_sequence(pair)):
            assert p.degree == n and p.coeff(n) == 1


def test_pair_order_mismatch():
    with pytest.raises(ValueError):
        UmbraPair(ubar(3), ubar(4))


# --- the Abel form of a Sheffer sequence ------------------------------------------


def test_abel_representation_identity_pair():
    seq = abel_representation(identity_pair(6))
    for n, p in enumerate(seq):
        assert p == Polynomial((0,) * n + (1,))


def test_abel_representation_appell_case():
    # second slot augmentation: s_n(x) = (x + gamma)^n
    g = ubar(5)
    seq = abel_representation(UmbraPair(g, augmentation(5)))
    for n, p in enumerate(seq):
        expected = Polynomial([binomial(n, k) * g.moment(n - k) for k in range(n + 1)])
        assert p == expected


def test_abel_representation_binomial_case():
    # first slot augmentation: s_n(x) = E[x (x + n.K_alpha)^(n-1)], which is
    # the Abel polynomial of the K umbra
    from umbral.symbolic import X, abel
    from umbral.umbra import k_umbra

    rng = Random(33)
    for _ in range(4):
        alpha = random_umbra(rng, 8)
        seq = sheffer_sequence(UmbraPair(augmentation(8), alpha))
        kaa = k_umbra(alpha, alpha)
        for n in range(9):
            assert abel(n, X, kaa) == seq[n]


def test_abel_representation_matches_direct_route():
    rng = Random(23)
    for _ in range(6):
        pair = random_pair(rng, 8)
        assert abel_representation(pair) == sheffer_sequence(pair)


def test_abel_representation_matches_symbolic_witness():
    # the paper's E[(x + K)(x + K + n.K_alpha)^(n-1)], expanded by the symbolic
    # engine, against the moment expansion of the same expectation
    from umbral.symbolic import X, UmbralSymbol, abel_expression, atom
    from umbral.umbra import k_umbra

    rng = Random(41)
    for order in range(7):
        pair = random_pair(rng, order)
        base = atom(X) + atom(UmbralSymbol(k_umbra(pair.gamma, pair.alpha), label="K"))
        kaa = k_umbra(pair.alpha, pair.alpha)
        witness = tuple(
            abel_expression(n, base, kaa).evaluate().to_univariate() for n in range(order + 1)
        )
        assert abel_representation(pair) == witness


# --- Riordan arrays ----------------------------------------------------------------


def test_pascal_entries():
    a = pascal(5)
    for n in range(6):
        for k in range(6):
            assert a.entry(n, k) == binomial(n, k)


def test_identity_array():
    a = riordan_array(identity_pair(4))
    for n in range(5):
        for k in range(5):
            assert a.entry(n, k) == (1 if n == k else 0)


def test_ordinary_pascal_scaling():
    a = flavor_convert(riordan_array(UmbraPair(scalar_umbra(1, 4), augmentation(4))))
    for n in range(5):
        for k in range(n + 1):
            assert a.entry(n, k) == F(1, factorial(n - k))


def test_entry_outside_the_order_is_rejected():
    a = riordan_array(UmbraPair(ubar(3), bell(3)))
    for n, k in ((0, -1), (2, -1), (5, 6), (4, 0)):
        with pytest.raises(ValueError):
            a.entry(n, k)
    assert a.entry(1, 3) == 0 and a.entry(3, 3) == 1


def test_entries_match_series_extraction():
    rng = Random(24)
    for _ in range(6):
        pair = random_pair(rng, rng.randint(0, 10))
        assert riordan_array(pair).entries == riordan_entries_series(pair)


# --- group structure ------------------------------------------------------------------


def test_compose_with_identity():
    rng = Random(25)
    pair = random_pair(rng, 7)
    ident = identity_pair(7)
    left = umbral_compose(pair, ident)
    right = umbral_compose(ident, pair)
    assert left.gamma == pair.gamma and left.alpha == pair.alpha
    assert right.gamma == pair.gamma and right.alpha == pair.alpha


def test_composition_matches_matrix_product():
    rng = Random(26)
    for _ in range(5):
        p, q = random_pair(rng, 10), random_pair(rng, 10)
        composed = riordan_array(umbral_compose(p, q))
        product = riordan_multiply(riordan_array(p), riordan_array(q))
        assert composed.entries == product.entries


def test_composed_pair_builds_one_triangle(monkeypatch):
    def rational_umbra(rng, order):
        den = rng.randint(2, 7)
        return Umbra([den] + [rng.randint(-9, 9) for _ in range(order)], den)

    rng = Random(33)
    for order in (0, 1, 7):
        p, q = (UmbraPair(rational_umbra(rng, order), rational_umbra(rng, order)) for _ in "pq")
        calls = []
        for module in (umbra, sheffer):
            counted = module.iterated_sums
            monkeypatch.setattr(
                module, "iterated_sums", lambda *a, f=counted: calls.append(a) or f(*a)
            )
        composed = umbral_compose(p, q)
        monkeypatch.undo()
        assert len(calls) == 1
        assert composed == UmbraPair(
            add(p.gamma, composition_umbra(q.gamma, p.alpha)),
            add(p.alpha, composition_umbra(q.alpha, p.alpha)),
        )


def test_multiply_identity_law():
    a = pascal(6)
    ident = riordan_array(identity_pair(6))
    assert riordan_multiply(a, ident).entries == a.entries
    assert riordan_multiply(ident, a).entries == a.entries


def test_pascal_squared_is_binomial_transform_squared():
    a = pascal(6)
    sq = riordan_multiply(a, a)
    for n in range(7):
        for k in range(n + 1):
            assert sq.entry(n, k) == binomial(n, k) * 2 ** (n - k)


def test_multiply_flavor_mismatch():
    a = pascal(4)
    with pytest.raises(ValueError):
        riordan_multiply(a, flavor_convert(a))


def test_inverse_of_identity_is_identity():
    ident = riordan_array(identity_pair(5))
    assert riordan_inverse(ident).entries == ident.entries


def test_inverse_of_pascal_is_signed_pascal():
    inv = riordan_inverse(pascal(6))
    for n in range(7):
        for k in range(n + 1):
            assert inv.entry(n, k) == (-1) ** (n - k) * binomial(n, k)


def test_inverse_two_sided_and_involutive():
    rng = Random(27)
    for _ in range(5):
        a = riordan_array(random_pair(rng, 9))
        inv = riordan_inverse(a)
        ident = riordan_array(identity_pair(9)).entries
        assert riordan_multiply(a, inv).entries == ident
        assert riordan_multiply(inv, a).entries == ident
        assert riordan_inverse(inv).entries == a.entries


def test_inverse_requires_exponential_flavor():
    with pytest.raises(ValueError):
        riordan_inverse(flavor_convert(pascal(4)))


# --- the moment transform ---------------------------------------------------------------


def test_transform_by_identity_array():
    rng = Random(28)
    u = random_umbra(rng, 6)
    assert ftra_apply(riordan_array(identity_pair(6)), u) == u


def test_pascal_row_sums():
    result = ftra_apply(pascal(6), scalar_umbra(1, 6))
    assert result.moments == tuple(F(2) ** n for n in range(7))


def test_pascal_shifts_bell_numbers():
    result = ftra_apply(pascal(6), bell(6))
    assert result.moments == bell(7).moments[1:]


def test_transform_matches_umbra_route():
    rng = Random(29)
    for _ in range(6):
        pair = random_pair(rng, 8)
        seq = random_umbra(rng, 8)
        got = ftra_apply(riordan_array(pair), seq)
        assert got == add(pair.gamma, composition_umbra(seq, pair.alpha))


# --- flavor conversion ---------------------------------------------------------------------


def test_conversion_fixes_identity():
    ident = riordan_array(identity_pair(5))
    assert flavor_convert(ident).entries == ident.entries


def test_conversion_of_pascal():
    conv = flavor_convert(pascal(5))
    for n in range(6):
        for k in range(n + 1):
            assert conv.entry(n, k) == F(1, factorial(n - k))


def test_conversion_is_involutive_and_multiplicative():
    rng = Random(30)
    for _ in range(5):
        a = riordan_array(random_pair(rng, 8))
        b = riordan_array(random_pair(rng, 8))
        assert flavor_convert(flavor_convert(a)).entries == a.entries
        lhs = flavor_convert(riordan_multiply(a, b)).entries
        rhs = riordan_multiply(flavor_convert(a), flavor_convert(b)).entries
        assert lhs == rhs


# --- the two-variable Sheffer identity -------------------------------------------------------


def test_sheffer_identity_bivariate():
    rng = Random(31)
    for _ in range(4):
        pair = random_pair(rng, 8)
        seq = sheffer_sequence(pair)
        assoc = sheffer_sequence(UmbraPair(augmentation(8), pair.alpha))
        assert sheffer_identity_failure(seq, assoc, 8) is None


def test_sheffer_identity_fails_with_another_alpha():
    # the associated sequence of a different alpha breaks the identity
    rng = Random(32)
    pair = random_pair(rng, 6)
    other = sheffer_sequence(UmbraPair(augmentation(6), singleton(6)))
    assert sheffer_identity_failure(sheffer_sequence(pair), other, 6) is not None
