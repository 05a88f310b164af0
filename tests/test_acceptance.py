"""Acceptance checks.

One test per criterion, each at its stated size and with tolerance zero
(every comparison is exact rational or exact polynomial equality).  Each
test prints a single pass/fail line; run with ``pytest -s`` to see them.
"""

import json
import time
from fractions import Fraction
from random import Random

from umbral import cli
from umbral.rationals import binomial, parse_rational
from umbral.families import (
    chebyshev_u,
    family_table,
    gegenbauer,
    gf_oracle,
    gf_rows,
    meixner1,
    mittag_leffler,
    pidduck,
)
from umbral.sheffer import (
    UmbraPair,
    abel_representation,
    flavor_convert,
    identity_pair,
    riordan_array,
    riordan_entries_series,
    riordan_inverse,
    riordan_multiply,
    sheffer_sequence,
    umbral_compose,
)
from umbral.umbra import (
    augmentation,
    bell,
    derivative_umbra,
    dot,
    dot_scalar,
    inverse_umbra,
    k_umbra,
    k_umbra_series,
    scalar_umbra,
    singleton,
)
from umbral.verify import (
    abel_binomial_identity_failure,
    abel_derivative_rule_failure,
    abel_identity_failure,
    chebyshev_recurrence_failure,
    chebyshev_shifted_basis_failure,
    random_umbra,
    sheffer_identity_failure,
)

SEED = 42


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_abel_identity():
    order, trials = 10, 25
    rng = Random(SEED)
    start = time.monotonic()
    for _ in range(trials):
        a, g, d = (random_umbra(rng, order) for _ in range(3))
        assert abel_identity_failure(a, g, d) is None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"Abel identity, {trials} random triples, N={order}, exact ({elapsed:.2f}s)")


def test_criterion_2_lagrange_inversion():
    order, trials = 12, 25
    rng = Random(SEED)
    start = time.monotonic()
    for _ in range(trials):
        g = random_umbra(rng, order)
        a = random_umbra(rng, order)
        assert k_umbra(g, a) == k_umbra_series(g, a)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, f"Lagrange inversion, {trials} random pairs, N={order}, exact ({elapsed:.2f}s)")


def test_criterion_3_derivative_inverse_relation():
    order, trials = 12, 25
    rng = Random(SEED)
    for _ in range(trials):
        u = random_umbra(rng, order)
        lhs = derivative_umbra(u)
        rhs = inverse_umbra(derivative_umbra(dot_scalar(-1, k_umbra(u, u))))
        assert lhs == rhs
    report(3, f"derivative umbra equals the inverse of the negated-K derivative, {trials} umbrae, N={order}")


def test_criterion_4_derivative_rule_and_binomial_identity():
    n_max, trials, order = 8, 10, 10
    rng = Random(SEED)
    for _ in range(trials):
        u = random_umbra(rng, order)
        assert abel_derivative_rule_failure(u, n_max) is None
        assert abel_binomial_identity_failure(u, n_max) is None
    report(4, f"Abel derivative rule and binomial identity, n <= {n_max}, {trials} umbrae, exact")


def test_criterion_5_sheffer_machinery():
    order, trials, n_max = 12, 10, 8
    rng = Random(SEED)
    for _ in range(trials):
        pair = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        seq = sheffer_sequence(pair)
        assert riordan_array(pair).entries == riordan_entries_series(pair)
        assert abel_representation(pair) == seq
        assoc = sheffer_sequence(UmbraPair(augmentation(order), pair.alpha))
        assert sheffer_identity_failure(seq, assoc, n_max) is None
    report(5, f"Sheffer coefficients vs extraction, Abel form, Sheffer identity, {trials} pairs, N={order}")


def test_criterion_6_riordan_group():
    order, trials = 12, 10
    rng = Random(SEED)

    pascal = riordan_array(UmbraPair(scalar_umbra(1, order), augmentation(order)))
    for n in range(order + 1):
        for k in range(n + 1):
            assert pascal.entry(n, k) == binomial(n, k)
    signed = riordan_inverse(pascal)
    for n in range(order + 1):
        for k in range(n + 1):
            assert signed.entry(n, k) == (-1) ** (n - k) * binomial(n, k)

    identity_entries = riordan_array(identity_pair(order)).entries
    for _ in range(trials):
        p = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        q = UmbraPair(random_umbra(rng, order), random_umbra(rng, order))
        ap, aq = riordan_array(p), riordan_array(q)
        assert riordan_array(umbral_compose(p, q)).entries == riordan_multiply(ap, aq).entries
        inv = riordan_inverse(ap)
        assert riordan_multiply(ap, inv).entries == identity_entries
        assert riordan_multiply(inv, ap).entries == identity_entries
        lhs = flavor_convert(riordan_multiply(ap, aq)).entries
        rhs = riordan_multiply(flavor_convert(ap), flavor_convert(aq)).entries
        assert lhs == rhs
    report(6, f"Riordan group laws, Pascal and its inverse entrywise, N={order}, {trials} random pairs")


def test_criterion_7_families():
    n_max = 10
    chebyshev = family_table("chebyshev-u", n_max)[0]
    assert chebyshev_recurrence_failure(chebyshev) is None

    lam, b = Fraction(7, 4), Fraction(3, 2)
    assert family_table("gegenbauer", n_max, lam=1)[0] == chebyshev
    for kind, options in (
        ("chebyshev-u", {}),
        ("gegenbauer", {"lam": lam}),
        ("meixner1", {"b": b, "c": 4}),
        ("mittag-leffler", {}),
        ("pidduck", {}),
    ):
        assert family_table(kind, n_max, **options)[0] == gf_rows(kind, n_max, **options)
    # the named functions read row n of the same tables
    assert gegenbauer(n_max, 1) == chebyshev_u(n_max) == gf_oracle("chebyshev-u", n_max)
    assert gegenbauer(n_max, lam) == gf_oracle("gegenbauer", n_max, lam=lam)
    assert meixner1(n_max, b, 4) == gf_oracle("meixner1", n_max, b=b, c=4)
    assert mittag_leffler(n_max) == gf_oracle("mittag-leffler", n_max)
    assert pidduck(n_max) == gf_oracle("pidduck", n_max)

    assert chebyshev_shifted_basis_failure(chebyshev) is None
    report(7, f"five families match their generating functions, recurrence and reductions, n <= {n_max}")


def test_criterion_8_duality_and_bell():
    order = 12
    chi, b, unity = singleton(order), bell(order), scalar_umbra(1, order)
    assert dot(chi, b) == unity
    assert dot(b, chi) == unity
    assert bell(5).moments == (1, 1, 2, 5, 15, 52)
    report(8, "singleton/Bell duality and Bell moments 1,1,2,5,15,52")


def test_criterion_9_cli_determinism_and_verify_all(capsys):
    args = ["riordan", "ubar", "bell", "--order", "8", "--format", "json"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second

    payload = json.loads(first)
    parsed = tuple(tuple(parse_rational(v) for v in row) for row in payload["entries"])
    from umbral.umbra import ubar

    direct = riordan_array(UmbraPair(ubar(8), bell(8))).entries
    assert parsed == direct

    start = time.monotonic()
    code = cli.main(["verify", "all", "--order", "12", "--seed", str(SEED)])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(9, f"CLI determinism, exact JSON round-trip, verify all at N=12 in {elapsed:.2f}s")
