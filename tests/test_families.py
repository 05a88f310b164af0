from fractions import Fraction

import pytest

from umbral import families
from umbral.families import (
    FAMILIES,
    FAMILY_NAMES,
    MasterParams,
    chebyshev_params,
    chebyshev_u,
    family_table,
    gegenbauer,
    gegenbauer_params,
    gf_oracle,
    gf_rows,
    master_gf_rows,
    master_polynomial,
    master_table,
    meixner1,
    meixner_params,
    mittag_leffler,
    mittag_leffler_params,
    pidduck,
    pidduck_params,
)
from umbral.polynomials import Polynomial, binomial_poly
from umbral.rationals import factorial
from umbral.verify import (
    chebyshev_recurrence_failure,
    chebyshev_shifted_basis_failure,
    master_degenerate_slots_failure,
    pidduck_quotient_failure,
)

F = Fraction
X = Polynomial.x()


# --- the master polynomial ------------------------------------------------------


def test_master_p0_is_one():
    p = MasterParams.of(Polynomial((2, -2)), -1, 2, 2)
    assert master_polynomial(0, p) == Polynomial((1,))


def test_master_p1_generic():
    # P_1 = t + xval*y (rational y) or t + xval*binomial(y,1) (indeterminate)
    p = MasterParams.of(F(1, 3), F(5), F(2), F(7, 2))
    assert master_polynomial(1, p) == Polynomial((F(7, 2) + F(5, 3),))
    p_ind = MasterParams.of(X, None, F(2), F(7, 2))
    assert master_polynomial(1, p_ind) == Polynomial((F(7, 2), 0, 1))


def test_master_chebyshev_value_at_two():
    p = chebyshev_params()
    assert master_polynomial(2, p) / factorial(2) == Polynomial((-1, 0, 4))


def test_master_explicit_matches_gf_route():
    cases = [
        chebyshev_params(),
        gegenbauer_params(F(5, 2)),
        meixner_params(F(3, 2), F(1, 3)),
        mittag_leffler_params(),
        pidduck_params(),
        MasterParams.of(Polynomial((1, 2)), F(-3, 2), F(1, 2), F(2)),
        MasterParams.of(Polynomial((0, 1)), None, F(3), F(0)),
    ]
    for p in cases:
        assert master_table(7, p)[0] == master_gf_rows(7, p)
    assert master_polynomial(7, cases[-1]) == master_gf_rows(7, cases[-1])[7]


SLOTS = {
    "chebyshev-u": chebyshev_params(),
    "gegenbauer": gegenbauer_params(F(5, 2)),
    "meixner1": meixner_params(F(3, 2), F(1, 3)),
    "mittag-leffler": mittag_leffler_params(),
    "pidduck": pidduck_params(),
    "rational": MasterParams.of(F(-2, 3), F(7, 2), F(1, 2), F(2)),
    "integer-y": MasterParams.of(Polynomial((1, F(2, 5))), F(3), F(0), F(1)),
    "polynomial": MasterParams.of(Polynomial((F(1, 2), -3, F(2, 7))), F(-5, 4), F(3), F(1, 3)),
    "indeterminate": MasterParams.of(Polynomial((F(3, 4), 2)), None, F(2), F(-1, 2)),
}


@pytest.mark.parametrize("name", SLOTS)
def test_integer_basis_matches_polynomial_products(name):
    # V_k = binomial(y, k) xval^k, built here with Polynomial products
    p = SLOTS[name]
    y = X if p.y is None else Polynomial.constant(p.y)
    ybin, xpow = Polynomial.constant(1), Polynomial.constant(1)
    for k, (num, den) in enumerate(families._basis(9, p)):
        assert Polynomial(num, den) == ybin * xpow
        ybin, xpow = ybin * (y - k) / (k + 1), xpow * p.xval


@pytest.mark.parametrize("name", SLOTS)
def test_ordinary_rows_are_the_rows_over_n_factorial(name):
    p = SLOTS[name]
    rows, d = master_table(9, p)
    ordinary, d_again = master_table(9, p, ordinary=True)
    assert ordinary == [row / factorial(n) for n, row in enumerate(rows)]
    assert d_again == d


def test_master_degenerate_slots():
    # q = t = 0 collapses the weight to [n = k], leaving one monomial
    assert master_degenerate_slots_failure(6, (F(0), F(3), F(9, 4))) is None


# --- Tchebychev II ----------------------------------------------------------------


def test_chebyshev_first_values():
    assert chebyshev_u(0) == Polynomial((1,))
    assert chebyshev_u(1) == Polynomial((0, 2))
    assert chebyshev_u(2) == Polynomial((-1, 0, 4))
    assert chebyshev_u(3) == Polynomial((0, -4, 0, 8))


def test_chebyshev_three_term_recurrence():
    assert chebyshev_recurrence_failure(family_table("chebyshev-u", 10)[0]) is None


def test_chebyshev_matches_gf():
    assert family_table("chebyshev-u", 10)[0] == gf_rows("chebyshev-u", 10)
    assert chebyshev_u(10) == gf_oracle("chebyshev-u", 10)


def test_chebyshev_shifted_basis_display():
    # sum_k binom(n+k+1, n-k) 2^k (x-1)^k gives U_n; at n = 2, 4x^2 - 1
    assert chebyshev_shifted_basis_failure(family_table("chebyshev-u", 12)[0]) is None
    assert chebyshev_u(2) == Polynomial((-1, 0, 4))


# --- Gegenbauer -------------------------------------------------------------------


def test_gegenbauer_reduces_to_chebyshev():
    assert family_table("gegenbauer", 10, lam=1)[0] == family_table("chebyshev-u", 10)[0]
    assert gegenbauer(10, 1) == chebyshev_u(10)


def test_gegenbauer_low_degrees():
    lam = F(5, 3)
    assert gegenbauer(1, lam) == Polynomial((0, 2 * lam))
    assert gegenbauer(2, lam) == Polynomial((-lam, 0, 2 * lam * (lam + 1)))


def test_gegenbauer_matches_gf():
    for lam in (F(1, 2), F(2), F(7, 3)):
        assert family_table("gegenbauer", 8, lam=lam)[0] == gf_rows("gegenbauer", 8, lam=lam)
    assert gegenbauer(8, F(7, 3)) == gf_oracle("gegenbauer", 8, lam=F(7, 3))


# --- Meixner I --------------------------------------------------------------------


def test_meixner_first_values():
    b, c = F(3), F(2)
    assert meixner1(0, b, c) == Polynomial((1,))
    assert meixner1(1, b, c) == Polynomial((b, (c - 1) / c))


def test_meixner_second_value_explicit_gf():
    got = meixner1(2, 1, 2)
    assert got == gf_oracle("meixner1", 2, b=1, c=2)
    assert got == Polynomial((2, F(7, 4), F(1, 4)))


def test_meixner_matches_gf():
    for b, c in ((F(1), F(2)), (F(1, 2), F(3)), (F(5, 2), F(-2))):
        assert family_table("meixner1", 8, b=b, c=c)[0] == gf_rows("meixner1", 8, b=b, c=c)
    assert meixner1(8, F(5, 2), F(-2)) == gf_oracle("meixner1", 8, b=F(5, 2), c=F(-2))


def test_meixner_parameter_validation():
    with pytest.raises(ValueError):
        meixner1(2, 1, 0)
    with pytest.raises(ValueError):
        meixner1(2, 1, 1)
    with pytest.raises(ValueError):
        meixner1(2, 0, 2)
    with pytest.raises(ValueError):
        meixner1(2, -3, 2)
    meixner1(2, F(-1, 2), 2)  # fractional negatives are allowed


# --- Mittag-Leffler and Pidduck ------------------------------------------------------


def test_mittag_leffler_values():
    assert mittag_leffler(0) == Polynomial((1,))
    assert mittag_leffler(1) == Polynomial((0, 2))
    assert mittag_leffler(2) == Polynomial((0, 0, 4))


def test_mittag_leffler_matches_gf():
    assert family_table("mittag-leffler", 10)[0] == gf_rows("mittag-leffler", 10)
    assert mittag_leffler(10) == gf_oracle("mittag-leffler", 10)


def test_mittag_leffler_is_meixner_at_zero_minus_one():
    # the b = 0 restriction is lifted for this structural identity
    via_meixner = master_table(8, meixner_params(0, -1))[0]
    assert via_meixner == family_table("mittag-leffler", 8)[0]
    assert master_polynomial(8, meixner_params(0, -1)) == mittag_leffler(8)


def test_pidduck_values():
    assert pidduck(0) == Polynomial((1,))
    assert pidduck(1) == Polynomial((1, 2))


def test_pidduck_matches_gf():
    assert family_table("pidduck", 10)[0] == gf_rows("pidduck", 10)
    assert pidduck(10) == gf_oracle("pidduck", 10)


def test_pidduck_mittag_leffler_quotient():
    # egf ratio 1/(1-z) means P_n = sum_j n!/j! M_j
    rows = family_table("pidduck", 8)[0], family_table("mittag-leffler", 8)[0]
    assert pidduck_quotient_failure(*rows) is None


# --- binomial-basis rows ---------------------------------------------------------------


def test_binomial_basis_rows_reconstruct_polynomials():
    # each row is integer numerators over one denominator
    for kind, options in (("mittag-leffler", {}), ("pidduck", {}), ("meixner1", {"b": F(1, 2), "c": 3})):
        polys, basis_rows = family_table(kind, 6, **options)
        for (row, den), poly in zip(basis_rows, polys, strict=True):
            assert all(type(c) is int for c in row) and type(den) is int
            rebuilt = Polynomial()
            for k, coeff in enumerate(row):
                rebuilt = rebuilt + binomial_poly(k) * F(coeff, den)
            assert rebuilt == poly


def test_binomial_basis_row_requires_indeterminate_slot():
    assert family_table("chebyshev-u", 3)[1] is None
    assert family_table("gegenbauer", 3, lam=F(5, 2))[1] is None


@pytest.mark.parametrize("kind", FAMILY_NAMES)
def test_family_table_matches_one_gf_expansion_deep(kind):
    # the column recurrence of d, carried to n = 20, against one gf expansion
    options = {"lam": F(5, 2), "b": F(3, 2), "c": F(1, 3)}
    rows = family_table(kind, 20, **options)[0]
    family = FAMILIES[kind]
    series = family.gf(20, **{name: options[name] for name in family.options})
    assert rows == [series[n] * (1 if family.ordinary else factorial(n)) for n in range(21)]


def test_gf_oracle_unknown_family():
    with pytest.raises(ValueError):
        gf_oracle("hermite", 3)


# --- third oracle: sympy ----------------------------------------------------------------


def _sympy_rows(x, rows):
    """Exact Polynomial coefficients of sympy polynomials in x, one per row."""
    import sympy

    out = []
    for row in rows:
        coeffs = sympy.Poly(sympy.expand(row), x).all_coeffs()[::-1]
        out.append(Polynomial(F(int(c.p), int(c.q)) for c in coeffs))
    return out


def test_orthogonal_families_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    degrees = range(11)
    assert family_table("chebyshev-u", 10)[0] == _sympy_rows(
        x, [sympy.chebyshevu(n, x) for n in degrees]
    )
    assert family_table("gegenbauer", 10, lam=F(3, 2))[0] == _sympy_rows(
        x, [sympy.gegenbauer(n, sympy.Rational(3, 2), x) for n in degrees]
    )


def test_egf_families_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")
    top = 10
    ratio = ((1 + z) / (1 - z)) ** x
    meixner_gf = (1 - z) ** sympy.Rational(-1, 2) * ((1 - z / 3) / (1 - z)) ** x
    for egf, kind, options in (
        (ratio, "mittag-leffler", {}),
        (ratio / (1 - z), "pidduck", {}),
        (meixner_gf, "meixner1", {"b": F(1, 2), "c": 3}),
    ):
        expansion = sympy.series(egf, z, 0, top + 1).removeO()
        rows = [expansion.coeff(z, n) * sympy.factorial(n) for n in range(top + 1)]
        assert family_table(kind, top, **options)[0] == _sympy_rows(x, rows)
