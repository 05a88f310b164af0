"""Property-based laws on generated umbrae and series, orders 0 and up, on
the umbra-spec parser, and on every registered polynomial family."""

from fractions import Fraction
from math import comb, factorial, gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umbral import cli
from umbral.families import FAMILY_NAMES, family_polynomial, family_table, gf_oracle, gf_rows
from umbral.polynomials import Polynomial
from umbral.rationals import lowest_terms
from umbral.series import TruncatedSeries, exp, log, power
from umbral.sheffer import (
    RiordanArray,
    UmbraPair,
    flavor_convert,
    identity_pair,
    riordan_array,
    riordan_array_series,
    riordan_entries_series,
    riordan_inverse,
    riordan_multiply,
    umbral_compose,
)
from umbral.symbolic import (
    UmbralPolynomial,
    UmbralSymbol,
    X,
    Y,
    abel,
    abel_expression,
    atom,
    binomial_sum,
    substitute,
)
from umbral.umbra import (
    Umbra,
    add,
    augmentation,
    composition_umbra,
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


# --- the canonical form: numerators over their least common denominator ------


def assert_canonical(r):
    c, d = r.numerators, r.denominator
    assert c[0] == d > 0 and gcd(*c) == 1
    rebuilt = Umbra(r.moments)
    assert r == rebuilt and hash(r) == hash(rebuilt)
    assert r.moments[0] == 1
    assert all(type(m) is Fraction for m in r.moments)


@laws
@given(umbra_lists(1, 8), st.integers(min_value=1, max_value=10**9))
def test_scaled_numerators_give_the_same_umbra(us, s):
    (u,) = us
    scaled = Umbra([c * s for c in u.numerators], u.denominator * s)
    assert scaled == u and hash(scaled) == hash(u)
    assert_canonical(scaled)


@laws
@given(umbra_lists(2, 6), exponents)
def test_kernel_results_are_canonical(us, a):
    g, u = us
    results = [
        add(g, u),
        dot_scalar(a, u),
        k_umbra(g, u),
        composition_umbra(g, u),
        from_series(gf(u)),
    ]
    if u.order >= 1 and u.moment(1) != 0:
        results.append(inverse_umbra(u))
    for r in results:
        assert_canonical(r)


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


# --- the packed symbolic kernel against a plain reference ---------------------
#
# The reference keeps today's constructor form, {((atom, exponent), ...): c},
# with atoms in the canonical order x, y, then symbols by age.

_rng = Random(11)
REF_ATOMS = (X, Y) + tuple(
    UmbralSymbol(Umbra([1] + [Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(80)]))
    for _ in range(3)
)
REF_RANK = {a: i for i, a in enumerate(REF_ATOMS)}


def ref_canonical(exps: dict) -> tuple:
    return tuple(sorted(((a, e) for a, e in exps.items() if e), key=lambda ae: REF_RANK[ae[0]]))


def ref_collect(pairs) -> dict:
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_add(p: dict, q: dict) -> dict:
    return ref_collect(list(p.items()) + list(q.items()))


def ref_mul(p: dict, q: dict) -> dict:
    pairs = []
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for a, e in m2:
                exps[a] = exps.get(a, 0) + e
            pairs.append((ref_canonical(exps), c1 * c2))
    return ref_collect(pairs)


def ref_evaluate(p: dict) -> dict:
    pairs = []
    for m, c in p.items():
        for a, e in m:
            if isinstance(a, UmbralSymbol):
                c *= a.binding.moment(e)
        pairs.append((tuple((a, e) for a, e in m if a in (X, Y)), c))
    return ref_collect(pairs)


def ref_derivative(p: dict, wrt) -> dict:
    pairs = []
    for m, c in p.items():
        exps = dict(m)
        if wrt in exps:
            exps[wrt] -= 1
            pairs.append((ref_canonical(exps), c * dict(m)[wrt]))
    return ref_collect(pairs)


def ref_power(p: dict, k: int) -> dict:
    out = {(): 1}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_substitute(coeffs, p: dict) -> dict:
    return ref_collect((m, c * pc) for k, c in enumerate(coeffs) for m, pc in ref_power(p, k).items())


def ref_binomial_sum(xs, ys, n: int) -> dict:
    return ref_collect(
        (m, comb(n, k) * c) for k in range(n + 1) for m, c in ref_mul(xs[k], ys[n - k]).items()
    )


def ref_abel_evaluated(n: int, base: dict, u: Umbra) -> dict:
    """E[base (base + s)^(n-1)], s bound to n.u: sum_j C(n-1, j) E[base^(j+1)] m_(n-1-j)(n.u)."""
    if n == 0:
        return {(): 1}
    shift = dot_scalar(n, u)
    return ref_collect(
        (m, comb(n - 1, j) * shift.moment(n - 1 - j) * c)
        for j in range(n)
        for m, c in ref_evaluate(ref_power(base, j + 1)).items()
    )


def ref_repr(p: dict) -> str:
    bits = []
    for m in sorted(p, key=lambda m: tuple((REF_RANK[a], e) for a, e in m)):
        factors = "*".join(f"{a!r}^{e}" if e > 1 else f"{a!r}" for a, e in m)
        bits.append(f"{p[m]}*{factors}" if factors else str(p[m]))
    return " + ".join(bits) or "0"


def ref_univariate(p: dict, var) -> Polynomial:
    coeffs: dict = {}
    for m, c in p.items():
        if any(a is not var for a, _ in m):
            raise ValueError("not univariate")
        coeffs[m[0][1] if m else 0] = c
    return Polynomial([coeffs.get(i, 0) for i in range(max(coeffs, default=0) + 1)])


ref_coefficients = st.integers(min_value=-5, max_value=5) | st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def ref_polynomials(draw, atoms):
    """A reference polynomial over a drawn subset of ``atoms``, exponents up to 40."""
    own = [a for a in atoms if draw(st.booleans())]
    monomial = st.tuples(*(st.integers(min_value=0, max_value=40) for _ in own)).map(
        lambda es: ref_canonical(dict(zip(own, es)))
    )
    return ref_collect(draw(st.lists(st.tuples(monomial, ref_coefficients), max_size=6)))


@st.composite
def ref_pairs(draw):
    atoms = REF_ATOMS[: 2 + draw(st.integers(min_value=1, max_value=3))]
    return draw(ref_polynomials(atoms)), draw(ref_polynomials(atoms))


@settings(max_examples=80, deadline=None)
@given(ref_pairs())
def test_packed_kernel_matches_reference(pq):
    p, q = pq
    P, Q = UmbralPolynomial(p), UmbralPolynomial(q)
    for got, want in ((P, p), (Q, q), (P + Q, ref_add(p, q)), (P * Q, ref_mul(p, q))):
        expected = UmbralPolynomial(want)
        assert got == expected
        assert hash(got) == hash(expected)
        assert repr(got) == ref_repr(want)
        assert got.evaluate() == UmbralPolynomial(ref_evaluate(want))
        for a in REF_ATOMS:
            assert got.formal_derivative(a) == UmbralPolynomial(ref_derivative(want, a))
    assert (P == Q) == (p == q)
    # equal values over different atom tuples: P + Q - Q keeps Q's atoms
    assert P + Q - Q == P
    assert hash(P + Q - Q) == hash(P)

    for var in (X, Y):
        want = ref_evaluate(ref_mul(p, q))
        try:
            expected = ref_univariate(want, var)
        except ValueError:
            with pytest.raises(ValueError):
                (P * Q).evaluate().to_univariate(var)
            continue
        got = (P * Q).evaluate().to_univariate(var)
        assert got == expected
        assert all(type(c) is Fraction for c in got.coeffs)

    symbols_only = {m: c for m, c in p.items() if all(a not in (X, Y) for a, _ in m)}
    value = UmbralPolynomial(symbols_only).evaluate().constant_value()
    assert type(value) is Fraction
    assert value == ref_evaluate(symbols_only).get((), 0)


@settings(max_examples=40, deadline=None)
@given(ref_pairs(), st.lists(ref_coefficients, max_size=4), st.integers(min_value=0, max_value=2))
def test_rational_operands_match_reference(pq, coeffs, n):
    # the drawn coefficients, moments and polynomial carry denominators, so
    # each operand is lifted onto a common one; x/2 is a bare atom's monomial
    # over a denominator, which the bare-atom paths must not take as the atom
    p, q = pq
    P, Q = UmbralPolynomial(p), UmbralPolynomial(q)
    half = {((X, 1),): Fraction(1, 2)}
    poly = Polynomial(coeffs)
    for arg, ref in ((P, p), (P + Q, ref_add(p, q)), (UmbralPolynomial(half), half)):
        want = ref_substitute(poly.coeffs, ref)
        got = substitute(poly, arg)
        assert got == UmbralPolynomial(want)
        assert repr(got) == ref_repr(want)
    xs, ys = [P, Q, P * Q], [Q, P + Q, P]
    refs = [p, q, ref_mul(p, q)], [q, ref_add(p, q), p]
    want = ref_binomial_sum(*refs, n)
    assert binomial_sum(xs, ys, n) == UmbralPolynomial(want)
    u = REF_ATOMS[3].binding  # m_1 != 0: the j = 0 term of n = 2 survives E
    third = {((REF_ATOMS[3], 1),): Fraction(2, 3)}
    for base, ref in ((P, p), (UmbralPolynomial(half), half), (UmbralPolynomial(third), third)):
        want = ref_abel_evaluated(n, ref, u)
        assert abel_expression(n, base, u).evaluate() == UmbralPolynomial(want)


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


@laws
@given(umbra_lists(2, 10))
def test_riordan_array_matches_series_extraction_in_both_flavors(us):
    # the triangle of fixed-addend sums against the series oracle
    pair = UmbraPair(*us)
    expected = riordan_entries_series(pair)
    assert riordan_array(pair).entries == expected
    ordinary = tuple(
        tuple(e * factorial(k) / factorial(n) for k, e in enumerate(row))
        for n, row in enumerate(expected)
    )
    assert flavor_convert(riordan_array(pair)).entries == ordinary


@laws
@given(umbra_lists(2, 12))
def test_series_array_is_the_riordan_array_in_both_flavors(us):
    # the integer series-extraction array against the coefficient table
    pair = UmbraPair(*us)
    oracle = riordan_array_series(pair)
    assert oracle == riordan_array(pair)
    assert flavor_convert(oracle) == flavor_convert(riordan_array(pair))
    assert oracle.entries == riordan_entries_series(pair)


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


def assert_canonical_array(r):
    # a RationalVector of the entries row by row: the rows are slices of its numerators
    assert r.denominator > 0
    assert gcd(r.denominator, *r.numerators) == 1
    assert [len(row) for row in r.rows] == list(range(1, r.order + 2))
    assert sum(r.rows, ()) == r.numerators


@settings(max_examples=25, deadline=None)
@given(umbra_lists(4, 4), st.integers(min_value=1, max_value=10**6))
def test_array_equality_is_equality_of_entries(us, s):
    # arrays drawn from products, inverses and both flavors, with pairs that
    # are equal (a group law holds) and pairs that differ in entries or flavor;
    # the identity has the same values in both flavors
    a, b = riordan_array(UmbraPair(us[0], us[1])), riordan_array(UmbraPair(us[2], us[3]))
    product, inverse = riordan_multiply(a, b), riordan_inverse(a)
    identity = riordan_array(identity_pair(a.order))
    ordinary_identity = flavor_convert(identity)
    arrays = [
        a,
        b,
        product,
        inverse,
        riordan_inverse(inverse),
        riordan_multiply(a, inverse),
        identity,
        ordinary_identity,
        flavor_convert(a),
        flavor_convert(product),
        riordan_multiply(flavor_convert(a), flavor_convert(b)),
        flavor_convert(flavor_convert(product)),
        # the product over a scaled, negative denominator, reduced on construction
        RiordanArray(
            a.pair,
            [[-s * c for c in row] for row in product.rows],
            -s * product.denominator,
            "exponential",
        ),
    ]
    assert arrays[-1] == product
    assert (product.numerators, product.denominator) == lowest_terms(
        [-s * c for c in product.numerators], -s * product.denominator
    )
    assert ordinary_identity.numerators == identity.numerators and ordinary_identity != identity
    size = a.order + 1
    for x in arrays:
        assert_canonical_array(x)
        assert [[x.entry(n, k) for k in range(size)] for n in range(size)] == list(map(list, x.entries))
        # the same pair in another type of the base is another value
        for cls in (Umbra, TruncatedSeries, Polynomial):
            twin = cls(x.numerators, x.denominator)
            assert (twin.numerators, twin.denominator) == (x.numerators, x.denominator)
            assert x != twin and twin != x
        for y in arrays:
            same = (x.flavor, x.entries) == (y.flavor, y.entries)
            assert (x == y) is same and (x != y) is not same
            if same:
                assert hash(x) == hash(y)


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
        assert family_table(kind, 8, **options)[0] == gf_rows(kind, 8, **options)
        assert family_polynomial(kind, 8, **options) == gf_oracle(kind, 8, **options)
