import csv
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import umbral
from umbral import cli, verify
from umbral.rationals import parse_rational
from umbral.umbra import Umbra, bell, composition_umbra, dot, singleton
from umbral.verify import CheckResult


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the umbra-spec grammar --------------------------------------------------


def test_parse_roundtrip():
    specs = [
        "eps",
        "chi",
        "bell",
        "ubar",
        "scalar(-3/7)",
        "egf(1,1,1/2)",
        "add(chi,dot(bell,ubar))",
        "dotscalar(2/3,deriv(inv(chi)))",
        "k(chi,chi)",
    ]
    for text in specs:
        ast = cli.parse_umbra_spec(text)
        assert cli.spec_to_text(ast) == text
        assert cli.parse_umbra_spec(cli.spec_to_text(ast)) == ast


def test_parse_accepts_whitespace():
    ast = cli.parse_umbra_spec(" add( chi , bell ) ")
    assert cli.spec_to_text(ast) == "add(chi,bell)"


def test_parse_errors_carry_position():
    with pytest.raises(cli.SpecParseError) as info:
        cli.parse_umbra_spec("add(chi,)")
    assert "position 9" in str(info.value)
    with pytest.raises(cli.SpecParseError):
        cli.parse_umbra_spec("scalar(x)")
    with pytest.raises(cli.SpecParseError):
        cli.parse_umbra_spec("chi extra")


LITERAL = re.compile(r"[-0-9][0-9/]*")


def _fraction_route_tokens(text):
    # the literal scan of the tokenizer with Fraction(str) reading each literal
    tokens, i = [], 0
    while i < len(text):
        match = LITERAL.match(text, i)
        if match is None:
            raise cli.SpecParseError(f"unexpected character {text[i]!r}", i + 1)
        try:
            value = Fraction(match.group())
        except (ValueError, ZeroDivisionError):
            raise cli.SpecParseError(f"bad rational literal {match.group()!r}", i + 1)
        tokens.append(("rational", value, i))
        i = match.end()
    return tokens + [("end", "", len(text))]


def _outcome(tokenize, text):
    try:
        return [(kind, type(value), value, at) for kind, value, at in tokenize(text)]
    except cli.SpecParseError as exc:
        return str(exc), exc.position


def test_literals_read_as_fraction_strings_do():
    # every string of length <= 4 over the literal alphabet, bad literals included
    alphabet = "-0123456789/"
    texts = ["1/2/3", "-12/0", "007/-3", "-0/005", "10/12/"]
    for length in range(1, 5):
        texts.extend(map("".join, itertools.product(alphabet, repeat=length)))
    for text in texts:
        assert _outcome(cli._tokenize, text) == _outcome(_fraction_route_tokens, text), text


def test_parse_rejects_deep_nesting(capsys):
    depth = cli.SPEC_DEPTH_LIMIT
    deepest = "deriv(" * depth + "eps" + ")" * depth
    assert cli.spec_to_text(cli.parse_umbra_spec(deepest)) == deepest
    code, out, err = run_cli(["umbra", "deriv(" * 3000 + "eps" + ")" * 3000], capsys)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: parse error at position {6 * depth + 1}: nested more than {depth} forms deep\n"


def test_build_umbra_matches_library():
    ast = cli.parse_umbra_spec("dot(chi,bell)")
    assert cli.build_umbra(ast, 4) == dot(singleton(4), bell(4))


def test_egf_spec_pads_with_zeros():
    u = cli.build_umbra(cli.parse_umbra_spec("egf(1,1)"), 3)
    assert u == singleton(3)
    with pytest.raises(cli.PreconditionError):
        cli.build_umbra(cli.parse_umbra_spec("egf(1,1,1,1)"), 2)


# --- umbra command -----------------------------------------------------------


def test_umbra_bell_moments(capsys):
    code, out, _ = run_cli(["umbra", "bell", "--order", "5"], capsys)
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[2:]] == [
        "1",
        "1",
        "2",
        "5",
        "15",
        "52",
    ]


def test_umbra_eps(capsys):
    code, out, _ = run_cli(["umbra", "eps", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["moments"] == ["1", "0", "0", "0"]


def test_umbra_duality(capsys):
    code, out, _ = run_cli(
        ["umbra", "dot(chi,bell)", "--order", "4", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["moments"] == ["1", "1", "1", "1", "1"]


def test_umbra_json_roundtrip(capsys):
    code, out, _ = run_cli(["umbra", "k(chi,chi)", "--order", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    moments = tuple(parse_rational(m) for m in payload["moments"])
    assert moments == (1, 1, -2, 12, -120)


# --- riordan command ---------------------------------------------------------


def test_riordan_show_pascal(capsys):
    code, out, _ = run_cli(
        ["riordan", "scalar(1)", "eps", "--order", "4", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["flavor"] == "exponential"
    entries = [[parse_rational(v) for v in row] for row in payload["entries"]]
    assert entries[4] == [1, 4, 6, 4, 1]


def test_riordan_json_roundtrip_exact(capsys):
    code, out, _ = run_cli(
        ["riordan", "ubar", "chi", "--order", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    parsed = tuple(tuple(parse_rational(v) for v in row) for row in payload["entries"])
    from umbral.sheffer import UmbraPair, riordan_array
    from umbral.umbra import singleton as chi, ubar

    direct = riordan_array(UmbraPair(ubar(5), chi(5))).entries
    assert parsed == direct


def test_riordan_inverse_prints_signed_pascal(capsys):
    code, out, _ = run_cli(["riordan", "scalar(1)", "eps", "inverse", "--order", "3"], capsys)
    assert code == 0
    assert "product-check: identity" in out
    assert "-3" in out


@pytest.mark.parametrize("fault", ["entry", "scale"])
def test_riordan_inverse_reports_a_broken_product(capsys, monkeypatch, fault):
    # the check reads the product's integer rows and its denominator: one
    # entry off, or unit rows over the denominator 2, is no identity
    from umbral.sheffer import RiordanArray

    multiply = cli.riordan_multiply

    def broken(a, b):
        product = multiply(a, b)
        rows = [list(row) for row in product.rows]
        den = product.denominator
        if fault == "entry":
            rows[-1][0] += den
        else:
            den *= 2
        return RiordanArray(lambda: product.pair, rows, den, product.flavor)

    monkeypatch.setattr(cli, "riordan_multiply", broken)
    code, out, _ = run_cli(["riordan", "scalar(1)", "eps", "inverse", "--order", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "product-check: NOT identity"


def test_riordan_apply(capsys):
    code, out, _ = run_cli(
        ["riordan", "scalar(1)", "eps", "apply", "scalar(1)", "--order", "4", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["moments", "1", "2", "4", "8", "16"]


def test_riordan_multiply(capsys):
    code, out, _ = run_cli(
        [
            "riordan",
            "scalar(1)",
            "eps",
            "multiply",
            "scalar(1)",
            "eps",
            "--order",
            "3",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries[3] == ["8", "12", "6", "1"]


@pytest.mark.parametrize(
    "action",
    [["inverse"], ["multiply", "chi", "bell"], ["apply", "bell"]],
)
def test_riordan_action_after_options(capsys, action):
    options = ["--order", "3", "--format", "json"]
    code, before, _ = run_cli(["riordan", "scalar(1)", "eps", *action, *options], capsys)
    assert code == 0
    assert run_cli(["riordan", "scalar(1)", "eps", *options, *action], capsys) == (0, before, "")
    split = [action[0], "--order", "3", *action[1:], "--format", "json"]
    assert run_cli(["riordan", "scalar(1)", "eps", *split], capsys) == (0, before, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["riordan", "chi", "chi", "--order", "3", "--bogus"],
        ["riordan", "chi", "chi", "--order", "3", "inverse", "--bogus"],
        ["umbra", "chi", "--order", "3", "extra"],
    ],
)
def test_leftover_arguments_still_rejected(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_riordan_bad_action(capsys):
    code, _, err = run_cli(["riordan", "eps", "eps", "transpose"], capsys)
    assert code == cli.EXIT_PARSE
    assert "transpose" in err


# --- sheffer and family commands -----------------------------------------------


def test_sheffer_rows(capsys):
    code, out, _ = run_cli(
        ["sheffer", "ubar", "eps", "--order", "2", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["1"], ["1", "1"], ["2", "2", "1"]]


def test_family_chebyshev_rows(capsys):
    code, out, _ = run_cli(
        ["family", "chebyshev-u", "--nmax", "3", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["1"], ["0", "2"], ["-1", "0", "4"], ["0", "-4", "0", "8"]]


def test_family_gegenbauer_lambda_one_matches_chebyshev(capsys):
    code1, out1, _ = run_cli(
        ["family", "gegenbauer", "--lam", "1", "--nmax", "4", "--format", "csv"], capsys
    )
    code2, out2, _ = run_cli(
        ["family", "chebyshev-u", "--nmax", "4", "--format", "csv"], capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_family_pidduck_includes_binomial_basis(capsys):
    code, out, _ = run_cli(
        ["family", "pidduck", "--nmax", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polys"] == [["1"], ["1", "2"]]
    assert payload["binomial-basis"] == [["1"], ["1", "2"]]


RENDERED = [
    "family meixner1 --b 1/2 --c 3 --nmax 6",
    "family chebyshev-u --nmax 5",
    "umbra k(egf(1,1/2,-1/3),inv(egf(1,3/2,2))) --order 6",
    "riordan egf(1,1/2,-1/3) dotscalar(-3/2,ubar) --order 5",
    "riordan ubar egf(1,2/3) --order 4 inverse",
    "riordan egf(1,1/2) bell --order 4 apply dotscalar(-1/2,ubar)",
    "sheffer egf(1,1/2,-1/3) dotscalar(1/2,bell) --order 5",
]


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
@pytest.mark.parametrize("command", RENDERED)
def test_rendering_reads_numerators_only(capsys, monkeypatch, command, fmt):
    # output is formatted from (numerators, denominator): a read of the
    # Fraction views while a render_* function runs fails the command
    from umbral.polynomials import Polynomial
    from umbral.series import TruncatedSeries
    from umbral.sheffer import RiordanArray

    argv = command.split() + ["--format", fmt]
    expected = run_cli(argv, capsys)
    assert expected[0] == 0
    rendering = []

    def guard(view):
        def get(self):
            if rendering:
                raise AssertionError(f"rendering read a Fraction view of {type(self).__name__}")
            return view.__get__(self)

        return property(get)

    def track(render):
        def run(*args, **kwargs):
            rendering.append(render)
            try:
                return render(*args, **kwargs)
            finally:
                rendering.pop()

        return run

    for cls, name in ((Umbra, "moments"), (TruncatedSeries, "coeffs"), (Polynomial, "coeffs"), (RiordanArray, "entries")):
        monkeypatch.setattr(cls, name, guard(inspect.getattr_static(cls, name)))
    for name in ("render_umbra", "render_matrix", "render_polys"):
        monkeypatch.setattr(cli, name, track(getattr(cli, name)))
    assert run_cli(argv, capsys) == expected


def test_family_meixner_invalid_c(capsys):
    code, _, err = run_cli(["family", "meixner1", "--b", "1", "--c", "1"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "c" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["meixner1", "--b", "1/0"],
        ["meixner1", "--c", "1/0"],
        ["meixner1", "--b", "half"],
        ["gegenbauer", "--lam", "1/0"],
        ["chebyshev-u", "--lam", "1/0"],
    ],
)
def test_family_bad_rational_option(capsys, argv):
    code, out, err = run_cli(["family", *argv, "--nmax", "2"], capsys)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: parse error at position 1: {argv[1]}: ")
    assert err.count("\n") == 1


def test_family_negative_nmax(capsys):
    code, out, err = run_cli(["family", "chebyshev-u", "--nmax", "-3"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == "error: --nmax must be nonnegative\n"


# --- verify command ---------------------------------------------------------------


def test_verify_duality_passes(capsys):
    code, out, _ = run_cli(["verify", "duality", "--order", "8"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS singleton-bell-duality" in out


def test_verify_reports_failures(capsys, monkeypatch):
    def fake_run_suites(names, order, seed):
        return [CheckResult("made-up-identity", False, "lhs=0 rhs=1")]

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(["verify", "abel"], capsys)
    assert code == cli.EXIT_VERIFY
    assert "FAIL made-up-identity" in out
    assert "lhs=0 rhs=1" in out


def test_verify_failure_carries_repro_command(capsys, monkeypatch):
    monkeypatch.setattr(verify, "abel_identity_failure", lambda a, g, d: "n=1 lhs=0 rhs=1")
    repro = "; repro: umbral verify abel --order 4 --seed 7"
    code, out, _ = run_cli(["verify", "abel", "--order", "4", "--seed", "7"], capsys)
    assert code == cli.EXIT_VERIFY
    assert "FAIL abel-identity\n  counterexample: trial=0 n=1 lhs=0 rhs=1 alpha=" in out
    assert out.count(repro + "\n") == 1
    args = ["verify", "abel", "--order", "4", "--seed", "7", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == cli.EXIT_VERIFY
    details = [r["detail"] for r in json.loads(out)]
    assert details[0].endswith(repro)
    assert details[1:] == [""] * (len(details) - 1)


def _off_by_one_in_m3(route):
    def broken(*args):
        moments = list(route(*args).moments)
        moments[3] += 1
        return Umbra(moments)

    return broken


def test_moment_transform_compares_two_routes(capsys, monkeypatch):
    # a broken composition umbra is a FAIL line with its repro, not an exception
    import umbral.sheffer

    monkeypatch.setattr(umbral.sheffer, "composition_umbra", _off_by_one_in_m3(composition_umbra))
    repro = "; repro: umbral verify riordan-group --order 4 --seed 1\n"
    code, out, _ = run_cli(["verify", "riordan-group", "--order", "4", "--seed", "1"], capsys)
    assert code == cli.EXIT_VERIFY
    assert "FAIL pair-composition-matches-matrix-product\n" in out
    assert out.count(repro) == 1
    # the suite's umbra route is checked against the matrix route of ftra_apply
    monkeypatch.setattr(verify, "composition_umbra", _off_by_one_in_m3(composition_umbra))
    code, out, _ = run_cli(["verify", "riordan-group", "--order", "4", "--seed", "1"], capsys)
    assert code == cli.EXIT_VERIFY
    assert f"FAIL moment-transform-two-routes\n  counterexample: trial=0{repro}" in out


def test_riordan_checks_report_a_broken_product(capsys, monkeypatch):
    # array equality decides the group checks: one numerator off in every
    # matrix product is a FAIL line with its repro
    from umbral.sheffer import RiordanArray, riordan_multiply

    argv = ["verify", "riordan-group", "--order", "4", "--seed", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK and "FAIL" not in out

    def broken(a, b):
        product = riordan_multiply(a, b)
        rows = [list(row) for row in product.rows]
        rows[-1][0] += 1
        return RiordanArray(product.pair, rows, product.denominator, product.flavor)

    monkeypatch.setattr(verify, "riordan_multiply", broken)
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    detail = lines[lines.index("FAIL pair-composition-matches-matrix-product") + 1]
    assert detail.startswith("  counterexample: trial=0 gamma=[")
    assert detail.endswith("; repro: umbral verify riordan-group --order 4 --seed 1")


def test_abel_identity_reads_the_moment_transform(capsys, monkeypatch):
    # the right side of the Abel identity is the array of (delta, alpha)
    # applied to the Abel weights: one numerator off in every moment
    # transform fails that identity alone
    from umbral.sheffer import ftra_apply

    def broken(a, seq):
        image = ftra_apply(a, seq)
        num = list(image.numerators)
        num[-1] += 1
        return Umbra(num, image.denominator)

    monkeypatch.setattr(verify, "ftra_apply", broken)
    code, out, _ = run_cli(["verify", "abel", "--order", "6", "--seed", "3"], capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    detail = lines[lines.index("FAIL abel-identity") + 1]
    assert detail.startswith("  counterexample: trial=0 n=6 lhs=")
    assert detail.endswith("; repro: umbral verify abel --order 6 --seed 3")
    assert "PASS abel-binomial-identity" in lines
    assert [line for line in lines if line.startswith("FAIL")] == ["FAIL abel-identity"]


def test_abel_identity_reads_the_series_product(capsys, monkeypatch):
    # the left side of the Abel identity is the umbra of f_delta * f_gamma:
    # a broken moment sum leaves it passing, a broken series product fails it
    from umbral import series
    from umbral.series import TruncatedSeries, multiply
    from umbral.umbra import add

    argv = ["verify", "abel", "--order", "6", "--seed", "3"]
    monkeypatch.setattr(verify, "add", _off_by_one_in_m3(add))
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert "PASS abel-identity\n" in out

    def broken(f, g):
        h = multiply(f, g)
        num = list(h.numerators)
        num[-1] += 1
        return TruncatedSeries(num, h.denominator)

    monkeypatch.setattr(series, "multiply", broken)
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == ["FAIL abel-identity"]
    detail = lines[lines.index("FAIL abel-identity") + 1]
    assert detail.startswith("  counterexample: trial=0 n=6 lhs=")


def test_no_oracle_reads_the_dot_power_table(capsys, monkeypatch):
    # one numerator off in k.u for k = 2 of every shared table: the moment
    # routes that read it fail against their series oracles, and a suite
    # whose checks never read it still passes
    import umbral.umbra

    build = umbral.umbra._dot_power_table

    def broken(u, sign):
        table = list(build(u, sign))
        if len(table) > 2:
            num = list(table[2].numerators)
            num[1] += 1
            table[2] = Umbra(num, table[2].denominator)
        return tuple(table)

    monkeypatch.setattr(umbral.umbra, "_dot_power_table", broken)
    code, out, _ = run_cli(["verify", "lif", "--order", "6"], capsys)
    assert code == cli.EXIT_VERIFY
    repro = "; repro: umbral verify lif --order 6 --seed 0"
    lines = out.splitlines()
    for name in ("lagrange-inversion-moments", "composition-two-routes"):
        detail = lines[lines.index(f"FAIL {name}") + 1]
        assert detail.startswith("  counterexample: trial=")
        assert detail.endswith(repro)
    code, out, _ = run_cli(["verify", "duality", "--order", "6"], capsys)
    assert code == cli.EXIT_OK
    assert "FAIL" not in out


def test_lagrange_coefficients_read_the_series_power(capsys, monkeypatch):
    # one added to the constant coefficient of every series power: the
    # coefficient check reads f_a^(-n) off series.power and fails; the checks
    # that never raise a series to a power still pass
    from umbral import series
    from umbral.series import TruncatedSeries, power

    def broken(f, a):
        coeffs = list(power(f, a).coeffs)
        coeffs[0] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(series, "power", broken)
    code, out, _ = run_cli(["verify", "lif", "--order", "6"], capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    detail = lines[lines.index("FAIL lagrange-inversion-coefficients") + 1]
    assert detail.startswith("  counterexample: trial=0 n=")
    assert detail.endswith("; repro: umbral verify lif --order 6 --seed 0")
    assert "PASS lagrange-inversion-moments" in lines
    assert "PASS composition-two-routes" in lines
    assert "PASS derivative-inverse-relation" in lines


def test_composition_oracles_read_the_series_compose(capsys, monkeypatch):
    # one added to the last numerator of every series composition: the two
    # lif checks whose oracle is f_g(revert(z f_a)) or f_g(z f_a) fail, and
    # the checks that compose no series still pass
    from umbral import series
    from umbral.series import TruncatedSeries, compose

    def broken(f, g):
        h = compose(f, g)
        num = list(h.numerators)
        num[-1] += 1
        return TruncatedSeries(num, h.denominator)

    monkeypatch.setattr(series, "compose", broken)
    code, out, _ = run_cli(["verify", "lif", "--order", "6"], capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    for name in ("lagrange-inversion-moments", "composition-two-routes"):
        detail = lines[lines.index(f"FAIL {name}") + 1]
        assert detail.startswith("  counterexample: trial=0 moment=[")
        assert detail.endswith("; repro: umbral verify lif --order 6 --seed 0")
    assert "PASS lagrange-inversion-coefficients" in lines
    assert "PASS derivative-inverse-relation" in lines


def test_coefficient_extraction_reads_the_series_array(capsys, monkeypatch):
    # one numerator off in every series-extraction array: the two checks that
    # take it as their oracle, the extraction and the Abel form, fail; the
    # checks that read only the kernel-built array still pass
    from umbral.sheffer import RiordanArray, riordan_array_series

    def broken(pair):
        array = riordan_array_series(pair)
        rows = [list(row) for row in array.rows]
        rows[-1][0] += 1
        return RiordanArray(pair, rows, array.denominator, array.flavor)

    monkeypatch.setattr(verify, "riordan_array_series", broken)
    code, out, _ = run_cli(["verify", "sheffer", "--order", "6"], capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL sheffer-coefficient-extraction",
        "FAIL sheffer-abel-representation",
    ]
    for name in ("sheffer-coefficient-extraction", "sheffer-abel-representation"):
        detail = lines[lines.index(f"FAIL {name}") + 1]
        assert detail.startswith("  counterexample: trial=0 gamma=[")
        assert detail.endswith("; repro: umbral verify sheffer --order 6 --seed 0")
    assert "PASS sheffer-monic" in lines


def test_abel_representation_reads_the_series_array(capsys, monkeypatch):
    # one numerator off in the iterated sums that build the coefficient
    # table: the kernel-built array fails its extraction check, and the Abel
    # form, whose oracle is the series array, still passes
    import umbral.sheffer
    from umbral.umbra import iterated_sums

    def broken(start, v):
        sums = iterated_sums(start, v)
        last = sums[1]
        num = list(last.numerators)
        num[-1] += 1
        return [sums[0], Umbra(num, last.denominator)] + sums[2:]

    monkeypatch.setattr(umbral.sheffer, "iterated_sums", broken)
    code, out, _ = run_cli(["verify", "sheffer", "--order", "6"], capsys)
    assert code == cli.EXIT_VERIFY
    lines = out.splitlines()
    detail = lines[lines.index("FAIL sheffer-coefficient-extraction") + 1]
    assert detail.endswith("; repro: umbral verify sheffer --order 6 --seed 0")
    assert "PASS sheffer-abel-representation" in lines


def test_verify_reports_a_suite_exception(capsys, monkeypatch):
    def crash(order, seed):
        raise ValueError("boom")

    monkeypatch.setitem(verify._SUITES, "duality", crash)
    repro = "repro: umbral verify duality --order 4 --seed 7"
    code, out, _ = run_cli(["verify", "duality", "--order", "4", "--seed", "7"], capsys)
    assert code == cli.EXIT_VERIFY
    assert out == (
        f"FAIL suite-error:duality\n  counterexample: ValueError: boom; {repro}\n"
        "0/1 identities hold (order=4, seed=7)\n"
    )
    args = ["verify", "duality", "--order", "4", "--seed", "7", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == cli.EXIT_VERIFY
    assert json.loads(out) == [
        {"name": "suite-error:duality", "passed": False, "detail": f"ValueError: boom; {repro}"}
    ]


def test_verify_order_ceiling(capsys):
    code, _, err = run_cli(["verify", "duality", "--order", "49"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert err == "error: verification order 49 above the ceiling 48\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["umbra", "chi", "--order", "129"], "--order 129"),
        (["riordan", "chi", "bell", "--order", "129", "inverse"], "--order 129"),
        (["family", "chebyshev-u", "--nmax", "129"], "--nmax 129"),
    ],
)
def test_order_ceiling(capsys, argv, option):
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == f"error: {option} above the ceiling {cli.ORDER_CEILING}\n"


@pytest.mark.parametrize("order", [0, 1, 2])
def test_verify_all_low_orders(capsys, order):
    code, out, _ = run_cli(["verify", "all", "--order", str(order)], capsys)
    assert code == 0
    assert "FAIL" not in out


# --- contracts ---------------------------------------------------------------------


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(["umbra", "inv(eps)"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "inv(eps)" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["umbra", "mystery"], capsys)
    assert code == cli.EXIT_PARSE
    assert "position" in err


def test_determinism_byte_identical(capsys):
    args = ["verify", "lif", "--order", "6", "--seed", "42"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second

    args = ["riordan", "ubar", "bell", "--order", "6", "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def _child_env():
    # the child process imports the same package as this test run
    src = os.path.dirname(os.path.dirname(umbral.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "umbral", "umbra", "chi", "--order", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["moments"] == ["1", "1", "0", "0"]


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_closed_pipe_exits_quietly(fmt):
    # about 100-300 kB of output, more than a pipe buffers, so the writer meets the closed pipe
    child = subprocess.Popen(
        [sys.executable, "-m", "umbral", "family", "meixner1", "--nmax", "64", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait() == cli.EXIT_BROKEN_PIPE
    assert err == b""
