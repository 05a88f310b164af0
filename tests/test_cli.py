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
from umbral.families import family_table
from umbral.rationals import parse_rational
from umbral.umbra import Umbra, bell, dot, dot_scalar, singleton
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


@pytest.mark.parametrize(
    "spec, message",
    [
        ("3", "position 1: expected an umbra expression, found '3'"),
        ("egf(1 2)", "position 7: expected ')', found '2'"),
        ("inv(chi", "position 8: expected ')', found end of input"),
        ("add(eps)", "position 8: expected ',', found ')'"),
        ("add(1/2,eps)", "position 5: expected an umbra expression, found '1/2'"),
    ],
)
def test_parse_errors_quote_what_was_typed(spec, message, capsys):
    assert run_cli(["umbra", spec], capsys) == (cli.EXIT_PARSE, "", f"error: parse error at {message}\n")


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


# a 41-digit denominator: at order 128 the output holds integers of more than 4300 digits
BIG = 10**41 - 3


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
def test_umbra_prints_integers_of_any_size(capsys, fmt):
    argv = ["umbra", f"dotscalar(-1,egf(1,1/{BIG}))", "--order", "128", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    if fmt == "json":
        expected = dot_scalar(-1, Umbra([1, Fraction(1, BIG)] + [0] * 127))
        assert tuple(map(parse_rational, json.loads(out)["moments"])) == expected.moments


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


def test_family_prints_integers_of_any_size(capsys):
    b = Fraction(1, 10**200 - 1)
    argv = ["family", "meixner1", "--b", str(b), "--c", "3", "--nmax", "24", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    polys, _ = family_table("meixner1", 24, b=b, c=Fraction(3))
    assert [list(map(parse_rational, row)) for row in json.loads(out)["polys"]] == [
        list(p.coeffs) for p in polys
    ]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gegenbauer", "--lam", "-1/2"],
        ["gegenbauer", "--la", "-1/2"],
        ["gegenbauer", "--l", "-1/2"],
        ["meixner1", "--b", "-1/2", "--c", "3"],
        ["meixner1", "--b", "1", "--c", "-1/3"],
        ["gegenbauer", "--lam", "-1"],
        ["gegenbauer", "--lam", "-1/0"],
    ],
)
def test_family_option_takes_a_negative_rational_after_a_space(capsys, argv):
    # "--lam -1/2" prints what "--lam=-1/2" prints, though argparse alone
    # reads "-1/2" as an option
    joined = [argv[0]] + [f"{option}={value}" for option, value in zip(argv[1::2], argv[2::2])]
    expected = run_cli(["family", *joined, "--nmax", "3"], capsys)
    assert expected[0] in (cli.EXIT_OK, cli.EXIT_PARSE)
    assert run_cli(["family", *argv, "--nmax", "3"], capsys) == expected


@pytest.mark.parametrize(
    "argv, joined",
    [
        ("family gegenbauer --lam --c -1/2", "family gegenbauer --lam --c=-1/2"),
        ("family meixner1 --b -.5 --c -3", "family meixner1 --b=-.5 --c=-3"),
        ("family gegenbauer --lam -x", None),
        ("family gegenbauer --nmax -1 --lam 1/2", None),
        ("family gegenbauer -- --lam -1/2", None),
        ("umbra chi --lam -1/2", None),
    ],
)
def test_only_a_family_rational_option_is_joined(argv, joined):
    assert cli._join_rational_options(argv.split()) == (joined or argv).split()


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


def test_verify_csv_writes_one_row_per_identity(capsys, monkeypatch):
    repro = "repro: umbral verify abel --order 4 --seed 7"

    def fake_run_suites(names, order, seed):
        return [
            CheckResult("abel-identity", True),
            CheckResult("made-up-identity", False, f"n=1 lhs=0, rhs=1; {repro}"),
        ]

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(["verify", "abel", "--order", "4", "--seed", "7", "--format", "csv"], capsys)
    assert code == cli.EXIT_VERIFY
    assert out == f'abel-identity,true,\nmade-up-identity,false,"n=1 lhs=0, rhs=1; {repro}"\n'
    assert list(csv.reader(io.StringIO(out)))[1] == ["made-up-identity", "false", f"n=1 lhs=0, rhs=1; {repro}"]


def test_verify_reports_a_suite_exception(capsys, monkeypatch):
    def crash(order, seed):
        raise ValueError("boom")

    def crash_mid_stream(order, seed):
        yield "additive-identity", True, ""
        raise ValueError("boom")

    repro = "repro: umbral verify duality --order 4 --seed 7"
    for suite in (crash, crash_mid_stream):
        monkeypatch.setitem(verify._SUITES, "duality", suite)
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
    code, _, err = run_cli(["verify", "duality", "--order", "65"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert err == "error: verification order 65 above the ceiling 64\n"


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
