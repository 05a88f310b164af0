import csv
import io
import json
import os
import subprocess
import sys

import pytest

import umbral
from umbral import cli
from umbral.rationals import parse_rational
from umbral.umbra import bell, dot, singleton
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


def test_family_meixner_invalid_c(capsys):
    code, _, err = run_cli(["family", "meixner1", "--b", "1", "--c", "1"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "c" in err


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


def test_verify_order_ceiling(capsys):
    code, _, err = run_cli(["verify", "duality", "--order", "13"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "ceiling" in err


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


def test_module_entry_point():
    # the child process imports the same package as this test run
    src = os.path.dirname(os.path.dirname(umbral.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "umbral", "umbra", "chi", "--order", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["moments"] == ["1", "1", "0", "0"]
