"""Seeded inputs, timed operations and correctness checks of the three workloads.

A workload is a list of operations generated from the seed.  Running one
operation returns a result that ``check`` compares with an independent
route through the library, computed after the timed region:

    verify-all    the six identity suites of ``umbral.verify`` at order 12
    cli-mix       120 ``umbral`` command lines at the default order 12
    order-growth  five command lines at N = 16 and at N = 32, JSON output

Nothing here imports ``umbral`` at module level: the harness re-imports
the package while timing set-up, so every function looks the modules up
when it runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

CLI_ORDER = 12
VERIFY_ORDER = 12
GROWTH_ORDERS = (16, 32)

# 120 commands in the ratio umbra 4 : riordan show 2 : inverse 1 :
# multiply 1 : apply 1 : sheffer 2 : family 2, largest remainder first
CLI_MIX = (
    ("umbra", 37),
    ("riordan-show", 19),
    ("riordan-inverse", 9),
    ("riordan-multiply", 9),
    ("riordan-apply", 9),
    ("sheffer", 19),
    ("family", 18),
)

GEGENBAUER_LAMS = ("1/2", "1", "3/2", "2", "5/2")
MEIXNER_BS = ("1/2", "1", "3/2", "2", "3")
MEIXNER_CS = ("2", "3", "1/2", "3/2", "5/2")


@dataclass
class Operation:
    """One timed unit of a workload and what its output must equal."""

    label: str
    kind: str
    argv: tuple = ()
    order: int = 0
    specs: tuple = ()  # spec trees the expected output is built from


# ---------------------------------------------------------------------------
# random umbra expressions, as text and as a tree the oracle evaluates


def _literal(rng: Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 3))


def _egf_text(coeffs) -> str:
    return "egf(" + ",".join(map(str, coeffs)) + ")"


def _atom(rng: Random):
    """(text, tree, m1) of a random leaf; m1 is the first moment."""
    name = rng.choice(("eps", "chi", "bell", "ubar", "scalar", "egf"))
    if name == "eps":
        return "eps", ("eps",), Fraction(0)
    if name in ("chi", "bell", "ubar"):
        return name, (name,), Fraction(1)
    if name == "scalar":
        a = _literal(rng)
        return f"scalar({a})", ("scalar", a), a
    coeffs = (Fraction(1),) + tuple(_literal(rng) for _ in range(rng.randint(1, 3)))
    return _egf_text(coeffs), ("egf", coeffs), coeffs[1]


def random_spec(rng: Random, depth: int = 2):
    """A random umbra expression nested at most ``depth`` forms deep.

    Returns (text, tree, m1).  ``inv`` is only applied to an argument with
    a nonzero first moment, so every expression builds without error.
    """
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng)
    form = rng.choice(("add", "dot", "dotscalar", "deriv", "inv", "k"))
    if form == "dotscalar":
        a = _literal(rng)
        text, tree, m1 = random_spec(rng, depth - 1)
        return f"dotscalar({a},{text})", ("dotscalar", a, tree), a * m1
    if form == "deriv":
        text, tree, _ = random_spec(rng, depth - 1)
        return f"deriv({text})", ("deriv", tree), Fraction(1)
    if form == "inv":
        text, tree, m1 = random_spec(rng, depth - 1)
        while m1 == 0:
            text, tree, m1 = random_spec(rng, depth - 1)
        return f"inv({text})", ("inv", tree), 1 / m1
    left, right = random_spec(rng, depth - 1), random_spec(rng, depth - 1)
    m1 = {"add": left[2] + right[2], "dot": left[2] * right[2], "k": left[2]}[form]
    return f"{form}({left[0]},{right[0]})", (form, left[1], right[1]), m1


# ---------------------------------------------------------------------------
# operation lists


def verify_all_ops(seed: int) -> list:
    from umbral.verify import SUITE_NAMES

    return [Operation(f"verify {name}", "verify", argv=(name,), order=VERIFY_ORDER) for name in SUITE_NAMES]


def _cli_op(rng: Random, kind: str) -> Operation:
    if kind == "family":
        family = rng.choice(("chebyshev-u", "gegenbauer", "meixner1", "mittag-leffler", "pidduck"))
        argv = ("family", family)
        if family == "gegenbauer":
            argv += ("--lam", rng.choice(GEGENBAUER_LAMS))
        elif family == "meixner1":
            argv += ("--b", rng.choice(MEIXNER_BS), "--c", rng.choice(MEIXNER_CS))
        return Operation(" ".join(argv), kind, argv, CLI_ORDER)
    count = {"umbra": 1, "riordan-multiply": 4, "riordan-apply": 3}.get(kind, 2)
    drawn = [random_spec(rng) for _ in range(count)]
    texts, trees = tuple(d[0] for d in drawn), tuple(d[1] for d in drawn)
    if kind == "umbra":
        argv = ("umbra",) + texts
    elif kind == "sheffer":
        argv = ("sheffer",) + texts
    else:
        action = kind.split("-")[1]
        argv = ("riordan",) + texts[:2] + ((action,) if action != "show" else ()) + texts[2:]
    return Operation(" ".join(argv), kind, argv, CLI_ORDER, trees)


def cli_mix_ops(seed: int) -> list:
    rng = Random(seed)
    kinds = [kind for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [_cli_op(rng, kind) for kind in kinds]


def growth_umbrae(seed: int):
    """G and A of the order-growth jobs, drawn at the top order; m1(A) != 0."""
    from umbral.verify import random_umbra

    rng = Random(seed)
    top = max(GROWTH_ORDERS)
    g = random_umbra(rng, top)
    a = random_umbra(rng, top)
    while a.moment(1) == 0:
        a = random_umbra(rng, top)
    return g, a


def order_growth_ops(seed: int) -> list:
    from umbral.umbra import gf

    g, a = growth_umbrae(seed)
    ops = []
    for n in GROWTH_ORDERS:
        gc, ac = gf(g).coeffs[: n + 1], gf(a).coeffs[: n + 1]
        gs, as_ = ("egf", gc), ("egf", ac)
        jobs = (
            ("inv", ("umbra", f"inv({_egf_text(ac)})"), (as_,)),
            ("k", ("umbra", f"k({_egf_text(gc)},{_egf_text(ac)})"), (gs, as_)),
            ("riordan", ("riordan", _egf_text(gc), _egf_text(ac)), (gs, as_)),
            ("meixner1", ("family", "meixner1", "--b", "1/2", "--c", "3"), ()),
            ("gegenbauer", ("family", "gegenbauer", "--lam", "3/2"), ()),
        )
        for name, argv, specs in jobs:
            argv = argv + ("--order", str(n), "--format", "json")
            ops.append(Operation(f"{name} N={n}", f"growth-{name}", argv, n, specs))
    return ops


WORKLOADS = {
    "verify-all": verify_all_ops,
    "cli-mix": cli_mix_ops,
    "order-growth": order_growth_ops,
}


# ---------------------------------------------------------------------------
# running one operation


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    results: tuple = ()  # CheckResults of a verify operation


def run_operation(op: Operation, seed: int) -> Outcome:
    """Run one operation; an uncaught exception counts as exit code 1."""
    if op.kind == "verify":
        from umbral.verify import run_suites

        try:
            results = tuple(run_suites(op.argv, order=op.order, seed=seed))
        except Exception as exc:  # a crashing suite is a failed operation
            return Outcome(1, f"{type(exc).__name__}: {exc}\n")
        verdict = "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name} {r.detail}\n" for r in results)
        return Outcome(0, verdict, results)
    from umbral import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return Outcome(code, out.getvalue())


# ---------------------------------------------------------------------------
# independent routes for the expected outputs


def oracle_umbra(tree, order: int):
    """Evaluate a spec tree without the CLI.

    ``add`` goes through the product of generating functions instead of the
    binomial convolution, ``k`` through series reversion
    (``k_umbra_series``) instead of the moment expansion, and ``deriv``
    through 1 + z f(z); the other forms have a single library route.
    """
    from umbral import series as ps
    from umbral import umbra as um

    head = tree[0]
    if head == "eps":
        return um.augmentation(order)
    if head == "chi":
        return um.singleton(order)
    if head == "bell":
        return um.bell(order)
    if head == "ubar":
        return um.ubar(order)
    if head == "scalar":
        return um.scalar_umbra(tree[1], order)
    if head == "egf":
        coeffs = tuple(tree[1]) + (Fraction(0),) * (order + 1 - len(tree[1]))
        return um.from_series(ps.TruncatedSeries(coeffs))
    if head == "dotscalar":
        return um.dot_scalar(tree[1], oracle_umbra(tree[2], order))
    if head == "deriv":
        return um.from_series(um.gf(oracle_umbra(tree[1], order)).shift_up() + 1)
    if head == "inv":
        return um.inverse_umbra(oracle_umbra(tree[1], order))
    left, right = oracle_umbra(tree[1], order), oracle_umbra(tree[2], order)
    if head == "add":
        return um.from_series(ps.multiply(um.gf(left), um.gf(right)))
    if head == "dot":
        return um.dot(left, right)
    if head == "k":
        return um.k_umbra_series(left, right)
    raise ValueError(f"unknown spec head {head!r}")


def _entries(trees, order: int):
    from umbral.sheffer import UmbraPair, riordan_entries_series

    gamma, alpha = (oracle_umbra(t, order) for t in trees)
    return riordan_entries_series(UmbraPair(gamma, alpha))


def _matmul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[n][i] * b[i][k] for i in range(size)), Fraction(0)) for k in range(size))
        for n in range(size)
    )


def _identity(size: int):
    return tuple(tuple(Fraction(int(n == k)) for k in range(size)) for n in range(size))


def _table(lines):
    return tuple(tuple(Fraction(tok) for tok in line.split()) for line in lines)


def _umbra_table_ok(lines, moments) -> bool:
    """Pretty umbra output: title, header, then rows n, moment, egf-coeff."""
    from umbral.rationals import factorial

    rows = _table(lines[2:])
    expected = tuple(
        (Fraction(n), m, m / factorial(n)) for n, m in enumerate(moments)
    )
    return rows == expected


def _polys_ok(lines, polys) -> bool:
    """Pretty polynomial rows "  n=k:  ..." against the expected polynomials."""
    return lines == [f"  n={n}:  {p.pretty()}" for n, p in enumerate(polys)]


def _family_polys(kind: str, argv, top: int):
    """Rows 0..top of a family, each from ``families.gf_oracle``."""
    from umbral import families as fam

    opts = {k.lstrip("-"): Fraction(v) for k, v in zip(argv[2::2], argv[3::2]) if k in ("--lam", "--b", "--c")}
    return [fam.gf_oracle(kind, n, **opts) for n in range(top + 1)]


def _basis_rows_ok(rows, polys) -> bool:
    """sum_k row[k] * binomial(x, k) must be the n-th polynomial."""
    from umbral.polynomials import Polynomial, binomial_poly

    if len(rows) != len(polys):
        return False
    basis = [binomial_poly(k) for k in range(len(rows))]
    for row, p in zip(rows, polys):
        total = Polynomial()
        for c, b in zip(row, basis):
            total = total + b * Fraction(c)
        if total != p:
            return False
    return True


def check(op: Operation, outcome: Outcome) -> bool:
    """Compare one output with its independent route; True when it matches."""
    if outcome.exit_code != 0:
        return False
    if op.kind == "verify":
        return bool(outcome.results) and all(r.passed for r in outcome.results)
    if op.kind.startswith("growth-"):
        return _check_growth(op, json.loads(outcome.stdout))
    return _check_cli(op, outcome.stdout.splitlines())


def _check_cli(op: Operation, lines) -> bool:
    n = op.order
    if op.kind == "umbra":
        return lines[0].startswith("umbra ") and _umbra_table_ok(
            lines, oracle_umbra(op.specs[0], n).moments
        )
    if op.kind == "riordan-show":
        return _table(lines[1:]) == _entries(op.specs, n)
    if op.kind == "riordan-inverse":
        printed = _table(lines[1 : n + 2])
        return lines[-1] == "product-check: identity" and _matmul(
            _entries(op.specs, n), printed
        ) == _identity(n + 1)
    if op.kind == "riordan-multiply":
        expected = _matmul(_entries(op.specs[:2], n), _entries(op.specs[2:], n))
        return _table(lines[1:]) == expected
    if op.kind == "riordan-apply":
        entries = _entries(op.specs[:2], n)
        seq = oracle_umbra(op.specs[2], n).moments
        moments = tuple(sum((entries[i][k] * seq[k] for k in range(n + 1)), Fraction(0)) for i in range(n + 1))
        return _umbra_table_ok(lines, moments)
    if op.kind == "sheffer":
        from umbral.sheffer import UmbraPair, sheffer_sequence_series

        pair = UmbraPair(*(oracle_umbra(t, n) for t in op.specs))
        return lines[0] == "sheffer polynomials" and _polys_ok(lines[1:], sheffer_sequence_series(pair))
    if op.kind == "family":
        kind = op.argv[1]
        polys = _family_polys(kind, op.argv, n)
        if lines[0] != f"{kind} polynomials" or not _polys_ok(lines[1 : n + 2], polys):
            return False
        if kind in ("chebyshev-u", "gegenbauer"):
            return len(lines) == n + 2
        rows = [line.split(":", 1)[1].split(",") for line in lines[n + 3 :]]
        return _basis_rows_ok(rows, polys)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_growth(op: Operation, payload) -> bool:
    from umbral import series as ps
    from umbral.umbra import Umbra, gf, k_umbra_series

    n = op.order
    if op.kind in ("growth-inv", "growth-k"):
        moments = tuple(Fraction(m) for m in payload["moments"])
        series = tuple(Fraction(c) for c in payload["series"])
        got_gf = ps.TruncatedSeries(series)
        if payload["order"] != n or gf(Umbra(moments)) != got_gf:
            return False
        umbrae = [oracle_umbra(t, n) for t in op.specs]
        if op.kind == "growth-k":
            return moments == k_umbra_series(*umbrae).moments
        # the reversion is checked by composition: (f_A - 1)(f_inv - 1) = z
        composed = ps.compose(gf(umbrae[0]) - 1, got_gf - 1)
        return composed == ps.TruncatedSeries.z(n)
    if op.kind == "growth-riordan":
        entries = tuple(tuple(Fraction(c) for c in row) for row in payload["entries"])
        return payload["order"] == n and entries == _entries(op.specs, n)
    kind = op.argv[1]
    polys = _family_polys(kind, op.argv, n)
    got = [
        tuple(Fraction(c) for c in row) if row != ["0"] else ()
        for row in payload["polys"]
    ]
    if got != [p.coeffs for p in polys]:
        return False
    if kind == "meixner1":
        return _basis_rows_ok(payload["binomial-basis"], polys)
    return "binomial-basis" not in payload

