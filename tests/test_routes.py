"""The route table ``verify.ROUTES`` and its mutation audit.

The audit perturbs each name in the table in turn and runs ``umbral verify
all --order 6``: exactly the rows naming it fail, each with its repro
line, and the exit code is 4.  A perturbation keeps the shape of a result
(see ``_bump``); m_0, a constant term and a first moment's sign stay put.
The completeness check takes milliseconds: it needs a row for every
identity printed at orders 0, 1 and 6 and a binding for every name.
"""

import importlib
from fractions import Fraction
from functools import cache

import pytest

from umbral import cli, verify
from umbral.rationals import RationalVector
from umbral.sheffer import RiordanArray
from umbral.symbolic import UmbralPolynomial

ORDER = 6


def _names(row) -> set:
    return {name for side in row[row[0] == "law" :] for name in side.split()}


TARGETS = sorted({name for row in verify.ROUTES.values() for name in _names(row)})
# targets returning a (values, extra) pair, bumped in their values only
PAIRS = {"families.master_table", "series.to_exponential"}
# how the shared ``*_failure`` checks name their first counterexample
COUNTEREXAMPLES = {
    "families.master_table": {
        "chebyshev-recurrence": "n=2 got=4x^2 + x - 1 expected=6x^2 - 1;",
        "pidduck-mittag-leffler-quotient": "n=2;",
        "master-degenerate-slots": "n=1 y=2;",
        "master-degenerate-slots-indeterminate": "n=1;",
    },
    "verify.k_umbra": {
        "abel-identity": "trial=0 n=1 lhs=1 rhs=2 alpha=[1, 3, 0, 3, 0, -3, -1] gamma=",
        "abel-identity-polynomial-form": "q#1=x lhs=-1 rhs=0 alpha=",
    },
    "verify.abel_expression": {
        "abel-derivative-rule": "trial=0 n=1 lhs=1 rhs=2 u=",
        "abel-binomial-identity": "trial=0 n=0 u=",
    },
}


def _bump(value):
    """A number moves one away from zero; a vector of numbers (the numerators
    of an umbra, series or polynomial) at index 1; an array at entry (1, 0);
    other sequences in every item; a symbolic expression gains 1."""
    if isinstance(value, (int, Fraction)):
        return value + 1 if value >= 0 else value - 1
    if isinstance(value, RiordanArray):  # before its base: an array needs its pair and flavor
        rows = [list(row) for row in value.rows]
        rows[1][0] += 1
        return RiordanArray(value._pair, rows, value.denominator, value.flavor)
    if isinstance(value, RationalVector):
        return type(value)(_bump(list(value.numerators)), value.denominator)
    if isinstance(value, UmbralPolynomial):
        return value + 1
    items = list(value)
    if not items or not isinstance(items[0], (int, Fraction)):
        return type(value)(map(_bump, items))
    items[1:2] = map(_bump, items[1:2])
    return type(value)(items)


@cache
def _printed(order: int) -> set:
    return {(s, r.name) for s in verify.SUITE_NAMES for r in verify.run_suite(s, order, 0)}


def _table_faults(routes: dict, printed: dict) -> list:
    """What the table gets wrong against ``printed`` (order -> printed (suite, identity))."""
    faults = [f"no row: {key}" for key in sorted(set().union(*printed.values()) - set(routes))]
    faults += [f"not printed: {key}" for key in sorted(set(routes) - printed[ORDER])]
    for key, row in routes.items():
        for name in sorted(_names(row)):
            module, _, attr = name.partition(".")
            try:
                getattr(importlib.import_module(f"umbral.{module}"), attr)
            except (ImportError, AttributeError):
                faults.append(f"stale target: {key} {name}")
        if row[0] != "law":
            sides = [set(side.split()) for side in row]
            if not all(sides):
                faults.append(f"route without a side: {key}")
            faults += [f"shared kernel: {key} {name}" for name in sorted(sides[0] & sides[1])]
    return faults


def test_the_route_table_is_complete():
    printed = {order: _printed(order) for order in (0, 1, ORDER)}
    assert _table_faults(verify.ROUTES, printed) == []


def test_the_check_sees_a_missing_row_and_a_stale_target():
    printed = {order: _printed(order) for order in (0, 1, ORDER)}
    routes = dict(verify.ROUTES)
    del routes[("duality", "bell-moments")]
    routes[("lif", "composition-two-routes")] = ("verify.composition_umbra", "umbra.compose")
    routes[("lif", "no-such-identity")] = ("law", "")
    routes[("abel", "abel-identity")] = ("series.multiply", "series.multiply verify.ftra_apply")
    assert _table_faults(routes, printed) == [
        "no row: ('duality', 'bell-moments')",
        "not printed: ('lif', 'no-such-identity')",
        "shared kernel: ('abel', 'abel-identity') series.multiply",
        "stale target: ('lif', 'composition-two-routes') umbra.compose",
    ]


@pytest.mark.parametrize("target", TARGETS)
def test_exactly_the_rows_naming_a_target_fail(target, capsys, monkeypatch):
    module, _, attr = target.partition(".")
    module = importlib.import_module(f"umbral.{module}")
    original = getattr(module, attr)
    bump = (lambda pair: (_bump(pair[0]), pair[1])) if target in PAIRS else _bump
    monkeypatch.setattr(module, attr, lambda *args, **kwargs: bump(original(*args, **kwargs)))
    code = cli.main(["verify", "all", "--order", str(ORDER)])
    lines = capsys.readouterr().out.splitlines()
    failed = set()
    for line, detail in zip(lines, lines[1:]):
        if line.startswith("FAIL "):
            name, suite = line[len("FAIL ") :], detail.rpartition("verify ")[2].split()[0]
            text = COUNTEREXAMPLES.get(target, {}).get(name, "")
            assert detail.startswith(f"  counterexample: {text}")
            assert detail.endswith(f"repro: umbral verify {suite} --order {ORDER} --seed 0")
            failed.add((suite, name))
    assert code == cli.EXIT_VERIFY
    assert failed == {key for key, row in verify.ROUTES.items() if target in _names(row)}
