"""Command-line front end.

Subcommands
    umbra SPEC            moment table and generating-function coefficients
    riordan G A [ACTION]  arrays of a pair: show, inverse, multiply, apply
    sheffer G A           Sheffer polynomial coefficient rows
    family KIND           coefficient tables of the classical families
    verify SUITE          run the exact identity suites

Umbrae are written in a small prefix grammar:

    eps | chi | bell | ubar | scalar(a) | egf(c0,c1,...)
    add(u,v) | dot(g,u) | dotscalar(a,u) | deriv(u) | inv(u) | k(g,u)

with rationals as ``p`` or ``p/q``, nested at most ``SPEC_DEPTH_LIMIT``
forms deep.  Exit codes: 0 success, 2 parse or usage errors, 3
precondition violations (also ``--order`` or ``--nmax`` above
``ORDER_CEILING`` = 128, or a verify order above ``VERIFY_ORDER_CEILING``
= 64), 4 failed verification, with a repro command per counterexample,
141 (128 + SIGPIPE, as a shell reports a process killed by it) when the
reader closes standard output early, without a traceback.  Output is
exact in every format, with no limit on the digits of an integer;
identical command lines (and seeds) produce byte-identical output.

The argument parser is built on the first call of ``main`` and reused by
every later call in the same process; parsing keeps no state in it, so a
repeated command line prints the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import families as fam
from .rationals import format_numerators, format_rational, parse_rational
from .sheffer import (
    UmbraPair,
    flavor_convert,
    ftra_apply,
    riordan_array,
    riordan_inverse,
    riordan_multiply,
    sheffer_sequence,
)
from .umbra import (
    Umbra,
    add,
    augmentation,
    bell,
    derivative_umbra,
    dot,
    dot_scalar,
    from_series,
    gf,
    inverse_umbra,
    k_umbra,
    scalar_umbra,
    singleton,
    ubar,
)
from .series import TruncatedSeries
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141

DEFAULT_ORDER = 12
# bounds --order on every command and --nmax on family; at this order the slowest
# of twenty command lines timed, umbra k(inv(egf(1,3/2,2)),inv(egf(1,2/3,1/5))),
# takes 1.1-1.5 s as a subprocess on a shared 2-core VM (Python 3.11; the spread
# is the host's load), umbra dotscalar(-1,inv(egf(1,2/3,1/5))) 0.9-1.0 s and
# riordan bell chi inverse 0.3 s
ORDER_CEILING = 128
# verify all takes 4.4-4.8 s at this order (median 4.5 s over four subprocess runs
# on the same VM), under the 7 s that admits it
VERIFY_ORDER_CEILING = 64
# far below the interpreter's recursion limit, which parsing and building
# a spec both recurse into once per level
SPEC_DEPTH_LIMIT = 100


class SpecParseError(ValueError):
    """A syntax error in an umbra expression, with its character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# ---------------------------------------------------------------------------
# umbra expression grammar


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch.isdigit() or ch == "-":
            j = i + 1
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            literal = text[i:j]
            try:
                value = parse_rational(literal)
            except ValueError:
                raise SpecParseError(f"bad rational literal {literal!r}", i + 1)
            tokens.append(("rational", value, i))
            i = j
            continue
        raise SpecParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", "", len(text)))
    return tokens


def _egf_umbra(order: int, coeffs) -> Umbra:
    if len(coeffs) > order + 1:
        raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
    return from_series(TruncatedSeries(list(coeffs) + [Fraction(0)] * (order + 1 - len(coeffs))))


# the one table of the spec grammar: name -> (argument kinds, builder(order,
# *arguments)); atoms have no arguments and no parentheses, and "rationals"
# is a nonempty comma-separated list
_GRAMMAR = {
    "eps": ((), augmentation),
    "chi": ((), singleton),
    "bell": ((), bell),
    "ubar": ((), ubar),
    "scalar": (("rational",), lambda order, a: scalar_umbra(a, order)),
    "egf": (("rationals",), _egf_umbra),
    "add": (("expr", "expr"), lambda order, u, v: add(u, v)),
    "dot": (("expr", "expr"), lambda order, g, u: dot(g, u)),
    "dotscalar": (("rational", "expr"), lambda order, a, u: dot_scalar(a, u)),
    "deriv": (("expr",), lambda order, u: derivative_umbra(u)),
    "inv": (("expr",), lambda order, u: inverse_umbra(u)),
    "k": (("expr", "expr"), lambda order, g, u: k_umbra(g, u)),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def shown(self, i: int) -> str:
        """Token i quoted as the user typed it, or ``end of input``."""
        kind, _, at = self.tokens[i]
        if kind == "end":
            return "end of input"
        return repr(self.text[at : self.tokens[i + 1][2]].rstrip())

    def take(self, kind=None):
        token = self.tokens[self.pos]
        if kind is not None and token[0] != kind:
            wanted = kind if kind.isalpha() else repr(kind)
            raise SpecParseError(f"expected {wanted}, found {self.shown(self.pos)}", token[2] + 1)
        self.pos += 1
        return token

    def parse(self):
        expr = self.expr()
        end = self.peek()
        if end[0] != "end":
            raise SpecParseError(f"unexpected trailing input {self.shown(self.pos)}", end[2] + 1)
        return expr

    def expr(self, depth=1):
        kind, value, at = self.take()
        if kind != "name":
            found = self.shown(self.pos - 1)
            raise SpecParseError(f"expected an umbra expression, found {found}", at + 1)
        if value not in _GRAMMAR:
            raise SpecParseError(f"unknown umbra constructor {value!r}", at + 1)
        kinds = _GRAMMAR[value][0]
        if not kinds:
            return (value,)
        if depth > SPEC_DEPTH_LIMIT:
            raise SpecParseError(f"nested more than {SPEC_DEPTH_LIMIT} forms deep", at + 1)
        self.take("(")
        args = []
        for i, slot in enumerate(kinds):
            if i:
                self.take(",")
            if slot == "expr":
                args.append(self.expr(depth + 1))
            elif slot == "rational":
                args.append(self.take("rational")[1])
            else:
                values = [self.take("rational")[1]]
                while self.peek()[0] == ",":
                    self.take(",")
                    values.append(self.take("rational")[1])
                args.append(tuple(values))
        self.take(")")
        return (value, *args)


def parse_umbra_spec(text: str):
    """Parse an umbra expression into its syntax tree."""
    return _Parser(text).parse()


def _argument_text(slot, arg) -> str:
    if slot == "expr":
        return spec_to_text(arg)
    if slot == "rational":
        return format_rational(arg)
    return ",".join(format_rational(c) for c in arg)


def spec_to_text(ast) -> str:
    """Canonical text of a parsed expression; parses back to the same tree."""
    kinds = _GRAMMAR[ast[0]][0]
    if not kinds:
        return ast[0]
    return ast[0] + "(" + ",".join(map(_argument_text, kinds, ast[1:])) + ")"


def build_umbra(ast, order: int) -> Umbra:
    """Evaluate a parsed expression at the requested truncation order."""
    kinds, builder = _GRAMMAR[ast[0]]
    try:
        args = [build_umbra(a, order) if k == "expr" else a for k, a in zip(kinds, ast[1:])]
        return builder(order, *args)
    except ValueError as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise PreconditionError(f"in sub-expression {spec_to_text(ast)!r}: {exc}") from exc


class PreconditionError(ValueError):
    """A valid expression hit a domain precondition while being built."""


# ---------------------------------------------------------------------------
# rendering


def _emit_pretty_table(rows, header=None):
    """Print rows of strings as left-aligned columns."""
    if header:
        rows = [list(header)] + rows
    widths = [max(len(r[i]) for r in rows if i < len(r)) for i in range(max(map(len, rows)))]
    for r in rows:
        print("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)).rstrip())


def _emit_csv(rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(row)


def _print_json(payload):
    print(json.dumps(payload, indent=2))


def render_umbra(u: Umbra, fmt: str, label: str):
    series = gf(u)
    moments = format_numerators(u.numerators, u.denominator)
    coeffs = format_numerators(series.numerators, series.denominator)
    if fmt == "json":
        _print_json({"order": u.order, "moments": moments, "series": coeffs})
    elif fmt == "csv":
        _emit_csv([["moments"] + moments, ["series"] + coeffs])
    else:
        print(f"umbra {label}   order {u.order}")
        _emit_pretty_table(
            [[str(n), m, c] for n, (m, c) in enumerate(zip(moments, coeffs))],
            header=("n", "moment", "egf-coeff"),
        )


def render_matrix(array, fmt: str, note: str = ""):
    size, den = array.order + 1, array.denominator
    entries = [format_numerators(row, den) + ["0"] * (size - len(row)) for row in array.rows]
    if fmt == "json":
        _print_json({"order": array.order, "flavor": array.flavor, "entries": entries})
    elif fmt == "csv":
        _emit_csv(entries)
    else:
        print(f"riordan array   order {array.order}   flavor {array.flavor}")
        _emit_pretty_table(entries)
        if note:
            print(note)


def render_polys(polys, fmt: str, label: str, basis_rows=None):
    """Polynomials, and optionally their binomial-basis rows given as
    (numerators, denominator) pairs."""
    basis = None if basis_rows is None else [format_numerators(*row) for row in basis_rows]
    if fmt == "pretty":
        print(label)
        for n, p in enumerate(polys):
            print(f"  n={n}:  {p.pretty()}")
        if basis is not None:
            print("binomial-basis rows (coefficient of binomial(x,k), k = 0..n)")
            for n, row in enumerate(basis):
                print(f"  n={n}:  " + ", ".join(row))
        return
    rows = [format_numerators(p.numerators, p.denominator) if p.numerators else ["0"] for p in polys]
    if fmt == "json":
        payload = {"label": label, "polys": rows}
        if basis is not None:
            payload["binomial-basis"] = basis
        _print_json(payload)
    elif basis is None:
        _emit_csv(rows)
    else:
        _emit_csv([["monomial"] + row for row in rows])
        _emit_csv([["binomial-basis"] + row for row in basis])


# ---------------------------------------------------------------------------
# subcommands


def cmd_umbra(args) -> int:
    ast = parse_umbra_spec(args.spec)
    u = build_umbra(ast, args.order)
    render_umbra(u, args.format, spec_to_text(ast))
    return EXIT_OK


def _pair_from_specs(gamma_text: str, alpha_text: str, order: int) -> UmbraPair:
    gamma = build_umbra(parse_umbra_spec(gamma_text), order)
    alpha = build_umbra(parse_umbra_spec(alpha_text), order)
    return UmbraPair(gamma, alpha)


def cmd_riordan(args) -> int:
    pair = _pair_from_specs(args.gamma, args.alpha, args.order)
    array = riordan_array(pair)
    # products commute with the rescaling, so only the printed array converts
    shown = flavor_convert if args.flavor == "ordinary" else (lambda a: a)
    action = args.action or ["show"]
    verb = action[0]
    if verb == "show":
        if len(action) != 1:
            raise SpecParseError("show takes no arguments", 1)
        render_matrix(shown(array), args.format)
    elif verb == "inverse":
        if len(action) != 1:
            raise SpecParseError("inverse takes no arguments", 1)
        if args.flavor != "exponential":
            raise PreconditionError("inverse is computed for the exponential flavor")
        inverse = riordan_inverse(array)
        product = riordan_multiply(array, inverse)
        # canonical rows: the identity is unit rows over the denominator 1
        is_identity = product.denominator == 1 and all(
            row == (0,) * n + (1,) for n, row in enumerate(product.rows)
        )
        note = f"product-check: {'identity' if is_identity else 'NOT identity'}"
        render_matrix(inverse, args.format, note=note)
    elif verb == "multiply":
        if len(action) != 3:
            raise SpecParseError("multiply needs two umbra specs (second pair)", 1)
        other = riordan_array(_pair_from_specs(action[1], action[2], args.order))
        render_matrix(shown(riordan_multiply(array, other)), args.format)
    elif verb == "apply":
        if len(action) != 2:
            raise SpecParseError("apply needs one umbra spec (the sequence)", 1)
        if args.flavor != "exponential":
            raise PreconditionError("the moment transform applies exponential arrays")
        seq = build_umbra(parse_umbra_spec(action[1]), args.order)
        result = ftra_apply(array, seq)
        render_umbra(result, args.format, f"transform of {action[1]}")
    else:
        raise SpecParseError(f"unknown riordan action {verb!r}", 1)
    return EXIT_OK


def cmd_sheffer(args) -> int:
    pair = _pair_from_specs(args.gamma, args.alpha, args.order)
    render_polys(sheffer_sequence(pair), args.format, "sheffer polynomials")
    return EXIT_OK


def _rational_option(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SpecParseError(f"--{name}: {exc}", 1) from exc


def cmd_family(args) -> int:
    nmax = args.nmax if args.nmax is not None else args.order
    if nmax < 0:
        raise PreconditionError("--nmax must be nonnegative")
    options = {name: _rational_option(name, getattr(args, name)) for name in ("lam", "b", "c")}
    polys, basis_rows = fam.family_table(args.kind, nmax, **options)
    render_polys(polys, args.format, f"{args.kind} polynomials", basis_rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, order=args.order, seed=args.seed)
    if args.format == "json":
        _print_json(
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ]
        )
    elif args.format == "csv":
        _emit_csv([r.name, "true" if r.passed else "false", r.detail] for r in results)
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
            if not r.passed:
                print(f"  counterexample: {r.detail}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} identities hold (order={args.order}, seed={args.seed})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared after."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order N")
    common.add_argument(
        "--format",
        choices=("pretty", "json", "csv"),
        default="pretty",
        help="output format (always exact)",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

    parser = argparse.ArgumentParser(
        prog="umbral",
        description="Exact umbral calculus: moment sequences, Riordan arrays, polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_umbra = sub.add_parser("umbra", parents=[common], help="print moments of an umbra expression")
    p_umbra.add_argument("spec", help="umbra expression, e.g. 'dot(chi,bell)'")
    p_umbra.set_defaults(func=cmd_umbra)

    p_riordan = sub.add_parser("riordan", parents=[common], help="arrays of an umbra pair")
    p_riordan.add_argument("gamma")
    p_riordan.add_argument("alpha")
    p_riordan.add_argument(
        "action",
        nargs="*",
        help="show | inverse | multiply GAMMA2 ALPHA2 | apply SEQ (default: show)",
    )
    p_riordan.add_argument(
        "--flavor", choices=("exponential", "ordinary"), default="exponential"
    )
    p_riordan.set_defaults(func=cmd_riordan)

    p_sheffer = sub.add_parser("sheffer", parents=[common], help="Sheffer polynomials of a pair")
    p_sheffer.add_argument("gamma")
    p_sheffer.add_argument("alpha")
    p_sheffer.set_defaults(func=cmd_sheffer)

    p_family = sub.add_parser("family", parents=[common], help="classical polynomial families")
    p_family.add_argument("kind", choices=fam.FAMILY_NAMES)
    p_family.add_argument("--nmax", type=int, default=None, help="highest degree (default: order)")
    p_family.add_argument("--lam", default="1", help="Gegenbauer parameter (rational)")
    p_family.add_argument("--b", default="1", help="Meixner parameter b (rational)")
    p_family.add_argument("--c", default="2", help="Meixner parameter c (rational)")
    p_family.set_defaults(func=cmd_family)

    p_verify = sub.add_parser("verify", parents=[common], help="run the exact identity suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _join_rational_options(argv: list) -> list:
    """argparse reads a value that starts with "-" as an option unless it looks
    like a negative integer or decimal, so "--lam -1/2" would lose its value:
    on ``family``, each rational option is joined to such a value, "--lam=-1/2".
    "--l" and "--la" are the prefixes argparse resolves to "--lam"; "--b" and
    "--c" have none shorter."""
    if next((a for a in argv if not a.startswith("-")), None) != "family":
        return argv
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    for i in range(end - 1, 0, -1):
        if argv[i - 1] in ("--l", "--la", "--lam", "--b", "--c") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+ caps int <-> str at 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    argv = _join_rational_options(sys.argv[1:] if argv is None else argv)
    # riordan's action may follow an option: "riordan G A --order 3 inverse"
    args, extra = parser.parse_known_args(argv)
    if extra and args.command == "riordan" and not any(a.startswith("-") for a in extra):
        args.action = args.action + extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.order < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return EXIT_PRECONDITION
    ceiling = VERIFY_ORDER_CEILING if args.command == "verify" else ORDER_CEILING
    for option, value in (("order", args.order), ("nmax", getattr(args, "nmax", None))):
        if value is not None and value > ceiling:
            what = "verification order" if args.command == "verify" else f"--{option}"
            print(f"error: {what} {value} above the ceiling {ceiling}", file=sys.stderr)
            return EXIT_PRECONDITION
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # as the signal module docs advise: the interpreter's last flush then cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
