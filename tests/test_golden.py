"""Byte-identical CLI output: the sha256 of stdout for fixed command lines.

The digests were recorded before the identity checks of ``verify`` moved
into shared functions; the two order-32 ``umbra`` lines (``inv`` runs
``revert``, ``dot`` runs ``compose`` and ``log``) were recorded while the
series kernels still ran on ``Fraction`` arithmetic, and the six
``riordan`` lines at orders 12-16 (non-integral entries, both flavors,
``multiply``, ``apply``, ``inverse``, csv and json) while arrays still
stored ``Fraction`` entries.  The ``verify abel`` and ``verify sheffer``
lines at order 12 were recorded while ``abel_expression`` still multiplied
out base * (base + s)^(n-1) and ``substitute`` still multiplied its way to
each power of a bare atom.  The five ``family`` lines at ``--nmax 40`` and
the order-24 ``sheffer`` line were recorded while polynomials still stored
``Fraction`` coefficients and the family rows were summed on them.  The
eight lines at order or ``--nmax`` 32 (``family meixner1`` in all three
formats, ``family gegenbauer`` in csv, one ``umbra`` and one ``riordan``
line in pretty and csv) were recorded while the CLI still formatted its
output from ``Fraction``s and the family basis was built by ``Polynomial``
products.  The last two ``umbra`` lines (the rescaled ``revert`` at order
48; ``bell``, ``exp``, ``log``, ``compose`` and ``gf`` at order 32) were
recorded while ``umbra`` and ``series`` still each wrote their own n! lift
and ``power`` still scaled by n!^2.  The ``verify all`` line at order 12 was
recorded while each suite still collected its own results, before the
suites streamed their checks to ``run_suite``.  A change that alters one of these
outputs on purpose says so and records the new digest."""

import argparse
import hashlib
import os
import subprocess
import sys

import pytest

import umbral
from umbral import cli

GOLDEN = {
    "verify all --order 6 --seed 42": "c64fc8b1c8eca8d66b408cdf0d1fec79da915dc80dbc3dad383f618386d86e98",
    "verify all --order 6 --seed 42 --format json": "69ecfc2cf3bf9c4cb13900ab6c15925ed2ac5349c187e1b1069a30326d0fd890",
    "verify all --order 12 --seed 42": "416d75779d8a825de2d7ba242b988d06eea12a5e4812254d3e78c141f415686c",
    "verify abel --order 12 --seed 42": "e2892a13f5bcbf33104af23ea1e05799f9b81371ff7dd65fa513e0c64488b17f",
    "verify abel --order 12 --seed 42 --format json": (
        "127ff0ce3c436e307b7c711be87eac6bda41fa4c3cf738e88115977ca9e1ad9c"
    ),
    "verify sheffer --order 12 --seed 42": "3b7e1d170b0ba40ef2eae229916d0764638d25c0e256410e47cb3c282b11f1b5",
    "verify sheffer --order 12 --seed 42 --format json": (
        "99dc2d684fed68102fe9e624d8a840e4d8c97ff54bcf743cc862f5fa51d6a293"
    ),
    "family chebyshev-u --nmax 6": "934901d1efc32b5bdc3e901b9cc6c5ab0c96451dde035cf57a4b24a8788c88a5",
    "family gegenbauer --nmax 6": "b909cd267a14841bd9ed956ddaba7f6a9db205b1b986037ab5c79ce80d285b25",
    "family meixner1 --nmax 6": "c3fcb1aad3d374cf7b13ed89005f6401da0966a8ef645b527667694935c85a0f",
    "family mittag-leffler --nmax 6": "3fc4d75cdeb831d515cff1f829198aa2327753da569576ee70c6576636911fe5",
    "family pidduck --nmax 6": "ec5fb83151d20be036d89893909bd8bea5f86972153b8d6659a73462de80b02a",
    "family chebyshev-u --nmax 40 --format json": (
        "5affea3d1da80a8a03eb8647b00f4fd337824901d592f730bda79bac65bf8a65"
    ),
    "family gegenbauer --nmax 40 --format json": (
        "aefe64208c550fbaf515c6b86771b56439d2a319c89d289f2f68648f4bdf8140"
    ),
    "family meixner1 --nmax 40 --format json": (
        "0f12f84f488ff93391ff47747b25147b09a43fb23951afde37102e0dc9d5d5ee"
    ),
    "family mittag-leffler --nmax 40 --format json": (
        "b71ab22d2f186460e7fe7ca9f53af75c19c28eda5ac56fa1465ab6b737cae6db"
    ),
    "family pidduck --nmax 40 --format json": (
        "18f98ac239380d480338b550c2a15da8882230f7e8fd4d445d5fcafb5c57d38e"
    ),
    "sheffer egf(1,1/2,-1/3) dotscalar(1/2,bell) --order 24": (
        "335b1c7081d17250ea88c69bf00e55c04f9982f2851a43dfd705f8e0de57d1fc"
    ),
    "riordan ubar bell --order 6 inverse": "ada85f3b5bef67f210def59f49fb18e9a3da600c202129a5093e5c5f13dc3efe",
    "sheffer chi bell --order 6": "16030cc5be8aecf744bd244b0e9fb038c32a0f39c555651d17deec66b9e753d6",
    "riordan egf(1,1/2,-1/3) dotscalar(1/2,bell) --order 12 --flavor ordinary": (
        "08872e94a75a6434186e058587b6b149200de5f9a4711f1491a3e356d3707a6a"
    ),
    "riordan bell dotscalar(1/3,chi) --order 14 multiply ubar egf(1,-1/2,2/5)": (
        "dfe582390dc836cc593e63edea1d1a82397786a06d859762e1be41c495d5c972"
    ),
    "riordan chi egf(1,2/3) --order 12 --flavor ordinary multiply dotscalar(1/2,bell) ubar": (
        "a1335e3f87708ab4941fda658e5dff7c82b82b2dd32ce887626cdedad84e69cf"
    ),
    "riordan egf(1,1/2,1/3) bell --order 16 apply dotscalar(-1/2,ubar)": (
        "3be7e14bfa4dd01aaeec1d9d1f696140d2ea4eae4c2299dcf066f0e79474181d"
    ),
    "riordan ubar egf(1,1/3,-2/7) --order 13 --format csv": (
        "5bb38eb8be4098bb7726026d5db37b50fbdf3bdb8893a8880d6c53edab4b7b25"
    ),
    "riordan egf(1,1/2,-2/3) dotscalar(1/2,ubar) --order 12 --format json inverse": (
        "ea2b0ad113643f9c18d73a22d48941f378dc8dd0f6115835c1440442b21b1d84"
    ),
    "umbra k(add(bell,chi),dotscalar(1/2,inv(ubar))) --order 8": (
        "6b8dd800dcc9bf007f42a2cb882d7cfd52eba037d692bb2fb0f849f7f44b60a3"
    ),
    "umbra inv(egf(1,2,-1/3,5/2,0,7)) --order 32 --format json": (
        "5fd42cfb9ec4c4a6c2e1d3a9fd400619b76558c4f6b8307d93a393b34963e5d7"
    ),
    "umbra k(dot(egf(1,1,-1/2,2),bell),inv(egf(1,-2,1/3,0,5))) --order 32 --format json": (
        "cf91a59927ff5830a878e9db85dd4fa977acedc6856a729c61104861e3d73ed7"
    ),
    "family meixner1 --b 1/2 --c 3 --nmax 32": "a5f17adcf9dd756bc6143262f09a5df4b9f8ee09325ccc42e61f634eba6f4673",
    "family meixner1 --b 1/2 --c 3 --nmax 32 --format csv": (
        "e47a551656c2b3bde78e72690912965044c4da2b0ab8d013e7c93fc33a1051c4"
    ),
    "family meixner1 --b 1/2 --c 3 --nmax 32 --format json": (
        "e73ab07242de11771ce00bbb163ed1993a9f1a8e9f2cf5dde3992484f2767ec8"
    ),
    "family gegenbauer --lam 3/2 --nmax 32 --format csv": (
        "7281f17e2240709dd76e87eb6deef0db3f6c4b4746f5ffb0d305b24c3bc967f4"
    ),
    "umbra k(egf(1,1/2,-1/3),inv(egf(1,3/2,2))) --order 32": (
        "7ce4e8febaed7248f5731cc3603229f6051b63ba612e68310674da79f80f5150"
    ),
    "umbra k(egf(1,1/2,-1/3),inv(egf(1,3/2,2))) --order 32 --format csv": (
        "9c4fc6b462c50735326925ebeb094d9d9c251041b0186da889ca3a107b154481"
    ),
    "riordan egf(1,1/2,-1/3) dotscalar(-3/2,ubar) --order 32": (
        "ffecd41797324c34483e4422be6f1d5b0ac81db418c8ba05f15dd7062311e2d6"
    ),
    "riordan egf(1,1/2,-1/3) dotscalar(-3/2,ubar) --order 32 --format csv": (
        "379f8c7586a55e91e7a3bfc01cab1dd1dacd8243340fbabc385d48e4d9fa4b84"
    ),
    "umbra inv(inv(dotscalar(3,ubar))) --order 48 --format csv": (
        "f4acb7bf08722e7f550db384a4e00e864df315b99e2edb5878d3b479f498295e"
    ),
    "umbra dot(bell,egf(1,1/2,-1/3)) --order 32 --format json": (
        "1bc46633009ed1208f2d2de8dbd6c5e245a876f768405af62edeb6cf545db78a"
    ),
}


@pytest.mark.parametrize("command", GOLDEN)
def test_output_is_byte_identical(command, capsys):
    assert cli.main(command.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


# a usage error (exit 2, from the top parser and from a subparser), a domain
# error (exit 3) and a riordan action written after an option
INTERLEAVED = {
    "riordan chi chi --order 3 --bogus": cli.EXIT_PARSE,
    "family nosuch --nmax 3": cli.EXIT_PARSE,
    "umbra inv(eps) --order 3": cli.EXIT_PRECONDITION,
    "riordan ubar bell --order 3 inverse": cli.EXIT_OK,
}


def _run(command, capsys):
    try:
        code = cli.main(command.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    extras = list(INTERLEAVED)
    script = [line for i, command in enumerate(GOLDEN) for line in (command, extras[i % len(extras)])]
    first = [_run(command, capsys) for command in script]
    built = len(builds)
    assert built > 0
    assert [_run(command, capsys) for command in script] == first
    assert len(builds) == built
    for command, (code, out, _) in zip(script, first):
        if command in GOLDEN:
            assert code == cli.EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
        else:
            assert code == INTERLEAVED[command]


@pytest.mark.parametrize("command", ["sheffer chi bell --order 6", "riordan chi chi --order 3 --bogus"])
def test_in_process_run_matches_the_module_entry_point(command, capsys):
    src = os.path.dirname(os.path.dirname(umbral.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-m", "umbral", *command.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert _run(command, capsys) == (child.returncode, child.stdout, child.stderr)
