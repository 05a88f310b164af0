"""Exact umbral calculus over arbitrary-precision rationals.

Umbrae are finite moment sequences in bijection with truncated generating
functions; on top of them sit the dot-operation algebra, Abel polynomials
and the evaluation functional, Lagrange inversion, Sheffer sequences, the
exponential Riordan group, and explicit expansions of the Tchebychev II,
Gegenbauer, Meixner I, Mittag-Leffler, and Pidduck families.  Everything
is exact; every identity the package relies on is also re-derivable
through an independent route and checked that way (see
:mod:`umbral.verify` and the ``umbral verify`` command).
"""

from .rationals import binomial, falling_factorial, format_rational, parse_rational
from .polynomials import Polynomial, binomial_poly, falling_factorial_poly
from .series import TruncatedSeries, compose, exp, log, multiply, power, revert
from .umbra import (
    Umbra,
    add,
    augmentation,
    bell,
    composition_umbra,
    composition_umbra_series,
    derivative_umbra,
    dot,
    dot_scalar,
    from_series,
    gf,
    inverse_umbra,
    k_umbra,
    k_umbra_series,
    scalar_umbra,
    singleton,
    ubar,
)
from .symbolic import (
    UmbralPolynomial,
    UmbralSymbol,
    X,
    Y,
    abel,
    abel_expression,
    atom,
    constant,
    evaluate,
    formal_derivative,
)
from .sheffer import (
    RiordanArray,
    ShefferSequence,
    UmbraPair,
    abel_representation,
    flavor_convert,
    ftra_apply,
    identity_pair,
    riordan_array,
    riordan_entries_series,
    riordan_inverse,
    riordan_multiply,
    sheffer_sequence,
    sheffer_sequence_series,
    umbral_compose,
)
from .families import (
    MasterParams,
    binomial_basis_row,
    chebyshev_u,
    gegenbauer,
    gf_oracle,
    master_gf_polynomial,
    master_polynomial,
    meixner1,
    mittag_leffler,
    pidduck,
)

__version__ = "0.1.0"
