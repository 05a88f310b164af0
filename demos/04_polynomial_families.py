# The master polynomial and its five classical specializations.
#
# P_n(x, y; q, t) = n! sum_k binomial(n-k+t+kq-1, n-k) binomial(y, k) x^k
# has egf (1-z)^(-t) (1 + xz/(1-z)^q)^y.  Substituting the right slots
# produces Tchebychev II, Gegenbauer, Meixner I, Mittag-Leffler, and
# Pidduck polynomials; each is cross-checked against its own generating
# function expanded independently.

from fractions import Fraction

from umbral import chebyshev_u, gegenbauer, gf_oracle, gf_rows, meixner1, mittag_leffler, pidduck
from umbral.families import family_table
from umbral.rationals import format_numerators

N = 6

# Each family's rows come from one table; its generating function is expanded
# once and every row read off it.  The named functions give a single row.
print("Tchebychev II (slots (-2x+2, -1; 2, 2)):")
chebyshev = family_table("chebyshev-u", N)[0]
assert chebyshev == gf_rows("chebyshev-u", N)
assert chebyshev_u(N) == gf_oracle("chebyshev-u", N)
for n, p in enumerate(chebyshev):
    print(f"  U_{n}(x) = {p.pretty()}")
print()

lam = Fraction(3, 2)
print(f"Gegenbauer with parameter {lam} (slots (-2x+2, -{lam}; 2, {2*lam})):")
rows = family_table("gegenbauer", 4, lam=lam)[0]
assert rows == gf_rows("gegenbauer", 4, lam=lam)
assert gegenbauer(4, lam) == gf_oracle("gegenbauer", 4, lam=lam)
for n, p in enumerate(rows):
    print(f"  C_{n}(x) = {p.pretty()}")
print("parameter 1 reduces to Tchebychev II:", family_table("gegenbauer", N, lam=1)[0] == chebyshev)
print()

b, c = Fraction(1), Fraction(2)
print(f"Meixner I with b={b}, c={c} (slots ((c-1)/c, x; 1, b)):")
rows = family_table("meixner1", 4, b=b, c=c)[0]
assert rows == gf_rows("meixner1", 4, b=b, c=c)
assert meixner1(4, b, c) == gf_oracle("meixner1", 4, b=b, c=c)
for n, p in enumerate(rows):
    print(f"  m_{n}(x) = {p.pretty()}")
print()

print("Mittag-Leffler (slots (2, x; 1, 0)) and Pidduck (slots (2, x; 1, 1)):")
ml_rows, pidduck_rows = family_table("mittag-leffler", 4)[0], family_table("pidduck", 4)[0]
assert ml_rows == gf_rows("mittag-leffler", 4) and pidduck_rows == gf_rows("pidduck", 4)
assert mittag_leffler(4) == gf_oracle("mittag-leffler", 4) and pidduck(4) == gf_oracle("pidduck", 4)
for n, (m, p) in enumerate(zip(ml_rows, pidduck_rows)):
    print(f"  M_{n}(x) = {m.pretty():24s}   P_{n}(x) = {p.pretty()}")
print()

# These two families live naturally in the binomial basis binomial(x, k).
print("Pidduck in the binomial basis (coefficients of binomial(x,k)):")
for n, (numerators, denominator) in enumerate(family_table("pidduck", 4)[1]):
    print(f"  n={n}: " + ", ".join(format_numerators(numerators, denominator)))
