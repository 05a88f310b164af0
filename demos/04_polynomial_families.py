# The master polynomial and its five classical specializations.
#
# P_n(x, y; q, t) = n! sum_k binomial(n-k+t+kq-1, n-k) binomial(y, k) x^k
# has egf (1-z)^(-t) (1 + xz/(1-z)^q)^y.  Substituting the right slots
# produces Tchebychev II, Gegenbauer, Meixner I, Mittag-Leffler, and
# Pidduck polynomials; each is cross-checked against its own generating
# function expanded independently.

from fractions import Fraction

from umbral import chebyshev_u, gegenbauer, gf_oracle, meixner1, mittag_leffler, pidduck
from umbral.families import family_table

N = 6

print("Tchebychev II (slots (-2x+2, -1; 2, 2)):")
for n in range(N + 1):
    p = chebyshev_u(n)
    assert p == gf_oracle("chebyshev-u", n)
    print(f"  U_{n}(x) = {p.pretty()}")
print()

lam = Fraction(3, 2)
print(f"Gegenbauer with parameter {lam} (slots (-2x+2, -{lam}; 2, {2*lam})):")
for n in range(5):
    p = gegenbauer(n, lam)
    assert p == gf_oracle("gegenbauer", n, lam=lam)
    print(f"  C_{n}(x) = {p.pretty()}")
print("parameter 1 reduces to Tchebychev II:", all(
    gegenbauer(n, 1) == chebyshev_u(n) for n in range(N + 1)
))
print()

b, c = Fraction(1), Fraction(2)
print(f"Meixner I with b={b}, c={c} (slots ((c-1)/c, x; 1, b)):")
for n in range(5):
    p = meixner1(n, b, c)
    assert p == gf_oracle("meixner1", n, b=b, c=c)
    print(f"  m_{n}(x) = {p.pretty()}")
print()

print("Mittag-Leffler (slots (2, x; 1, 0)) and Pidduck (slots (2, x; 1, 1)):")
for n in range(5):
    m = mittag_leffler(n)
    p = pidduck(n)
    assert m == gf_oracle("mittag-leffler", n)
    assert p == gf_oracle("pidduck", n)
    print(f"  M_{n}(x) = {m.pretty():24s}   P_{n}(x) = {p.pretty()}")
print()

# These two families live naturally in the binomial basis binomial(x, k).
print("Pidduck in the binomial basis (coefficients of binomial(x,k)):")
for n, row in enumerate(family_table("pidduck", 4)[1]):
    print(f"  n={n}: " + ", ".join(str(v) for v in row))
