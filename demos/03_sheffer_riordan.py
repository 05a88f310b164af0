# Sheffer sequences and the Riordan group.
#
# A pair of umbrae (gamma, alpha) defines monic polynomials s_n with
# egf A(z) e^{x z B(z)}; their coefficient matrix is the exponential
# Riordan array of the pair.  Pair composition mirrors matrix products,
# so the group structure can be checked on either side.

from umbral import (
    UmbraPair,
    abel_representation,
    augmentation,
    bell,
    flavor_convert,
    ftra_apply,
    riordan_array,
    riordan_inverse,
    riordan_multiply,
    scalar_umbra,
    sheffer_sequence,
    ubar,
)

N = 6


def show(array, title):
    print(title)
    for n in range(array.order + 1):
        print("  " + "  ".join(str(array.entry(n, k)) for k in range(n + 1)))


# Pascal's triangle is the array of (unity, augmentation).
pascal_pair = UmbraPair(scalar_umbra(1, N), augmentation(N))
pascal = riordan_array(pascal_pair)
show(pascal, "Pascal (exponential array of (unity, augmentation)):")
print()

# Its group inverse comes from a pair formula, not from row reduction,
# and multiplies back to the identity.
signed = riordan_inverse(pascal)
show(signed, "inverse of Pascal (signed Pascal):")
product = riordan_multiply(pascal, signed)
print("product is the identity:", all(
    product.entry(n, k) == (1 if n == k else 0)
    for n in range(N + 1) for k in range(N + 1)
))
print()

# Applying Pascal to a moment vector: row sums double, and the Bell
# numbers shift by one place.
print("Pascal applied to the unity umbra:", [str(m) for m in ftra_apply(pascal, scalar_umbra(1, N)).moments])
print("Pascal applied to the Bell umbra :", [str(m) for m in ftra_apply(pascal, bell(N)).moments])
print("Bell numbers one step further    :", [str(m) for m in bell(N + 1).moments[1:]])
print()

# The Sheffer polynomials of (ubar, augmentation) and their Abel form.
pair = UmbraPair(ubar(N), augmentation(N))
direct = sheffer_sequence(pair)
via_abel = abel_representation(pair)
print("Sheffer polynomials of (ubar, augmentation):")
for n, p in enumerate(direct[:5]):
    print(f"  s_{n}(x) = {p.pretty()}")
print("Abel-form route agrees:", direct == via_abel)
print()

# The ordinary flavor is a diagonal rescaling; conversion respects products.
ordinary = flavor_convert(pascal)
show(ordinary, "ordinary flavor of Pascal (entries 1/(n-k)!):")
