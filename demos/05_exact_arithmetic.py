# The symbolic substrate: sparse multivariate polynomials with exact integer
# coefficients, a memoized cofactor-expansion determinant, and exact division.

from sdres import MultiPoly, determinant

a, b, c, d = (MultiPoly.symbol(i) for i in range(4))

# build (a + 2b)(c - d) and recover the factors by exact division
product = (a + MultiPoly.const(2) * b) * (c - d)
print("product:", product)
print("divide back:", product.exact_div(c - d) == a + MultiPoly.const(2) * b)

# minor expansion along rows, each minor computed once
matrix = [
    [a, b, MultiPoly.zero()],
    [c, d, a],
    [MultiPoly.zero(), b, c],
]
det = determinant(matrix)
print("determinant:", det)
print("matches a(dc - ab) - b(c^2):", det == a * (d * c - a * b) - b * c * c)

# evaluation is exact over arbitrary precision integers
values = {0: 10**20, 1: -3, 2: 7, 3: 2**64}
print("evaluated:", det.evaluate(values))
