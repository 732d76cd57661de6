"""Independent determinant oracles shared by the determinant tests."""

import itertools
from fractions import Fraction

from sdres.multipoly import MultiPoly


def frac_gauss_det(matrix):
    """Plain Gaussian elimination over Fraction, for number matrices."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        sel = next((r for r in range(k, n) if m[r][k] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != k:
            m[k], m[sel] = m[sel], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    return det


def leibniz_det(matrix):
    """Sum over all permutations of the signed products, for MultiPoly
    matrices; n! terms, so only for small n."""
    n = len(matrix)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = MultiPoly.const(-1 if inversions & 1 else 1)
        for r, c in enumerate(perm):
            term = term * matrix[r][c]
        total = total + term
    return total
