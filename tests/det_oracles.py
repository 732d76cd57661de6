"""Independent oracles shared by the linear-algebra tests: determinants,
and ranks, pivots and first relations over Fraction."""

import itertools
from collections import namedtuple
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


class Elimination(namedtuple("Elimination", "rank pivots relation echelon")):
    @property
    def circuit(self):
        """The rows the first relation closes: its support plus its row j,
        or None for independent rows."""
        if self.relation is None:
            return None
        return tuple(i for i, c in enumerate(self.relation) if c) + (
            len(self.relation),)


def frac_gauss_rank(matrix):
    """Gaussian elimination over Fraction on number rows, one row at a time.

    Returns the rank; the pivot columns, sorted (the lexicographically
    smallest column basis); the first relation, (c_0, ..., c_(j-1)) with
    row_j == sum(c_i * row_i) for the first row j that depends on the rows
    before it, or None; and the echelon rows, each with a 1 at its pivot
    column and zeros before it, in pivot column order.
    """
    basis = {}  # pivot column -> (echelon row, its combination of the input)
    relation = None
    for j, row in enumerate(matrix):
        v = [Fraction(x) for x in row]
        combo = {j: Fraction(1)}
        for col in range(len(v)):
            if v[col] and col in basis:
                b, b_combo = basis[col]
                f = v[col]
                v = [x - f * y for x, y in zip(v, b)]
                for i, c in b_combo.items():
                    combo[i] = combo.get(i, 0) - f * c
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            basis[lead] = ([x / v[lead] for x in v],
                           {i: c / v[lead] for i, c in combo.items()})
        elif relation is None:
            relation = tuple(-combo.get(i, 0) for i in range(j))
    pivots = tuple(sorted(basis))
    return Elimination(len(pivots), pivots, relation,
                       [basis[c][0] for c in pivots])
