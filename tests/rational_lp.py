"""Exact linear programming over the rationals.

Small dense LPs in standard form (minimize c.x subject to A x = b, x >= 0)
solved by two-phase primal simplex with Bland's anticycling rule.  Every
number is a Fraction, so feasibility, optimality and uniqueness answers are
exact; the per-point reference subdivision (``lp_subdivision``) locates
each lattice point with one of these LPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: tuple = ()
    objective: Fraction | None = None
    basis: tuple = ()                 # original columns basic at the optimum
    unique_certified: bool = False    # nonbasic reduced costs all positive


def _pivot(tab, basis, row, col):
    prow = tab[row]
    piv = prow[col]
    if piv != 1:
        prow = [v / piv for v in prow]
        tab[row] = prow
    for i, line in enumerate(tab):
        if i == row:
            continue
        f = line[col]
        if f:
            tab[i] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _run_simplex(tab, basis, nrows, ncols):
    """Bland's rule: smallest eligible entering column, smallest basic index
    among the minimum-ratio rows.  Terminates without cycling."""
    zrow = tab[nrows]
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
        zrow = tab[nrows]


def solve_lp(costs, rows, rhs):
    """Minimize costs . x subject to rows x == rhs, x >= 0.

    Inputs may be ints or Fractions.  The result carries the exact primal
    solution, objective, the basic original columns, and a uniqueness
    certificate (True when every nonbasic reduced cost is strictly positive,
    which pins the optimal solution to a single vertex).
    """
    n = len(costs)
    m = len(rows)
    c = [Fraction(v) for v in costs]
    a = []
    b = []
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("constraint row length mismatch")
        row = [Fraction(v) for v in rows[i]]
        bi = Fraction(rhs[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        a.append(row)
        b.append(bi)

    # phase 1: artificial basis, minimize the artificial total
    ncols = n + m
    tab = []
    for i in range(m):
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(a[i] + art + [b[i]])
    zrow = [_ZERO] * (ncols + 1)
    for j in range(n):
        zrow[j] = -sum((tab[i][j] for i in range(m)), _ZERO)
    zrow[-1] = -sum(b, _ZERO)
    tab.append(zrow)
    basis = list(range(n, n + m))
    _run_simplex(tab, basis, m, ncols)   # bounded below by 0, never "unbounded"
    if tab[m][-1] != 0:
        return LPResult(status="infeasible")

    # drive leftover artificials out; rows that resist are redundant
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    _pivot(tab, basis, i, j)
                    break

    # phase 2: true objective, entering restricted to original columns
    zrow = c + [_ZERO] * m + [_ZERO]
    for i in range(m):
        f = zrow[basis[i]]
        if f:
            zrow = [v - f * w for v, w in zip(zrow, tab[i])]
    tab[m] = zrow
    status = _run_simplex(tab, basis, m, n)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    in_basis = set(basis)
    zrow = tab[m]
    unique = all(zrow[j] > 0 for j in range(n) if j not in in_basis)
    return LPResult(status="optimal", x=tuple(x), objective=-zrow[-1],
                    basis=tuple(sorted(j for j in basis if j < n)),
                    unique_certified=unique)
