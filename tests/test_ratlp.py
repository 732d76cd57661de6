"""Exact simplex solver against brute-force vertex enumeration."""

import random
from fractions import Fraction
from itertools import combinations

from rational_lp import solve_lp


# ---------------------------------------------------------------------------
# independent oracle: enumerate basic feasible solutions over Fractions
# ---------------------------------------------------------------------------

def gauss_solve(square, rhs):
    """Solve a square Fraction system; None if singular."""
    n = len(square)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
           for i, row in enumerate(square)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def vertex_optima(costs, rows, rhs):
    """All optimal vertices (as x tuples) of min c.x, Ax=b, x>=0.

    Assumes A has full row rank, so every vertex is a size-m basis.
    """
    m, n = len(rows), len(costs)
    best = None
    argmin = set()
    for cols in combinations(range(n), m):
        square = [[rows[i][j] for j in cols] for i in range(m)]
        sol = gauss_solve(square, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [Fraction(0)] * n
        for j, v in zip(cols, sol):
            x[j] = v
        obj = sum(Fraction(costs[j]) * x[j] for j in range(n))
        if best is None or obj < best:
            best = obj
            argmin = {tuple(x)}
        elif obj == best:
            argmin.add(tuple(x))
    return best, argmin


def full_row_rank(rows):
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0),
                   None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col]
        work[rank] = [v / inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank == len(rows)


# ---------------------------------------------------------------------------
# hand-checked cases
# ---------------------------------------------------------------------------

def test_unique_optimum():
    # min x1 st x1 + x2 = 1
    res = solve_lp([1, 0], [[1, 1]], [1])
    assert res.status == "optimal"
    assert res.x == (0, 1)
    assert res.objective == 0
    assert res.unique_certified


def test_alternate_optima_not_certified():
    # every feasible point of x1 + x2 = 1 is optimal
    res = solve_lp([1, 1], [[1, 1]], [1])
    assert res.status == "optimal"
    assert res.objective == 1
    assert not res.unique_certified


def test_infeasible():
    res = solve_lp([0, 0], [[1, 1]], [-1])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([-1, 0], [[1, -1]], [0])
    assert res.status == "unbounded"


def test_no_constraints():
    assert solve_lp([2, 3], [], []).objective == 0
    assert solve_lp([-1, 3], [], []).status == "unbounded"


def test_fractional_data():
    # x1/3 + x2 = 1, minimize x1/2 + x2: vertices (3,0) obj 3/2, (0,1) obj 1
    res = solve_lp([Fraction(1, 2), 1], [[Fraction(1, 3), 1]], [1])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == (0, 1)


def test_redundant_constraint():
    res = solve_lp([1, 2], [[1, 1], [2, 2]], [1, 2])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == (1, 0)


def test_degenerate_vertex_terminates():
    # multiple bases describe the same vertex; Bland must not cycle
    res = solve_lp([1, 1, 1], [[1, 1, 0], [1, 0, 1]], [1, 1])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == (1, 0, 0)


def test_transport_like():
    # min 2a + 4b + c st a + b = 2, b + c = 3: vertices (2,0,3) and (0,2,1)
    res = solve_lp([2, 4, 1], [[1, 1, 0], [0, 1, 1]], [2, 3])
    assert res.status == "optimal"
    assert res.x == (2, 0, 3)
    assert res.objective == 7
    assert res.unique_certified


# ---------------------------------------------------------------------------
# randomized agreement with the vertex oracle
# ---------------------------------------------------------------------------

def test_random_bounded_instances_match_oracle():
    rng = random.Random(17)
    done = 0
    while done < 120:
        m = rng.randint(1, 3)
        n = rng.randint(m, m + 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if not full_row_rank(rows):
            continue
        x0 = [rng.randint(0, 3) for _ in range(n)]
        rhs = [sum(rows[i][j] * x0[j] for j in range(n)) for i in range(m)]
        costs = [rng.randint(0, 9) for _ in range(n)]   # c >= 0: bounded
        res = solve_lp(costs, rows, rhs)
        assert res.status == "optimal"
        best, argmin = vertex_optima(costs, rows, rhs)
        assert best is not None
        assert res.objective == best
        assert tuple(res.x) in argmin
        if res.unique_certified:
            assert argmin == {tuple(res.x)}
        done += 1


def test_random_infeasible_instances():
    rng = random.Random(23)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        rows = [[rng.randint(0, 3) for _ in range(n)]]
        if all(v == 0 for v in rows[0]):
            continue
        # nonnegative row, negative rhs: clearly infeasible
        res = solve_lp([1] * n, rows, [-1 - rng.randint(0, 5)])
        assert res.status == "infeasible"
        done += 1
