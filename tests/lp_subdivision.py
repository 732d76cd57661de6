"""Reference mixed subdivision: one exact LP per lattice point of the box.

Every lattice point p of the Minkowski box is located on its own: the LP
minimizes the lifting over convex combinations of the support points that
sum to p - delta, and p belongs to the shifted sum when that LP is
feasible.  Its cell is fine when the optimum is certified unique and has
2k+1 positive coordinates.  The delta and lifting draws are those of
``resultant.mixed_subdivision``, so both must give the same Subdivision.
"""

from fractions import Fraction
from itertools import product

from sdres import resultant
from sdres.errors import DegenerateLifting
from sdres.essanalysis import stage_rng
from rational_lp import solve_lp
from sdres.resultant import CellInfo, Subdivision


def locate_cell(supports, lifting, delta, point):
    """Lower-envelope cell of one lattice point via an exact LP.

    Returns None when the point lies outside the shifted Minkowski sum,
    otherwise (fine, faces).
    """
    k = len(point)
    nvars = sum(len(s.points) for s in supports)
    rows, rhs, costs = [], [], []
    for s, lifts in zip(supports, lifting):
        costs.extend(Fraction(v) for v in lifts)
    col = 0
    for s in supports:
        row = [Fraction(0)] * nvars
        for t in range(len(s.points)):
            row[col + t] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
        col += len(s.points)
    for j in range(k):
        row = [Fraction(0)] * nvars
        col = 0
        for s in supports:
            for t, b in enumerate(s.points):
                if b[j]:
                    row[col + t] = Fraction(b[j])
            col += len(s.points)
        rows.append(row)
        rhs.append(Fraction(point[j]) - delta[j])
    res = solve_lp(costs, rows, rhs)
    if res.status != "optimal":
        return None
    positive = sum(1 for v in res.x if v > 0)
    fine = res.unique_certified and positive == 2 * k + 1
    faces = []
    col = 0
    for s in supports:
        faces.append(tuple(t for t in range(len(s.points)) if res.x[col + t] > 0))
        col += len(s.points)
    return fine, tuple(faces)


def lp_subdivision(supports, seed=0, attempt=0):
    """Subdivision with every box point located by its own LP."""
    npolys = len(supports)
    k = len(supports[0].points[0])
    lo = [sum(min(b[j] for b in s.points) for s in supports) for j in range(k)]
    hi = [sum(max(b[j] for b in s.points) for s in supports) for j in range(k)]
    rng = stage_rng(seed, f"subdivision-{attempt}")
    delta = tuple(Fraction(rng.randint(1, resultant.DELTA_NUM_BOUND),
                           resultant.DELTA_DENOM) for _ in range(k))
    lifting = tuple(tuple(rng.randint(0, resultant.LIFT_BOUND) for _ in s.points)
                    for s in supports)
    points, cells, counts = [], [], [0] * npolys
    for p in product(*[range(lo[j] + 1, hi[j] + 1) for j in range(k)]):
        located = locate_cell(supports, lifting, delta, p)
        if located is None:
            continue
        fine, faces = located
        if not fine:
            raise DegenerateLifting(f"cell at {p} is not fine")
        vertices = [i for i in range(npolys) if len(faces[i]) == 1]
        if not vertices:
            raise DegenerateLifting(f"cell at {p} has no vertex summand")
        content = max(vertices)
        mixed = len(vertices) == 1
        points.append(p)
        cells.append(CellInfo(faces, content, faces[content][0], mixed))
        if mixed:
            counts[content] += 1
    return Subdivision(supports, tuple(points), tuple(cells), delta, tuple(counts))
