"""The plain box scan for the lattice points of one cell.

``resultant._cell_points`` drops the rows of one-point faces and tests
each remaining barycentric row over the whole box before it builds the
scan.  This module scans every row of adj(B) over the box, with no
separate root test.  Both must return the same points, or raise
DegenerateLifting with the same message, on every cell.
"""

from sdres.errors import DegenerateLifting
from sdres.resultant import DELTA_DENOM


def cell_points(supports, faces, tab, scale, nums):
    """Lattice points p of one cell, in lexicographic order, from their
    barycentric coordinates lambda * scale * S = adj(B) (S * 1, S * p - nums)
    with S = DELTA_DENOM.  The scan runs over the cell's bounding box shifted
    by delta, one coordinate at a time, and drops a prefix once some lambda
    stays negative over the rest of the box.  A point on a wall (some lambda
    zero) raises DegenerateLifting."""
    npolys, k = len(supports), len(nums)
    adj = [row[len(row) - npolys - k:] for row in tab[:-1]]
    sign = 1 if scale > 0 else -1
    base = [sign * (DELTA_DENOM * sum(row[:npolys])
                    - sum(v * d for v, d in zip(row[npolys:], nums)))
            for row in adj]
    slopes = [[sign * DELTA_DENOM * row[npolys + j] for row in adj]
              for j in range(k)]
    ranges = []
    for j in range(k):
        coords = [[supports[i].points[t][j] for t in face]
                  for i, face in enumerate(faces)]
        ranges.append(range(sum(map(min, coords)) + 1,
                            sum(map(max, coords)) + 1))
    reach = [[0] * len(adj)]      # largest rest of lambda over coordinates j..
    for slope, xs in zip(reversed(slopes), reversed(ranges)):
        reach.append([r + max(s * xs[0], s * xs[-1])
                      for r, s in zip(reach[-1], slope)])
    reach.reverse()
    inside = []

    def scan(j, lam, prefix):
        if any(v + r < 0 for v, r in zip(lam, reach[j])):
            return
        if j == k:
            if min(lam) == 0:
                raise DegenerateLifting(f"cell at {prefix} is not fine")
            inside.append(prefix)
            return
        for x in ranges[j]:
            scan(j + 1, [v + s * x for v, s in zip(lam, slopes[j])],
                 prefix + (x,))

    scan(0, base, ())
    return inside
