"""Newton-matrix resultant of a lattice-form (z-coordinate) system.

The pipeline hands this module k+1 linear-in-z polynomials whose supports
jointly span Z^k.  Every such system, univariate pairs and k = 0 included,
takes one construction: the quotient of two exact determinants, the full
Newton matrix indexed by the lattice points of the perturbed Minkowski sum
of the supports over its principal minor on the non-mixed points (D'Andrea
2002).  All geometry runs over exact rationals; every cell of the lifted
subdivision is located by a small linear program.  The classical Sylvester
determinant stays as a reference for univariate pairs.
"""

import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import (
    DegenerateLifting,
    InternalError,
    NotDivisible,
    RetriesExhausted,
    ZeroDenominator,
)
from .essanalysis import stage_rng
from .multipoly import MultiPoly, SymbolTable, determinant, rank_and_pivots
from .ratlp import solve_lp

LIFT_BOUND = 1 << 20
DELTA_DENOM = 1 << 20
DELTA_NUM_BOUND = 1 << 16
MAX_RETRIES = 8
MAX_BOX_POINTS = 1 << 20  # lattice points scanned, one exact LP each


class SupportSet(NamedTuple):
    """Support of one polynomial: lattice points plus merged coefficients."""

    index: int
    points: tuple
    coeffs: tuple


class CellInfo(NamedTuple):
    """Fine lower-envelope cell located at one lattice point."""

    faces: tuple          # per polynomial: indices into its support points
    content_index: int    # distinguished polynomial of the row
    content_point: int    # index of its vertex summand
    mixed: bool


class Subdivision(NamedTuple):
    supports: tuple
    points: tuple         # sorted lattice points of the shifted sum
    cells: tuple          # CellInfo per point
    delta: tuple
    mixed_counts: tuple


class NewtonMatrixPair(NamedTuple):
    m1: tuple             # rows of MultiPoly entries
    row_tags: tuple       # (content index, lattice point, monomial shift)
    points: tuple         # column labels = lattice points
    minor_rows: tuple     # indices of the non-mixed rows/columns


class ResultantResult(NamedTuple):
    polynomial: MultiPoly
    symbols: SymbolTable  # id -> CoeffRef
    m1_dim: int
    m2_dim: int
    mixed_counts: tuple
    attempts: int
    delta: tuple = ()     # perturbation of the subdivision


def coefficient_table(zpolys):
    """Deterministic symbol table: ids follow sorted coefficient refs."""
    table = SymbolTable()
    for ref in sorted({ref for poly in zpolys for ref, _ in poly}):
        table.id_for(ref)
    return table


def extract_supports(zpolys, table=None):
    """SupportSets with collision-merged MultiPoly coefficients.

    Terms of one polynomial that land on the same lattice point (possible
    after specialization) are summed into a single coefficient.
    """
    if table is None:
        table = coefficient_table(zpolys)
    sets = []
    for i, terms in enumerate(zpolys):
        merged = {}
        for ref, point in terms:
            pt = tuple(int(v) for v in point)
            cur = merged.get(pt, MultiPoly.zero())
            merged[pt] = cur + MultiPoly.symbol(table.id_for(ref))
        pts = tuple(sorted(merged))
        if len(pts) < 1:
            raise InternalError(f"polynomial {i} has an empty support")
        zero = tuple([0] * (len(pts[0]) if pts else 0))
        if pts and zero not in merged:
            raise InternalError(f"support of polynomial {i} lost its origin")
        sets.append(SupportSet(i, pts, tuple(merged[p] for p in pts)))
    return tuple(sets), table


def _locate_cell(supports, lifting, delta, point):
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


def mixed_subdivision(supports, seed=0, attempt=0):
    """Fine mixed subdivision data for every lattice point of the shifted sum.

    The perturbation is a strictly positive random rational vector; with
    supports anchored at the origin this keeps the point set minimal and
    independent of the draw, while the lifting decides the cells.  Both are
    drawn once per ``attempt``; a degenerate draw raises DegenerateLifting.
    A box of more than MAX_BOX_POINTS lattice points raises InternalError
    before the first LP.
    """
    npolys = len(supports)
    k = len(supports[0].points[0])
    if npolys != k + 1:
        raise InternalError(f"need {k + 1} supports in {k} variables, got {npolys}")
    lo = [sum(min(b[j] for b in s.points) for s in supports) for j in range(k)]
    hi = [sum(max(b[j] for b in s.points) for s in supports) for j in range(k)]
    box = math.prod(h - l for l, h in zip(lo, hi))
    if box > MAX_BOX_POINTS:
        raise InternalError(f"budget: the Minkowski box has {box} lattice "
                            f"points, more than {MAX_BOX_POINTS}")
    rng = stage_rng(seed, f"subdivision-{attempt}")
    delta = tuple(
        Fraction(rng.randint(1, DELTA_NUM_BOUND), DELTA_DENOM) for _ in range(k))
    lifting = tuple(
        tuple(rng.randint(0, LIFT_BOUND) for _ in s.points) for s in supports)
    points, cells, counts = [], [], [0] * npolys
    for p in product(*[range(lo[j] + 1, hi[j] + 1) for j in range(k)]):
        located = _locate_cell(supports, lifting, delta, p)
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


def build_matrices(subdiv):
    """Newton matrix and its non-mixed principal minor."""
    supports = subdiv.supports
    k = len(subdiv.points[0]) if subdiv.points else 0
    index = {p: c for c, p in enumerate(subdiv.points)}
    dim = len(subdiv.points)
    m1, tags, minor_rows = [], [], []
    for r, (p, cell) in enumerate(zip(subdiv.points, subdiv.cells)):
        s = supports[cell.content_index]
        a = s.points[cell.content_point]
        shift = tuple(p[j] - a[j] for j in range(k))
        row = [MultiPoly.zero()] * dim
        for b, coeff in zip(s.points, s.coeffs):
            q = tuple(shift[j] + b[j] for j in range(k))
            c = index.get(q)
            if c is None:
                raise InternalError(
                    f"column {q} of row {p} left the lattice point set")
            row[c] = coeff
        m1.append(tuple(row))
        tags.append((cell.content_index, p, shift))
        if not cell.mixed:
            minor_rows.append(r)
    return NewtonMatrixPair(tuple(m1), tuple(tags), subdiv.points,
                            tuple(minor_rows))


def _minor_nonzero_check(pair, seed, attempt):
    """Vanishing precheck of the denominator minor by random evaluation."""
    rows = pair.minor_rows
    if not rows:
        return True
    rng = stage_rng(seed, f"minor-check-{attempt}")
    for _ in range(2):
        values = {}
        numeric = []
        for r in rows:
            line = []
            for c in rows:
                entry = pair.m1[r][c]
                for sid in entry.symbols():
                    if sid not in values:
                        values[sid] = rng.randint(1, 1 << 31)
                line.append(int(entry.evaluate(values)))
            numeric.append(line)
        if rank_and_pivots(numeric)[0] == len(rows):
            return True
    return False


def quotient_resultant(pair):
    """Exact determinant quotient, primitive and sign-normalized."""
    det1 = determinant([list(r) for r in pair.m1])
    if pair.minor_rows:
        minor = [[pair.m1[r][c] for c in pair.minor_rows] for r in pair.minor_rows]
        det2 = determinant(minor)
        if det2.is_zero():
            raise ZeroDenominator("non-mixed minor vanished symbolically")
        quotient = det1.exact_div(det2)
    else:
        quotient = det1
    if quotient.is_zero():
        raise ZeroDenominator("determinant quotient vanished")
    return quotient.primitive().sign_normalized()


def sylvester_resultant(supports):
    """Classical Sylvester determinant for two univariate supports, each
    shifted by its lowest exponent (Laurent supports): the reference that
    univariate Newton quotients are tested against."""
    if len(supports) != 2:
        raise InternalError("a Sylvester matrix needs exactly two polynomials")
    degs = []
    dense = []
    for s in supports:
        low = min(p[0] for p in s.points)
        d = max(p[0] for p in s.points) - low
        if d < 1:
            raise InternalError("a Sylvester matrix needs positive degrees")
        row = [MultiPoly.zero()] * (d + 1)
        for p, coeff in zip(s.points, s.coeffs):
            row[p[0] - low] = coeff
        degs.append(d)
        dense.append(row)
    d0, d1 = degs
    size = d0 + d1
    rows = []
    for shift in range(d1):
        row = [MultiPoly.zero()] * size
        for m, coeff in enumerate(dense[0]):
            row[shift + m] = coeff
        rows.append(row)
    for shift in range(d0):
        row = [MultiPoly.zero()] * size
        for m, coeff in enumerate(dense[1]):
            row[shift + m] = coeff
        rows.append(row)
    det = determinant(rows)
    return det.primitive().sign_normalized(), size


def compute_resultant(zpolys, seed=0, max_retries=MAX_RETRIES):
    """Resultant of the lattice-form system.  Attempt a draws the lifting
    ``subdivision-{a}`` and the minor check ``minor-check-{a}`` from the
    one seed; max_retries bounds the attempts of every kind together."""
    supports, table = extract_supports(zpolys)
    last_error = None
    for attempt in range(max_retries):
        try:
            subdiv = mixed_subdivision(supports, seed, attempt)
            pair = build_matrices(subdiv)
            if not _minor_nonzero_check(pair, seed, attempt):
                raise DegenerateLifting("non-mixed minor evaluated to zero")
            poly = quotient_resultant(pair)
            return ResultantResult(
                poly, table, len(pair.m1), len(pair.minor_rows),
                subdiv.mixed_counts, attempt + 1, subdiv.delta)
        except (DegenerateLifting, NotDivisible, ZeroDenominator) as exc:
            last_error = exc
    raise RetriesExhausted(
        f"resultant failed after {max_retries} attempts: {last_error}")
