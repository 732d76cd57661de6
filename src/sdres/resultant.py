"""Sparse resultant of a lattice-form (z-coordinate) system.

The pipeline hands this module k+1 linear-in-z polynomials whose supports
jointly span Z^k.  A system of binomials, every support {0, v_i}, takes a
closed form from the one integer relation among the v_i, whatever the size
of its exponents.  Every other system, univariate pairs and k = 0
included, takes the quotient of two exact determinants, the full Newton
matrix indexed by the lattice points of the perturbed Minkowski sum
of the supports over its principal minor on the non-mixed points (D'Andrea
2002).  All geometry is exact: an integer primal simplex from the pivot
basis of the lifted Cayley embedding finds a first cell of the lifted
subdivision, an integer walk on the same tableau visits the others, and
each lattice point is placed in its cell by its barycentric coordinates.
Pairs of at most LAPLACE_MAX_DIM rows divide two Laplace expansions.  A
larger pair's one evaluator asks each point for det M1 / det M2, or
whether det M2 vanished: each determinant is a sparse elimination recorded
at its first nonzero point and replayed at every later one.  With a
nonempty minor the pair first passes one check, that the ratio is a
polynomial on a random line.  The quotient is interpolated from the
replays modulo a prime p with 2^k dividing p - 1, each term read back
from a discrete log to an omega of order 2^k, the coefficients combined
by CRT over further such primes, and certified at random points modulo
the seed's prime.  The classical Sylvester determinant stays as a
reference for univariate pairs.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DegenerateLifting,
    InternalError,
    NotDivisible,
    RetriesExhausted,
    ZeroDenominator,
)
from .essanalysis import rank_prime, stage_rng
from .multipoly import (
    MultiPoly,
    SymbolTable,
    determinant,
    eliminate,
    permutation_sign,
)
from .sparseinterp import (
    LinearGenerator,
    crt,
    discrete_log,
    roots_mod,
    transposed_vandermonde,
    two_adic_field,
)

LIFT_BOUND = 1 << 20
DELTA_DENOM = 1 << 20
DELTA_NUM_BOUND = 1 << 16
MAX_RETRIES = 8
MAX_BOX_POINTS = 1 << 20  # lattice points in the Minkowski box
LAPLACE_MAX_DIM = 16      # larger Newton pairs are interpolated
CERTIFICATE_ROUNDS = 3
MAX_SCALINGS = 8          # draws of a scaling, line or certificate point
                          # before det M2 counts as zero


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


@dataclass(frozen=True)
class NewtonMatrixPair:
    m1: tuple             # MultiPoly rows; column c is row c's point
    row_tags: tuple       # (content index, lattice point, monomial shift)
    minor_rows: tuple     # indices of the non-mixed rows/columns

    @cached_property
    def evaluator(self):
        """The one ``_Evaluator`` that every check and point of the pair
        calls, so each determinant is recorded once for all."""
        return _Evaluator(self)


class ResultantResult(NamedTuple):
    polynomial: MultiPoly
    symbols: SymbolTable  # id -> CoeffRef
    m1_dim: int
    m2_dim: int
    mixed_counts: tuple
    attempts: int
    delta: tuple = ()     # perturbation of the subdivision


def extract_supports(zpolys):
    """SupportSets with collision-merged MultiPoly coefficients, and the
    symbol table whose ids follow the sorted coefficient refs.

    Terms of one polynomial that land on the same lattice point (possible
    after specialization) are summed into a single coefficient.
    """
    table = SymbolTable()
    for ref in sorted({ref for poly in zpolys for ref, _ in poly}):
        table.id_for(ref)
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
        if (0,) * len(pts[0]) not in merged:
            raise InternalError(f"support of polynomial {i} lost its origin")
        sets.append(SupportSet(i, pts, tuple(merged[p] for p in pts)))
    return tuple(sets), table


def _is_fine(tab, scale, basis):
    """Every nonbasic reduced cost is positive: no other lifted point lies
    on the lower facet of the basis."""
    basic = set(basis)
    return all(h * scale > 0 for c, h in enumerate(tab[-1][:-len(basis)])
               if c not in basic)


def _entering(tab, scale, r, ncols):
    """Dual ratio test leaving position r: the column w with
    beta_w[r] = tab[r][w] / scale < 0 that minimizes h(w) / -beta_w[r], so
    the pivot keeps every reduced cost nonnegative; None when no column has
    beta_w[r] < 0 (the wall bounds the Minkowski sum).  A tie leaves a
    lifted point on the next cell's facet and raises DegenerateLifting."""
    costs, row = tab[-1], tab[r]
    best, tie = None, False
    for c in range(ncols):
        if row[c] * scale >= 0:
            continue
        if best is not None:
            lhs = abs(costs[c] * row[best])
            rhs = abs(costs[best] * row[c])
            if lhs > rhs:
                continue
            if lhs == rhs:
                tie = True
                continue
        best, tie = c, False
    if tie:
        raise DegenerateLifting(f"tie in the ratio test across wall {r}")
    return best


def _pivot(tab, scale, r, w):
    """Fraction-free (Edmonds) pivot on tab[r][w]: the tableau of the basis
    with column w in position r, whose scale is the pivot.  Every division
    is exact because the new entries are minors.  A row that is zero in
    column w takes no multiple of row r: it is only rescaled, to
    piv * x // scale."""
    piv, prow = tab[r][w], tab[r]
    return [row if i == r else
            [piv * x // scale for x in row] if not row[w] else
            [(piv * x - row[w] * y) // scale for x, y in zip(row, prow)]
            for i, row in enumerate(tab)], piv


class LPResult(NamedTuple):
    status: str           # "optimal" | "flat"
    basis: list = None    # basic columns in tableau row order
    tab: list = None
    scale: int = 0


def solve_lp(columns, costs):
    """Optimal basis of min costs . x subject to sum x_c columns[c] = b,
    x >= 0, by primal simplex on an integer tableau (tab, scale) of a basis
    B with scale = +-det B: rows scale * B^-1 [A | I], row r for column
    basis[r], and, last, the reduced costs scale * (c - c_B B^-1 [A | I]).

    The slack tableau [A | I] over [c | 0] at scale 1 takes the columns in
    by ``_pivot``, left to right, each on the first row not yet pivoted
    that is nonzero there: the lexicographically first column basis, with
    b its column sum, so x_B = 1 is feasible and no phase 1 is needed.
    Fewer pivots than rows: status "flat", the columns span a lower
    dimension.  Bland's rule pivots: the smallest column with a negative
    reduced cost enters, and the minimum ratio of scale * B^-1 b (read from
    the unit block) to it leaves, ties to the smallest basic column.  b lies
    inside the cone of the columns, so with the lifting as costs the
    optimal basis is a lower facet.
    """
    m, ncols = len(columns[0]), len(columns)
    tab = [[*(col[j] for col in columns), *(int(i == j) for i in range(m))]
           for j in range(m)]
    tab.append([*costs, *[0] * m])
    scale, basis = 1, [None] * m
    for c in range(ncols):
        r = next((r for r, b in enumerate(basis) if b is None and tab[r][c]),
                 None)
        if r is not None:
            tab, scale = _pivot(tab, scale, r, c)
            basis[r] = c
    if None in basis:
        return LPResult("flat")
    rhs = [sum(columns[c][j] for c in basis) for j in range(m)]
    while True:
        w = next((c for c in range(ncols) if tab[-1][c] * scale < 0), None)
        if w is None:
            return LPResult("optimal", basis, tab, scale)
        leave, best = None, None
        for r, row in enumerate(tab[:-1]):
            if row[w] * scale <= 0:
                continue
            x = sum(u * v for u, v in zip(row[ncols:], rhs))
            if leave is not None:
                new, old = x * best[1], best[0] * row[w]
                if new > old or (new == old and basis[r] > basis[leave]):
                    continue
            leave, best = r, (x, row[w])
        tab, scale = _pivot(tab, scale, leave, w)
        basis[leave] = w


def _cell_points(supports, faces, tab, scale, nums):
    """Lattice points p of one cell, in lexicographic order, from their
    barycentric coordinates lambda * scale * S = adj(B) (S * 1, S * p - nums)
    with S = DELTA_DENOM, over the cell's bounding box shifted by delta.
    Rows of adj(B) with no p part (lambda = 1 on a one-point face) are
    dropped, and a lambda negative over the whole box empties the cell
    before any scan.  The scan runs one coordinate at a time and drops a
    prefix once some lambda stays negative over the rest of the box.  A
    point on a wall (some lambda zero) raises DegenerateLifting."""
    npolys, k = len(supports), len(nums)
    lo, hi = [1] * k, [0] * k     # corners of the box, shifted by delta
    for s, face in zip(supports, faces):
        for j, coords in enumerate(zip(*(s.points[t] for t in face))):
            lo[j] += min(coords)
            hi[j] += max(coords)
    sign = 1 if scale > 0 else -1
    base, slopes = [], []
    for row in tab[:-1]:
        a = [sign * v for v in row[len(row) - k:]]    # p part of adj(B), signed
        if not any(a):
            continue
        v = (sign * DELTA_DENOM * sum(row[len(row) - npolys - k:len(row) - k])
             - sum(u * d for u, d in zip(a, nums)))
        if v + DELTA_DENOM * sum(u * (h if u > 0 else l)
                                 for u, l, h in zip(a, lo, hi)) < 0:
            return []
        base.append(v)
        slopes.append([DELTA_DENOM * u for u in a])
    slopes = [[slope[j] for slope in slopes] for j in range(k)]
    reach = [[0] * len(base)]     # largest rest of lambda over coordinates j..
    for slope, l, h in zip(reversed(slopes), reversed(lo), reversed(hi)):
        reach.append([r + max(s * l, s * h) for r, s in zip(reach[-1], slope)])
    reach.reverse()
    inside = []

    def scan(j, lam, prefix):
        if any(v + r < 0 for v, r in zip(lam, reach[j])):
            return
        if j == k:
            if 0 in lam:
                raise DegenerateLifting(f"cell at {prefix} is not fine")
            inside.append(prefix)
            return
        for x in range(lo[j], hi[j] + 1):
            scan(j + 1, [v + s * x for v, s in zip(lam, slopes[j])],
                 prefix + (x,))

    scan(0, base, ())
    return inside


def mixed_subdivision(supports, seed=0, attempt=0):
    """Fine mixed subdivision data for every lattice point of the shifted sum.

    The perturbation delta is a strictly positive random rational vector
    and the lifting a random integer per support point, both drawn once per
    ``attempt``; the lattice points p with p - delta in the Minkowski sum,
    and so their number, depend on delta, and the cells on the lifting.  By
    the Cayley trick (Huber-Rambau-Santos 2000) the cells are the lower
    facets of the lifted columns (e_i, a): an integer primal simplex from
    their pivot basis (``solve_lp``) finds a first cell, and a walk crosses
    every wall inside the sum with one integer ratio test and one
    fraction-free pivot, so each cell is visited once.  Each cell then
    takes the lattice points of its bounding box with positive barycentric
    coordinates; most cells hold none and are rejected by one barycentric
    row before any scan (golden: 182 of 189).

    A non-fine cell, a tie in a ratio test or a lattice point on a wall
    raises DegenerateLifting, as does a cell without a vertex summand.  The
    walk checks every cell, so it also rejects a lifting whose only non-fine
    cell holds no lattice point, which locating each point by its own LP
    accepted.  A non-fine cell puts some support point w on the lower facet
    of a cell of the other points; given their lifts, the lift of w does so
    for a fixed cell with probability at most 1 / (LIFT_BOUND + 1).  With
    the other points' subdivisions fine, a lifting thus meets a non-fine
    cell with probability at most n * C / (LIFT_BOUND + 1), n the number of
    support points and C the number of cells, at most k! vol(sum) since a
    fine cell has volume at least 1 / k! (golden: 23 * 189 / 2^20 < 0.5 %).
    A box of more than MAX_BOX_POINTS lattice points raises InternalError
    before the simplex; columns that span fewer dimensions than the
    Cayley rows give an empty Subdivision.
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
    nums = [rng.randint(1, DELTA_NUM_BOUND) for _ in range(k)]
    delta = tuple(Fraction(v, DELTA_DENOM) for v in nums)
    lifting = tuple(
        tuple(rng.randint(0, LIFT_BOUND) for _ in s.points) for s in supports)
    owners = [(i, t) for i, s in enumerate(supports) for t in range(len(s.points))]
    columns = [tuple(int(j == i) for j in range(npolys)) + supports[i].points[t]
               for i, t in owners]         # (e_i, a) for point a of support i
    costs = [v for lifts in lifting for v in lifts]
    counts = [0] * npolys
    start = solve_lp(columns, costs)
    if start.status == "flat":
        return Subdivision(supports, (), (), delta, tuple(counts))
    seen = {frozenset(start.basis)}
    todo = [(start.basis, start.tab, start.scale)]
    located = []
    while todo:
        basis, tab, scale = todo.pop()
        faces = [[] for _ in supports]
        for c in sorted(basis):
            faces[owners[c][0]].append(owners[c][1])
        faces = tuple(map(tuple, faces))
        if not _is_fine(tab, scale, basis):
            raise DegenerateLifting(f"cell {faces} is not fine")
        vertices = [i for i in range(npolys) if len(faces[i]) == 1]
        if not vertices:
            raise DegenerateLifting(f"cell {faces} has no vertex summand")
        content = max(vertices)
        cell = CellInfo(faces, content, faces[content][0], len(vertices) == 1)
        located += [(p, cell) for p in _cell_points(supports, faces, tab, scale, nums)]
        for r, c in enumerate(basis):
            if len(faces[owners[c][0]]) < 2:
                continue
            w = _entering(tab, scale, r, len(columns))
            if w is None:
                continue
            step = basis[:r] + [w] + basis[r + 1:]
            if frozenset(step) not in seen:
                seen.add(frozenset(step))
                todo.append((step, *_pivot(tab, scale, r, w)))
    located.sort()
    for _, cell in located:
        if cell.mixed:
            counts[cell.content_index] += 1
    return Subdivision(supports, tuple(p for p, _ in located),
                       tuple(cell for _, cell in located), delta, tuple(counts))


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
    return NewtonMatrixPair(tuple(m1), tuple(tags), tuple(minor_rows))


def _minor_nonzero_check(pair, seed, attempt):
    """The one check of an interpolated pair with a nonempty minor, run
    before its sequence (the exact division of a Laplace pair decides the
    same): on a random line a + t b, det M1 / det M2 must fit a polynomial
    of the quotient's degree d = m1 - m2 modulo the seed's prime P in
    [2^62, 2^63) (``rank_prime``), that is, its (d + 1)-th finite
    difference over t = 0..d+1 must vanish.  The answer is
      - True when a line fits, which proves det M2 nonzero;
      - NotDivisible, raised when a line does not fit, which proves that
        det M2 does not divide det M1;
      - False when det M2 vanished at some point of each of MAX_SCALINGS
        lines.
    The lines come from ``stage_rng(seed, "minor-check-{attempt}")``.
    Each determinant is recorded at its first nonzero point on them, and
    the pair's evaluator replays it at every later one.

    Each point a + t b is uniform, so a nonzero det M2, of degree m2,
    vanishes somewhere on a line with probability at most (d + 2) m2 / P,
    and False comes with at most that to the power MAX_SCALINGS.  A
    dividing pair always fits.  Otherwise the numerator sum_t c_t
    det M1(a + t b) prod_(s != t) det M2(a + s b) of the difference is a
    polynomial of degree at most m1 + (d + 1) m2 in (a, b), so unless P
    divides all its coefficients a line fits with probability at most
    (m1 + (d + 1) m2) / 2^62 (Schwartz-Zippel; S5: 40743 / 2^62 <
    2^-46).  Either error costs only time: a new lifting, or a pair that
    the Laplace division, the sequence cap or the certificate rejects.
    """
    if not pair.minor_rows:
        return True
    evaluator, p = pair.evaluator, rank_prime(seed)
    degree = len(pair.m1) - len(pair.minor_rows)
    rng = stage_rng(seed, f"minor-check-{attempt}")
    for _ in range(MAX_SCALINGS):
        a = {s: rng.randrange(p) for s in evaluator.symbols}
        b = {s: rng.randrange(p) for s in evaluator.symbols}
        diff = 0
        for t in range(degree + 2):
            value = evaluator.ratio({s: a[s] + t * b[s] for s in a}, p)
            if value is None:
                break
            sign = -1 if (degree + 1 - t) & 1 else 1
            diff += sign * math.comb(degree + 1, t) * value
        else:
            if diff % p:
                raise NotDivisible("determinant quotient is not a polynomial "
                                   "on a random line")
            return True
    return False


def quotient_resultant(pair, seed=0, attempt=0):
    """det M1 / det M2, primitive and sign-normalized.  Pairs of at most
    LAPLACE_MAX_DIM rows divide the two Laplace expansions exactly; larger
    ones are interpolated from modular evaluations drawn from ``seed`` and
    ``attempt``."""
    if len(pair.m1) > LAPLACE_MAX_DIM:
        return interpolated_quotient(pair, seed, attempt)
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


class _Evaluator:
    """det M1 / det M2 of one Newton pair at points mod p, or None where
    det M2 vanishes, from two recorded eliminations (``_Determinant``):
    one of M1 and one of M2, its principal submatrix on the minor rows.
    M2 goes first, and M1 only where det M2 is nonzero, with one inverse;
    an empty minor takes det M1 alone.  Every entry is a linear form in
    the coefficient symbols, kept as ``(sid, coeff)`` pairs, so a point
    needs one sum of products per distinct form.

    The k-th pivot of a recorded order is the ratio of the leading minors
    of orders k and k - 1 of its matrix in that order, the order-k minor
    a polynomial of degree at most k that is nonzero at the recording
    point.  So at a uniformly random point some replayed pivot of the two
    vanishes with probability at most (m1 (m1 + 1) + m2 (m2 + 1)) /
    (2 (p - 1)) (Schwartz-Zippel; S1, 72 rows: below 2^-17 at a sequence
    prime, all above 2^29).  That costs only time: that determinant is
    eliminated afresh at that one point, so every value stays exact, and
    the schedule already recorded is kept.
    """

    def __init__(self, pair):
        self.forms = [
            {c: tuple((m[0][0], v) for m, v in e.terms.items())
             for c, e in enumerate(row) if e}
            for row in pair.m1]
        self.distinct = list(dict.fromkeys(
            form for row in self.forms for form in row.values()))
        position = {form: i for i, form in enumerate(self.distinct)}
        self.symbols = sorted({sid for form in self.distinct
                               for sid, _ in form})
        self.m1 = _Determinant(self.forms, range(len(self.forms)), position)
        self.m2 = (_Determinant(self.forms, pair.minor_rows, position)
                   if pair.minor_rows else None)

    def ratio(self, values, p):
        """det M1 / det M2 mod p at the point ``values``; None where det M2
        vanishes."""
        entries = [sum(v * values[s] for s, v in form) % p
                   for form in self.distinct]
        if self.m2 is None:
            return self.m1.det(entries, p)
        if det2 := self.m2.det(entries, p):
            return self.m1.det(entries, p) * pow(det2, -1, p) % p
        return None


class _Determinant:
    """The determinant mod p of the principal submatrix on ``rows`` of the
    matrix with nonzero entries ``forms`` (per row, column -> form), at
    the values of the forms numbered by ``position``.  Its first nonzero
    point records a pivot order (``_record``): the next column is one held
    by the fewest rows (minimum degree, which cuts S2's M1 from 74165
    updates in column order to 3120), its pivot the sparsest row with a
    nonzero there.  Every later point, at any prime, writes its entries
    into the schedule's slots and replays it (``_replay``)."""

    def __init__(self, forms, rows, position):
        index = {r: j for j, r in enumerate(rows)}
        self.columns = [[index[c] for c in forms[r] if c in index]
                        for r in rows]
        self.entry_form = [position[forms[r][c]] for r in rows
                           for c in forms[r] if c in index]
        self.schedule = None

    def det(self, entries, p):
        """The determinant mod p at the form values ``entries``."""
        vals = [entries[i] for i in self.entry_form]
        if self.schedule is not None:
            runs, fill, sign = self.schedule
            if det := _replay(runs, vals + [0] * fill, p):
                return sign * det % p
        det, schedule = self._record(vals, p)
        self.schedule = self.schedule or schedule
        return det

    def _record(self, values, p):
        """(det, schedule) mod p at the slot values ``values``, by one
        elimination in the pivot order chosen there; (0, None) when some
        column has no nonzero left.  Slots number the nonzero entries row
        by row, then the fill.  The schedule is (runs, fill count, sign of
        the pivots' permutation).  A run is the slots of consecutive pivots
        whose rows no pivot of the run updates, inverted with one modular
        inverse (Montgomery's trick), and per pivot the slots of the rest
        of its row and, per row it updates, that row's slot in the pivot
        column and its slots in the pivot row's columns."""
        n = len(self.columns)
        vals, slots, number = list(values), [], iter(range(len(values)))
        holders = [set() for _ in range(n)]   # column -> unpivoted rows
        for i, row in enumerate(self.columns):
            slots.append({c: next(number) for c in row})
            for c in row:
                holders[c].add(i)
        runs, det, pivot_of, last_update = [], 1, {}, {}
        todo = list(range(n))
        for k in range(n):
            col = min(todo, key=lambda c: (len(holders[c]), c))
            todo.remove(col)
            live = holders[col]
            pool = [i for i in live if vals[slots[i][col]]]
            if not pool:
                return 0, None
            piv = pivot_of[col] = min(pool, key=lambda i: (len(slots[i]), i))
            if not runs or last_update.get(piv, -1) >= start:
                start = k
                runs.append(([], []))
            prow = slots[piv]
            for c in prow:
                holders[c].discard(piv)
            pslot = prow.pop(col)
            det = det * vals[pslot] % p
            inv = pow(vals[pslot], -1, p)
            updates = []
            for i in sorted(live):
                row = slots[i]
                mslot = row.pop(col)
                f = vals[mslot] * inv % p
                for c, s in prow.items():
                    if c not in row:
                        row[c] = len(vals)
                        vals.append(0)
                        holders[c].add(i)
                    vals[row[c]] = (vals[row[c]] - f * vals[s]) % p
                updates.append((mslot, tuple(row[c] for c in prow)))
                last_update[i] = k
            live.clear()
            runs[-1][0].append(pslot)
            runs[-1][1].append((tuple(prow.values()), tuple(updates)))
        sign = permutation_sign(pivot_of, range(n))
        return sign * det % p, (runs, len(vals) - len(values), sign)


def _replay(runs, vals, p):
    """Product mod p of the pivots of ``runs``, replayed in place on the
    slot values ``vals``; 0 as soon as one pivot vanishes."""
    det = 1
    for pslots, steps in runs:
        prefix = [1]
        for s in pslots:
            prefix.append(prefix[-1] * vals[s] % p)
        if not prefix[-1]:
            return 0
        det = det * prefix[-1] % p
        inv = pow(prefix[-1], -1, p)
        invs = [0] * len(pslots)
        for j in range(len(pslots) - 1, -1, -1):
            invs[j] = inv * prefix[j] % p
            inv = inv * vals[pslots[j]] % p
        for inv, (source, updates) in zip(invs, steps):
            prow = [vals[s] * inv % p for s in source]
            for mslot, target in updates:
                f = vals[mslot]
                if f:
                    for d, v in zip(target, prow):
                        vals[d] = (vals[d] - f * v) % p
    return det


def _blocks(pair):
    """Per polynomial: its coefficient symbols, sorted, and the quotient's
    degree in them (the number of its mixed rows).  Row r of M1 holds the
    coefficients of polynomial row_tags[r][0] only, so det M1 and det M2
    are homogeneous in each block and the quotient has that degree."""
    minor = set(pair.minor_rows)
    symbols, degrees = {}, {}
    for r, (row, tag) in enumerate(zip(pair.evaluator.forms, pair.row_tags)):
        symbols.setdefault(tag[0], set()).update(
            sid for form in row.values() for sid, _ in form)
        degrees[tag[0]] = degrees.get(tag[0], 0) + (r not in minor)
    return [(tuple(sorted(symbols[i])), degrees[i]) for i in sorted(symbols)]


def _term_weights(blocks):
    """A mixed-radix position R_s per symbol, 0 for the first of each
    block, and the number D of indices, the product over the non-first
    symbols of (block degree + 1).

    A block's first exponent is its degree minus the others, so a term is
    fixed by its other exponents, each at most the block's degree: the
    digits, in radix degree + 1, of its index sum_s e_s R_s < D.  The
    positions follow the blocks in order and each block's symbols after
    the first, the order ``_reconstruct`` reads the digits back in.  With
    the weight omega^(R_s), omega of order 2^k, a term's value is
    omega^index; distinct terms have distinct values once 2^k >= D.
    """
    positions, size = {}, 1
    for syms, deg in blocks:
        positions[syms[0]] = 0
        for sid in syms[1:]:
            positions[sid] = size
            size *= deg + 1
    return positions, size


def _dense_terms(blocks):
    return math.prod(math.comb(len(syms) + deg - 1, deg) for syms, deg in blocks)


def _coefficient_bound(evaluator, blocks):
    """A bound B = H * 2^E on the coefficients of R = det M1 / det M2 when
    R has integer coefficients: H is the product over the rows of M1 of
    the sum of |c| over the terms c u_s of the row's entries, and E the
    sum over the blocks of (symbols - 1) * degree.

    Expanding det M1 permutation by permutation, the sum of the |values|
    of its coefficients is at most H, which bounds its 2-norm and so its
    Mahler measure M (Landau).  M is multiplicative and at least 1 on a
    nonzero integer polynomial, so M(R) <= M(det M1) <= H.  R is
    homogeneous of degree d in each block, so setting the block's first
    symbol to 1 keeps its coefficients and its Mahler measure (x_s ->
    x_s / x_first preserves the Haar measure of the torus) and leaves
    degree at most d in each other symbol; each coefficient of a
    polynomial of partial degrees d_s is at most prod binom(d_s, e_s)
    times its Mahler measure (Mahler 1962), at most 2^E H here.
    """
    norm = math.prod(sum(abs(v) for form in row.values() for _, v in form)
                     for row in evaluator.forms)
    return norm << sum((len(syms) - 1) * deg for syms, deg in blocks)


def _scalings(evaluator, q, p, rng):
    """Per scaling drawn from ``rng``, MAX_SCALINGS in all: the scaling
    and, lazily, the ratios at the points scale * q^j, j = 0, 1, ..., up
    to the first point where det M2 vanishes.  Raises ZeroDenominator once
    the last scaling is spent."""
    for _ in range(MAX_SCALINGS):
        scale = {s: rng.randrange(1, p) for s in evaluator.symbols}
        yield scale, _ratios(evaluator, scale, q, p)
    raise ZeroDenominator("non-mixed minor vanished at every scaling tried")


def _ratios(evaluator, values, q, p):
    while (value := evaluator.ratio(values, p)) is not None:
        yield value
        values = {s: v * q[s] % p for s, v in values.items()}


def _unscaled(weights, monos, scale, p):
    """Coefficients c_t = w_t / prod scale_s^(e_s) mod p of the terms
    ``monos`` with the weights w_t, one inverse per symbol."""
    inv = {s: pow(v, -1, p) for s, v in scale.items()}
    return [w * math.prod(pow(inv[s], e, p) for s, e in mono) % p
            for w, mono in zip(weights, monos)]


def _lifted(monos, residues, modulus):
    """The polynomial with the residues lifted to the symmetric range."""
    return MultiPoly({m: c - modulus if c > modulus // 2 else c
                      for m, c in zip(monos, residues)})


def _reconstruct(gen, blocks, size, scale, field):
    """The polynomial behind a terminated sequence, coefficients in the
    symmetric range mod p, or None when the generator's roots are not term
    values of the blocks' degrees: roots that are not distinct 2^k-th
    roots of unity (``roots_mod``), a root whose discrete log is an index
    of ``size`` or more, or one whose digits in one block sum above its
    degree."""
    p = field.p
    roots = roots_mod(gen.generator(), field)
    if roots is None:
        return None
    monos = []
    for m in roots:
        index = discrete_log(m, field)
        if index >= size:
            return None
        mono = []
        for syms, deg in blocks:
            exps = []
            for _ in syms[1:]:
                index, e = divmod(index, deg + 1)
                exps.append(e)
            if sum(exps) > deg:
                return None
            mono += zip(syms, [deg - sum(exps)] + exps)
        monos.append(tuple(sorted((s, e) for s, e in mono if e)))
    weights = transposed_vandermonde(roots, gen.seq, p)
    return _lifted(monos, _unscaled(weights, monos, scale, p), p)


def _interpolate(evaluator, blocks, field, rng, margin):
    """Ben-Or--Tiwari interpolation of det M1 / det M2 modulo field.p: the
    support round.

    Point j is scale * q^j, with q_s = omega^(R_s) for the omega of order
    2^k of ``field`` and the positions R_s of ``_term_weights``, and scale
    drawn from ``rng``; Berlekamp-Massey stops once ``margin`` terms past
    twice the generator's length left it unchanged.  A quotient with T
    terms has a generator of length T, at most the dense term count, so a
    sequence that reaches twice that count plus ``margin`` proves that
    det M2 does not divide det M1.  A point where det M2 vanishes draws a
    new scale.  A stop before the whole generator is seen (``margin``
    discrepancies in a row that vanish mod p by chance) costs only time:
    its roots fail ``_reconstruct``, or its terms fail a check point or
    the certificate, and the next round runs with a longer margin.
    """
    p = field.p
    positions, size = _term_weights(blocks)
    q = {s: pow(field.omega, r, p) for s, r in positions.items()}
    cap = 2 * _dense_terms(blocks) + margin
    for scale, ratios in _scalings(evaluator, q, p, rng):
        gen = LinearGenerator(p)
        for value in ratios:
            gen.add(value)
            if len(gen.seq) >= 2 * gen.length + margin:
                return _reconstruct(gen, blocks, size, scale, field)
            if len(gen.seq) >= cap:
                raise NotDivisible(f"no generator of length at most "
                                   f"{(cap - margin) // 2} found")


def _residues(evaluator, quotient, positions, field, rng):
    """The coefficients of the T terms of ``quotient`` modulo field.p, from
    T + 1 points scale * q^j, q_s = omega^(R_s) for the omega of
    ``field``; None when the last point disagrees with them.

    The term values omega^index are known from the support, so the first
    T ratios give the weights (``transposed_vandermonde``).  If det M1 /
    det M2 has terms outside the support, the last ratio differs from the
    fitted weights' prediction by sum_t w_t prod_s (m_t - m_s), over the
    missing terms t and the support's terms s: one missing term always
    shows, and several cancel only where that nonzero polynomial in the
    scaling vanishes.
    """
    p = field.p
    monos = list(quotient.terms)
    roots = [pow(field.omega, sum(positions[s] * e for s, e in mono), p)
             for mono in monos]
    q = {s: pow(field.omega, r, p) for s, r in positions.items()}
    for scale, ratios in _scalings(evaluator, q, p, rng):
        seq = list(itertools.islice(ratios, len(monos) + 1))
        if len(seq) > len(monos):
            weights = transposed_vandermonde(roots, seq, p)
            last = sum(w * pow(m, len(monos), p) for w, m in zip(weights, roots))
            if (last - seq[-1]) % p:
                return None
            return _unscaled(weights, monos, scale, p)


def _eval_mod(poly, values, p):
    return sum(c * math.prod(pow(values[s], e, p) for s, e in m)
               for m, c in poly.terms.items()) % p


def _certified(poly, evaluator, rng, p):
    """Whether det M1 / det M2 equals ``poly`` mod p at two random points
    where det M2 does not vanish; a point where it vanishes is redrawn,
    MAX_SCALINGS draws in all before ZeroDenominator."""
    passed = 0
    for _ in range(MAX_SCALINGS):
        values = {s: rng.randrange(p) for s in evaluator.symbols}
        value = evaluator.ratio(values, p)
        if value is None:
            continue
        if value != _eval_mod(poly, values, p):
            return False
        passed += 1
        if passed == 2:
            return True
    raise ZeroDenominator("non-mixed minor vanished at every certificate "
                          "point tried")


def interpolated_quotient(pair, seed=0, attempt=0):
    """det M1 / det M2 by sparse interpolation, primitive and
    sign-normalized; raises NotDivisible when no quotient is found.

    The quotient R is homogeneous of known degree in each polynomial's
    coefficients (``_blocks``), so it is interpolated with one symbol per
    block set to weight 1, from the sequence of sparse determinants mod p
    at the points scale * q^j (``_interpolate``).  The other symbols get
    mixed-radix positions R_s (``_term_weights``), so each term has an
    index below D = prod (block degree + 1) over them, and q_s =
    omega^(R_s) for an omega of order 2^k, k = max(1, bitlen(D - 1)).  The
    sequence prime p is the smallest prime above 2^29 with 2^k dividing
    p - 1 (``two_adic_field``): since 2^k >= D, a term's value omega^index
    is distinct from every other term's, and its discrete log, read bit by
    bit, is its index (Kaltofen-Lakshman-Wiley 1990).  p stays below 2^30,
    one machine digit, up to k = 24, which covers S1 (D has 19 bits); at
    k = 25 to 27 it has 31 bits, and above that about k bits (S5: 51 bits
    for D of 45 bits).  The scalings and the certificate points come from
    ``stage_rng(seed, "interpolation-{attempt}")``.

    That support round gives R's terms, with coefficients in the
    symmetric range mod p.  Coefficients beyond p/2 come from further
    two-adic primes p_i of the same k, each unused before (Javadi-Monagan
    2010): T + 1 points at a new scaling give the T coefficients mod p_i
    and check the support (``_residues``), and CRT combines them.  The
    symmetric lift is certified after the support round and after each
    prime.  Once the primes' product passes twice the bound B of
    ``_coefficient_bound``, the lift on the right support is R itself, so
    a lift that still fails, a check point that disagrees, or roots that
    are no terms (``_reconstruct``) start a new support round at an
    unused prime with a longer margin, CERTIFICATE_ROUNDS rounds in all.
    Every prime exceeds 2^29, so a round takes at most 1 + bitlen(2 B) /
    29 primes.

    A pair with a nonempty minor first passes ``_minor_nonzero_check``
    (False raises DegenerateLifting).  Each point, the check's and the
    certificate's included, asks the pair's evaluator for one ratio from
    the replays of both determinants; a replayed pivot that vanishes costs
    one fresh elimination of its determinant (``_Evaluator``).  A nonzero
    det M2 vanishes at a point with probability at most m2 / (p - 1),
    below m2 / 2^29 at a sequence prime, and costs a new scaling, so it
    does not change the answer either.  Roots of the generator come
    from one power chain of z (``roots_mod``), which draws nothing: every
    root is a 2^k-th root of unity, and the chain splits them all.

    The answer R is certified by det M1 / det M2 == R at two random
    points where det M2 does not vanish, modulo the seed's prime P in
    [2^62, 2^63) (``rank_prime``), which no draw here depends on.  For a
    wrong R that P does not divide every coefficient of det M1 - R * det M2,
    a polynomial of degree at most m1, each such point passes with
    probability at most m1 / (P - m2) < m1 / 2^61 (Schwartz-Zippel), so
    both with at most (m1 / 2^61)^2, once per certificate tried.  About
    2^56 primes lie in that range, and a coefficient of size H has at most
    log2(H) / 62 of them as factors.
    """
    if not _minor_nonzero_check(pair, seed, attempt):
        raise DegenerateLifting("non-mixed minor evaluated to zero")
    rng = stage_rng(seed, f"interpolation-{attempt}")
    evaluator, prime = pair.evaluator, rank_prime(seed)
    blocks = _blocks(pair)
    positions, size = _term_weights(blocks)
    k = max(1, (size - 1).bit_length())
    bound = _coefficient_bound(evaluator, blocks)
    last = 1 << 29      # each prime is the next one above the last used
    for rnd in range(CERTIFICATE_ROUNDS):
        field = two_adic_field(last, k)
        quotient = _interpolate(evaluator, blocks, field, rng, 2 << rnd)
        modulus = field.p
        while quotient is not None:
            if _certified(quotient, evaluator, rng, prime):
                if quotient.is_zero():
                    raise ZeroDenominator("determinant quotient vanished")
                return quotient.primitive().sign_normalized()
            if modulus > 2 * bound:
                break
            field = two_adic_field(field.p, k)
            residues = _residues(evaluator, quotient, positions, field, rng)
            if residues is None:
                break
            residues = crt([c % modulus for c in quotient.terms.values()],
                           modulus, residues, field.p)
            modulus *= field.p
            quotient = _lifted(quotient.terms, residues, modulus)
        last = field.p
    raise NotDivisible(f"interpolated quotient failed its certificate "
                       f"{CERTIFICATE_ROUNDS} times")


def sylvester_resultant(supports):
    """Classical Sylvester determinant for two univariate supports, each
    shifted by its lowest exponent (Laurent supports): the reference that
    univariate Newton quotients are tested against."""
    if len(supports) != 2:
        raise InternalError("a Sylvester matrix needs exactly two polynomials")
    dense, zero = [], MultiPoly.zero()
    for s in supports:
        low = min(p[0] for p in s.points)
        d = max(p[0] for p in s.points) - low
        if d < 1:
            raise InternalError("a Sylvester matrix needs positive degrees")
        row = [zero] * (d + 1)
        for p, coeff in zip(s.points, s.coeffs):
            row[p[0] - low] = coeff
        dense.append(row)
    size = sum(map(len, dense)) - 2
    # one row per shift of each polynomial, as many as the other's degree
    rows = [[zero] * shift + row + [zero] * (size - shift - len(row))
            for row, other in zip(dense, dense[::-1])
            for shift in range(len(other) - 1)]
    det = determinant(rows)
    return det.primitive().sign_normalized(), size


def _power(coeff, e):
    """coeff ** e for e >= 1: a single term raises its exponents, a sum is
    multiplied out by squaring."""
    if len(coeff) == 1:
        (mono, c), = coeff.terms.items()
        return MultiPoly({tuple((s, x * e) for s, x in mono): c ** e})
    out = MultiPoly.const(1)
    while e:
        if e & 1:
            out = out * coeff
        e >>= 1
        if e:
            coeff = coeff * coeff
    return out


def binomial_resultant(supports):
    """Resultant of k + 1 binomials a_i + b_i z^(v_i) whose v_i span Z^k,
    primitive and sign-normalized, with its mixed counts (|lambda_i|).

    The v_i satisfy one integer relation sum lambda_i v_i = 0, unique up to
    sign once lambda is primitive.  A common root has z^(v_i) = -a_i / b_i,
    so prod (-a_i / b_i)^(lambda_i) = 1, and clearing denominators gives,
    with l = lambda,
        R = prod_(l_i > 0) (-a_i)^(l_i) prod_(l_i < 0) b_i^(-l_i)
          - prod_(l_i > 0) b_i^(l_i) prod_(l_i < 0) (-a_i)^(-l_i)
    (Gelfand-Kapranov-Zelevinsky 1994, ch. 8).  Every cell of a fine mixed
    subdivision of such supports is mixed, so the Newton matrix has
    sum |lambda_i| rows, |lambda_i| of them for polynomial i, an empty
    minor, and det M1 = +-R; the matrix is never built.

    lambda is the first relation (``eliminate``) of the v_i reordered so
    that its first dependent row is last (one pass when it already is):
    that answer is the vector of signed maximal minors (Cramer), whose gcd
    is the index of the lattice the v_i span.  A rank below k or an index
    above 1 breaks the lattice-form contract and raises InternalError.  No
    step draws a random number: the failure probability is 0 and the
    answer does not depend on the seed.
    A coefficient of t terms raised to the power e has C(e + t - 1, t - 1)
    terms, and each side's count is the product of its factors' counts.
    The sides are multiplied out only while the answer has at most 1200
    terms: the largest such expansion, a two-term sum to the power 1198,
    takes about 1 s (Python 3.11 on a 2-vCPU Xeon host).  Above that the
    budget InternalError is raised before any product is formed.
    """
    k = len(supports) - 1
    vs = [next(p for p in s.points if any(p)) for s in supports]
    coeffs, scale = eliminate(vs).relation
    j = len(coeffs)
    order = [i for i in range(k + 1) if i != j] + [j]
    if j < k:
        coeffs, scale = eliminate([vs[i] for i in order]).relation
    lam = [0] * (k + 1)
    for i, c in zip(order, (*coeffs, -scale)):
        lam[i] = c
    if len(coeffs) < k or math.gcd(*lam) != 1:
        raise InternalError(f"binomial supports {vs} do not span Z^{k}")
    factors, terms = [], [1, 1]
    for s, v, e in zip(supports, vs, lam):
        if e:
            a, b = (s.coeffs[s.points.index(p)] for p in ((0,) * k, v))
            factors += [(e < 0, -a, abs(e)), (e > 0, b, abs(e))]
    for side, coeff, e in factors:
        terms[side] *= math.comb(e + len(coeff) - 1, len(coeff) - 1)
    if sum(terms) > 1200:
        raise InternalError(f"budget: the resultant would have {sum(terms)} "
                            f"terms, more than 1200")
    sides = [MultiPoly.const(1), MultiPoly.const(1)]
    for side, coeff, e in factors:
        sides[side] *= _power(coeff, e)
    poly = (sides[0] - sides[1]).primitive().sign_normalized()
    return poly, tuple(map(abs, lam))


def compute_resultant(zpolys, seed=0, max_retries=MAX_RETRIES):
    """Resultant of the lattice-form system.

    A system of binomials takes the closed form of ``binomial_resultant``,
    with no randomness and no box budget on its exponents; its result
    reports the Newton matrix that the other route would build.  Every
    other system takes the Newton quotient: attempt a draws the lifting
    ``subdivision-{a}``, and an interpolated pair its check's lines
    ``minor-check-{a}``, from the one seed; max_retries bounds the
    attempts of every kind together.
    """
    supports, table = extract_supports(zpolys)
    if all(len(s.points) == 2 for s in supports):
        poly, counts = binomial_resultant(supports)
        return ResultantResult(poly, table, sum(counts), 0, counts, 1)
    last_error = None
    for attempt in range(max_retries):
        try:
            subdiv = mixed_subdivision(supports, seed, attempt)
            pair = build_matrices(subdiv)
            poly = quotient_resultant(pair, seed, attempt)
            return ResultantResult(
                poly, table, len(pair.m1), len(pair.minor_rows),
                subdiv.mixed_counts, attempt + 1, subdiv.delta)
        except (DegenerateLifting, NotDivisible, ZeroDenominator) as exc:
            last_error = exc
    raise RetriesExhausted(
        f"resultant failed after {max_retries} attempts: {last_error}")
