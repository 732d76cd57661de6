"""Newton-matrix resultant of a lattice-form (z-coordinate) system.

The pipeline hands this module k+1 linear-in-z polynomials whose supports
jointly span Z^k.  Every such system, univariate pairs and k = 0 included,
takes one construction: the quotient of two exact determinants, the full
Newton matrix indexed by the lattice points of the perturbed Minkowski sum
of the supports over its principal minor on the non-mixed points (D'Andrea
2002).  All geometry runs over exact rationals; every cell of the lifted
subdivision is located by a small linear program.  Pairs of at most
LAPLACE_MAX_DIM rows divide two Laplace expansions; larger ones are
interpolated from sparse determinants modulo a prime and certified at
random points.  The classical Sylvester determinant stays as a reference
for univariate pairs.
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
from .multipoly import MultiPoly, SymbolTable, det_mod, determinant
from .ratlp import solve_lp
from .sparseinterp import (
    LinearGenerator,
    next_prime,
    roots_mod,
    transposed_vandermonde,
)

LIFT_BOUND = 1 << 20
DELTA_DENOM = 1 << 20
DELTA_NUM_BOUND = 1 << 16
MAX_RETRIES = 8
MAX_BOX_POINTS = 1 << 20  # lattice points scanned, one exact LP each
LAPLACE_MAX_DIM = 16      # larger Newton pairs are interpolated
MINOR_CHECK_PRIME = (1 << 61) - 1
CERTIFICATE_ROUNDS = 3
MAX_SCALINGS = 8          # scalings (or lines) tried before det M2 counts as zero


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
    """Vanishing precheck of the denominator minor by random evaluation:
    nonzero modulo MINOR_CHECK_PRIME at one of two points proves it
    nonzero."""
    rows = pair.minor_rows
    if not rows:
        return True
    rng = stage_rng(seed, f"minor-check-{attempt}")
    for _ in range(2):
        values = {}
        numeric = []
        for r in rows:
            line = {}
            for i, c in enumerate(rows):
                entry = pair.m1[r][c]
                for sid in entry.symbols():
                    if sid not in values:
                        values[sid] = rng.randint(1, 1 << 31)
                if entry:
                    line[i] = entry.evaluate(values)
            numeric.append(line)
        if det_mod(numeric, MINOR_CHECK_PRIME):
            return True
    return False


def quotient_resultant(pair, seed=0, attempt=0):
    """det M1 / det M2, primitive and sign-normalized.  Pairs of at most
    LAPLACE_MAX_DIM rows divide the two Laplace expansions; larger ones
    are interpolated from modular evaluations drawn from ``seed`` and
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
    """det M1 and det M2 of one Newton pair at points mod p.

    Every entry is a linear form in the coefficient symbols, kept as
    ``(sid, coeff)`` pairs, so a point needs only sums of products.
    """

    def __init__(self, pair):
        self.forms = [
            {c: tuple((m[0][0], v) for m, v in e.terms.items())
             for c, e in enumerate(row) if e}
            for row in pair.m1]
        self.minor = {r: i for i, r in enumerate(pair.minor_rows)}
        self.symbols = sorted({sid for row in self.forms for form in row.values()
                               for sid, _ in form})

    def dets(self, values, p):
        full = [{c: sum(v * values[s] for s, v in form)
                 for c, form in row.items()} for row in self.forms]
        pos = self.minor
        minor = [{pos[c]: v for c, v in full[r].items() if c in pos}
                 for r in pos]
        return det_mod(full, p), det_mod(minor, p)


def _ratio(evaluator, values, p):
    """det M1 / det M2 at one point mod p; None where det M2 vanishes."""
    det1, det2 = evaluator.dets(values, p)
    if not det2:
        return None
    return det1 * pow(det2, -1, p) % p


def _blocks(pair):
    """Per polynomial: its coefficient symbols, sorted, and the quotient's
    degree in them (the number of its mixed rows).  Row r of M1 holds the
    coefficients of polynomial row_tags[r][0] only, so det M1 and det M2
    are homogeneous in each block and the quotient has that degree."""
    minor = set(pair.minor_rows)
    symbols, degrees = {}, {}
    for r, (row, tag) in enumerate(zip(pair.m1, pair.row_tags)):
        block = symbols.setdefault(tag[0], set())
        for entry in row:
            block |= entry.symbols()
        degrees[tag[0]] = degrees.get(tag[0], 0) + (r not in minor)
    return [(tuple(sorted(symbols[i])), degrees[i]) for i in sorted(symbols)]


def _term_weights(blocks):
    """A prime per symbol, 1 for the first of each block, and the largest
    term value B = prod over blocks of (largest prime)^degree.

    A block's first exponent is its degree minus the others, so the
    remaining exponents are read back from a term value by trial division.
    The smallest primes go to the blocks of highest degree, which keeps B
    and so the interpolation prime small.
    """
    weights, bound, prime = {}, 1, 1
    for syms, deg in sorted(blocks, key=lambda b: -b[1]):
        weights[syms[0]] = 1
        for sid in syms[1:]:
            prime = next_prime(prime)
            weights[sid] = prime
        bound *= prime ** deg if len(syms) > 1 else 1
    return weights, bound


def _dense_terms(blocks):
    return math.prod(math.comb(len(syms) + deg - 1, deg) for syms, deg in blocks)


def _fits_degree_on_line(evaluator, degree, p, rng):
    """Whether det M1 / det M2 on one random affine line a + t b fits a
    polynomial of the quotient's degree D: its (D+1)-th finite difference
    over t = 0..D+1 vanishes.  A polynomial quotient always passes, so a
    failure proves that det M2 does not divide det M1."""
    symbols = evaluator.symbols
    for _ in range(MAX_SCALINGS):
        a = {s: rng.randrange(p) for s in symbols}
        b = {s: rng.randrange(p) for s in symbols}
        diff = 0
        for t in range(degree + 2):
            value = _ratio(evaluator, {s: a[s] + t * b[s] for s in symbols}, p)
            if value is None:
                break
            sign = -1 if (degree + 1 - t) & 1 else 1
            diff += sign * math.comb(degree + 1, t) * value
        else:
            return diff % p == 0
    raise ZeroDenominator("non-mixed minor vanished on every line tried")


def _reconstruct(gen, blocks, weights, scale, p, rng):
    """The polynomial behind a terminated sequence, or None when the
    generator's roots are not term values of the blocks' degrees."""
    roots = roots_mod(gen.generator(), p, rng)
    if roots is None:
        return None
    terms = {}
    for m, w in zip(roots, transposed_vandermonde(roots, gen.seq, p)):
        if m == 0:
            return None
        mono = []
        for syms, deg in blocks:
            exps = []
            for sid in syms[1:]:
                e = 0
                while m % weights[sid] == 0:
                    m //= weights[sid]
                    e += 1
                exps.append(e)
            if sum(exps) > deg:
                return None
            mono += zip(syms, [deg - sum(exps)] + exps)
        if m != 1:
            return None
        mono = tuple(sorted((s, e) for s, e in mono if e))
        unscale = math.prod(pow(scale[s], e, p) for s, e in mono)
        c = w * pow(unscale, -1, p) % p
        terms[mono] = c - p if c > p // 2 else c
    return MultiPoly(terms)


def _interpolate(evaluator, blocks, weights, p, rng, margin):
    """Ben-Or--Tiwari interpolation of det M1 / det M2 modulo p.

    Point j is scale * q^j, with q the term weights and scale drawn from
    ``rng``; Berlekamp-Massey stops once ``margin`` terms past twice the
    generator's length left it unchanged.  A quotient with T terms has a
    generator of length T, at most the dense term count, so a sequence
    that reaches twice that count plus ``margin`` proves that det M2 does
    not divide det M1.  A point where det M2 vanishes draws a new scale.
    """
    cap = 2 * _dense_terms(blocks) + margin
    for _ in range(MAX_SCALINGS):
        scale = {s: rng.randrange(1, p) for s in evaluator.symbols}
        values = dict(scale)
        gen = LinearGenerator(p)
        while len(gen.seq) < 2 * gen.length + margin:
            if len(gen.seq) >= cap:
                raise NotDivisible(f"no generator of length at most "
                                   f"{(cap - margin) // 2} found")
            value = _ratio(evaluator, values, p)
            if value is None:
                break
            gen.add(value)
            values = {s: v * weights[s] % p for s, v in values.items()}
        else:
            return _reconstruct(gen, blocks, weights, scale, p, rng)
    raise ZeroDenominator("non-mixed minor vanished at every scaling tried")


def _eval_mod(poly, values, p):
    return sum(c * math.prod(pow(values[s], e, p) for s, e in m)
               for m, c in poly.terms.items()) % p


def _certified(poly, evaluator, rng):
    """det M1 == poly * det M2 at two random points modulo a random prime
    in [2^62, 2^63]."""
    prime = next_prime(rng.randrange(1 << 62, 1 << 63))
    for _ in range(2):
        values = {s: rng.randrange(prime) for s in evaluator.symbols}
        det1, det2 = evaluator.dets(values, prime)
        if (det1 - _eval_mod(poly, values, prime) * det2) % prime:
            return False
    return True


def interpolated_quotient(pair, seed=0, attempt=0):
    """det M1 / det M2 by sparse interpolation, primitive and
    sign-normalized; raises NotDivisible when no quotient is found.

    The quotient is homogeneous of known degree in each polynomial's
    coefficients (``_blocks``), so it is interpolated with one symbol per
    block set to weight 1, from the sequence of sparse determinants mod p
    at the points scale * q^j (``_interpolate``).  p is the smallest
    prime above max(4B, 2^61), B the largest term value
    (``_term_weights``), so distinct terms have distinct values mod p.
    Every draw comes from ``stage_rng(seed, "interpolation-{attempt}")``.

    With a nonempty minor, a random line first checks that the quotient
    is a polynomial.  The answer R is certified by det M1 == R * det M2 at
    two random points modulo a random prime P in [2^62, 2^63]: for a wrong
    R that P does not divide every coefficient of det M1 - R * det M2, a
    polynomial of degree at most m1_dim, each point passes with
    probability at most m1_dim / 2^62 (Schwartz-Zippel), so both with at
    most (m1_dim / 2^62)^2.  About 2^56 primes lie in that range, and a
    coefficient of size H has at most log2(H) / 62 of them as factors.
    A failed certificate retries with a longer sequence and a prime 64
    bits larger, CERTIFICATE_ROUNDS times in all.
    """
    rng = stage_rng(seed, f"interpolation-{attempt}")
    evaluator = _Evaluator(pair)
    blocks = _blocks(pair)
    weights, bound = _term_weights(blocks)
    base = max(4 * bound, 1 << 61)
    if pair.minor_rows:
        degree = sum(deg for _, deg in blocks)
        if not _fits_degree_on_line(evaluator, degree, next_prime(base), rng):
            raise NotDivisible("determinant quotient is not a polynomial "
                               "on a random line")
    for rnd in range(CERTIFICATE_ROUNDS):
        p = next_prime(base << (64 * rnd))
        quotient = _interpolate(evaluator, blocks, weights, p, rng, 2 << rnd)
        if quotient is not None and _certified(quotient, evaluator, rng):
            if quotient.is_zero():
                raise ZeroDenominator("determinant quotient vanished")
            return quotient.primitive().sign_normalized()
    raise NotDivisible(f"interpolated quotient failed its certificate "
                       f"{CERTIFICATE_ROUNDS} times")


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
            poly = quotient_resultant(pair, seed, attempt)
            return ResultantResult(
                poly, table, len(pair.m1), len(pair.minor_rows),
                subdiv.mixed_counts, attempt + 1, subdiv.delta)
        except (DegenerateLifting, NotDivisible, ZeroDenominator) as exc:
            last_error = exc
    raise RetriesExhausted(
        f"resultant failed after {max_retries} attempts: {last_error}")
