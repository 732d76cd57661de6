"""Reduction of a difference system to a strong essential algebraic system.

After specialization the resultant problem is still transformal.  This stage
turns it into an ordinary sparse-resultant problem:

1. prolong every polynomial up to its order bound, treating each transform
   instance y_j^(k) as an independent algebraic variable;
2. measure the corank of the algebraic support matrix; corank above one
   means the bounds overshoot, so all bounds are lowered by the excess,
   which keeps a subsequence of the same rows;
3. extract the minimal essential subsystem: the lowest-ranking circuit of
   the row matroid (dependent, every proper subset independent), read off
   the first row dependency of the elimination that measured the corank,
   or of the one query on the lowered bounds' rows;
4. keep only rank-many algebraic variables, the echelon pivots, setting
   the rest to one, which keeps the subsystem essential;
5. re-express all supports over a basis of the lattice they generate, which
   shrinks the Newton polytopes to minimal volume ("strong" essential form).

Support vectors are taken relative to each polynomial's distinguished term,
so entries may be negative (Laurent); everything downstream handles that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .diffpoly import CoeffRef, SupportMatrix, VarRef, shift_poly
from .errors import CorankLost, DegenerateLattice, NoEssentialSubset
from .essanalysis import RankOracle
from .multipoly import eliminate


def prolonged_support_matrix(matrix, bounds):
    """Algebraic support matrix of delta^l P_i, 0 <= l <= bounds[i], rows
    tagged (i, l), re-keyed from row i of ``matrix`` (``Specialization``'s):
    the part {ref: {s: e}} of entry (i, y_j) becomes {ref shifted by l:
    {0: e}} in the column of y_j^(s + l), each {0: e} shared across l.
    Columns: every transform instance seen, sorted once from the base rows'
    keys and the bounds; each row is written by column index."""
    base = [{} for _ in matrix.rows]
    for row, placed in zip(matrix.rows, base):
        for c, entry in row.items():
            for r, d in entry.items():
                for s, e in d.items():
                    v = VarRef(matrix.col_labels[c], s)
                    placed.setdefault(v, {})[r] = {0: e}
    cols = sorted({VarRef(v.var, v.shift + l) for row, bound in zip(base, bounds)
                   for v in row for l in range(bound + 1)})
    index = {v: j for j, v in enumerate(cols)}
    rows, tags = [], []
    for i, (row, bound) in enumerate(zip(base, bounds)):
        for l in range(bound + 1):
            tags.append((i, l))
            rows.append({index[v.var, v.shift + l]: {
                CoeffRef(r.poly, r.coeff, r.shift + l): d for r, d in e.items()}
                for v, e in row.items()})
    return SupportMatrix(tuple(rows), tuple(tags), tuple(cols))


# ---------------------------------------------------------------------------
# minimal essential subsystem (circuit of the row matroid)
# ---------------------------------------------------------------------------

def find_minimal_essential(oracle, nrows):
    """One elimination of rows 0..nrows-1: its ``Elimination``, whose rank
    gives the corank and whose circuit, closed by the first row that
    depends on the rows before it, is the ranking-minimal circuit (rows are
    generated in ascending ranking order, so index order is ranking
    order).  Independent rows raise NoEssentialSubset."""
    found = oracle.rank_with_pivots(range(nrows))
    if found.relation is None:
        raise NoEssentialSubset("rows are independent, no resultant relation")
    return found


# ---------------------------------------------------------------------------
# variable reduction (set all but rank-many transform instances to one)
# ---------------------------------------------------------------------------

def variable_essential_reduce(ess_rows, oracle):
    """Column subset to keep: the echelon pivots of the essential rows (the
    lexicographically earliest independent set).  ``ess_rows`` is a circuit
    found on the same oracle, so its rows have corank one; every other
    column depends on the pivots, so the one left-kernel vector of the rows
    is still their only one on the pivots, and they stay a circuit."""
    return tuple(oracle.rank_with_pivots(row_indices=ess_rows)[1])


# ---------------------------------------------------------------------------
# lattice re-expression
# ---------------------------------------------------------------------------

def hermite_basis(vectors):
    """Echelon basis of the integer lattice generated by the given vectors,
    with entries above each pivot reduced into [0, pivot)."""
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return ()
    ncols = len(work[0])
    row = 0
    for col in range(ncols):
        while True:
            nz = [r for r in range(row, len(work)) if work[r][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(work[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = work[r][col] // work[r0][col]
                if q:
                    work[r] = [a - q * b for a, b in zip(work[r], work[r0])]
        nz = [r for r in range(row, len(work)) if work[r][col]]
        if not nz:
            continue
        work[row], work[nz[0]] = work[nz[0]], work[row]
        if work[row][col] < 0:
            work[row] = [-v for v in work[row]]
        for r in range(row):
            q = work[r][col] // work[row][col]
            if q:
                work[r] = [a - q * b for a, b in zip(work[r], work[row])]
        row += 1
    return tuple(tuple(r) for r in work[:row])


def echelon_coordinates(basis, vector):
    """Integer coordinates of vector over the rows of an echelon basis (as
    ``hermite_basis`` returns), or None when it lies outside their lattice:
    back-substitution, each coordinate the quotient at its row's pivot
    column.  A remainder there survives the later rows, which are zero in
    that column, so the division is exact iff nothing remains at the end."""
    rest, coords = list(vector), []
    for row in basis:
        col = next(c for c, v in enumerate(row) if v)
        coords.append(rest[col] // row[col])
        rest = [a - coords[-1] * b for a, b in zip(rest, row)]
    return None if any(rest) else tuple(coords)


def strong_essential_transform(supports, k):
    """Re-express supports (per poly: (CoeffRef, vector) with the
    distinguished term at the origin) over a basis of the lattice all the
    vectors generate.

    When there are exactly k distinct nonzero vectors and they are
    independent they generate the lattice themselves, so they are the basis,
    each vector's coordinates are a unit vector, and every polynomial
    becomes linear in the new variables.  Otherwise an echelon lattice
    basis is computed and coordinates come from ``echelon_coordinates``.
    """
    distinct = sorted({tuple(vec) for sup in supports for _, vec in sup
                       if any(vec)})
    if len(distinct) == k and eliminate(distinct).rank == k:
        basis = tuple(distinct)
        coordinates = {v: tuple(int(v == b) for b in basis)
                       for v in (*basis, (0,) * k)}.get
    else:
        basis = hermite_basis(distinct)
        if len(basis) != k:
            raise DegenerateLattice(
                f"support lattice has rank {len(basis)}, expected {k}")
        coordinates = partial(echelon_coordinates, basis)
    zpolys = tuple(tuple((ref, coordinates(tuple(vec))) for ref, vec in sup)
                   for sup in supports)
    if any(coords is None for zp in zpolys for _, coords in zp):
        raise DegenerateLattice("support vector outside the lattice")
    return basis, zpolys


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicReduction:
    used_bounds: tuple       # prolongation orders after the corank correction
    corank_offset: int       # how far the original bounds overshot
    essential_tags: tuple    # (poly index, shift) per essential row
    essential_polys: tuple   # the corresponding difference polynomials
    kept_refs: tuple         # transform instances kept as algebraic variables
    dropped_refs: tuple      # transform instances set to one
    basis: tuple             # lattice basis rows over kept_refs
    zpolys: tuple            # per essential row: tuple of (CoeffRef, point)

    @property
    def nzvars(self):
        return len(self.basis)


def algebraic_reduction(spec, bounds, seed=0, exact=False):
    """Full reduction of the ``Specialization`` spec to lattice form.

    bounds are its (finite, nonnegative) order bounds.  The lattice vectors
    are read off the essential circuit's rows of the matrix prolonged from
    ``spec.matrix``; only those rows are also transformed as polynomials.
    """
    if any(b is None or b < 0 for b in bounds):
        raise CorankLost(f"order bounds must be finite and nonnegative: {bounds}")
    matrix = prolonged_support_matrix(spec.matrix, bounds)
    oracle = RankOracle(matrix, seed=seed, exact=exact)
    try:
        found = find_minimal_essential(oracle, len(matrix.rows))
    except NoEssentialSubset:
        raise CorankLost("prolonged rows are independent; order bounds failed"
                         ) from None
    excess = len(matrix.rows) - found.rank - 1
    used = tuple(bounds)
    rows = range(len(matrix.rows))
    if excess > 0:
        # the lowered bounds' rows: a subsequence of these, in order
        used = tuple(max(0, b - excess) for b in bounds)
        rows = [r for r, (i, l) in enumerate(matrix.row_labels) if l <= used[i]]
        found = oracle.rank_with_pivots(rows)
        if found.relation is None:
            raise CorankLost("dependence lost after lowering the order bounds")

    ess = tuple(rows[r] for r in found.circuit)
    cols = variable_essential_reduce(ess, oracle)
    kept_refs = tuple(matrix.col_labels[c] for c in cols)

    tags = tuple(matrix.row_labels[r] for r in ess)
    polys = tuple(shift_poly(spec.polys[i], l) for i, l in tags)
    present = {c for r in ess for c in matrix.rows[r]}
    dropped_refs = tuple(matrix.col_labels[c]
                         for c in sorted(present.difference(cols)))

    # each term's exponents on the kept columns relative to the distinguished
    # term; an exponent 0, the distinguished term's included, is absent
    projected = []
    for r, poly in zip(ess, polys):
        entries = [matrix.rows[r].get(c, {}) for c in cols]
        projected.append(tuple(
            (ref, tuple(e[ref][0] if ref in e else 0 for e in entries))
            for ref in poly.coeff_refs()))
    basis, zpolys = strong_essential_transform(projected, len(kept_refs))

    return AlgebraicReduction(
        used_bounds=used,
        corank_offset=excess,
        essential_tags=tags,
        essential_polys=polys,
        kept_refs=kept_refs,
        dropped_refs=dropped_refs,
        basis=basis,
        zpolys=zpolys,
    )
