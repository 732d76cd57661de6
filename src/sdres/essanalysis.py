"""Existence analysis and order bounds for generic difference systems.

Three questions are answered here, all driven by the symbolic support
matrix:

* is the system transformally essential (does the sparse difference
  resultant exist)?  --  rank test over the shift-operator field
* which subsystem actually carries the resultant?  --  the unique
  super-essential subset, the one circuit of the support matrix's rows
* how far must each polynomial be transformed before the problem becomes
  algebraic?  --  modified Jacobi bounds of the specialized system

Ranks are computed over GF(p) for a random prime p in [2^62, 2^63], drawn
once per seed, at one random point of GF(p) substituted for the generic
coefficients and the shift indeterminate (correct with overwhelming
probability, see ``RankOracle``); the paranoid route keeps the symbolic
entries and eliminates them exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .diffpoly import (
    SupportMatrix,
    norm_form,
    specialize_poly,
    support_matrix,
)
from .errors import InfiniteJacobiBound, InputError, RankDrop
from .multipoly import MultiPoly, eliminate, uni_gcd
from .sparseinterp import next_prime


def stage_rng(seed, tag):
    # str seeding hashes via sha512 inside random, stable across platforms
    return random.Random(f"{seed}/{tag}")


@lru_cache(maxsize=8)
def rank_prime(seed):
    """The rank oracles' prime for one seed: the first prime above a draw
    from [2^62, 2^63), memoized so that the oracles of one run share it."""
    return next_prime(stage_rng(seed, "rank-prime").randrange(1 << 62, 1 << 63))


class RankOracle:
    """One query, ``rank_with_pivots``, against row/column subsets of one
    support matrix: an ``eliminate`` pass giving the rank, the pivots and
    the first relation at once.

    A coefficient key names a symbol of its row only: every support matrix
    holds each symbol in one row, and the prolonged matrix keys row (i, l)
    by P_i's own refs, standing for them shifted by l.  So a key shared by
    two rows is two symbols, and both routes number symbols per (row, key).

    The entries are evaluated modulo the seed's prime p (``rank_prime``) at
    one point drawn uniformly from GF(p): x0 for the shift indeterminate
    first, then one value per symbol, row by row, each key at its first
    appearance in its row, so an entry is sum value * c * x0^k mod p, for
    the entries present only, into sparse rows.  The draw order moves no
    bound below: it is still one uniform point, one coordinate per
    distinct symbol.  Substitution can only lower a rank, and a dependency
    it finds is never later than the generic one.  A nonzero r x r minor
    is lost only if

    * p divides every coefficient of the minor: at most log2(H)/62 of the
      about 2^56 primes in the range do, H the largest coefficient (a
      prime is drawn with probability at most its gap below, under 1600,
      over 2^62); or
    * the point is a root of the minor mod p, a polynomial of total degree
      at most r*(D+1), D the largest shift: by Schwartz-Zippel over GF(p)
      at most r*(D+1)/p.

    On the symbolic matrix at the parser's largest shift, D = 10**5, and
    r <= 20, the second is below 2**-41; the prolonged matrix reaches
    r = 10**5 but has D = 0, so r/p < 2**-45.  The first is below 2**-47
    while log2(H) <= 1000.  ``exact`` keeps the symbolic entries present
    instead, as ``{column: MultiPoly}`` rows, and eliminates them with the
    same routine fraction-free.
    """

    def __init__(self, matrix, seed=0, exact=False):
        self.matrix = matrix
        if exact:
            self.p = None
            self._entries = self._symbolic_matrix(matrix)
            return
        p = self.p = rank_prime(seed)
        draw = stage_rng(seed, "rank").randrange
        x0 = draw(p)
        powers = {}  # k -> x0^k mod p
        self._entries = entries = []
        for row in matrix.rows:
            values, out = {}, {}
            for col, e in row.items():
                acc = 0
                for r, d in e.items():
                    v = values.get(r)
                    if v is None:
                        v = values[r] = draw(p)
                    for k, c in d.items():
                        x = powers.get(k)
                        if x is None:
                            x = powers[k] = pow(x0, k, p)
                        acc += v * c * x
                out[col] = acc % p
            entries.append(out)

    @staticmethod
    def _symbolic_matrix(matrix):
        # exact route: entries become multivariate polynomials in the
        # symbols, numbered per (row, key) in the draw order, and the
        # shift indeterminate, numbered last
        ids, n = [], 0
        for row in matrix.rows:
            own = {}
            for e in row.values():
                for r in e:
                    if r not in own:
                        own[r], n = n, n + 1
            ids.append(own)
        return [{col: MultiPoly({((own[r], 1), (n, k)) if k else ((own[r], 1),): c
                                 for r, d in e.items() for k, c in d.items()})
                 for col, e in row.items()}
                for row, own in zip(matrix.rows, ids)]

    def rank_with_pivots(self, row_indices=None, col_indices=None):
        """``eliminate`` on the selected rows, in the order given, and the
        selected columns, renumbered by their position in ``col_indices``;
        the pivots and the relation index those positions."""
        rows = (self._entries if row_indices is None
                else [self._entries[r] for r in row_indices])
        if col_indices is not None:
            index = {c: j for j, c in enumerate(col_indices)}
            rows = [{index[c]: v for c, v in row.items() if c in index}
                    for row in rows]
        return eliminate(rows, self.p)


def symbolic_rank(oracle):
    """The ``Elimination`` of the oracle's whole matrix; its ``rank`` is the
    rank, and ``find_super_essential`` reads the circuit off it."""
    return oracle.rank_with_pivots()


def is_transformally_essential(system, seed=0, exact=False):
    """rank(support matrix) == n decides existence of the resultant."""
    oracle = RankOracle(support_matrix(system.polys, system.nvars), seed, exact)
    return symbolic_rank(oracle).rank == system.nvars


def find_super_essential(found, npolys):
    """The unique minimal subset T with card(T) - rank = 1, from ``found``,
    the ``symbolic_rank`` of the npolys rows of the symbolic support matrix.

    With corank one the rows hold exactly one circuit, and that circuit is
    T: the rank and the circuit come from one elimination.  Precondition:
    the system is transformally essential.
    """
    if found.rank != npolys - 1:
        raise RankDrop("system is not transformally essential")
    return found.circuit


# ---------------------------------------------------------------------------
# Jacobi numbers
# ---------------------------------------------------------------------------

def jacobi_number(matrix):
    """Maximum diagonal sum over all k x k submatrices, k = min(rows, cols).

    Entries are ints or None (None = -infinity, a forbidden cell).  Returns
    None when no feasible selection exists.  This is a maximum-weight
    assignment problem, solved exactly on ints with forbidden cells costing
    more than any feasible selection; the tests check it against
    brute-force permutation enumeration.
    """
    if len(matrix) > len(matrix[0] if matrix else ()):
        matrix = [list(col) for col in zip(*matrix)]
    if not matrix:
        return 0
    allowed = [v for row in matrix for v in row if v is not None]
    if not allowed:
        return None
    top = max(allowed)
    forbidden = len(matrix) * (top - min(allowed)) + 1
    picked = [matrix[r][c] for r, c in _min_cost_assignment(
        [[forbidden if v is None else top - v for v in row] for row in matrix])]
    return None if None in picked else sum(picked)


def _min_cost_assignment(cost):
    """(row, column) pairs of a minimum-cost matching of every row to its
    own column, for rows <= columns: Kuhn-Munkres with potentials."""
    n, m = len(cost), len(cost[0])
    u, v, owner = [0] * (n + 1), [0] * (m + 1), [0] * (m + 1)  # owner: row + 1
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        slack, way, used = [None] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], None, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if slack[j] is None or cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if delta is None or slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0], j0 = owner[way[j0]], way[j0]
    return [(owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j]]


def jacobi_numbers_hat(order_mat):
    """For each row i: the Jacobi number of the matrix with row i deleted."""
    out = []
    for i in range(len(order_mat)):
        rest = [row for j, row in enumerate(order_mat) if j != i]
        out.append(jacobi_number(rest))
    return tuple(out)


@dataclass(frozen=True)
class JacobiBounds:
    order_mat: tuple     # specialized order matrix, None = -infinity
    jacobi: tuple        # plain row-deleted Jacobi numbers
    gcd_degree: int      # total degree of the per-column shift-poly gcds
    modified: tuple      # jacobi - gcd_degree, the order bounds actually used

    @property
    def total(self):
        return sum(self.modified)


def modified_jacobi_bounds(matrix):
    """Order bounds for the specialized subsystem, from ``matrix``, its rows
    of the symbolic support matrix on the kept columns.

    Order entry (i, j), ord(N(P_i), y_j), is the largest shift in entry
    (i, j), or None (-infinity) when it is absent: y_j^(s) occurs in N(P_i)
    exactly when its exponent differs between two terms, so when some
    quotient M_ik/M_i0 holds it.  The norm form multiplies every term by
    one monomial, and the dropped variables have no column, so neither
    changes a quotient on these columns.  Bound i is the Jacobi number of
    the order matrix without row i, lowered by the total degree of the
    columns' common x-polynomial factors.
    """
    cols = range(len(matrix.col_labels))
    omat = tuple(tuple(max(s for d in row[c].values() for s in d)
                       if c in row else None for c in cols)
                 for row in matrix.rows)
    jac = jacobi_numbers_hat(omat)
    gcd_deg = 0
    for c in cols:
        g = uni_gcd(d for row in matrix.rows for d in row.get(c, {}).values())
        gcd_deg += max(len(g) - 1, 0)
    modified = tuple(None if j is None else j - gcd_deg for j in jac)
    return JacobiBounds(order_mat=omat, jacobi=jac, gcd_degree=gcd_deg,
                        modified=modified)


# ---------------------------------------------------------------------------
# pivot-column selection and specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Specialization:
    kept_vars: tuple          # difference variable indices kept
    polys: tuple              # specialized polynomials in norm form
    bounds: JacobiBounds
    has_collisions: bool      # two monomials of one polynomial coincided
    matrix: SupportMatrix     # the subsystem's rows, the kept columns


def has_collisions(matrix, nterms):
    """Whether two of the nterms[i] terms of some row's polynomial agree on
    ``matrix``'s columns: their quotients M_ik/M_i0 do.  The terms absent
    from the row share the distinguished term's empty quotient."""
    for row, n in zip(matrix.rows, nterms):
        refs = {r for entry in row.values() for r in entry}
        quotients = {frozenset((c, s, e) for c, entry in row.items()
                               for s, e in entry.get(r, {}).items())
                     for r in refs}
        if len(quotients) + 1 < n:
            return True
    return False


MAX_PIVOT_CANDIDATES = 1000


def pivot_candidates(oracle, full, rows=None):
    """The column bases of the oracle's ``rows`` (all of them for None) in
    lexicographic order (``full`` is their ``rank_with_pivots``, of rank
    m), or the echelon pivots alone once MAX_PIVOT_CANDIDATES are held
    while a column subset is left.

    Depth first over column prefixes: a query's sorted pivots are the
    smallest basis of its columns, so the basis after B is B[:k] and the
    pivots of the query on B[:k] and the columns after B[k], for the
    largest k at which that query has rank m.  A basis costs at most m
    queries, and the search ends after m more.
    """
    m, ncols = full.rank, len(oracle.matrix.col_labels)
    bases = [full.pivots]
    while len(bases) < MAX_PIVOT_CANDIDATES:
        for k in reversed(range(m)):
            prefix, c = bases[-1][:k], bases[-1][k] + 1
            if c > ncols - m + k:
                continue  # too few columns left after c
            found = oracle.rank_with_pivots(rows, (*prefix, *range(c, ncols)))
            if found.rank == m:
                bases.append(prefix + tuple(c - k + i for i in found.pivots[k:]))
                break
        else:
            break
    if (len(bases) >= MAX_PIVOT_CANDIDATES
            and bases[-1] != tuple(range(ncols - m, ncols))):
        return [full.pivots]
    return bases


def select_and_specialize(system, oracle, subset_indices, kept_override=None):
    """Choose rank-many pivot variables for the super-essential subsystem and
    set the rest (all transforms) to 1.

    ``oracle`` holds the evaluated symbolic support matrix of the system,
    or of the subsystem alone; its rows labelled by ``subset_indices`` are
    queried, so the stage draws nothing of its own.  Each column basis of
    ``pivot_candidates`` is scored on those rows and its columns; the one
    minimizing the total modified Jacobi bound is taken (ties:
    lexicographically smallest), preferring collision-free ones, and only
    its polynomials are specialized.  ``kept_override`` forces the choice.
    """
    rows = tuple(map(oracle.matrix.row_labels.index, subset_indices))
    full = oracle.rank_with_pivots(rows)
    m = full.rank
    if m != len(subset_indices) - 1:
        raise RankDrop(f"subsystem rank {m}, expected {len(subset_indices) - 1}")

    all_vars = oracle.matrix.col_labels
    if kept_override is not None:
        kept = tuple(sorted(kept_override))
        if len(set(kept)) != len(kept) or not set(kept) <= set(all_vars):
            raise InputError(f"kept variables {tuple(kept_override)} must be "
                             f"distinct variables among {all_vars}")
        cols = tuple(all_vars.index(v) for v in kept)
        if oracle.rank_with_pivots(rows, cols).rank != m:
            raise RankDrop(f"kept columns {kept} do not have full rank {m}")
        candidates = [cols]
    else:
        candidates = pivot_candidates(oracle, full, rows)

    nterms = [len(system.polys[i].terms) for i in subset_indices]
    scored = []
    for cols in candidates:
        matrix = oracle.matrix.select(rows, cols)
        bounds = modified_jacobi_bounds(matrix)
        if None not in bounds.modified:  # else an order bound is -infinity
            scored.append(((has_collisions(matrix, nterms), bounds.total,
                            matrix.col_labels), matrix, bounds))
    if not scored:
        raise InfiniteJacobiBound(
            "every pivot choice leaves some order bound at -infinity")
    (collide, _, kept), matrix, bounds = min(scored, key=lambda s: s[0])
    polys = tuple(norm_form(specialize_poly(system.polys[i], kept))[0]
                  for i in subset_indices)
    return Specialization(kept_vars=kept, polys=polys, bounds=bounds,
                          has_collisions=collide, matrix=matrix)
