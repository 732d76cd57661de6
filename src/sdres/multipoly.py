"""Exact sparse polynomial arithmetic.

Two polynomial types back everything else:

* ``UniPoly``   -- dense univariate polynomials over the integers (used for the
  entries of symbolic support matrices, where the indeterminate tracks the
  shift operator).
* ``MultiPoly`` -- sparse multivariate polynomials with integer coefficients
  over an open-ended set of symbols identified by small integer ids.

All coefficients are Python ints, so nothing ever overflows.  The term order
is graded lexicographic on symbol ids.  Matrix work (determinants, fraction
free rank) lives here too so that callers never touch floats.
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import MissingSymbol, NotDivisible


# ---------------------------------------------------------------------------
# univariate polynomials over Z
# ---------------------------------------------------------------------------

class UniPoly:
    """Immutable univariate polynomial with int coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, n):
        return cls((n,))

    @classmethod
    def x_power(cls, k, coeff=1):
        return cls((0,) * k + (coeff,))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UniPoly(out)

    def __neg__(self):
        return UniPoly(tuple(-v for v in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(tuple(v * other for v in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            if va:
                for j, vb in enumerate(b):
                    if vb:
                        out[i + j] += va * vb
        return UniPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other):
        """Quotient q with q*other == self; raises NotDivisible otherwise."""
        if other.is_zero():
            raise NotDivisible("division by zero polynomial")
        if self.is_zero():
            return UniPoly()
        rem = list(self.coeffs)
        lb = other.leading()
        db = other.degree
        q = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lb:
                raise NotDivisible("coefficient not divisible")
            f = c // lb
            q[i - db] = f
            for j, vb in enumerate(other.coeffs):
                rem[i - db + j] -= f * vb
        if any(rem):
            raise NotDivisible("nonzero remainder")
        return UniPoly(q)

    __floordiv__ = exact_div

    def content(self):
        return reduce(math.gcd, (abs(v) for v in self.coeffs), 0)

    def primitive(self):
        c = self.content()
        if c in (0, 1):
            return self
        return UniPoly(tuple(v // c for v in self.coeffs))

    def evaluate(self, x0):
        acc = 0
        for v in reversed(self.coeffs):
            acc = acc * x0 + v
        return acc

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"UniPoly({format_unipoly(self)})"


def format_unipoly(p, var="x"):
    if p.is_zero():
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(f"{c:+d}")
        else:
            head = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            pw = var if e == 1 else f"{var}^{e}"
            parts.append(f"{head}{mag}{pw}")
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


def uni_gcd(polys):
    """Primitive gcd in Z[x] of an iterable of UniPoly, positive leading coeff.

    The gcd of a pair is the nonzero polynomial of least degree spanned by
    the rows of their Sylvester matrix: the last nonzero row of its echelon
    form, with columns running from the highest degree down.  The gcd of an
    empty collection (or of all-zero input) is zero.
    """
    g = None
    for p in polys:
        if p.is_zero():
            continue
        if g is not None:
            m, n = g.degree, p.degree
            rows = [(0,) * i + g.coeffs[::-1] + (0,) * (n - 1 - i)
                    for i in range(n)]
            rows += [(0,) * i + p.coeffs[::-1] + (0,) * (m - 1 - i)
                     for i in range(m)]
            echelon, pivots = _echelon(rows)
            p = UniPoly(echelon[len(pivots) - 1][::-1])
        g = p.primitive()
        if g.degree == 0:
            break
    if g is None:
        return UniPoly()
    return -g if g.leading() < 0 else g


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Z
# ---------------------------------------------------------------------------
#
# A monomial is a tuple of (symbol_id, exponent) pairs, sorted by symbol id,
# with strictly positive exponents.  The empty tuple is the constant monomial.

def mono_mul(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa == sb:
            out.append((sa, ea + eb))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)

def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    i = j = 0
    while j < len(b):
        if i >= len(a):
            return None
        sa, ea = a[i]
        sb, eb = b[j]
        if sa < sb:
            out.append(a[i])
            i += 1
        elif sa == sb:
            if ea < eb:
                return None
            if ea > eb:
                out.append((sa, ea - eb))
            i += 1
            j += 1
        else:
            return None
    out.extend(a[i:])
    return tuple(out)

def mono_degree(a):
    return sum(e for _, e in a)

def mono_cmp(a, b):
    """Graded lex: higher total degree wins, ties broken on the dense
    exponent vector read in symbol-id order."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) or j < len(b):
        sa = a[i][0] if i < len(a) else None
        sb = b[j][0] if j < len(b) else None
        if sb is None or (sa is not None and sa < sb):
            return 1    # a has a positive exponent at an earlier symbol
        if sa is None or sb < sa:
            return -1
        ea, eb = a[i][1], b[j][1]
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    return 0

def _mono_sort_key(m):
    # Key whose ordering agrees with mono_cmp (ascending).
    # Lex tie-break: walk symbols in id order; earlier symbol with a positive
    # exponent makes the monomial LARGER, so encode (-sid, exp) pairs.
    return (mono_degree(m), tuple((-s, e) for s, e in m))


class MultiPoly:
    """Immutable sparse multivariate polynomial with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: mapping monomial -> nonzero int coefficient
        d = {}
        if terms:
            for m, c in terms.items():
                if c:
                    d[m] = c
        object.__setattr__(self, "terms", d)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def const(cls, n):
        return cls({(): n} if n else {})

    @classmethod
    def symbol(cls, sid, exp=1, coeff=1):
        return cls({((sid, exp),): coeff})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def const_value(self):
        return self.terms.get((), 0)

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly()
            return MultiPoly({m: c * other for m, c in self.terms.items()})
        if self.is_zero() or other.is_zero():
            return MultiPoly()
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = mono_mul(ma, mb)
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
        return MultiPoly(out)

    __rmul__ = __mul__

    def leading(self):
        """(monomial, coeff) maximal under graded lex."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_mono_sort_key)
        return m, self.terms[m]

    def exact_div(self, other):
        """Quotient q with q*other == self over Z; raises NotDivisible."""
        if other.is_zero():
            raise NotDivisible("division by zero polynomial")
        if self.is_zero():
            return MultiPoly()
        lb_m, lb_c = other.leading()
        rem = dict(self.terms)
        q = {}
        while rem:
            ra = MultiPoly(rem)
            la_m, la_c = ra.leading()
            tm = mono_div(la_m, lb_m)
            if tm is None:
                raise NotDivisible("leading monomial not divisible")
            if la_c % lb_c:
                raise NotDivisible("leading coefficient not divisible")
            tc = la_c // lb_c
            q[tm] = q.get(tm, 0) + tc
            for mb, cb in other.terms.items():
                m = mono_mul(tm, mb)
                v = rem.get(m, 0) - tc * cb
                if v:
                    rem[m] = v
                else:
                    rem.pop(m, None)
        return MultiPoly(q)

    __floordiv__ = exact_div

    def content(self):
        return reduce(math.gcd, (abs(c) for c in self.terms.values()), 0)

    def primitive(self):
        c = self.content()
        if c in (0, 1):
            return self
        return MultiPoly({m: v // c for m, v in self.terms.items()})

    def sign_normalized(self):
        """Flip the global sign so the graded-lex leading coefficient is positive."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return -self if c < 0 else self

    def evaluate(self, assignment):
        """Evaluate at a dict symbol_id -> value (int or Fraction), exactly."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for sid, e in m:
                if sid not in assignment:
                    raise MissingSymbol(f"no value for symbol {sid}")
                v *= assignment[sid] ** e
            total += v
        return total

    def symbols(self):
        out = set()
        for m in self.terms:
            for sid, _ in m:
                out.add(sid)
        return out

    def degree_in(self, sids):
        """Max combined degree over the given symbol set, per term."""
        sids = set(sids)
        best = 0
        for m in self.terms:
            d = sum(e for s, e in m if s in sids)
            best = max(best, d)
        return best

    def total_degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def sorted_terms(self):
        """Terms in descending graded-lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda mc: _mono_sort_key(mc[0]),
                      reverse=True)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return not self.is_zero()

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        bits = []
        for m, c in self.sorted_terms()[:6]:
            mono = "*".join(f"s{s}^{e}" if e > 1 else f"s{s}" for s, e in m) or "1"
            bits.append(f"{c}*{mono}")
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"MultiPoly({' + '.join(bits)}{more})"


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

class SymbolTable:
    """Bijection between hashable symbol keys and dense integer ids.

    Ids are handed out in first-seen order, which keeps every downstream
    term order (and therefore every serialized artifact) deterministic.
    """

    def __init__(self):
        self._ids = {}
        self._keys = []

    def id_for(self, key):
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._keys)
            self._ids[key] = sid
            self._keys.append(key)
        return sid

    def lookup(self, sid):
        return self._keys[sid]

    def __contains__(self, key):
        return key in self._ids

    def __len__(self):
        return len(self._keys)

    def keys(self):
        return list(self._keys)


# ---------------------------------------------------------------------------
# exact matrix work
# ---------------------------------------------------------------------------

def _echelon(matrix):
    """Fraction-free row echelon form (Bareiss): (rows, pivot columns).

    Entries are ints, UniPoly or MultiPoly: anything with +, -, *, exact
    ``//`` and truthiness.  Pivot columns are the lexicographically smallest
    column basis because elimination scans left to right; pivot row entries
    are minors of the (row-permuted) input, so every division is exact.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, ()
    ncols = len(rows[0])
    prev = None
    rank = 0
    pivots = []
    for col in range(ncols):
        if rank == len(rows):
            break
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        piv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            for c in range(col + 1, ncols):
                num = rows[r][c] * piv - rows[r][col] * rows[rank][c]
                rows[r][c] = num if prev is None else num // prev
            rows[r][col] = piv * 0
        prev = piv
        pivots.append(col)
        rank += 1
    return rows, tuple(pivots)


def rank_and_pivots(matrix):
    """Rank over the entry ring's fraction field, and the pivot columns."""
    _, pivots = _echelon(matrix)
    return len(pivots), pivots


def first_relation(matrix):
    """(coeffs, scale) with scale * row_j == sum(coeffs[i] * row_i) for the
    first row j = len(coeffs) that depends on the rows before it, scale
    nonzero; None for independent rows.  On the transpose, j is the first
    non-pivot column; solving for it scaled by the last pivot gives minors,
    so each division is exact.
    """
    echelon, pivots = _echelon([list(col) for col in zip(*matrix)])
    j = next((i for i, p in enumerate(pivots) if p != i), len(pivots))
    if j == len(matrix):
        return None
    scale = echelon[j - 1][j - 1] if j else 1
    coeffs = [None] * j
    for i in reversed(range(j)):
        acc = echelon[i][j] * scale
        for c in range(i + 1, j):
            acc = acc - echelon[i][c] * coeffs[c]
        coeffs[i] = acc // echelon[i][i]
    return tuple(coeffs), scale


def first_circuit(matrix):
    """Rows of the circuit closed by the first row j that depends on the
    rows before it, or None for independent rows: the support of
    ``first_relation`` plus j.  Rows 0..j have corank one, so this is the
    circuit smallest by its indices read in descending order.
    """
    relation = first_relation(matrix)
    if relation is None:
        return None
    coeffs, _ = relation
    return tuple(i for i, c in enumerate(coeffs) if c) + (len(coeffs),)


def determinant(matrix):
    """Exact determinant of a square matrix of MultiPoly entries.

    Minor expansion along rows, memoized on the set of consumed columns:
    each minor is computed once, and on the sparse matrices the resultant
    construction produces only few column sets are ever reached.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    rows = [{c: e for c, e in enumerate(r) if not e.is_zero()} for r in matrix]
    memo = {}
    full = (1 << n) - 1

    def rec(used):
        if used == full:
            return MultiPoly.const(1)
        r = used.bit_count()
        got = memo.get(used)
        if got is not None:
            return got
        acc = MultiPoly()
        free_rank = 0
        for c in range(n):
            bit = 1 << c
            if used & bit:
                continue
            e = rows[r].get(c)
            if e is not None:
                sub = rec(used | bit)
                if not sub.is_zero():
                    term = e * sub
                    acc = acc + (-term if free_rank & 1 else term)
            free_rank += 1
        memo[used] = acc
        return acc

    return rec(0)
