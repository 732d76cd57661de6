"""Exact sparse polynomial arithmetic.

One polynomial type backs everything else: ``MultiPoly``, sparse
multivariate polynomials with integer coefficients over an open-ended set of
symbols identified by small integer ids.  The shift polynomials in support
matrix entries are plain ``{shift: int}`` dicts; ``uni_gcd`` takes those.

All coefficients are Python ints, so nothing ever overflows.  The term order
is graded lexicographic on symbol ids.  Matrix work (determinants, ranks,
relations) lives here too so that callers never touch floats.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce

from .errors import MissingSymbol, NotDivisible


# ---------------------------------------------------------------------------
# gcd of sparse univariate polynomials over Z
# ---------------------------------------------------------------------------

def uni_gcd(polys):
    """Primitive gcd in Z[x] of sparse polynomials ``{degree: int}``, as a
    coefficient tuple, low degree first, with a positive leading coefficient.

    Euclid on the sparse dicts with primitive pseudo-remainders: each step
    cancels a leading term with one shifted copy of the divisor, so the
    cost follows the term counts and the degree gaps, not the degrees
    squared.  The gcd of an empty collection (or of all-zero input) is
    zero, the empty tuple.
    """
    g = {}
    for p in polys:
        a = _primitive({k: v for k, v in p.items() if v})
        while g:
            a, g = g, _primitive(_pseudo_remainder(a, g))
        g = a
        if list(g) == [0]:
            break
    return tuple(g.get(k, 0) for k in range(max(g) + 1)) if g else ()


def _primitive(p):
    """p over its content, with a positive leading coefficient."""
    if not p:
        return p
    unit = reduce(math.gcd, p.values(), 0)
    if p[max(p)] < 0:
        unit = -unit
    return {k: v // unit for k, v in p.items()}


def _pseudo_remainder(a, b):
    """A remainder of a by b in Z[x] up to a nonzero integer factor: the
    leading term of a is cancelled by integer multiples of a and of a
    shifted b until its degree falls below b's."""
    top = max(b)
    lead = b[top]
    r = dict(a)
    while r and max(r) >= top:
        high = max(r)
        d = math.gcd(r[high], lead)
        scale, mult = lead // d, r[high] // d
        if scale != 1:
            r = {k: v * scale for k, v in r.items()}
        for k, v in b.items():
            k += high - top
            v = r.get(k, 0) - mult * v
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return r


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

def _mono_sort_key(m):
    # Graded lex, ascending: higher total degree is larger; ties go to the
    # dense exponent vector read in symbol-id order, where a positive
    # exponent at an earlier symbol makes the monomial larger, so the key
    # encodes (-sid, exp) pairs.
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

def _combine(target, lead, f, source, q, p):
    """target = (lead * target + f * source) / q on sparse dicts, in place,
    q None for 1; under a prime p the entries are reduced mod p and
    nothing is divided."""
    for c, v in target.items():
        target[c] = v * lead % p if p else v * lead
    for c, w in source.items():
        v = target.get(c, 0) + f * w
        if p:
            v %= p
        if v:
            target[c] = v
        else:
            del target[c]
    if q is not None and not p:
        for c, v in target.items():
            target[c] = v // q


class Elimination(namedtuple("Elimination", "rank pivots relation")):
    """What one ``eliminate`` pass learns about a sequence of rows: the
    rank, the sorted pivot columns and the first relation (see
    ``_eliminate``)."""

    @property
    def circuit(self):
        """Rows of the circuit the first relation closes, or None for
        independent rows: its support plus its row j.  Rows 0..j have
        corank one, so this is the circuit smallest by its indices read in
        descending order."""
        if self.relation is None:
            return None
        coeffs, _ = self.relation
        return tuple(i for i, c in enumerate(coeffs) if c) + (len(coeffs),)


def _eliminate(matrix, p=None):
    """Fraction-free elimination on sparse rows, in one pass: (pivot
    columns, first relation).

    Rows are ``{column: entry}`` dicts, or dense sequences converted here;
    entries are ints or MultiPoly (anything with +, *, exact ``//`` and
    truthiness), or under a prime p ints in [0, p).  Each row in turn is
    reduced against the stored pivot rows in the order they were made,
    skipping those whose column it does not hold: r = (lead_k * r -
    r[c_k] * row_k) / q, q the lead of the last pivot applied to r; mod p
    nothing is divided.  A row left nonzero is stored as a pivot row at
    its smallest column.  Exactly, it is first lifted to the level of the
    last pivot made (times that lead over q), so the entries of every
    stored row are minors of the input and every division is exact
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968).  The pivot
    columns are the leading columns of an echelon basis of the row space,
    so, sorted, the lexicographically smallest column basis.

    Until a row reduces to zero, each row carries its combination of the
    input rows.  The combination of the first such row j, lifted like a
    pivot row, is the vector of signed maximal minors of rows 0..j on the
    pivot columns (Cramer): the relation (coeffs, scale) with scale *
    row_j == sum(coeffs[i] * row_i), scaled to scale 1 mod p, unique up to
    its scale because rows 0..j-1 are independent.  The later rows are
    eliminated without combinations.  For independent rows the relation is
    None.
    """
    pivots = {}  # column -> (position made, column, lead, tail, combination)
    held = pivots.keys()
    last = None  # lead of the last pivot made
    relation = None
    for j, row in enumerate(matrix):
        r = {c: v for c, v in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if v}
        combo = {j: 1} if relation is None else None
        q = None  # lead of the last pivot applied
        while not held.isdisjoint(r):
            _, col, lead, tail, tail_combo = min(pivots[c] for c in r
                                                 if c in pivots)
            f = r.pop(col)
            f = p - f if p else -f
            _combine(r, lead, f, tail, q, p)
            if combo is not None:
                _combine(combo, lead, f, tail_combo, q, p)
            q = lead
        if not p and q != last:  # lift to the level of the last pivot made
            _combine(r, last, 0, {}, q, p)
            if combo is not None:
                _combine(combo, last, 0, {}, q, p)
        if r:
            col = min(r)
            last = r.pop(col)
            pivots[col] = (len(pivots), col, last, r, combo)
        elif combo is not None:
            scale = combo.pop(j)
            if p:
                unit = p - pow(scale, -1, p)
                relation = (tuple(combo.get(i, 0) * unit % p
                                  for i in range(j)), 1)
            else:
                relation = (tuple(-combo.get(i, 0) for i in range(j)), scale)
    return pivots, relation


def eliminate(matrix, p=None):
    """The rank of ``{column: entry}`` or dense rows over the entry ring's
    fraction field, or over GF(p) under a prime p, their pivot columns,
    sorted (the lexicographically smallest column basis), and their first
    relation: one ``_eliminate`` pass, as an ``Elimination``."""
    pivots, relation = _eliminate(matrix, p)
    return Elimination(len(pivots), tuple(sorted(pivots)), relation)


def permutation_sign(perm, items):
    """The sign, +1 or -1, of the permutation i -> perm[i] of ``items``."""
    sign, seen = 1, set()
    for start in items:
        if start in seen:
            continue
        seen.add(start)
        i = perm[start]
        while i != start:
            seen.add(i)
            i = perm[i]
            sign = -sign
    return sign


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
