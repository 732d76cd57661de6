"""Laurent difference polynomials in generic form.

A difference variable y_i carries a shift count: the VarRef (i, k) stands for
the k-th transform of y_i.  A generic Laurent difference polynomial is a sum
of terms, each a symbolic coefficient (a CoeffRef, standing for some
transform of an input coefficient u_ij) times a Laurent monomial in VarRefs.

A support row encodes, for each difference variable, the shift structure of
every monomial ratio M_ik/M_i0 as a sparse univariate polynomial in the shift
operator: exponent e on transform k contributes e*x^k.  Stacking those rows
over a system gives the symbolic support matrix whose rank decides whether
the sparse difference resultant exists at all.  The same row builder, with
every transform instance a column of its own, gives the algebraic support
matrix of the prolonged system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch


class VarRef(NamedTuple):
    var: int     # difference variable index, 1-based
    shift: int   # transform count, >= 0


class CoeffRef(NamedTuple):
    poly: int    # input polynomial index
    coeff: int   # coefficient position within the polynomial (0 = distinguished)
    shift: int   # how often the whole polynomial has been transformed


class Monomial:
    """Immutable Laurent monomial in difference variables."""

    __slots__ = ("powers",)

    def __init__(self, powers=()):
        if isinstance(powers, dict):
            items = powers.items()
        else:
            items = powers
        cleaned = tuple(sorted((VarRef(*v), e) for v, e in items if e != 0))
        object.__setattr__(self, "powers", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls):
        return cls()

    def is_one(self):
        return not self.powers

    def exponent(self, ref):
        for v, e in self.powers:
            if v == ref:
                return e
        return 0

    def mul(self, other):
        d = dict(self.powers)
        for v, e in other.powers:
            d[v] = d.get(v, 0) + e
        return Monomial(d)

    def ratio(self, other):
        """self / other as a Laurent monomial."""
        d = dict(self.powers)
        for v, e in other.powers:
            d[v] = d.get(v, 0) - e
        return Monomial(d)

    def shifted(self, l):
        return Monomial(tuple((VarRef(v.var, v.shift + l), e) for v, e in self.powers))

    def variables(self):
        return {v.var for v, _ in self.powers}

    def var_refs(self):
        return tuple(v for v, _ in self.powers)

    def order_in(self, var):
        """Highest transform of y_var present, or None when absent."""
        shifts = [v.shift for v, e in self.powers if v.var == var]
        return max(shifts) if shifts else None

    def drop_vars(self, vars_to_one):
        """Set whole difference variables (all transforms) to 1."""
        return Monomial(tuple((v, e) for v, e in self.powers if v.var not in vars_to_one))

    def evaluate(self, assignment):
        """Exact value at a dict VarRef -> number; Laurent exponents need
        nonzero values."""
        acc = Fraction(1)
        for v, e in self.powers:
            val = Fraction(assignment[v])
            acc *= val ** e
        return acc

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return hash(self.powers)

    def __repr__(self):
        return f"Monomial({format_monomial(self)})"


def format_monomial(m):
    if m.is_one():
        return "1"
    bits = []
    for v, e in m.powers:
        s = f"y[{v.var},{v.shift}]"
        bits.append(s if e == 1 else f"{s}^{e}")
    return "*".join(bits)


@dataclass(frozen=True)
class DiffPolynomial:
    """Generic Laurent difference polynomial: sum of coeff * monomial terms.

    The first term is the distinguished one (the u_i0 term).  CoeffRefs are
    pairwise distinct; monomials may repeat (that only happens after setting
    variables to one).
    """

    terms: tuple  # tuple of (CoeffRef, Monomial)

    def __post_init__(self):
        refs = [r for r, _ in self.terms]
        if len(set(refs)) != len(refs):
            raise ValueError("coefficient symbols must be pairwise distinct")

    @property
    def distinguished(self):
        return self.terms[0]

    def coeff_refs(self):
        return tuple(r for r, _ in self.terms)

    def variables(self):
        out = set()
        for _, m in self.terms:
            out |= m.variables()
        return out

    def var_refs(self):
        out = set()
        for _, m in self.terms:
            out.update(m.var_refs())
        return out

    def __repr__(self):
        bits = []
        for r, m in self.terms:
            c = format_coeff_ref(r)
            bits.append(c if m.is_one() else f"{c}*{format_monomial(m)}")
        return " + ".join(bits)


def format_coeff_ref(r):
    base = f"u[{r.poly},{r.coeff}]"
    if r.shift == 0:
        return base
    if r.shift == 1:
        return "d" + base
    return f"d^{r.shift}" + base


@dataclass(frozen=True)
class DiffSystem:
    """n+1 generic Laurent difference polynomials in n difference variables."""

    polys: tuple
    nvars: int

    def __post_init__(self):
        if len(self.polys) != self.nvars + 1:
            raise DimensionMismatch(
                f"{len(self.polys)} polynomials over {self.nvars} variables; "
                f"need exactly n+1 = {self.nvars + 1}")

    def subsystem(self, indices):
        """Row selection only; still indexed by the original positions."""
        return tuple(self.polys[i] for i in indices)


def shift_poly(f, l):
    """Apply the transform operator l times."""
    if l == 0:
        return f
    return DiffPolynomial(tuple(
        (CoeffRef(r.poly, r.coeff, r.shift + l), m.shifted(l)) for r, m in f.terms))


def norm_form(f):
    """Minimal monomial multiple of f that is a genuine difference polynomial.

    Returns (normal polynomial, multiplier monomial).  Afterwards every
    VarRef present has minimum exponent exactly 0 over the terms and no
    exponent is negative.
    """
    mins = {}
    for _, m in f.terms:
        for v, e in m.powers:
            mins[v] = min(mins.get(v, 0), e) if v in mins else e
    # a VarRef absent from some term has implicit exponent 0 there
    for v in list(mins):
        if any(m.exponent(v) == 0 for _, m in f.terms):
            mins[v] = min(mins[v], 0)
    mult = Monomial({v: -e for v, e in mins.items() if e != 0})
    if mult.is_one():
        return f, mult
    normal = DiffPolynomial(tuple((r, m.mul(mult)) for r, m in f.terms))
    return normal, mult


def order_of(f, var):
    """ord(f, y_var) computed on the norm form; None when absent (-infinity)."""
    nf, _ = norm_form(f)
    best = None
    for _, m in nf.terms:
        o = m.order_in(var)
        if o is not None:
            best = o if best is None else max(best, o)
    return best


def order_matrix(system_polys, variables):
    """Rows: polynomials; columns: the given difference variables; entries
    ord(N(P_i), y_j) with None standing in for -infinity."""
    return tuple(tuple(order_of(p, v) for v in variables) for p in system_polys)


def specialize_poly(f, keep_vars):
    """Set every difference variable outside keep_vars (all transforms) to 1."""
    drop = set(f.variables()) - set(keep_vars)
    if not drop:
        return f
    return DiffPolynomial(tuple((r, m.drop_vars(drop)) for r, m in f.terms))


# ---------------------------------------------------------------------------
# support matrices
# ---------------------------------------------------------------------------
#
# A matrix entry is a dict CoeffRef -> {shift: int}: the formal sum of generic
# coefficients weighted by sparse shift polynomials in x.

def support_rows(polys, place):
    """One row per polynomial, a dict column -> entry.  Each factor v^e of a
    ratio M_ik/M_i0 adds e*x^s to the u_ik part of the entry in column c,
    where (c, s) = place(v); the symbolic matrix places y_j^(k), the VarRef
    (j, k), in column j - 1 at shift k."""
    rows = []
    for f in polys:
        m0, row = f.distinguished[1], {}
        for r, m in f.terms[1:]:
            for v, e in m.ratio(m0).powers:
                col, s = place(v)
                row.setdefault(col, {}).setdefault(r, {})[s] = e
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SupportMatrix:
    rows: tuple        # dict rows, column index -> nonzero entry
    row_labels: tuple  # polynomial indices, or prolongation tags
    col_labels: tuple  # difference variable indices, or transform instances

    def coeff_refs(self):
        return {r for row in self.rows for entry in row.values() for r in entry}


def support_matrix(system_polys, nvars, row_labels=None):
    """The symbolic support matrix over the variables 1..nvars."""
    if row_labels is None:
        row_labels = range(len(system_polys))
    rows = support_rows(system_polys, lambda v: (v.var - 1, v.shift))
    return SupportMatrix(tuple(rows), tuple(row_labels),
                         tuple(range(1, nvars + 1)))
