"""Laurent difference polynomials in generic form.

A difference variable y_i carries a shift count: the VarRef (i, k) stands for
the k-th transform of y_i.  A generic Laurent difference polynomial is a sum
of terms, each a symbolic coefficient (a CoeffRef, standing for some
transform of an input coefficient u_ij) times a Laurent monomial in VarRefs.

A support row encodes, for each difference variable, the shift structure of
every monomial ratio M_ik/M_i0 as a sparse univariate polynomial in the shift
operator: exponent e on transform k contributes e*x^k.  Stacking those rows
over a system gives the symbolic support matrix whose rank decides whether
the sparse difference resultant exists at all.  It is the one matrix built
from polynomials: the later stages select its rows and columns (setting
variables to one drops columns, a norm form changes no quotient) and
shift its columns (a transform adds l to every shift, and row (i, l) keeps
P_i's coefficient keys, each standing for its own shift by l).
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


def specialize_poly(f, keep_vars):
    """Set every difference variable outside keep_vars (all transforms) to 1."""
    drop = set(f.variables()) - set(keep_vars)
    if not drop:
        return f
    return DiffPolynomial(tuple(
        (r, Monomial(tuple((v, e) for v, e in m.powers if v.var not in drop)))
        for r, m in f.terms))


# ---------------------------------------------------------------------------
# support matrices
# ---------------------------------------------------------------------------
#
# A matrix entry is a dict CoeffRef -> {shift: int}: the formal sum of generic
# coefficients weighted by sparse shift polynomials in x.

def support_rows(polys):
    """One row per polynomial, a dict column -> entry.  Each factor v^e of a
    ratio M_ik/M_i0, v = y_j^(s), adds e*x^s to the u_ik part of the entry
    in column j - 1."""
    rows = []
    for f in polys:
        m0, row = f.distinguished[1], {}
        for r, m in f.terms[1:]:
            for v, e in m.ratio(m0).powers:
                row.setdefault(v.var - 1, {}).setdefault(r, {})[v.shift] = e
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SupportMatrix:
    rows: tuple        # dict rows, column index -> nonzero entry
    row_labels: tuple  # polynomial indices, or prolongation tags
    col_labels: tuple  # difference variable indices, or transform instances

    def select(self, row_indices, col_indices):
        """The submatrix on the given rows and columns, in the order given,
        its columns renumbered by their position in ``col_indices``."""
        index = {c: j for j, c in enumerate(col_indices)}
        return SupportMatrix(
            tuple({index[c]: e for c, e in self.rows[r].items() if c in index}
                  for r in row_indices),
            tuple(self.row_labels[r] for r in row_indices),
            tuple(self.col_labels[c] for c in col_indices))


def support_matrix(system_polys, nvars):
    """The symbolic support matrix over the variables 1..nvars."""
    return SupportMatrix(tuple(support_rows(system_polys)),
                         tuple(range(len(system_polys))),
                         tuple(range(1, nvars + 1)))
