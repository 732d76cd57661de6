"""The polynomial route to the bounds and reduction stages' inputs.

The program reads orders, collisions, column gcds and the prolonged matrix
off the rows of the one symbolic support matrix.  This module derives them
the way the paper states them, from polynomials: each candidate is
specialized and put in norm form, orders are read off its monomials, and
the prolonged rows are built from the specialized polynomials' own support
rows.  The tests compare the two routes.
"""

from sdres.diffpoly import (
    CoeffRef,
    SupportMatrix,
    VarRef,
    norm_form,
    specialize_poly,
)
from sdres.multipoly import uni_gcd


def order_in(m, var):
    """Highest transform of y_var in the monomial m, or None when absent."""
    shifts = [v.shift for v, _ in m.powers if v.var == var]
    return max(shifts) if shifts else None


def order_of(f, var):
    """ord(f, y_var) computed on the norm form; None when absent (-infinity)."""
    nf, _ = norm_form(f)
    orders = [o for _, m in nf.terms if (o := order_in(m, var)) is not None]
    return max(orders) if orders else None


def order_matrix(system_polys, variables):
    """Rows: polynomials; columns: the given difference variables; entries
    ord(N(P_i), y_j) with None standing in for -infinity."""
    return tuple(tuple(order_of(p, v) for v in variables) for p in system_polys)


def specialize_candidate(polys, kept_vars):
    """The polynomials with every variable outside kept_vars set to one, in
    norm form, and whether two monomials of one of them coincide."""
    out, collide = [], False
    for p in polys:
        p, _ = norm_form(specialize_poly(p, set(kept_vars)))
        monos = [m for _, m in p.terms]
        collide |= len(set(monos)) != len(monos)
        out.append(p)
    return tuple(out), collide


def placed_rows(polys, place):
    """One row per polynomial, a dict column -> entry: each factor v^e of a
    ratio M_ik/M_i0 adds e*x^s to the u_ik part of the entry in column c,
    where (c, s) = place(v)."""
    rows = []
    for f in polys:
        m0, row = f.distinguished[1], {}
        for r, m in f.terms[1:]:
            for v, e in m.ratio(m0).powers:
                col, s = place(v)
                row.setdefault(col, {}).setdefault(r, {})[s] = e
        rows.append(row)
    return rows


def gcd_degree(spec_polys, kept_vars):
    """Total degree of the gcds of the specialized polynomials' support
    columns, one shift polynomial per coefficient and variable."""
    rows = placed_rows(spec_polys, lambda v: v)
    return sum(max(len(uni_gcd(d for row in rows
                               for d in row.get(var, {}).values())) - 1, 0)
               for var in kept_vars)


def prolonged_support_matrix(polys, bounds):
    """The algebraic support matrix of delta^l P_i, 0 <= l <= bounds[i],
    rows tagged (i, l): P_i's row with every transform instance a column
    at shift 0, and l added to every VarRef and CoeffRef shift."""
    base = placed_rows(polys, lambda v: (v, 0))
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


def shifted_keys(matrix):
    """A prolonged ``matrix`` with row (i, l)'s coefficient keys shifted by
    l: the program keys row (i, l) by P_i's own refs, each standing for
    that ref transformed l times, as ``prolonged_support_matrix`` above
    writes them."""
    return SupportMatrix(
        tuple({c: {CoeffRef(r.poly, r.coeff, r.shift + l): d
                   for r, d in e.items()} for c, e in row.items()}
              for row, (_, l) in zip(matrix.rows, matrix.row_labels)),
        matrix.row_labels, matrix.col_labels)


def relative_supports(poly):
    """Per term: its generic coefficient and the exponent vector of the
    monomial relative to the distinguished one (dict VarRef -> int)."""
    base = poly.terms[0][1]
    return [(ref, dict(mono.ratio(base).powers)) for ref, mono in poly.terms]
