"""Difference polynomials: norm form, shifting, orders, support matrices."""

import random
from fractions import Fraction

import pytest

from sdres.diffpoly import (
    CoeffRef,
    DiffPolynomial,
    DiffSystem,
    Monomial,
    VarRef,
    norm_form,
    shift_poly,
    specialize_poly,
    support_matrix,
)
from sdres.errors import DimensionMismatch
from sdres.essanalysis import RankOracle

from polynomial_route import order_in, order_matrix, order_of
from systems import golden_system, mono, poly


def u(i, j, l=0):
    return CoeffRef(i, j, l)


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def test_monomial_basics():
    m = mono({(1, 0): 2, (2, 1): -1})
    assert m.exponent(VarRef(1, 0)) == 2
    assert m.exponent(VarRef(3, 0)) == 0
    assert m.variables() == {1, 2}
    assert order_in(m, 2) == 1
    assert order_in(m, 5) is None
    assert m.mul(m.ratio(m)) == m
    assert mono({(1, 0): 1}).ratio(mono({(1, 0): 1})).is_one()


def test_monomial_shift():
    m = mono({(1, 0): 2, (4, 1): 1})
    assert m.shifted(2) == mono({(1, 2): 2, (4, 3): 1})
    assert m.shifted(0) == m


def test_monomial_evaluate_laurent():
    m = mono({(1, 0): -2, (2, 1): 3})
    val = m.evaluate({VarRef(1, 0): 2, VarRef(2, 1): 3})
    assert val == Fraction(27, 4)


def monomial_shift_poly(m, var):
    """The x-polynomial of y_var in m: the u[0,1] part of column var in the
    support row of u[0,0] + u[0,1] * m."""
    row = support_matrix((poly(0, [Monomial.one(), m]),), 3).rows[0]
    return row.get(var - 1, {}).get(u(0, 1), {})


def test_monomial_shift_poly():
    m = mono({(1, 0): 2, (1, 2): -1, (2, 1): 5})
    assert monomial_shift_poly(m, 1) == {0: 2, 2: -1}
    assert monomial_shift_poly(m, 2) == {1: 5}
    assert monomial_shift_poly(m, 3) == {}


# ---------------------------------------------------------------------------
# norm form
# ---------------------------------------------------------------------------

def test_norm_form_example():
    # u0 * y1^-2 * y2 + u1 * y1  ->  multiply by y1^2
    f = poly(0, [mono({(1, 0): -2, (2, 0): 1}), mono({(1, 0): 1})])
    nf, mult = norm_form(f)
    assert mult == mono({(1, 0): 2})
    assert nf.terms[0][1] == mono({(2, 0): 1})
    assert nf.terms[1][1] == mono({(1, 0): 3})


def test_norm_form_strips_common_positive_power():
    # every term carries y1^2: the norm form divides it out
    f = poly(0, [mono({(1, 0): 2}), mono({(1, 0): 3, (2, 0): 1})])
    nf, mult = norm_form(f)
    assert mult == mono({(1, 0): -2})
    assert nf.terms[0][1].is_one()


def test_norm_form_idempotent_and_minimal():
    rng = random.Random(21)
    for _ in range(100):
        nterms = rng.randint(1, 4)
        monos = []
        for _ in range(nterms):
            powers = {}
            for v in range(1, 4):
                for k in range(3):
                    if rng.random() < 0.3:
                        powers[(v, k)] = rng.randint(-2, 2)
            monos.append(mono(powers))
        f = poly(0, monos)
        nf, mult = norm_form(f)
        again, mult2 = norm_form(nf)
        assert again == nf and mult2.is_one()
        # every VarRef present attains exponent 0 somewhere and none is negative
        refs = nf.var_refs()
        for r in refs:
            exps = [m.exponent(r) for _, m in nf.terms]
            assert min(exps) == 0
            assert all(e >= 0 for e in exps)
        # multiplying by the returned monomial really is what happened
        for (r1, m1), (r2, m2) in zip(f.terms, nf.terms):
            assert r1 == r2
            assert m1.mul(mult) == m2


# ---------------------------------------------------------------------------
# shift and orders
# ---------------------------------------------------------------------------

def test_shift_poly_moves_coeffs_and_vars():
    f = poly(2, [Monomial.one(), mono({(1, 0): 1})])
    g = shift_poly(f, 2)
    assert g.terms[0][0] == u(2, 0, 2)
    assert g.terms[1][1] == mono({(1, 2): 1})
    assert shift_poly(g, 1).terms[1][0] == u(2, 1, 3)


def test_order_of():
    f = poly(0, [Monomial.one(), mono({(1, 1): 2, (2, 0): 1}), mono({(1, 3): 1})])
    assert order_of(f, 1) == 3
    assert order_of(f, 2) == 0
    assert order_of(f, 4) is None
    assert order_of(shift_poly(f, 2), 1) == 5


def test_order_matrix_golden():
    sys = golden_system()
    spec = [specialize_poly(p, keep_vars={1, 4}) for p in sys.polys[:3]]
    assert order_matrix(spec, (1, 4)) == ((1, 1), (1, 2), (2, 1))


def test_specialize_poly():
    sys = golden_system()
    p0 = specialize_poly(sys.polys[0], keep_vars={1, 4})
    assert p0.terms[1][1] == mono({(1, 1): 2})
    assert p0.terms[2][1] == mono({(1, 0): 2, (4, 0): 1, (4, 1): 1})
    assert p0.variables() == {1, 4}


# ---------------------------------------------------------------------------
# symbolic support vectors and matrix (externally checked entries)
# ---------------------------------------------------------------------------

def test_support_vector_shift_covariance():
    sys = golden_system()
    for p in sys.polys:
        base = support_matrix((p,), 4).rows[0]
        shifted = support_matrix((shift_poly(p, 1),), 4).rows[0]
        assert base.keys() == shifted.keys()
        for col, e_base in base.items():
            e_shift = shifted[col]
            assert len(e_base) == len(e_shift)
            for r, d in e_base.items():
                r1 = CoeffRef(r.poly, r.coeff, r.shift + 1)
                assert e_shift[r1] == {k + 1: c for k, c in d.items()}


def test_support_matrix_golden_entries():
    m = support_matrix(golden_system().polys, 4)
    assert m.col_labels == (1, 2, 3, 4)
    expected = [
        # P0: rows over (y1, y2, y3, y4)
        [{u(0, 1): {1: 2}, u(0, 2): {0: 2}},
         {u(0, 1): {1: 2}, u(0, 2): {0: 1}},
         {u(0, 1): {1: 1}, u(0, 2): {0: 1}},
         {u(0, 2): {0: 1, 1: 1}}],
        # P1
        [{u(1, 1): {1: 2}, u(1, 2): {1: 2}},
         {u(1, 1): {1: 2}, u(1, 2): {1: 1}},
         {u(1, 1): {1: 1}, u(1, 2): {1: 1}},
         {u(1, 2): {1: 1, 2: 1}}],
        # P2
        [{u(2, 1): {2: 2}, u(2, 2): {1: 2}, u(2, 3): {0: 2}},
         {u(2, 1): {2: 2}, u(2, 2): {1: 2}, u(2, 3): {0: 1}},
         {u(2, 1): {2: 1}, u(2, 2): {1: 1}, u(2, 3): {0: 1}},
         {u(2, 3): {0: 1, 1: 1}}],
        # P3
        [{u(3, 1): {1: 1}, u(3, 2): {1: 2}},
         {u(3, 1): {1: 1}, u(3, 2): {1: 1}},
         {u(3, 2): {1: 1}},
         {u(3, 2): {2: 1}}],
        # P4
        [{u(4, 1): {1: 1}, u(4, 2): {1: 2}},
         {u(4, 2): {2: 1}},
         {u(4, 1): {2: 1}},
         {u(4, 1): {1: 1}, u(4, 2): {0: 1}}],
    ]
    for row, exp_row in zip(m.rows, expected):
        for col, exp_entry in enumerate(exp_row):
            assert row.get(col, {}) == exp_entry


def test_support_matrix_substitution():
    # the exact route's entries with every u = 1: the P0 row is
    # (2x+2, 2x+1, x+1, x+1)
    # (symbols are numbered per row and key, the shift indeterminate last)
    m = support_matrix(golden_system().polys, 4)
    nsymbols = sum(len({r for e in r_.values() for r in e}) for r_ in m.rows)
    row = RankOracle._symbolic_matrix(m)[0]
    for x0 in (0, 1, 5):
        point = {i: 1 for i in range(nsymbols)} | {nsymbols: x0}
        assert [row[c].evaluate(point) for c in range(4)] == [
            2 * x0 + 2, 2 * x0 + 1, x0 + 1, x0 + 1]


def test_column_shift_polys():
    # the y4 column, read as modified_jacobi_bounds reads it
    col = [d for row in support_matrix(golden_system().polys, 4).rows
           for d in row.get(3, {}).values()]
    assert {0: 1, 1: 1} in col       # x+1 from P0
    assert {1: 1, 2: 1} in col       # x^2+x from P1
    assert {1: 1} in col             # x from P4 (u41)


def test_distinct_coeff_refs_enforced():
    with pytest.raises(ValueError):
        DiffPolynomial(((u(0, 0), Monomial.one()), (u(0, 0), mono({(1, 0): 1}))))


def test_dimension_mismatch():
    p0 = poly(0, [Monomial.one(), mono({(1, 0): 1})])
    with pytest.raises(DimensionMismatch):
        DiffSystem(polys=(p0,), nvars=1)
