"""Shared fixture systems for the test suite.

The five-polynomial system in four difference variables below is the main
worked example: every stage of the pipeline has externally computed values
for it (frozen in the tests that use them).  The toy system is the smallest
nontrivial case and its resultant is known in closed form.
"""

from sdres.diffpoly import (
    CoeffRef,
    DiffPolynomial,
    DiffSystem,
    Monomial,
    VarRef,
    support_matrix,
)
from sdres.essanalysis import (
    RankOracle,
    find_super_essential,
    select_and_specialize,
    symbolic_rank,
)


def mono(powers):
    return Monomial({VarRef(v, k): e for (v, k), e in powers.items()})


def poly(i, monomials):
    """Build P_i from a list of monomials; coefficients are u[i,0..]."""
    terms = tuple((CoeffRef(i, j, 0), m) for j, m in enumerate(monomials))
    return DiffPolynomial(terms)


def golden_system():
    one = Monomial.one()
    p0 = poly(0, [one,
                  mono({(1, 1): 2, (2, 1): 2, (3, 1): 1}),
                  mono({(1, 0): 2, (2, 0): 1, (3, 0): 1, (4, 0): 1, (4, 1): 1})])
    p1 = poly(1, [one,
                  mono({(1, 1): 2, (2, 1): 2, (3, 1): 1}),
                  mono({(1, 1): 2, (2, 1): 1, (3, 1): 1, (4, 1): 1, (4, 2): 1})])
    p2 = poly(2, [one,
                  mono({(1, 2): 2, (2, 2): 2, (3, 2): 1}),
                  mono({(1, 1): 2, (2, 1): 2, (3, 1): 1}),
                  mono({(1, 0): 2, (2, 0): 1, (3, 0): 1, (4, 0): 1, (4, 1): 1})])
    p3 = poly(3, [one,
                  mono({(1, 1): 1, (2, 1): 1}),
                  mono({(1, 1): 2, (2, 1): 1, (3, 1): 1, (4, 2): 1})])
    p4 = poly(4, [one,
                  mono({(1, 1): 1, (3, 2): 1, (4, 1): 1}),
                  mono({(1, 1): 2, (2, 2): 1, (4, 0): 1})])
    return DiffSystem(polys=(p0, p1, p2, p3, p4), nvars=4)


GOLDEN_TEXT = """\
# five generic difference polynomials in y1..y4
P0 = u + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,0]^2*y[2,0]*y[3,0]*y[4,0]*y[4,1]
P1 = u + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,1]^2*y[2,1]*y[3,1]*y[4,1]*y[4,2]
P2 = u + u*y[1,2]^2*y[2,2]^2*y[3,2] + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,0]^2*y[2,0]*y[3,0]*y[4,0]*y[4,1]
P3 = u + u*y[1,1]*y[2,1] + u*y[1,1]^2*y[2,1]*y[3,1]*y[4,2]
P4 = u + u*y[1,1]*y[3,2]*y[4,1] + u*y[1,1]^2*y[2,2]*y[4,0]
"""


def toy_system():
    p0 = poly(0, [Monomial.one(), mono({(1, 0): 1})])
    p1 = poly(1, [Monomial.one(), mono({(1, 1): 1})])
    return DiffSystem(polys=(p0, p1), nvars=1)


TOY_TEXT = """\
P0 = u + u*y[1,0]
P1 = u + u*y[1,1]
"""


def rank_deficient_system():
    """Four polynomials in three variables whose support matrix has rank 2:
    every monomial ratio lives in the lattice spanned by y1*y2 and y2*y3."""
    a = mono({(1, 0): 1, (2, 0): 1})
    b = mono({(2, 0): 1, (3, 0): 1})
    p0 = poly(0, [Monomial.one(), a])
    p1 = poly(1, [Monomial.one(), b])
    p2 = poly(2, [Monomial.one(), a.mul(b)])
    p3 = poly(3, [Monomial.one(), a.mul(a)])
    return DiffSystem(polys=(p0, p1, p2, p3), nvars=3)


RANK_DEFICIENT_TEXT = """\
P0 = u + u*y[1,0]*y[2,0]
P1 = u + u*y[2,0]*y[3,0]
P2 = u + u*y[1,0]*y[2,0]^2*y[3,0]
P3 = u + u*y[1,0]^2*y[2,0]^2
"""


def symbolic_oracle(system, seed=0, exact=False):
    """The rank oracle on the system's symbolic support matrix, the one
    evaluation that stages 1-3 share."""
    return RankOracle(support_matrix(system.polys, system.nvars), seed=seed,
                      exact=exact)


def super_essential(system, seed=0, exact=False):
    """Stages 1-2: the super-essential subset, from the check's elimination."""
    found = symbolic_rank(symbolic_oracle(system, seed=seed, exact=exact))
    return find_super_essential(found, len(system.polys))


def specialize(system, subset, seed=0, exact=False, kept_override=None):
    """Stage 3 on the system's symbolic oracle."""
    return select_and_specialize(system,
                                 symbolic_oracle(system, seed=seed, exact=exact),
                                 subset, kept_override=kept_override)
