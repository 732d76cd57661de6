"""Check a resultant against its system without the program's algebra.

A resultant lies in the ideal its system generates, so it vanishes at every
coefficient assignment for which the system has a solution with nonzero
entries.  Such an assignment is drawn directly: a random point, random
values for every coefficient of an equation but its first, and the first
solved for so that the equation vanishes at the point.  Everything runs
modulo the prime 2^61 - 1, so an exponent of any size costs one ``pow``.  A
nonzero answer of total degree d vanishes at an assignment that is not
such a solution with probability at most about d / 2^61.

The equations are those of a lattice-form system (a list of terms
``(coefficient key, exponent vector)`` per polynomial) or the transforms
of a difference system that the answer names.  The answer is a MultiPoly
whose symbol ids map to the coefficient keys through its symbol table.
"""

import math

from sdres.diffpoly import CoeffRef

PRIME = (1 << 61) - 1


def _random_unit(rng):
    return rng.randrange(1, PRIME)


def _solve_for_first(equations, rng):
    """Coefficient values that make every equation vanish; an equation is
    a list of (coefficient key, monomial value at the point)."""
    values = {}
    for (key0, m0), *rest in equations:
        acc = 0
        for key, m in rest:
            values[key] = _random_unit(rng)
            acc += values[key] * m
        values[key0] = -acc * pow(m0, -1, PRIME) % PRIME
    return values


def _value(poly, table, values):
    total = 0
    for mono, c in poly.terms.items():
        term = c
        for sid, e in mono:
            term = term * pow(values[table.lookup(sid)], e, PRIME) % PRIME
        total += term
    return total % PRIME


def vanishes_on_lattice_system(poly, table, zpolys, rng):
    """Whether ``poly`` vanishes at one random solution of the lattice-form
    system ``zpolys``, a tuple of ((key, exponent vector), ...) per
    polynomial (Laurent exponents allowed)."""
    k = len(zpolys[0][0][1])
    x = [_random_unit(rng) for _ in range(k)]
    equations = [[(key, math.prod(pow(xj, e, PRIME) for xj, e in zip(x, pt))
                   % PRIME) for key, pt in terms] for terms in zpolys]
    return _value(poly, table, _solve_for_first(equations, rng)) == 0


def vanishes_on_difference_system(poly, table, system, rng):
    """Whether ``poly`` vanishes at one random solution of the difference
    system: random sequences y_v(t), and each transform sigma^s P_i that
    the answer names solved for its coefficient u[i,0](s)."""
    y = {}

    def monomial(m, shift):
        value = 1
        for ref, e in m.powers:
            key = (ref.var, ref.shift + shift)
            if key not in y:
                y[key] = _random_unit(rng)
            value = value * pow(y[key], e, PRIME) % PRIME
        return value

    named = sorted({(ref.poly, ref.shift)
                    for ref in map(table.lookup, poly.symbols())})
    equations = [[(CoeffRef(i, ref.coeff, s), monomial(m, s))
                  for ref, m in system.polys[i].terms] for i, s in named]
    return _value(poly, table, _solve_for_first(equations, rng)) == 0
