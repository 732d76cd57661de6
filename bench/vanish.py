"""Check a resultant without the program: it must vanish on the system.

The sparse difference resultant R of a generic system lies in the difference
ideal the system generates (saturated by the variables), so it vanishes at
every coefficient assignment for which the system has a solution with
nonzero entries.  Such assignments are easy to make: pick every variable's
sequence y_v(t) and every coefficient sequence u[i,j](t) with j > 0 at
random, then solve each polynomial for its first coefficient,

    u[i,0](t) = -(sum over j > 0 of u[i,j](t) * m_j(t)) / m_0(t),

where m_j(t) is term j's monomial evaluated along the sequences.  A factor
(i, j, l, e) of R stands for u[i,j](l) ** e.  Everything is computed modulo
a large prime, so huge exponents cost nothing; a nonzero R vanishes at a
random assignment only with probability about deg(R) / PRIME.

The check shares no code with the program: it reads the input text with its
own small parser.  It catches any answer outside the ideal.  A multiple of
the right resultant by a nonconstant polynomial also lies in the ideal and
passes; a constant multiple is caught by requiring primitive coefficients.
"""

import math
import random
import re

PRIME = (1 << 61) - 1
ROUNDS = 3

_FACTOR = re.compile(r"y\[(\d+),(\d+)\](?:\^(-?\d+))?")


def parse(text):
    """Polynomials as lists of terms, a term as a list of (var, shift, exp)."""
    polys = {}
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].replace(" ", "").replace("\t", "")
        if not body:
            continue
        head, _, rhs = body.partition("=")
        terms = []
        for term in rhs.split("+"):
            factors = [f for f in term.split("*") if f != "u"]
            terms.append([_factor(f) for f in factors])
        polys[int(head[1:])] = terms
    return [polys[i] for i in range(len(polys))]


def _factor(token):
    match = _FACTOR.fullmatch(token)
    if match is None:
        raise ValueError(f"not a variable factor: {token!r}")
    var, shift, exp = match.groups()
    return int(var), int(shift), int(exp) if exp else 1


class Assignment:
    """Random sequences that solve the system, drawn lazily per index."""

    def __init__(self, polys, rng):
        self.polys, self.rng = polys, rng
        self.y, self.u = {}, {}

    def _random(self):
        return self.rng.randrange(1, PRIME)

    def _monomial(self, factors, t):
        value = 1
        for var, shift, exp in factors:
            key = (var, t + shift)
            if key not in self.y:
                self.y[key] = self._random()
            value = value * pow(self.y[key], exp, PRIME) % PRIME
        return value

    def coeff(self, i, j, t):
        """u[i,j](t); solving for u[i,0](t) makes P_i vanish at index t."""
        if (i, t) not in self.u:
            terms = self.polys[i]
            row = [None] + [self._random() for _ in terms[1:]]
            acc = sum(c * self._monomial(m, t)
                      for c, m in zip(row[1:], terms[1:]))
            row[0] = -acc * pow(self._monomial(terms[0], t), -1, PRIME) % PRIME
            self.u[(i, t)] = row
        return self.u[(i, t)][j]


def evaluate(terms, assignment):
    total = 0
    for coeff, factors in terms:
        value = coeff
        for i, j, shift, exp in factors:
            value = value * pow(assignment.coeff(i, j, shift), exp, PRIME) % PRIME
        total = (total + value) % PRIME
    return total


def problem(text, terms, seed=0):
    """None when the resultant ``terms`` passes, else what is wrong.

    ``terms`` is a sequence of (coeff, ((poly, coeff, shift, exp), ...)).
    """
    if not terms or any(c == 0 for c, _ in terms):
        return "the resultant is zero or has a zero coefficient"
    if math.gcd(*(c for c, _ in terms)) != 1:
        return "the resultant's coefficients have a common factor"
    polys = parse(text)
    rng = random.Random(seed)
    for _ in range(ROUNDS):
        if evaluate(terms, Assignment(polys, rng)) != 0:
            return "the resultant does not vanish where the system has a solution"
    return None
