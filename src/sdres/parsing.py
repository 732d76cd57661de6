"""Input language for generic Laurent difference systems.

One polynomial per line::

    P0 = u + u*y[1,1]^2*y[2,1] + y[1,0]^-1
    P1 = u + u*y[1,1]

``y[i,k]`` is the k-th transform of variable i (i >= 1, 0 <= k <=
MAX_TRANSFORM); exponents are signed integers.  The bare token ``u`` marks
a term's generic coefficient and is auto-numbered as u[i,j] in term order;
a term written without it gets one implicitly, so every term carries
exactly one fresh coefficient symbol.  ``#`` starts a comment, blank lines
are skipped, and spaces and tabs are insignificant.  A line ends at ``\n``
or ``\r\n`` only.

MAX_TRANSFORM bounds the work of the existence check, whose cost grows
with the transform counts (about 1 s at 10^5); a larger count is a parse
error, exit code 1 on the command line.  Exponents are not bounded here:
the resultant stage rejects a Minkowski box that is too large.
"""

from dataclasses import dataclass

from .diffpoly import (
    CoeffRef,
    DiffPolynomial,
    DiffSystem,
    Monomial,
    VarRef,
    format_monomial,
)
from .errors import (
    DuplicatePolynomial,
    DuplicateVariable,
    NonGenericTerm,
    ParseError,
)

MAX_TRANSFORM = 100_000   # largest k accepted in y[i,k]


@dataclass(frozen=True)
class SystemSource:
    """Parsed system: polynomials with indices contiguous from 0."""

    polys: tuple    # DiffPolynomial per definition line
    nvars: int      # highest difference-variable index that occurs
    coeffs: tuple   # every generated CoeffRef, in definition order

    def to_system(self):
        """DiffSystem view; raises DimensionMismatch unless count = nvars+1."""
        return DiffSystem(polys=self.polys, nvars=self.nvars)


class _Cursor:
    """Single-line scanner with 1-based column reporting."""

    def __init__(self, text, line_no):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    @property
    def col(self):
        return self.pos + 1

    def error(self, message):
        raise ParseError(message, line=self.line_no, col=self.col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch, what):
        if not self.take(ch):
            self.error(f"expected '{ch}' {what}")

    def read_int(self, what):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            self.pos = start
            self.error(f"{what} has too many digits")

    def read_sint(self, what):
        self.skip_ws()
        neg = self.take("-")
        n = self.read_int(what)
        return -n if neg else n

    def at_end(self):
        return self.peek() == ""


def _parse_factor(cur):
    cur.expect("y", "to start a variable factor")
    cur.expect("[", "after 'y'")
    var = cur.read_int("a variable index")
    if var < 1:
        cur.error("variable indices start at 1")
    cur.expect(",", "between variable index and transform count")
    cur.skip_ws()
    start = cur.pos
    shift = cur.read_int("a transform count")
    if shift > MAX_TRANSFORM:
        cur.pos = start
        cur.error(f"transform count {shift} is above the limit "
                  f"{MAX_TRANSFORM}")
    cur.expect("]", "after the transform count")
    exp = 1
    if cur.take("^"):
        exp = cur.read_sint("an exponent")
        if exp == 0:
            cur.error("zero exponents are not allowed")
    return VarRef(var, shift), exp


def _parse_term(cur):
    """One summand: returns the list of (VarRef, exponent) factors.

    Numeric leading coefficients parse but are rejected: every term of a
    generic system carries a symbolic coefficient.
    """
    ch = cur.peek()
    factors = []
    if ch == "u":
        cur.take("u")
        while cur.take("*"):
            factors.append(_parse_factor(cur))
    elif ch.isdigit() or ch == "-":
        col = cur.col
        cur.read_sint("a coefficient")
        raise NonGenericTerm(
            "explicit numeric coefficients are reserved; generic terms use "
            f"the bare token 'u' at line {cur.line_no}, column {col}")
    elif ch == "y":
        factors.append(_parse_factor(cur))
        while cur.take("*"):
            factors.append(_parse_factor(cur))
    else:
        cur.error("expected a term ('u' or a y[...] factor)")
    seen = {}
    for ref, exp in factors:
        if ref in seen:
            raise DuplicateVariable(
                f"variable y[{ref.var},{ref.shift}] repeats within one term "
                f"at line {cur.line_no}")
        seen[ref] = exp
    return seen


def _parse_line(cur):
    cur.expect("P", "to start a polynomial definition")
    index = cur.read_int("a polynomial index")
    cur.expect("=", "after the polynomial index")
    terms = [_parse_term(cur)]
    while cur.take("+"):
        terms.append(_parse_term(cur))
    if not cur.at_end():
        cur.error("unexpected trailing input")
    return index, terms


def parse_system(text):
    """Parse the full input language into a SystemSource."""
    by_index = {}
    order = []
    # not str.splitlines, which also ends lines at \f, U+2028 and others
    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        cur = _Cursor(body, line_no)
        index, terms = _parse_line(cur)
        if index in by_index:
            raise DuplicatePolynomial(
                f"polynomial P{index} defined twice (line {line_no})")
        by_index[index] = terms
        order.append(index)
    if not by_index:
        raise ParseError("no polynomial definitions found")
    expected = list(range(len(by_index)))
    if sorted(by_index) != expected:
        raise ParseError(
            f"polynomial indices must be contiguous from 0, got "
            f"{sorted(by_index)}")
    polys = []
    coeffs = []
    nvars = 0
    for i in expected:
        terms = []
        for j, powers in enumerate(by_index[i]):
            ref = CoeffRef(i, j, 0)
            coeffs.append(ref)
            for v in powers:
                nvars = max(nvars, v.var)
            terms.append((ref, Monomial(powers)))
        polys.append(DiffPolynomial(tuple(terms)))
    return SystemSource(polys=tuple(polys), nvars=nvars, coeffs=tuple(coeffs))


def print_system(src):
    """Canonical text form; reparsing yields a structurally identical source."""
    lines = []
    for i, poly in enumerate(src.polys):
        terms = ["u" if mono.is_one() else "u*" + format_monomial(mono)
                 for _, mono in poly.terms]
        lines.append(f"P{i} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"
