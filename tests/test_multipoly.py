"""Core arithmetic: ring axioms by evaluation, determinants, gcd, rank,
first relations and circuits.  Univariate polynomials are one-symbol
MultiPolys (symbol 0 plays x)."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres.diffpoly import CoeffRef, SupportMatrix
from sdres.errors import NotDivisible
from sdres.essanalysis import RankOracle, rank_prime
from sdres.multipoly import (
    MultiPoly,
    _mono_sort_key,
    determinant,
    eliminate,
    mono_div,
    mono_mul,
    uni_gcd,
)

from det_oracles import frac_gauss_det, frac_gauss_rank, leibniz_det


def uni(coeffs):
    """One-symbol MultiPoly from coefficients, low degree first."""
    return MultiPoly({((0, k),) if k else (): c for k, c in enumerate(coeffs)})


def shift_dict(p):
    """A one-symbol MultiPoly as the sparse ``{degree: int}`` dict of uni_gcd."""
    return {sum(e for _, e in m): c for m, c in p.terms.items()}


def rand_unipoly(rng, max_deg=4, bound=9):
    return uni([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def rand_multipoly(rng, nsyms=4, nterms=5, max_exp=3, bound=9):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        mono = []
        for sid in range(nsyms):
            if rng.random() < 0.5:
                mono.append((sid, rng.randint(1, max_exp)))
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.randint(-bound, bound)
    return MultiPoly(terms)


def rand_point(rng, nsyms, bound=7):
    return {sid: rng.randint(-bound, bound) for sid in range(nsyms)}


# ---------------------------------------------------------------------------
# uni_gcd
# ---------------------------------------------------------------------------

def test_uni_gcd_planted_factor():
    rng = random.Random(103)
    hits = 0
    for _ in range(100):
        g = rand_unipoly(rng, max_deg=3)
        if g.is_zero():
            continue
        a, b = rand_unipoly(rng), rand_unipoly(rng)
        got = uni_gcd([shift_dict(g * a), shift_dict(g * b)])
        if got:
            # primitive with a positive leading coefficient
            assert got[-1] > 0 and math.gcd(*got) == 1
            # the planted factor's primitive part always divides the gcd
            uni(got).exact_div(g.primitive())  # raises if not divisible
            hits += 1
    assert hits > 50


def sylvester_gcd(polys):
    """The dense reference for ``uni_gcd``: the gcd of a pair is the nonzero
    polynomial of least degree spanned by the rows of their Sylvester
    matrix, the last nonzero row of its echelon form with columns running
    from the highest degree down.  Its cost is cubic in the degree."""
    g = ()
    for p in polys:
        if not p:
            continue
        top = max(p)
        row = tuple(p.get(k, 0) for k in range(top, -1, -1))
        if g:
            m, n = len(g) - 1, top
            rows = [(0,) * i + g + (0,) * (n - 1 - i) for i in range(n)]
            rows += [(0,) * i + row + (0,) * (m - 1 - i) for i in range(m)]
            ref = frac_gauss_rank(rows)
            row = ref.echelon[-1][ref.pivots[-1]:]
            den = math.lcm(*(v.denominator for v in row))
            row = tuple(int(v * den) for v in row)
        unit = math.gcd(*row)
        g = tuple(v // (unit if row[0] > 0 else -unit) for v in row)
        if len(g) == 1:
            break
    return g[::-1]


SPARSE = st.dictionaries(st.integers(0, 12), st.integers(-6, 6).filter(bool),
                         max_size=4)


@settings(derandomize=True, deadline=None)
@given(st.lists(SPARSE, min_size=1, max_size=3),
       SPARSE.filter(bool), st.booleans())
def test_uni_gcd_matches_the_sylvester_reference(cofactors, common, planted):
    def poly(d):
        return MultiPoly({((0, k),) if k else (): c for k, c in d.items()})

    polys = [shift_dict(poly(c) * poly(common)) if planted else c
             for c in cofactors]
    assert uni_gcd(polys) == sylvester_gcd(polys)


def test_uni_gcd_examples():
    # gcd(x^2+x, x+1) = x+1
    assert uni_gcd([{1: 1, 2: 1}, {0: 1, 1: 1}]) == (1, 1)
    # contents are stripped: gcd(2x, 4) = 1
    assert uni_gcd([{1: 2}, {0: 4}]) == (1,)
    assert uni_gcd([{}, {}]) == ()
    assert uni_gcd([{2: -3}]) == (0, 0, 1)
    # a single negative constant comes out primitive
    assert uni_gcd([{0: -3}]) == (1,)


# ---------------------------------------------------------------------------
# monomials and term order
# ---------------------------------------------------------------------------

def test_mono_mul_div():
    a = ((0, 2), (3, 1))
    b = ((0, 1), (1, 4))
    ab = mono_mul(a, b)
    assert ab == ((0, 3), (1, 4), (3, 1))
    assert mono_div(ab, b) == a
    assert mono_div(a, b) is None
    assert mono_div(a, ()) == a


def test_mono_cmp_is_graded_lex():
    # monomials compare by their sort keys
    def cmp(a, b):
        ka, kb = _mono_sort_key(a), _mono_sort_key(b)
        return (ka > kb) - (ka < kb)

    # degree dominates
    assert cmp(((5, 3),), ((0, 2),)) == 1
    # ties: earlier symbol with positive exponent wins
    assert cmp(((0, 1), (1, 1)), ((1, 2),)) == 1
    assert cmp(((1, 2),), ((0, 1), (1, 1))) == -1
    assert cmp(((0, 2),), ((0, 1), (1, 1))) == 1
    assert cmp(((0, 1), (2, 1)), ((0, 1), (1, 1))) == -1
    assert cmp(((0, 2),), ((0, 2),)) == 0
    # against graded lex on dense exponent vectors, on random pairs
    rng = random.Random(104)
    monos = []
    for _ in range(60):
        monos.append(tuple(sorted((s, rng.randint(1, 3))
                                  for s in rng.sample(range(5), rng.randint(0, 3)))))

    def dense(m):
        exps = dict(m)
        return (sum(exps.values()), tuple(exps.get(s, 0) for s in range(5)))

    for a in monos[:20]:
        for b in monos[:20]:
            assert cmp(a, b) == (dense(a) > dense(b)) - (dense(a) < dense(b))


def test_multipoly_mul_is_compatible_with_order():
    # graded lex is a monomial order: leading(a*b) = leading(a)*leading(b)
    rng = random.Random(105)
    for _ in range(100):
        a, b = rand_multipoly(rng), rand_multipoly(rng)
        if a.is_zero() or b.is_zero():
            continue
        la, ca = a.leading()
        lb, cb = b.leading()
        lab, cab = (a * b).leading()
        assert lab == mono_mul(la, lb)
        assert cab == ca * cb


# ---------------------------------------------------------------------------
# MultiPoly ring ops
# ---------------------------------------------------------------------------

def test_multipoly_ops_match_evaluation():
    rng = random.Random(106)
    for _ in range(150):
        a, b = rand_multipoly(rng), rand_multipoly(rng)
        pt = rand_point(rng, 4)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (-a).evaluate(pt) == -a.evaluate(pt)


def test_multipoly_fraction_evaluation_is_exact():
    p = MultiPoly.symbol(0) * MultiPoly.symbol(1) - MultiPoly.const(1)
    assert p.evaluate({0: Fraction(1, 3), 1: Fraction(3, 1)}) == 0


def test_multipoly_exact_div_roundtrip():
    rng = random.Random(107)
    done = 0
    while done < 150:
        a, b = rand_multipoly(rng), rand_multipoly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        done += 1


def test_multipoly_exact_div_rejects():
    x, y = MultiPoly.symbol(0), MultiPoly.symbol(1)
    with pytest.raises(NotDivisible):
        (x * x + y).exact_div(x)
    with pytest.raises(NotDivisible):
        (2 * x).exact_div(3 * x + MultiPoly.zero())


def test_primitive_and_sign():
    x = MultiPoly.symbol(0)
    p = 6 * x * x - 4 * x
    assert p.content() == 2
    assert p.primitive() == 3 * x * x - 2 * x
    assert (-p).sign_normalized() == p.sign_normalized()
    assert p.sign_normalized().leading()[1] > 0


# ---------------------------------------------------------------------------
# determinants: independent oracles + multilinearity/alternation
# ---------------------------------------------------------------------------

def as_const_matrix(rows):
    return [[MultiPoly.const(v) for v in row] for row in rows]


def test_determinant_int_matrices_vs_fraction_gauss():
    rng = random.Random(108)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expect = frac_gauss_det(rows)
        assert expect.denominator == 1
        got = determinant(as_const_matrix(rows))
        assert got == leibniz_det(as_const_matrix(rows))
        assert got.const_value() == int(expect)


def test_determinant_symbolic_matches_leibniz():
    rng = random.Random(109)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rand_multipoly(rng, nsyms=3, nterms=2, max_exp=1, bound=4)
                 for _ in range(n)] for _ in range(n)]
        got = determinant(rows)
        assert got == leibniz_det(rows)
        point = rand_point(rng, 3)
        numeric = [[e.evaluate(point) for e in row] for row in rows]
        assert got.evaluate(point) == frac_gauss_det(numeric)


def test_determinant_alternating_and_multilinear():
    rng = random.Random(110)
    n = 4
    rows = [[rand_multipoly(rng, nsyms=2, nterms=2, max_exp=1, bound=3)
             for _ in range(n)] for _ in range(n)]
    d = determinant(rows)
    swapped = [rows[1], rows[0]] + rows[2:]
    assert determinant(swapped) == -d
    # scaling one row scales the determinant
    scaled = [r[:] for r in rows]
    scaled[2] = [e * 5 for e in scaled[2]]
    assert determinant(scaled) == 5 * d
    # additivity in a row
    extra = [rand_multipoly(rng, nsyms=2, nterms=2, max_exp=1, bound=3) for _ in range(n)]
    summed = [r[:] for r in rows]
    summed[2] = [a + b for a, b in zip(rows[2], extra)]
    other = [r[:] for r in rows]
    other[2] = extra
    assert determinant(summed) == d + determinant(other)


def test_determinant_duplicate_row_is_zero():
    rng = random.Random(111)
    row = [rand_multipoly(rng, nsyms=2, nterms=3) for _ in range(3)]
    other = [rand_multipoly(rng, nsyms=2, nterms=3) for _ in range(3)]
    m = [row, other, row]
    assert determinant(m).is_zero()


def test_determinant_empty_matrix_is_one():
    assert determinant([]) == MultiPoly.const(1)


# ---------------------------------------------------------------------------
# fraction-free rank
# ---------------------------------------------------------------------------

def test_int_rank_matches_fraction_gauss():
    rng = random.Random(112)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(nr, nc))
        # plant rank <= k via a product of nr x k and k x nc matrices
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(k)]
        m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
             for i in range(nr)]
        rank, pivots, _ = eliminate(m)
        assert (rank, pivots) == frac_gauss_rank(m)[:2]
        assert rank <= k
        assert len(pivots) == rank
        # pivot columns really are independent
        sub = [[row[c] for c in pivots] for row in m]
        assert frac_gauss_rank(sub).rank == rank


def test_unipoly_matrix_rank():
    x = MultiPoly.symbol(0)
    one = MultiPoly.const(1)
    two = MultiPoly.const(2)
    # rows [x, 1], [2x, 2] are proportional
    rank, pivots, _ = eliminate([[x, one], [x * 2, two]])
    assert rank == 1 and pivots == (0,)
    rank, pivots, _ = eliminate([[x, one], [one, x]])
    assert rank == 2 and pivots == (0, 1)
    # rank of a matrix with a zero column skips it
    rank, pivots, _ = eliminate([[MultiPoly(), one], [MultiPoly(), x]])
    assert rank == 1 and pivots == (1,)


# ---------------------------------------------------------------------------
# first circuit
# ---------------------------------------------------------------------------

def brute_force_circuit(nrows, rank):
    """Exhaustive search: of all row subsets that are circuits (dependent,
    every proper subset independent), the one whose indices read in
    descending order are smallest.  ``rank`` maps a row tuple to its rank."""
    best = None
    for size in range(1, nrows + 1):
        for combo in itertools.combinations(range(nrows), size):
            if rank(combo) == size - 1 and all(
                    rank(rest) == size - 1
                    for rest in itertools.combinations(combo, size - 1)):
                key = sorted(combo, reverse=True)
                if best is None or key < best[0]:
                    best = (key, combo)
    return None if best is None else best[1]


def planted_rows(rng, nrows, ncols, entry):
    """nrows x ncols product of a random nrows x k and k x ncols matrix,
    with some rows and columns zeroed and some rows repeated."""
    k = rng.randint(0, min(nrows, ncols))
    a = [[entry(rng) for _ in range(k)] for _ in range(nrows)]
    b = [[entry(rng) for _ in range(ncols)] for _ in range(k)]
    zero = entry(rng) * 0
    m = [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
          for j in range(ncols)] for i in range(nrows)]
    for i in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            m[i] = [zero] * ncols
        elif roll < 0.3 and i:
            m[i] = list(m[rng.randrange(i)])
    dropped = {j for j in range(ncols) if rng.random() < 0.15}
    return [[zero if j in dropped else v for j, v in enumerate(row)]
            for row in m]


def exact_rank_by_grid(matrix, points, evaluate):
    """Rank over the fraction field: the maximum rank over a grid on which
    no nonzero minor can vanish everywhere."""
    best = 0
    for pt in points:
        best = max(best, frac_gauss_rank(
            [[evaluate(e, pt) for e in row] for row in matrix]).rank)
        if best == min(len(matrix), len(matrix[0]) if matrix else 0):
            break
    return best


def assert_first_circuit_is_brute_force(matrix, rank_of):
    memo = {}

    def rank(rows):
        if rows not in memo:
            memo[rows] = rank_of([matrix[r] for r in rows])
        return memo[rows]

    found = eliminate(matrix)
    assert found.circuit == brute_force_circuit(len(matrix), rank)
    relation = found.relation
    if relation is not None:
        # scale * row_j == sum(coeffs[i] * row_i), with a nonzero scale
        coeffs, scale = relation
        j = len(coeffs)
        assert scale
        for col in zip(*matrix[:j + 1]):
            acc = scale * col[j]
            for i in range(j):
                acc = acc - coeffs[i] * col[i]
            assert not acc


def test_first_circuit_int_matrices_vs_brute_force():
    rng = random.Random(113)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 5)
        m = planted_rows(rng, nrows, ncols, lambda g: g.randint(-4, 4))
        assert_first_circuit_is_brute_force(
            m, lambda rows: exact_rank_by_grid(rows, [0], lambda e, t: e))


def test_first_circuit_unipoly_matrices_vs_brute_force():
    rng = random.Random(114)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 3)
        m = planted_rows(rng, nrows, ncols,
                         lambda g: rand_unipoly(g, max_deg=1, bound=3))
        # entries have degree <= 2, so minors have degree <= 6
        points = range(7)
        assert_first_circuit_is_brute_force(
            m, lambda rows: exact_rank_by_grid(
                rows, points, lambda e, t: e.evaluate({0: t})))


def test_first_circuit_multipoly_matrices_vs_brute_force():
    rng = random.Random(115)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 3)
        m = planted_rows(rng, nrows, ncols,
                         lambda g: rand_multipoly(g, nsyms=2, nterms=2,
                                                  max_exp=1, bound=3))
        # entries have total degree <= 4, so minors have degree <= 12
        points = [{0: s, 1: t} for s in range(13) for t in range(13)]
        assert_first_circuit_is_brute_force(
            m, lambda rows: exact_rank_by_grid(
                rows, points, lambda e, pt: e.evaluate(pt)))


def test_first_circuit_examples():
    one, x = MultiPoly.const(1), MultiPoly.symbol(0)
    zero = MultiPoly()
    # row 2 = x * row 0: the circuit skips the independent row 1
    assert eliminate([[one, x], [x, one], [x, x * x]]).circuit == (0, 2)
    assert eliminate([[one, zero], [zero, one]]).circuit is None
    assert eliminate([[zero, zero], [one, x]]).circuit == (0,)
    assert eliminate([]).circuit is None


# ---------------------------------------------------------------------------
# elimination mod a word-size prime
# ---------------------------------------------------------------------------

@st.composite
def sparse_int_matrices(draw):
    """Up to 7 x 7 integer matrices, mostly zeros, with some columns
    zeroed or repeated and then some rows zeroed or repeated, and the
    column count."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))
    m = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    cols = [list(c) for c in zip(*m)] or [[] for _ in range(ncols)]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        cols[j] = [0] * nrows
    for src, dst in draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                            st.integers(0, ncols - 1)),
                                  max_size=2)):
        cols[dst] = list(cols[src])
    m = [list(r) for r in zip(*cols)] if nrows else []
    if nrows:
        index = st.integers(0, nrows - 1)
        for i in draw(st.lists(index, max_size=2)):
            m[i] = [0] * ncols
        for src, dst in draw(st.lists(st.tuples(index, index), max_size=2)):
            m[dst] = list(m[src])
    return m, ncols


def dict_rows(matrix, p):
    """Dense int rows as the ``{column: int}`` rows mod p that the sparse
    elimination takes, zeros left out."""
    return [{c: v % p for c, v in enumerate(row) if v % p} for row in matrix]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sparse_int_matrices(), st.integers(0, 3), st.data())
def test_modular_elimination_matches_bareiss(drawn, seed, data):
    # every minor is far below p, so no nonzero one vanishes mod p; the
    # reference is Gaussian elimination over Fraction
    m, ncols = drawn
    p = rank_prime(seed)
    rows = dict_rows(m, p)
    ref = frac_gauss_rank(m)
    found = eliminate(rows, p)
    assert found[:2] == ref[:2]
    assert found.circuit == ref.circuit
    relation = found.relation
    assert (relation is None) == (ref.relation is None)
    if relation is not None:
        # rows before j are independent, so the relation is unique up to
        # its scale, which is 1 mod p
        assert relation == (tuple(c.numerator * pow(c.denominator, -1, p) % p
                                  for c in ref.relation), 1)

    # the same matrix through the oracle: entry v is v * u[0,0], so every
    # oracle value is v times one nonzero draw, and a column subset (in
    # any order) is remapped to positions in the subset
    coeff = CoeffRef(0, 0, 0)
    matrix = SupportMatrix(
        tuple({c: {coeff: {0: v}} for c, v in enumerate(row) if v} for row in m),
        tuple(range(len(m))), tuple(range(ncols)))
    oracle = RankOracle(matrix, seed=seed)
    row_sel = data.draw(st.none() | st.lists(
        st.integers(0, max(len(m) - 1, 0)), unique=True, max_size=len(m)))
    col_sel = data.draw(st.lists(st.integers(0, ncols - 1), unique=True,
                                 max_size=ncols))
    picked = m if row_sel is None else [m[r] for r in row_sel]
    sub = frac_gauss_rank([[row[c] for c in col_sel] for row in picked])
    found = oracle.rank_with_pivots(row_sel, col_sel)
    assert found[:2] == sub[:2]
    assert found.circuit == sub.circuit


@st.composite
def skipping_int_matrices(draw):
    """Up to 8 sparse integer rows in up to 6 columns, drawn independently,
    so their leading columns are often out of order: rows skip pivots
    whose column they lack and fill onto columns of pivots made later.
    Some rows are integer combinations of two rows before them."""
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 4))
    m = []
    for i in range(draw(st.integers(1, 8))):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(st.lists(st.integers(0, i - 1), min_size=2,
                                 max_size=2))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m.append([x * u + y * v for u, v in zip(m[a], m[b])])
        else:
            m.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return m


@settings(derandomize=True, deadline=None, max_examples=400)
@given(skipping_int_matrices())
def test_exact_relation_is_the_cramer_vector(m):
    # rows 0..j have rank j, so their left kernel is spanned by the signed
    # maximal minors on any column basis of rows 0..j-1 (Cramer); the exact
    # relation must be that vector up to sign, not a multiple of it
    ref = frac_gauss_rank(m)
    relation = eliminate(m).relation
    assert (relation is None) == (ref.relation is None)
    if relation is None:
        return
    coeffs, scale = relation
    j = len(coeffs)
    assert [Fraction(c, scale) for c in coeffs] == list(ref.relation)
    cols = frac_gauss_rank(m[:j]).pivots
    minors = [(-1) ** (j - i) * int(frac_gauss_det(
        [[m[r][c] for c in cols] for r in range(j + 1) if r != i]))
        for i in range(j + 1)]
    found = [*coeffs, -scale]
    assert found in (minors, [-v for v in minors])
    # so it is primitive when the rows span the lattice on those columns
    assert math.gcd(*found) == math.gcd(*minors)


@st.composite
def late_rows_after_a_relation(draw):
    """Integer rows whose first dependent row is not the last: drawn rows,
    then a multiple of one of them (zero included), then 1-4 more drawn
    rows, all over 1-6 columns."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=ncols,
                   max_size=ncols)
    head = draw(st.lists(row, min_size=1, max_size=4))
    x, a = draw(st.integers(-2, 2)), draw(st.integers(0, len(head) - 1))
    tail = draw(st.lists(row, min_size=1, max_size=4))
    return head + [[x * v for v in head[a]]] + tail


@settings(derandomize=True, deadline=None, max_examples=300)
@given(late_rows_after_a_relation(), st.integers(0, 3))
def test_one_pass_eliminates_past_the_first_relation(m, seed):
    # the rank and the pivots count the rows after the relation, which the
    # relation and the circuit do not see
    ref = frac_gauss_rank(m)
    assert ref.relation is not None and len(ref.relation) < len(m) - 1
    p = rank_prime(seed)
    for found in (eliminate(m), eliminate(dict_rows(m, p), p)):
        assert found[:2] == ref[:2]
        assert found.circuit == ref.circuit
    coeffs, scale = eliminate(m).relation
    assert tuple(Fraction(c, scale) for c in coeffs) == ref.relation
    assert eliminate(dict_rows(m, p), p).relation == (
        tuple(c.numerator * pow(c.denominator, -1, p) % p
              for c in ref.relation), 1)
