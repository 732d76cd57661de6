"""Core arithmetic: ring axioms by evaluation, determinants, gcd, rank,
first relations and circuits."""

import itertools
import random
from fractions import Fraction

import pytest

from sdres.errors import NotDivisible
from sdres.multipoly import (
    MultiPoly,
    UniPoly,
    determinant,
    first_circuit,
    first_relation,
    format_unipoly,
    mono_cmp,
    mono_div,
    mono_mul,
    rank_and_pivots,
    uni_gcd,
)

from det_oracles import frac_gauss_det, leibniz_det


def rand_unipoly(rng, max_deg=4, bound=9):
    return UniPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


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
# UniPoly
# ---------------------------------------------------------------------------

def test_unipoly_normalizes_trailing_zeros():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).is_zero()
    assert UniPoly().degree == -1


def test_unipoly_ring_ops_match_evaluation():
    rng = random.Random(101)
    for _ in range(200):
        a, b = rand_unipoly(rng), rand_unipoly(rng)
        x0 = rng.randint(-10, 10)
        assert (a + b).evaluate(x0) == a.evaluate(x0) + b.evaluate(x0)
        assert (a - b).evaluate(x0) == a.evaluate(x0) - b.evaluate(x0)
        assert (a * b).evaluate(x0) == a.evaluate(x0) * b.evaluate(x0)


def test_unipoly_exact_div_roundtrip():
    rng = random.Random(102)
    for _ in range(200):
        a, b = rand_unipoly(rng), rand_unipoly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_unipoly_exact_div_rejects_non_multiples():
    with pytest.raises(NotDivisible):
        UniPoly((1, 1)).exact_div(UniPoly((0, 1)))   # (x+1)/x
    with pytest.raises(NotDivisible):
        UniPoly((3,)).exact_div(UniPoly((2,)))


def test_uni_gcd_planted_factor():
    rng = random.Random(103)
    hits = 0
    for _ in range(100):
        g = rand_unipoly(rng, max_deg=3)
        if g.is_zero():
            continue
        a, b = rand_unipoly(rng), rand_unipoly(rng)
        got = uni_gcd([g * a, g * b])
        # the planted factor always divides the gcd
        if not (g * a).is_zero() or not (g * b).is_zero():
            got_or_zero = got
            if not got_or_zero.is_zero():
                assert got_or_zero.exact_div is not None
                # primitive part of g divides got
                gp = g.primitive()
                if gp.leading() < 0:
                    gp = -gp
                got_or_zero.exact_div(gp)  # raises if not divisible
                hits += 1
    assert hits > 50


def test_uni_gcd_examples():
    x = UniPoly.x_power
    # gcd(x^2+x, x+1) = x+1
    assert uni_gcd([UniPoly((0, 1, 1)), UniPoly((1, 1))]) == UniPoly((1, 1))
    # contents are stripped: gcd(2x, 4) = 1
    assert uni_gcd([UniPoly((0, 2)), UniPoly((4,))]) == UniPoly((1,))
    assert uni_gcd([UniPoly(), UniPoly()]).is_zero()
    assert uni_gcd([x(2, -3)]) == UniPoly((0, 0, 1))


def test_format_unipoly():
    assert format_unipoly(UniPoly((1, 1))) == "x+1"
    assert format_unipoly(UniPoly((0, -2, 1))) == "x^2-2x"
    assert format_unipoly(UniPoly()) == "0"


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
    # degree dominates
    assert mono_cmp(((5, 3),), ((0, 2),)) == 1
    # ties: earlier symbol with positive exponent wins
    assert mono_cmp(((0, 1), (1, 1)), ((1, 2),)) == 1
    assert mono_cmp(((1, 2),), ((0, 1), (1, 1))) == -1
    assert mono_cmp(((0, 2),), ((0, 2),)) == 0
    # antisymmetry + transitivity spot check on random triples
    rng = random.Random(104)
    monos = []
    for _ in range(60):
        monos.append(tuple(sorted((s, rng.randint(1, 3))
                                  for s in rng.sample(range(5), rng.randint(0, 3)))))
    for a in monos[:20]:
        for b in monos[:20]:
            assert mono_cmp(a, b) == -mono_cmp(b, a)


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

def frac_gauss_rank(matrix):
    if not matrix:
        return 0
    m = [[Fraction(v) for v in row] for row in matrix]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            for c in range(col, ncols):
                m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


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
        rank, pivots = rank_and_pivots(m)
        assert rank == frac_gauss_rank(m)
        assert rank <= k
        assert len(pivots) == rank
        # pivot columns really are independent
        sub = [[row[c] for c in pivots] for row in m]
        assert frac_gauss_rank(sub) == rank


def test_unipoly_matrix_rank():
    x = UniPoly((0, 1))
    one = UniPoly((1,))
    two = UniPoly((2,))
    # rows [x, 1], [2x, 2] are proportional
    rank, pivots = rank_and_pivots([[x, one], [x * 2, two]])
    assert rank == 1 and pivots == (0,)
    rank, pivots = rank_and_pivots([[x, one], [one, x]])
    assert rank == 2 and pivots == (0, 1)
    # rank of a matrix with a zero column skips it
    rank, pivots = rank_and_pivots([[UniPoly(), one], [UniPoly(), x]])
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
            [[evaluate(e, pt) for e in row] for row in matrix]))
        if best == min(len(matrix), len(matrix[0]) if matrix else 0):
            break
    return best


def assert_first_circuit_is_brute_force(matrix, rank_of):
    memo = {}

    def rank(rows):
        if rows not in memo:
            memo[rows] = rank_of([matrix[r] for r in rows])
        return memo[rows]

    assert first_circuit(matrix) == brute_force_circuit(len(matrix), rank)
    relation = first_relation(matrix)
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
            [[UniPoly.const(v) for v in row] for row in m],
            lambda rows: exact_rank_by_grid(
                rows, [0], lambda e, t: e.evaluate(t)))


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
                rows, points, lambda e, t: e.evaluate(t)))


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
    one, x = UniPoly((1,)), UniPoly((0, 1))
    zero = UniPoly()
    # row 2 = x * row 0: the circuit skips the independent row 1
    assert first_circuit([[one, x], [x, one], [x, x * x]]) == (0, 2)
    assert first_circuit([[one, zero], [zero, one]]) is None
    assert first_circuit([[zero, zero], [one, x]]) == (0,)
    assert first_circuit([]) is None
