"""Existence, super-essential subsystem, Jacobi order bounds."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdres import essanalysis
from sdres.algred import prolonged_support_matrix
from sdres.diffpoly import CoeffRef, DiffSystem, SupportMatrix, support_matrix
from sdres.errors import InfiniteJacobiBound, RankDrop
from sdres.essanalysis import (
    RankOracle,
    Specialization,
    find_super_essential,
    has_collisions,
    is_transformally_essential,
    jacobi_number,
    jacobi_numbers_hat,
    modified_jacobi_bounds,
    pivot_candidates,
    select_and_specialize,
    symbolic_rank,
)

from sdres.parsing import parse_system
from sdres.pipeline import run_pipeline

import polynomial_route
from systems import (
    golden_system,
    mono,
    poly,
    rank_deficient_system,
    specialize,
    super_essential,
    symbolic_oracle,
    toy_system,
)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_golden_rank_is_four():
    m = support_matrix(golden_system().polys, 4)
    assert symbolic_rank(RankOracle(m, seed=0)).rank == 4
    assert symbolic_rank(RankOracle(m, seed=0, exact=True)).rank == 4


def test_rank_seed_stability():
    m = support_matrix(golden_system().polys, 4)
    assert symbolic_rank(RankOracle(m, seed=0)) == \
        symbolic_rank(RankOracle(m, seed=0))
    assert symbolic_rank(RankOracle(m, seed=7)).rank == 4


def test_transformally_essential():
    assert is_transformally_essential(golden_system())
    assert is_transformally_essential(toy_system())
    assert not is_transformally_essential(rank_deficient_system())
    assert not is_transformally_essential(rank_deficient_system(), exact=True)


def test_shared_direction_system_not_essential():
    # all ratios proportional to y1*y2: rank 1 < 2
    shared = mono({(1, 0): 1, (2, 0): 1})
    polys = tuple(poly(i, [mono({}), shared]) for i in range(3))
    sys2 = DiffSystem(polys=polys, nvars=2)
    assert not is_transformally_essential(sys2)


def test_high_shift_rank_costs_terms_not_shifts():
    # entries are sparse in the shift: transform count 100000 is two terms
    src = parse_system("P0 = u + u*y[1,0]*y[1,100000]\nP1 = u + u*y[1,1]")
    assert symbolic_rank(RankOracle(support_matrix(src.polys, src.nvars))).rank == 1


def test_bounds_at_shift_1e5_keep_oracle_entries_below_the_prime(monkeypatch):
    # x0^100000 is taken mod p, so no entry grows past a word
    oracles = []
    init = RankOracle.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        oracles.append(self)

    monkeypatch.setattr(RankOracle, "__init__", recording_init)
    src = parse_system("P0 = u + u*y[1,0]*y[1,100000]\nP1 = u + u*y[1,1]")
    report = run_pipeline(src, stage="bounds", seed=0)
    assert report.modified_jacobi == (1, 100000)
    assert oracles
    for oracle in oracles:
        values = [v for row in oracle._entries for v in row.values()]
        assert values and all(0 <= v < oracle.p for v in values)


# shifts up to 50, one draw in ten up to 10^4
SHIFT = st.integers(0, 9).flatmap(
    lambda d: st.integers(0, 10 ** 4) if d == 0 else st.integers(0, 50))


def monomials(nvars):
    factor = st.tuples(st.integers(1, nvars), SHIFT)
    return st.dictionaries(factor, st.sampled_from((-2, -1, 1, 2)),
                           max_size=3).map(mono)


@st.composite
def small_support_matrices(draw):
    """Support matrices of 1-4 polynomials in 1-4 variables, 2-3 terms
    each."""
    nvars = draw(st.integers(1, 4))
    polys = []
    for i in range(draw(st.integers(1, 4))):
        monos = draw(st.lists(monomials(nvars), min_size=2, max_size=3,
                              unique_by=lambda m: m.powers))
        polys.append(poly(i, monos))
    return support_matrix(polys, nvars)


def subsets(n):
    return st.none() | st.lists(st.integers(0, n - 1), unique=True, max_size=n)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_support_matrices(), st.integers(0, 3), st.data())
def test_randomized_rank_queries_agree_with_paranoid(m, seed, data):
    fast = RankOracle(m, seed=seed)
    exact = RankOracle(m, exact=True)
    for _ in range(3):
        rows = data.draw(subsets(len(m.rows)))
        cols = data.draw(subsets(len(m.col_labels)))
        found = fast.rank_with_pivots(rows, cols)
        ref = exact.rank_with_pivots(rows, cols)
        assert found[:2] == ref[:2]
        assert found.circuit == ref.circuit


# ---------------------------------------------------------------------------
# super-essential subset
# ---------------------------------------------------------------------------

def test_golden_super_essential():
    assert super_essential(golden_system(), seed=0) == (0, 1, 2)
    assert super_essential(golden_system(), seed=3) == (0, 1, 2)
    assert super_essential(golden_system(), seed=0, exact=True) == (0, 1, 2)


def test_toy_super_essential_is_everything():
    assert super_essential(toy_system(), seed=0) == (0, 1)


def test_super_essential_rejects_non_essential_input():
    with pytest.raises(RankDrop):
        super_essential(rank_deficient_system(), seed=0)


# ---------------------------------------------------------------------------
# Jacobi numbers
# ---------------------------------------------------------------------------

def brute_force_jacobi(matrix):
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    if nrows == 0 or ncols == 0:
        return 0
    transposed = nrows > ncols
    if transposed:
        matrix = [[matrix[r][c] for r in range(nrows)] for c in range(ncols)]
        nrows, ncols = ncols, nrows
    best = None
    for cols in permutations(range(ncols), nrows):
        total = 0
        ok = True
        for r, c in zip(range(nrows), cols):
            v = matrix[r][c]
            if v is None:
                ok = False
                break
            total += v
        if ok and (best is None or total > best):
            best = total
    return best


def test_jacobi_examples():
    assert jacobi_number([[1, 2], [2, 1]]) == 4
    assert jacobi_number([[1, 1], [2, 1]]) == 3
    assert jacobi_number([[None, None], [1, 2]]) is None
    assert jacobi_number([[None, 3], [1, None]]) == 4
    assert jacobi_number([[5]]) == 5
    assert jacobi_number([]) == 0
    # rectangular: best min(m,n)-selection
    assert jacobi_number([[1, 10, 2]]) == 10
    assert jacobi_number([[1], [10], [2]]) == 10
    # exact beyond float precision
    assert jacobi_number([[2 ** 60 + 1, None], [None, 1]]) == 2 ** 60 + 2


def test_jacobi_matches_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[None if rng.random() < 0.25 else rng.randint(-6, 9)
              for _ in range(nc)] for _ in range(nr)]
        assert jacobi_number(m) == brute_force_jacobi(m)


def test_jacobi_numbers_hat_golden():
    omat = ((1, 1), (1, 2), (2, 1))
    assert jacobi_numbers_hat(omat) == (4, 3, 3)


# ---------------------------------------------------------------------------
# pivot selection and modified bounds
# ---------------------------------------------------------------------------

def test_golden_specialization_defaults_to_minimal_bounds():
    sys = golden_system()
    spec = specialize(sys, (0, 1, 2), seed=0)
    assert isinstance(spec, Specialization)
    assert spec.kept_vars == (1, 4)
    assert spec.bounds.order_mat == ((1, 1), (1, 2), (2, 1))
    assert spec.bounds.jacobi == (4, 3, 3)
    assert spec.bounds.gcd_degree == 1
    assert spec.bounds.modified == (3, 2, 2)
    assert not spec.has_collisions
    # the specialized polynomials live in y1, y4 only
    for p in spec.polys:
        assert p.variables() <= {1, 4}


def test_golden_specialization_override():
    sys = golden_system()
    spec = specialize(sys, (0, 1, 2), seed=0, kept_override=(1, 2))
    assert spec.kept_vars == (1, 2)
    assert spec.bounds.order_mat == ((1, 1), (1, 1), (2, 2))
    assert spec.bounds.jacobi == (3, 3, 2)
    assert spec.bounds.gcd_degree == 0
    assert spec.bounds.modified == (3, 3, 2)


def test_golden_override_must_have_full_rank():
    sys = golden_system()
    with pytest.raises(RankDrop):
        # a single column cannot have rank 2
        specialize(sys, (0, 1, 2), seed=0, kept_override=(1,))


def test_modified_bounds_direct():
    sys = golden_system()
    spec = specialize(sys, (0, 1, 2), seed=0, kept_override=(1, 4))
    b = modified_jacobi_bounds(spec.matrix)
    assert b.modified == (3, 2, 2)


def test_toy_specialization():
    spec = specialize(toy_system(), (0, 1), seed=0)
    assert spec.kept_vars == (1,)
    assert spec.bounds.order_mat == ((0,), (1,))
    assert spec.bounds.jacobi == (1, 0)
    assert spec.bounds.modified == (1, 0)


@st.composite
def systems_with_a_proper_core(draw):
    """n + 1 polynomials in 2 <= n <= 4 variables, 2-3 terms each, shifts
    0-2, whose first t + 1 polynomials (t < n) use only y_1..y_t: those
    rows are dependent, so a super-essential subsystem is a proper subset."""
    n = draw(st.integers(2, 4))
    t = draw(st.integers(1, n - 1))
    polys = []
    for i in range(n + 1):
        factor = st.tuples(st.integers(1, t if i <= t else n),
                           st.integers(0, 2))
        monos = st.dictionaries(factor, st.sampled_from((-2, -1, 1, 2)),
                                max_size=3).map(mono)
        polys.append(poly(i, draw(st.lists(monos, min_size=2, max_size=3,
                                           unique_by=lambda m: m.powers))))
    return DiffSystem(polys=tuple(polys), nvars=n)


def specialization_or_error(system, oracle, subset):
    try:
        return select_and_specialize(system, oracle, subset)
    except InfiniteJacobiBound as exc:
        return repr(exc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems_with_a_proper_core(), st.integers(0, 3))
def test_bounds_stage_on_the_shared_oracle_matches_a_subset_matrix(system,
                                                                   seed):
    oracle = symbolic_oracle(system, seed=seed)
    found = symbolic_rank(oracle)
    assume(found.rank == system.nvars)
    subset = find_super_essential(found, len(system.polys))
    assert len(subset) < len(system.polys)
    fresh = RankOracle(oracle.matrix.select(subset, range(system.nvars)),
                       seed=seed)
    assert specialization_or_error(system, oracle, subset) == \
        specialization_or_error(system, fresh, subset)


@st.composite
def colliding_systems(draw):
    """1-4 polynomials in 1-3 variables, 1-4 terms each, shifts 0-2: few
    factors per monomial, so some variables are absent from a polynomial
    (order -infinity), and terms are often powers of a few shared
    monomials, so monomials repeat (here, or once variables are set to
    one) or differ only in their exponents."""
    nvars = draw(st.integers(1, 3))
    factor = st.tuples(st.integers(1, nvars), st.integers(0, 2))
    powers = st.dictionaries(factor, st.sampled_from((-2, -1, 1, 2)),
                             max_size=2)
    pool = draw(st.lists(powers, min_size=1, max_size=3))
    shared = st.tuples(st.sampled_from(pool), st.sampled_from((-1, 1, 2))).map(
        lambda pk: {v: pk[1] * e for v, e in pk[0].items()})
    monomial = (powers | shared).map(mono)
    polys = []
    for i in range(draw(st.integers(1, 4))):
        monos = draw(st.lists(monomial, min_size=1, max_size=3))
        if draw(st.booleans()):
            monos.append(draw(st.sampled_from(monos)))
        polys.append(poly(i, monos))
    return tuple(polys), nvars


@settings(derandomize=True, deadline=None, max_examples=200)
@given(colliding_systems(), st.data())
def test_row_route_matches_the_polynomial_route(drawn, data):
    # every column subset: the order matrix, the collisions, the gcd
    # degree and the prolonged matrix, read off the selected rows, equal
    # those of the specialized polynomials in norm form
    polys, nvars = drawn
    matrix = support_matrix(polys, nvars)
    nterms = [len(p.terms) for p in polys]
    bounds = data.draw(st.lists(st.integers(0, 2), min_size=len(polys),
                                max_size=len(polys)))
    for size in range(nvars + 1):
        for cols in combinations(range(nvars), size):
            selected = matrix.select(range(len(polys)), cols)
            kept = selected.col_labels
            spec_polys, collide = polynomial_route.specialize_candidate(
                polys, kept)
            jacobi = modified_jacobi_bounds(selected)
            assert jacobi.order_mat == polynomial_route.order_matrix(
                spec_polys, kept)
            assert has_collisions(selected, nterms) == collide
            assert jacobi.gcd_degree == polynomial_route.gcd_degree(
                spec_polys, kept)
            assert polynomial_route.shifted_keys(
                prolonged_support_matrix(selected, bounds)) == \
                polynomial_route.prolonged_support_matrix(spec_polys, bounds)


def test_the_exact_route_keeps_shared_entries_apart():
    # prolonged rows (0, 0) and (0, 1) hold the same entry dicts, and the
    # rows of two copies of one polynomial the same keys; a key is a symbol
    # of its own row, so both routes keep each pair at full row rank
    f = poly(0, [mono({}), mono({(1, 0): 1}), mono({(2, 0): 1})])
    matrix = prolonged_support_matrix(support_matrix((f, f), 2), (1, 1))
    assert matrix.row_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert sorted(map(id, matrix.rows[0].values())) == \
        sorted(map(id, matrix.rows[1].values()))
    for oracle in (RankOracle(matrix, seed=0), RankOracle(matrix, exact=True)):
        assert oracle.rank_with_pivots((0, 1)).rank == 2
        assert oracle.rank_with_pivots((0, 2)).rank == 2
        assert oracle.rank_with_pivots().rank == 4


@settings(derandomize=True, deadline=None, max_examples=100)
@given(colliding_systems(), st.integers(0, 3), st.data())
def test_prolonged_rank_queries_agree_with_paranoid(drawn, seed, data):
    polys, nvars = drawn
    bounds = data.draw(st.lists(st.integers(0, 2), min_size=len(polys),
                                max_size=len(polys)))
    m = prolonged_support_matrix(support_matrix(polys, nvars), bounds)
    fast = RankOracle(m, seed=seed)
    exact = RankOracle(m, exact=True)
    for rows in (None, *(data.draw(subsets(len(m.rows))) for _ in range(2))):
        found = fast.rank_with_pivots(rows)
        ref = exact.rank_with_pivots(rows)
        assert found[:2] == ref[:2]
        assert found.circuit == ref.circuit


def test_rank_oracle_submatrix_queries():
    m = support_matrix(golden_system().polys, 4)
    oracle = RankOracle(m, seed=0)
    assert oracle.rank_with_pivots().rank == 4
    assert oracle.rank_with_pivots(row_indices=(0, 1, 2)).rank == 2
    assert oracle.rank_with_pivots(row_indices=(0, 1, 2, 4)).rank == 3
    assert oracle.rank_with_pivots(row_indices=(1, 2, 3, 4)).rank == 4
    assert oracle.rank_with_pivots(row_indices=(0, 1, 2),
                                   col_indices=(0, 3)).rank == 2


# ---------------------------------------------------------------------------
# column bases of the bounds stage
# ---------------------------------------------------------------------------

@st.composite
def column_matroids(draw):
    """Integer support matrices of 1-5 rows over 1-8 columns, entries
    mostly zero, some columns repeated: few column subsets are bases.
    Every entry is its integer times u[0,0], so the oracle's matroid is the
    integer matrix's."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2))
    cols = [draw(st.lists(entry, min_size=nrows, max_size=nrows))
            for _ in range(ncols)]
    index = st.integers(0, ncols - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        cols[dst] = list(cols[src])
    coeff = CoeffRef(0, 0, 0)
    rows = [{c: {coeff: {0: col[r]}} for c, col in enumerate(cols) if col[r]}
            for r in range(nrows)]
    return SupportMatrix(tuple(rows), tuple(range(nrows)), tuple(range(ncols)))


def subset_loop_candidates(oracle, full):
    """The reference for ``pivot_candidates``: every m-subset of the
    columns in lexicographic order, one rank query each, settling for the
    echelon pivots once MAX_PIVOT_CANDIDATES bases are held and a subset is
    still untried."""
    candidates = []
    for cols in combinations(range(len(oracle.matrix.col_labels)), full.rank):
        if len(candidates) >= essanalysis.MAX_PIVOT_CANDIDATES:
            return [full.pivots]
        if oracle.rank_with_pivots(col_indices=cols).rank == full.rank:
            candidates.append(cols)
    return candidates


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_support_matrices() | column_matroids(), st.integers(0, 3),
       st.sampled_from((0, 1, 2, 1000)))
def test_bases_search_matches_the_subset_loop(m, seed, cap):
    oracle = RankOracle(m, seed=seed)
    full = oracle.rank_with_pivots()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(essanalysis, "MAX_PIVOT_CANDIDATES", cap)
        assert pivot_candidates(oracle, full) == \
            subset_loop_candidates(oracle, full)


def block_system(m):
    """2m variables; P0..Pm carry the resultant, and their support matrix
    has m zero columns, so one of its C(2m, m) column subsets is a basis."""
    lines = ["P0 = u + u*" + "*".join(f"y[{i},0]" for i in range(1, m + 1))]
    lines += [f"P{i} = u + u*y[{i},1]" for i in range(1, m + 1)]
    lines += [f"P{m + j} = u + u*y[{m + j},0]" for j in range(1, m + 1)]
    return "\n".join(lines)


def test_block_system_at_m_12_finds_its_one_basis():
    # C(24, 12) = 2704156 column subsets; the search makes 13 rank
    # queries: the whole matrix, then one dead end per prefix length
    report = run_pipeline(parse_system(block_system(12)), seed=0)
    assert report.super_essential == tuple(range(13))
    assert report.kept_vars == tuple(range(1, 13))
    assert report.modified_jacobi == (12,) + (11,) * 12
    assert len(report.resultant) == 2
