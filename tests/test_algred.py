"""Prolongation, essential circuit extraction, lattice re-expression."""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres.algred import (
    AlgebraicReduction,
    algebraic_reduction,
    echelon_coordinates,
    find_minimal_essential,
    hermite_basis,
    prolonged_support_matrix,
    strong_essential_transform,
    variable_essential_reduce,
)
from sdres.diffpoly import CoeffRef, VarRef, support_matrix
from sdres.errors import (
    CorankLost,
    DegenerateLattice,
    NoEssentialSubset,
    SDResError,
)
from sdres.essanalysis import RankOracle
from sdres.multipoly import eliminate
from sdres.parsing import parse_system

from det_oracles import frac_gauss_rank
from polynomial_route import relative_supports, shifted_keys
from systems import golden_system, mono, poly, specialize, super_essential, toy_system

CASES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "cases"


def golden_specialized():
    return specialize(golden_system(), (0, 1, 2), seed=0)


# ---------------------------------------------------------------------------
# prolongation and supports
# ---------------------------------------------------------------------------

def test_prolong_counts_and_tags():
    spec = golden_specialized()
    matrix = prolonged_support_matrix(spec.matrix, spec.bounds.modified)
    assert len(matrix.rows) == 10
    assert list(matrix.row_labels) == [(0, 0), (0, 1), (0, 2), (0, 3),
                                       (1, 0), (1, 1), (1, 2),
                                       (2, 0), (2, 1), (2, 2)]
    # shifting moves both coefficients and variables: row (0, 3) holds row
    # (0, 0)'s entries, P0's keys standing for its symbols shifted by 3, in
    # the columns of its transform instances shifted by 3
    assert matrix.row_labels[3] == (0, 3)
    assert all(r.shift == 3 for e in shifted_keys(matrix).rows[3].values()
               for r in e)
    first, fourth = matrix.rows[0], matrix.rows[3]
    assert sorted(map(id, first.values())) == sorted(map(id, fourth.values()))
    assert {matrix.col_labels[c] for c in fourth} == {
        VarRef(v.var, v.shift + 3) for v in map(matrix.col_labels.__getitem__,
                                                 first)}


def test_relative_supports_laurent():
    f = poly(0, [mono({(1, 0): 1}), mono({(2, 0): 1})])
    sup = relative_supports(f)
    assert sup[0][1] == {}
    assert sup[1][1] == {VarRef(2, 0): 1, VarRef(1, 0): -1}


def test_alg_matrix_golden_rank():
    spec = golden_specialized()
    matrix = prolonged_support_matrix(spec.matrix, spec.bounds.modified)
    assert len(matrix.col_labels) == 10
    assert RankOracle(matrix, seed=0).rank_with_pivots().rank == 8
    assert RankOracle(matrix, seed=0, exact=True).rank_with_pivots().rank == 8


# ---------------------------------------------------------------------------
# lattice helpers
# ---------------------------------------------------------------------------

def test_hermite_basis_examples():
    assert hermite_basis([(2, 0), (0, 2), (1, 1)]) == ((1, 1), (0, 2))
    assert hermite_basis([(4,), (6,)]) == ((2,),)
    assert hermite_basis([(0, 0)]) == ()
    assert hermite_basis([(-3, 0), (0, -5)]) == ((3, 0), (0, 5))


def test_hermite_basis_is_canonical_for_the_lattice():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(k))
                for _ in range(rng.randint(1, 5))]
        basis = hermite_basis(vecs)
        # every generator lies in the basis span with integer coordinates
        for v in vecs:
            assert lattice_coordinates(basis, v) is not None
        # adding an integer combination of generators changes nothing
        coeffs = [rng.randint(-2, 2) for _ in vecs]
        combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs))
                      for i in range(k))
        assert hermite_basis(list(vecs) + [combo]) == basis


def lattice_coordinates(basis, vector):
    """The reference for the transform's coordinates: the first row
    relation of basis + vector, which must end at the vector and divide
    exactly by its scale; None when the vector lies outside the lattice."""
    relation = eliminate([*basis, vector]).relation
    if relation is None or len(relation[0]) != len(basis):
        return None
    coeffs, scale = relation
    if any(c % scale for c in coeffs):
        return None
    return tuple(c // scale for c in coeffs)


def test_lattice_coordinates():
    basis = ((1, 1), (0, 2))
    assert lattice_coordinates(basis, (2, 0)) == (2, -1)
    assert lattice_coordinates(basis, (3, 1)) == (3, -1)
    assert lattice_coordinates(basis, (1, 0)) is None        # half coordinate
    assert lattice_coordinates(((1, 0),), (0, 1)) is None    # outside the span
    assert lattice_coordinates((), (0, 0)) == ()
    assert lattice_coordinates((), (1, 0)) is None


def test_lattice_coordinates_additive():
    rng = random.Random(9)
    basis = ((2, 1, 0), (0, 3, 1), (0, 0, 2))
    for _ in range(40):
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        b = tuple(rng.randint(-3, 3) for _ in range(3))
        va = tuple(sum(a[j] * basis[j][i] for j in range(3)) for i in range(3))
        vb = tuple(sum(b[j] * basis[j][i] for j in range(3)) for i in range(3))
        assert lattice_coordinates(basis, va) == a
        assert lattice_coordinates(basis, vb) == b
        vsum = tuple(x + y for x, y in zip(va, vb))
        assert lattice_coordinates(basis, vsum) == tuple(
            x + y for x, y in zip(a, b))


def integer_vectors(k):
    return st.tuples(*[st.integers(-4, 4)] * k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(integer_vectors(k), min_size=1, max_size=5),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    integer_vectors(k))))
def test_echelon_coordinates_match_the_reference(drawn):
    # a combination of the generators lies in their lattice; the free
    # vector often does not (a half coordinate or outside the span)
    gens, mult, free = drawn
    basis = hermite_basis(gens)
    combo = tuple(sum(m * g[i] for m, g in zip(mult, gens))
                  for i in range(len(free)))
    assert echelon_coordinates(basis, combo) is not None
    for vector in (combo, free, *gens):
        assert echelon_coordinates(basis, vector) == \
            lattice_coordinates(basis, vector)


@st.composite
def lattice_supports(draw):
    """Supports over Z^k, each polynomial the origin plus 1-3 vectors: on
    the special path k distinct vectors of rank k, on the Hermite path any
    vectors, so the lattice may also have a rank below k."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool = draw(st.lists(integer_vectors(k), min_size=k, max_size=k,
                             unique=True).filter(
            lambda vs: all(any(v) for v in vs) and eliminate(vs).rank == k))
    else:
        pool = draw(st.lists(integer_vectors(k), min_size=1, max_size=6))
    refs = iter(CoeffRef(i, j, 0) for i in range(8) for j in range(4))
    supports = []
    while pool:
        n = draw(st.integers(1, 3))
        supports.append(((next(refs), (0,) * k),
                         *((next(refs), v) for v in pool[:n])))
        pool = pool[n:]
    return k, tuple(supports)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lattice_supports())
def test_transform_coordinates_match_the_reference(drawn):
    k, supports = drawn
    distinct = {v for sup in supports for _, v in sup if any(v)}
    try:
        basis, zpolys = strong_essential_transform(supports, k)
    except DegenerateLattice:
        assert len(hermite_basis(sorted(distinct))) != k
        return
    if len(distinct) == k and eliminate(sorted(distinct)).rank == k:
        assert basis == tuple(sorted(distinct))  # the special path
    for sup, zp in zip(supports, zpolys):
        assert [ref for ref, _ in sup] == [ref for ref, _ in zp]
        for (_, v), (_, coords) in zip(sup, zp):
            assert coords == lattice_coordinates(basis, v)


def test_strong_transform_fallback_path():
    # two distinct vectors in a rank-1 lattice: basis must come from the
    # Hermite form and both points get integer coordinates
    r0, r1, r2 = CoeffRef(0, 0, 0), CoeffRef(0, 1, 0), CoeffRef(0, 2, 0)
    supports = (((r0, (0,)), (r1, (2,)), (r2, (3,))),)
    basis, zpolys = strong_essential_transform(supports, 1)
    assert basis == ((1,),)
    assert zpolys == (((r0, (0,)), (r1, (2,)), (r2, (3,))),)


def test_strong_transform_zero_dimensional():
    r0, r1 = CoeffRef(0, 0, 0), CoeffRef(0, 1, 0)
    basis, zpolys = strong_essential_transform((((r0, ()), (r1, ())),), 0)
    assert basis == ()
    assert zpolys == (((r0, ()), (r1, ())),)


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------

def test_toy_reduction():
    spec = specialize(toy_system(), (0, 1), seed=0)
    red = algebraic_reduction(spec, spec.bounds.modified, seed=0)
    assert red.used_bounds == (1, 0)
    assert red.corank_offset == 0
    assert red.essential_tags == ((0, 1), (1, 0))
    assert red.kept_refs == (VarRef(1, 1),)
    assert red.dropped_refs == ()
    assert red.basis == ((1,),)
    assert red.zpolys == (
        ((CoeffRef(0, 0, 1), (0,)), (CoeffRef(0, 1, 1), (1,))),
        ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))),
    )


def test_golden_reduction():
    spec = golden_specialized()
    red = algebraic_reduction(spec, spec.bounds.modified, seed=0)
    assert red.corank_offset == 1
    assert red.used_bounds == (2, 1, 1)
    assert red.essential_tags == ((0, 0), (0, 1), (0, 2),
                                  (1, 0), (1, 1), (2, 0), (2, 1))
    assert red.kept_refs == (VarRef(1, 0), VarRef(1, 1), VarRef(1, 2),
                             VarRef(1, 3), VarRef(4, 1), VarRef(4, 2))
    assert red.dropped_refs == (VarRef(4, 0), VarRef(4, 3))
    assert red.nzvars == 6
    assert red.basis == (
        (0, 0, 0, 2, 0, 0),   # third transform of y1, squared
        (0, 0, 2, 0, 0, 0),
        (0, 0, 2, 0, 0, 1),
        (0, 2, 0, 0, 0, 0),
        (0, 2, 0, 0, 1, 1),
        (2, 0, 0, 0, 1, 0),
    )

    e = [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)]
    origin = (0,) * 6
    points = [tuple(pt for _, pt in zp) for zp in red.zpolys]
    assert points[0] == (origin, e[3], e[5])
    assert points[1] == (origin, e[1], e[4])
    assert points[2] == (origin, e[0], e[2])
    assert points[3] == (origin, e[3], e[4])
    assert points[4] == (origin, e[1], e[2])
    assert points[5] == (origin, e[1], e[3], e[5])
    assert points[6] == (origin, e[0], e[1], e[4])

    # coefficient symbols follow the shift of each essential row
    for (i, l), zp in zip(red.essential_tags, red.zpolys):
        for j, (ref, _) in enumerate(zp):
            assert ref == CoeffRef(i, j, l)


def rebuilt_reduction(spec, seed):
    """The reference for overshooting bounds: (excess, essential tags, kept
    transform instances), with the lowered bounds' matrix and its oracle
    built anew."""
    bounds = spec.bounds.modified
    matrix = prolonged_support_matrix(spec.matrix, bounds)
    found = find_minimal_essential(RankOracle(matrix, seed=seed),
                                   len(matrix.rows))
    excess = len(matrix.rows) - found.rank - 1
    lowered = prolonged_support_matrix(
        spec.matrix, tuple(max(0, b - excess) for b in bounds))
    oracle = RankOracle(lowered, seed=seed)
    ess = find_minimal_essential(oracle, len(lowered.rows)).circuit
    cols = variable_essential_reduce(ess, oracle)
    return (excess, tuple(lowered.row_labels[r] for r in ess),
            tuple(lowered.col_labels[c] for c in cols))


def overshooting_specializations(draws=150):
    """Golden and the specialized analysis draws of ``bench/workloads.py``
    (seed 0, loaded by path) whose order bounds overshoot."""
    module = importlib.util.spec_from_file_location(
        "bench_workloads", CASES.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(module)
    module.loader.exec_module(workloads)
    found = [golden_specialized()]
    for text in workloads.analysis_texts(0, draws):
        try:
            system = parse_system(text).to_system()
            spec = specialize(system, super_essential(system, seed=0), seed=0)
            red = algebraic_reduction(spec, spec.bounds.modified, seed=0)
        except SDResError:
            continue
        if red.corank_offset > 0:
            found.append(spec)
    return found


def test_lowered_bounds_select_rows_of_the_first_oracle():
    specs = overshooting_specializations()
    assert len(specs) >= 10
    for spec in specs:
        for seed in (0, 1):
            red = algebraic_reduction(spec, spec.bounds.modified,
                                      seed=seed)
            assert red.corank_offset > 0
            assert (red.corank_offset, red.essential_tags, red.kept_refs) == \
                rebuilt_reduction(spec, seed)


def test_golden_reduction_exact_path_agrees():
    # the shift family at k = 300 prolongs to 303 rows with about two
    # nonzeros each, which the exact route eliminates sparsely too
    shifted = parse_system(shift_family(300)).to_system()
    for spec in (golden_specialized(),
                 specialize(shifted, super_essential(shifted, seed=0),
                            seed=0)):
        red_r = algebraic_reduction(spec, spec.bounds.modified, seed=0)
        red_x = algebraic_reduction(spec, spec.bounds.modified, seed=0,
                                    exact=True)
        assert red_r == red_x


def shift_family(k):
    """The shift family's member at k: a 3-row Newton matrix, a prolonged
    system of about k x k with about two nonzeros per row."""
    return f"P0 = u + u*y[1,0]*y[1,{k}]\nP1 = u + u*y[1,1]"


def prolonged_matrix(name):
    """The algebraic support matrix of a bench case, or of ``shift-k`` the
    shift family's member at k, prolonged to its modified Jacobi bounds."""
    if name.startswith("shift-"):
        text = shift_family(int(name.removeprefix("shift-")))
    else:
        text = (CASES / f"{name}.sys").read_text()
    system = parse_system(text).to_system()
    subset = super_essential(system, seed=0)
    spec = specialize(system, subset, seed=0)
    return prolonged_support_matrix(spec.matrix, spec.bounds.modified)


@pytest.mark.parametrize("name", ["shift20", "shift30", "S4", "shift-300"])
def test_modular_oracle_matches_bareiss_at_an_integer_point(name):
    # shift-300: 303 prolonged rows with about two nonzeros each
    matrix = prolonged_matrix(name)
    shifted = shifted_keys(matrix)
    rng = random.Random(name)
    values = {r: rng.randint(-2 ** 31, 2 ** 31) for r in sorted(
        {r for row in shifted.rows for e in row.values() for r in e})}
    x0 = rng.randint(-2 ** 31, 2 ** 31)
    ints = [[sum(values[r] * c * x0 ** k
                 for r, d in row.get(col, {}).items() for k, c in d.items())
             for col in range(len(matrix.col_labels))]
            for row in shifted.rows]
    ref = frac_gauss_rank(ints)
    circuit = ref.circuit
    assert circuit is not None
    exact = ref[:2]
    exact_on_circuit = frac_gauss_rank([ints[r] for r in circuit])[:2]
    for seed in range(3):
        oracle = RankOracle(matrix, seed=seed)
        found = oracle.rank_with_pivots()
        assert found[:2] == exact
        assert found.circuit == circuit
        assert oracle.rank_with_pivots(row_indices=circuit)[:2] == \
            exact_on_circuit


def test_minimal_essential_prefers_low_ranking_rows():
    # three identical single-term polynomials: every pair is a circuit; the
    # ranking-minimal one is the first two rows
    f = poly(0, [mono({}), mono({(1, 0): 1})])
    matrix = prolonged_support_matrix(support_matrix((f, f, f), 1), (0, 0, 0))
    oracle = RankOracle(matrix, seed=0)
    assert find_minimal_essential(oracle, 3).circuit == (0, 1)


@pytest.mark.parametrize("name", ["golden", "toy", "corpus1", "shift20"])
def test_independent_prolonged_rows_lose_the_corank(name):
    # at all-zero bounds the prolonged rows are independent: the order
    # bounds failed, which is CorankLost, not NoEssentialSubset
    system = parse_system((CASES / f"{name}.sys").read_text()).to_system()
    spec = specialize(system, super_essential(system, seed=0), seed=0)
    with pytest.raises(CorankLost, match="prolonged rows are independent; "
                                         "order bounds failed"):
        algebraic_reduction(spec, (0,) * len(spec.polys), seed=0)


def test_independent_rows_raise():
    f = poly(0, [mono({}), mono({(1, 0): 1})])
    g = poly(1, [mono({}), mono({(2, 0): 1})])
    oracle = RankOracle(prolonged_support_matrix(support_matrix((f, g), 2),
                                                 (0, 0)), seed=0)
    with pytest.raises(NoEssentialSubset):
        find_minimal_essential(oracle, 2)
