"""Newton-matrix resultant tests.

The expected values come from three independent sources: a hand-derived
closed form for the two-polynomial system, the frozen 26-term expansion for
the four-variable example, and a convex-hull mixed-volume oracle built on
scipy for the row multiplicities.
"""

from fractions import Fraction

import pytest

from sdres import resultant
from sdres.algred import algebraic_reduction
from sdres.diffpoly import CoeffRef
from sdres.errors import InternalError, RetriesExhausted
from sdres.essanalysis import select_and_specialize, stage_rng
from sdres.multipoly import MultiPoly
from sdres.resultant import (
    MAX_RETRIES,
    build_matrices,
    compute_resultant,
    extract_supports,
    mixed_subdivision,
    quotient_resultant,
)

from golden_resultant import BLOCKS, GOLDEN_TERMS
from systems import golden_system, toy_system


def golden_reduction():
    spec = select_and_specialize(golden_system(), (0, 1, 2), seed=0)
    return algebraic_reduction(spec.polys, spec.bounds.modified, seed=0)


def toy_reduction():
    spec = select_and_specialize(toy_system(), (0, 1), seed=0)
    return algebraic_reduction(spec.polys, spec.bounds.modified, seed=0)


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


# ---------------------------------------------------------------- supports


def test_extract_supports_merges_collisions():
    zp = (
        ((CoeffRef(0, 0, 0), (0,)), (CoeffRef(0, 1, 0), (0,)),
         (CoeffRef(0, 2, 0), (1,))),
    )
    sets, table = extract_supports(zp)
    assert sets[0].points == ((0,), (1,))
    ids = ref_ids(table)
    merged = MultiPoly.symbol(ids[CoeffRef(0, 0, 0)]) + \
        MultiPoly.symbol(ids[CoeffRef(0, 1, 0)])
    assert sets[0].coeffs[0] == merged


def test_extract_supports_requires_origin():
    zp = (((CoeffRef(0, 0, 0), (1,)), (CoeffRef(0, 1, 0), (2,))),)
    with pytest.raises(InternalError):
        extract_supports(zp)


# ---------------------------------------------------------------- toy system


def test_toy_sylvester_matches_hand_formula():
    red = toy_reduction()
    res = compute_resultant(red.zpolys, seed=0)
    assert res.method == "sylvester"
    assert res.m1_dim == 2
    assert res.m2_dim == 0
    ids = ref_ids(res.symbols)
    expected = poly_from_terms(
        ((+1, ((1, 0, 0), (0, 1, 1))), (-1, ((1, 1, 0), (0, 0, 1)))), ids)
    assert res.polynomial == expected.sign_normalized()


def test_toy_newton_quotient_agrees_with_sylvester():
    red = toy_reduction()
    fast = compute_resultant(red.zpolys, seed=0)
    slow = compute_resultant(red.zpolys, seed=0, use_sylvester=False)
    assert slow.method == "newton-quotient"
    assert slow.polynomial == fast.polynomial


@pytest.mark.parametrize("exps", [(0, 1, 2), (0, -1), (0, -1, 2)],
                         ids=lambda exps: "_".join(map(str, exps)))
def test_univariate_newton_quotient_beyond_toy(exps):
    # a (Laurent) support against a degree-1 one, both routes must agree
    zp = (
        tuple((CoeffRef(0, j, 0), (e,)) for j, e in enumerate(exps)),
        ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))),
    )
    fast = compute_resultant(zp, seed=0)
    slow = compute_resultant(zp, seed=0, use_sylvester=False)
    assert fast.method == "sylvester"
    top, low = max(exps), min(exps)
    assert fast.m1_dim == slow.m1_dim == top - low + 1
    assert slow.polynomial == fast.polynomial
    # classical resultant of sum c_j x^(e_j - low) and d x + e:
    # sum c_j (-e)^(e_j - low) d^(top - e_j), up to sign
    ids = ref_ids(fast.symbols)
    d, e = (MultiPoly.symbol(ids[CoeffRef(1, j, 0)]) for j in (1, 0))
    expected = MultiPoly.zero()
    for j, ej in enumerate(exps):
        term = MultiPoly.symbol(ids[CoeffRef(0, j, 0)])
        for _ in range(ej - low):
            term = -term * e
        for _ in range(top - ej):
            term = term * d
        expected = expected + term
    assert fast.polynomial == expected.sign_normalized()


# ------------------------------------------------------------- golden system


def test_golden_resultant_matches_frozen_expansion():
    red = golden_reduction()
    res = compute_resultant(red.zpolys, seed=0)
    assert res.method == "newton-quotient"
    assert res.mixed_counts == (1,) * 7
    assert res.m1_dim == 7
    assert res.m2_dim == 0
    poly = res.polynomial
    assert len(poly.sorted_terms()) == 26
    assert poly.total_degree() == 7
    ids = ref_ids(res.symbols)
    expected = poly_from_terms(GOLDEN_TERMS, ids).sign_normalized()
    assert poly == expected


def test_golden_terms_take_one_factor_per_block():
    red = golden_reduction()
    res = compute_resultant(red.zpolys, seed=0)
    table = res.symbols.keys()
    block_ids = {
        blk: frozenset(sid for sid, ref in enumerate(table)
                       if (ref.poly, ref.shift) == blk)
        for blk in BLOCKS
    }
    assert sorted(len(s) for s in block_ids.values()) > [0] * len(BLOCKS)
    for mono, coeff in res.polynomial.sorted_terms():
        assert coeff in (1, -1)
        for blk, sids in block_ids.items():
            assert sum(e for s, e in mono if s in sids) == 1


def test_golden_seed_invariance():
    red = golden_reduction()
    a = compute_resultant(red.zpolys, seed=0)
    b = compute_resultant(red.zpolys, seed=1)
    assert a.polynomial == b.polynomial
    assert a.mixed_counts == b.mixed_counts


# ----------------------------------------------------------- vanishing check


def consistent_assignment(red, rng):
    """Random coefficient values making every essential polynomial vanish at
    a random nonzero point."""
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
        total = sum(coeffs[r] * m.evaluate(point) for r, m in poly.terms)
        assert total == 0
    return coeffs


@pytest.mark.parametrize("builder", [toy_reduction, golden_reduction])
def test_resultant_vanishes_on_consistent_systems(builder):
    red = builder()
    res = compute_resultant(red.zpolys, seed=0)
    table = res.symbols.keys()
    rng = stage_rng(7, "vanish-test")
    for _ in range(3):
        coeffs = consistent_assignment(red, rng)
        values = {sid: coeffs[ref] for sid, ref in enumerate(table)}
        assert res.polynomial.evaluate(values) == 0


# --------------------------------------------------------- mixed-volume oracle


def euclidean_volume(points, k):
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    pts = np.unique(np.asarray(sorted(points), dtype=float), axis=0)
    if len(pts) <= k:
        return 0.0
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0
    return hull.volume


def mixed_volume(supports, k):
    """Lattice mixed volume by inclusion-exclusion over Minkowski sums.

    The alternating sum of plain euclidean volumes is already the integer
    that counts generic solutions, no factorial scaling on top.
    """
    total = 0.0
    n = len(supports)
    for mask in range(1, 1 << n):
        chosen = [supports[i] for i in range(n) if mask & (1 << i)]
        acc = [(0,) * k]
        for sup in chosen:
            acc = [tuple(a + b for a, b in zip(p, q)) for p in acc for q in sup]
        sign = (-1) ** (n - bin(mask).count("1"))
        total += sign * euclidean_volume(acc, k)
    return round(total)


def test_mixed_counts_match_mixed_volumes_k2():
    zp = (
        ((CoeffRef(0, 0, 0), (0, 0)), (CoeffRef(0, 1, 0), (1, 0)),
         (CoeffRef(0, 2, 0), (0, 1))),
        ((CoeffRef(1, 0, 0), (0, 0)), (CoeffRef(1, 1, 0), (2, 0)),
         (CoeffRef(1, 2, 0), (1, 1))),
        ((CoeffRef(2, 0, 0), (0, 0)), (CoeffRef(2, 1, 0), (0, 2)),
         (CoeffRef(2, 2, 0), (1, 1))),
    )
    res = compute_resultant(zp, seed=0)
    sets, _ = extract_supports(zp)
    pts = [s.points for s in sets]
    for i in range(3):
        others = [pts[j] for j in range(3) if j != i]
        mv = mixed_volume(others, 2)
        assert res.mixed_counts[i] == mv
        block = [sid for sid, ref in enumerate(res.symbols.keys())
                 if ref.poly == i]
        assert res.polynomial.degree_in(block) == mv


def test_mixed_counts_match_mixed_volumes_golden():
    red = golden_reduction()
    res = compute_resultant(red.zpolys, seed=0)
    sets, _ = extract_supports(red.zpolys)
    pts = [s.points for s in sets]
    k = len(pts[0][0])
    for i in range(len(pts)):
        block = [sid for sid, ref in enumerate(res.symbols.keys())
                 if (ref.poly, ref.shift) == BLOCKS[i]]
        assert res.polynomial.degree_in(block) == res.mixed_counts[i]
    assert sum(res.mixed_counts) <= res.m1_dim


# ------------------------------------------------------------ plumbing paths


def test_zero_dimensional_system_returns_merged_coefficient():
    zp = (((CoeffRef(0, 0, 0), ()), (CoeffRef(0, 1, 0), ())),)
    res = compute_resultant(zp, seed=0)
    assert res.method == "constant"
    assert (res.m1_dim, res.m2_dim) == (1, 0)
    ids = ref_ids(res.symbols)
    expected = MultiPoly.symbol(ids[CoeffRef(0, 0, 0)]) + \
        MultiPoly.symbol(ids[CoeffRef(0, 1, 0)])
    assert res.polynomial == expected.sign_normalized()


def test_matrix_rows_cover_every_point_once():
    red = golden_reduction()
    sets, _ = extract_supports(red.zpolys)
    subdiv = mixed_subdivision(sets, seed=0)
    pair = build_matrices(subdiv)
    assert len(pair.m1) == len(subdiv.points)
    for row, tag in zip(pair.m1, pair.row_tags):
        nonzero = [c for c in row if not c.is_zero()]
        assert len(nonzero) == len(sets[tag[0]].points)
    poly = quotient_resultant(pair)
    assert not poly.is_zero()


@pytest.mark.parametrize("stub", [("_locate_cell", lambda *args: (False, ())),
                                  ("_minor_nonzero_check", lambda *args: False)],
                         ids=lambda stub: stub[0])
def test_one_retry_budget_over_one_seed(monkeypatch, stub):
    # every degenerate attempt, whichever check rejects it, spends the same
    # budget and draws a fresh lifting from the same seed
    draws = []

    def recording_rng(seed, tag):
        if tag.startswith("subdivision-"):
            draws.append((seed, tag))
        return stage_rng(seed, tag)

    monkeypatch.setattr(resultant, "stage_rng", recording_rng)
    monkeypatch.setattr(resultant, *stub)
    zp = (
        ((CoeffRef(0, 0, 0), (0,)), (CoeffRef(0, 1, 0), (1,)),
         (CoeffRef(0, 2, 0), (2,))),
        ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))),
    )
    with pytest.raises(RetriesExhausted):
        compute_resultant(zp, seed=3, use_sylvester=False)
    assert len(set(draws)) == len(draws) == MAX_RETRIES
    assert {seed for seed, _ in draws} == {3}
