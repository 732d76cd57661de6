"""Newton-matrix resultant tests.

The expected values come from four independent sources: a hand-derived
closed form for the two-polynomial system, the classical Sylvester
determinant for univariate pairs, the frozen 26-term expansion for the
four-variable example, and a convex-hull mixed-volume oracle built on scipy
for the row multiplicities.  The interpolated quotient of large pairs is
checked against the Laplace quotient of small ones on the same pairs.  The
walk over the cells of the mixed subdivision is checked against locating
every lattice point by its own LP (``lp_subdivision``), the points of each
cell against a plain scan of its box (``cell_scan``), and the walks over
random inputs against a frozen digest.  The closed form
for binomial systems is checked against the Newton route, the Sylvester
determinant and random solutions of its system (``vanishing``).
"""

import hashlib
import importlib.util
import itertools
import math
import pathlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdres import parse_system, pipeline, resultant, run_pipeline
from sdres.algred import algebraic_reduction
from sdres.diffpoly import CoeffRef
from sdres.errors import (
    DegenerateLifting,
    InternalError,
    NotDivisible,
    RetriesExhausted,
    SDResError,
)
from sdres.essanalysis import stage_rng
from sdres.multipoly import MultiPoly, eliminate
from sdres.resultant import (
    CERTIFICATE_ROUNDS,
    MAX_BOX_POINTS,
    MAX_RETRIES,
    SupportSet,
    build_matrices,
    compute_resultant,
    extract_supports,
    interpolated_quotient,
    mixed_subdivision,
    quotient_resultant,
    sylvester_resultant,
)
from sdres.sparseinterp import two_adic_field

import cell_scan
import rational_lp
from det_oracles import frac_gauss_det, leibniz_det
from golden_resultant import BLOCKS, GOLDEN_TERMS
from lp_subdivision import lp_subdivision
from systems import golden_system, specialize, super_essential, toy_system
from vanishing import vanishes_on_difference_system, vanishes_on_lattice_system


def golden_reduction():
    spec = specialize(golden_system(), (0, 1, 2), seed=0)
    return algebraic_reduction(spec, spec.bounds.modified, seed=0)


def toy_reduction():
    spec = specialize(toy_system(), (0, 1), seed=0)
    return algebraic_reduction(spec, spec.bounds.modified, seed=0)


CASES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "cases"
WALK_DIGEST = \
    "5d6e8e6618b44af036b90e698a14cfe9584313fe1bcf65a69838309b56979fcd"


def case_reduction(name):
    system = parse_system((CASES / f"{name}.sys").read_text()).to_system()
    subset = super_essential(system, seed=0)
    spec = specialize(system, subset, seed=0)
    return algebraic_reduction(spec, spec.bounds.modified, seed=0)


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


def sylvester_reference(zpolys):
    supports, _ = extract_supports(zpolys)
    return sylvester_resultant(supports)


def test_toy_sylvester_matches_hand_formula():
    red = toy_reduction()
    res = compute_resultant(red.zpolys, seed=0)
    assert res.m1_dim == 2
    assert res.m2_dim == 0
    ids = ref_ids(res.symbols)
    expected = poly_from_terms(
        ((+1, ((1, 0, 0), (0, 1, 1))), (-1, ((1, 1, 0), (0, 0, 1)))), ids)
    assert res.polynomial == expected.sign_normalized()
    assert sylvester_reference(red.zpolys) == (res.polynomial, 2)


def test_toy_newton_quotient_agrees_with_sylvester():
    # the toy system is binomial, so compute_resultant takes the closed
    # form; the Newton quotient is built here directly
    zpolys = toy_reduction().zpolys
    assert newton_route(zpolys, 0)[2] == sylvester_reference(zpolys)[0]


@pytest.mark.parametrize("exps", [(0, 1, 2), (0, -1), (0, -1, 2)],
                         ids=lambda exps: "_".join(map(str, exps)))
def test_univariate_newton_quotient_beyond_toy(exps):
    # a (Laurent) support against a degree-1 one, both routes must agree
    zp = (
        tuple((CoeffRef(0, j, 0), (e,)) for j, e in enumerate(exps)),
        ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))),
    )
    res = compute_resultant(zp, seed=0)
    reference, size = sylvester_reference(zp)
    top, low = max(exps), min(exps)
    assert res.m1_dim == size == top - low + 1
    assert res.polynomial == reference
    # classical resultant of sum c_j x^(e_j - low) and d x + e:
    # sum c_j (-e)^(e_j - low) d^(top - e_j), up to sign
    ids = ref_ids(res.symbols)
    d, e = (MultiPoly.symbol(ids[CoeffRef(1, j, 0)]) for j in (1, 0))
    expected = MultiPoly.zero()
    for j, ej in enumerate(exps):
        term = MultiPoly.symbol(ids[CoeffRef(0, j, 0)])
        for _ in range(ej - low):
            term = -term * e
        for _ in range(top - ej):
            term = term * d
        expected = expected + term
    assert res.polynomial == expected.sign_normalized()


def test_dense_univariate_pair_matches_sylvester():
    # supports {0..6} and {0..4}: a dense Newton matrix, 58 of its 100
    # entries nonzero
    zp = tuple(tuple((CoeffRef(i, j, 0), (j,)) for j in range(top + 1))
               for i, top in enumerate((6, 4)))
    res = compute_resultant(zp, seed=0)
    assert res.m1_dim == 10
    assert res.polynomial == sylvester_reference(zp)[0]


# ------------------------------------------------------------- golden system


def test_golden_resultant_matches_frozen_expansion():
    red = golden_reduction()
    res = compute_resultant(red.zpolys, seed=0)
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


# ----------------------------------------------------------- torus weights


def torus_weights(poly, table, zpolys):
    """Per term of ``poly``: sum_s e_s a_s over its coefficient symbols s,
    a_s the point of s in the lattice-form ``zpolys``, and its degree in
    each (poly, shift) block.  A resultant is homogeneous for both
    gradings (Gelfand-Kapranov-Zelevinsky 1994, ch. 8), so every term
    gives the same pair."""
    point = {ref: tuple(map(int, a)) for terms in zpolys for ref, a in terms}
    out = set()
    for mono in poly.terms:
        weight, degrees = [0] * len(next(iter(point.values()))), {}
        for sid, e in mono:
            ref = table.lookup(sid)
            weight = [w + e * v for w, v in zip(weight, point[ref])]
            block = (ref.poly, ref.shift)
            degrees[block] = degrees.get(block, 0) + e
        out.add((tuple(weight), tuple(sorted(degrees.items()))))
    return out


def answer_with_zpolys(monkeypatch, name, seed):
    """The pipeline's resultant for one bench case, with the lattice-form
    system it was computed from."""
    calls = []

    def recording(zpolys, **kwargs):
        calls.append((zpolys, compute_resultant(zpolys, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "compute_resultant", recording)
    run_pipeline(parse_system((CASES / f"{name}.sys").read_text()), seed=seed)
    (zpolys, res), = calls
    return zpolys, res


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", [
    "toy", "golden", "corpus1", "corpus2", "corpus3", "corpus4", "corpus5",
    "S1", "S4", "S6", "N1", "s1_4_3", "s1_4_5", "shift20", "shift30"])
def test_every_term_has_the_same_torus_weight(monkeypatch, name, seed):
    zpolys, res = answer_with_zpolys(monkeypatch, name, seed)
    assert len(torus_weights(res.polynomial, res.symbols, zpolys)) == 1


def test_torus_weights_reject_one_swapped_exponent(monkeypatch):
    # swap the exponents of two symbols of one block, at different points,
    # in one term of golden's answer: its block degrees stay, its weight
    # moves by (e_t - e_s)(a_s - a_t)
    zpolys, res = answer_with_zpolys(monkeypatch, "golden", 0)
    refs = res.symbols.keys()                       # refs[sid]
    point = {ref: a for terms in zpolys for ref, a in terms}
    terms = dict(res.polynomial.terms)
    mono, s, t = next(
        (mono, s, t) for mono in terms
        for s, t in itertools.combinations(range(len(refs)), 2)
        if (refs[s].poly, refs[s].shift) == (refs[t].poly, refs[t].shift)
        and point[refs[s]] != point[refs[t]]
        and dict(mono).get(s, 0) != dict(mono).get(t, 0))
    exps = dict(mono)
    exps[s], exps[t] = exps.get(t, 0), exps.get(s, 0)
    swapped = tuple(sorted((sid, e) for sid, e in exps.items() if e))
    terms[swapped] = terms.pop(mono)
    assert len(torus_weights(res.polynomial, res.symbols, zpolys)) == 1
    assert len(torus_weights(MultiPoly(terms), res.symbols, zpolys)) == 2


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
    assert (res.m1_dim, res.m2_dim) == (1, 0)
    assert res.mixed_counts == (1,)
    ids = ref_ids(res.symbols)
    expected = MultiPoly.symbol(ids[CoeffRef(0, 0, 0)]) + \
        MultiPoly.symbol(ids[CoeffRef(0, 1, 0)])
    assert res.polynomial == expected.sign_normalized()


def test_box_budget_raises_before_any_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(resultant, "solve_lp", no_lp)
    zp = (((CoeffRef(0, 0, 0), (0,)), (CoeffRef(0, 1, 0), (MAX_BOX_POINTS,)),
           (CoeffRef(0, 2, 0), (1,))),
          ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))))
    with pytest.raises(InternalError, match="^budget: "):
        compute_resultant(zp, seed=0)


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


ORIGINAL_RECONSTRUCT = resultant._reconstruct


def perturbed_reconstruct(*args):
    poly = ORIGINAL_RECONSTRUCT(*args)
    return poly + MultiPoly({next(iter(poly.terms)): 1})


@pytest.mark.parametrize(
    "stubs",
    [(("_is_fine", lambda *args: False),),
     (("_minor_nonzero_check", lambda *args: False),),
     (("LAPLACE_MAX_DIM", 0), ("_reconstruct", perturbed_reconstruct))],
    ids=["_is_fine", "_minor_nonzero_check", "certificate"])
def test_one_retry_budget_over_one_seed(monkeypatch, stubs):
    # every degenerate attempt, whichever check rejects it, spends the same
    # budget and draws a fresh lifting from the same seed; an interpolated
    # quotient with one wrong coefficient never passes its certificate
    draws = []

    def recording_rng(seed, tag):
        if tag.startswith("subdivision-"):
            draws.append((seed, tag))
        return stage_rng(seed, tag)

    monkeypatch.setattr(resultant, "stage_rng", recording_rng)
    for stub in stubs:
        monkeypatch.setattr(resultant, *stub)
    zp = (
        ((CoeffRef(0, 0, 0), (0,)), (CoeffRef(0, 1, 0), (1,)),
         (CoeffRef(0, 2, 0), (2,))),
        ((CoeffRef(1, 0, 0), (0,)), (CoeffRef(1, 1, 0), (1,))),
    )
    with pytest.raises(RetriesExhausted,
                       match="certificate" if len(stubs) > 1 else None):
        compute_resultant(zp, seed=3)
    assert len(set(draws)) == len(draws) == MAX_RETRIES
    assert {seed for seed, _ in draws} == {3}


def test_constant_lifting_exhausts_retries_on_a_non_fine_cell(monkeypatch):
    # with every lift 0 the whole Minkowski sum is one cell
    monkeypatch.setattr(resultant, "LIFT_BOUND", 0)
    with pytest.raises(RetriesExhausted, match="is not fine"):
        compute_resultant(case_reduction("corpus5").zpolys, seed=0)


# ------------------------------------------------ closed form for binomials


def binomial_system(vectors, merged=()):
    """Lattice-form binomials u[i,0] + u[i,1] z^(v_i); polynomial i in
    ``merged`` gets a third term u[i,2] on v_i, merged into u[i,1]."""
    zero = (0,) * len(vectors[0])
    return tuple(
        ((CoeffRef(i, 0, 0), zero), (CoeffRef(i, 1, 0), v))
        + (((CoeffRef(i, 2, 0), v),) if i in merged else ())
        for i, v in enumerate(vectors))


def newton_route(zpolys, seed):
    """Subdivision, matrix pair and quotient of the Newton construction."""
    sets, _ = extract_supports(zpolys)
    subdiv = mixed_subdivision(sets, seed)
    pair = build_matrices(subdiv)
    return subdiv, pair, quotient_resultant(pair, seed)


@st.composite
def _spanning_binomials(draw):
    """k + 1 nonzero exponent vectors in [-3, 3]^k, k <= 3, that span Z^k:
    the gcd of their k x k minors is 1."""
    k = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * k).filter(any)
    vectors = draw(st.lists(vector, min_size=k + 1, max_size=k + 1))
    minors = [int(frac_gauss_det(vectors[:i] + vectors[i + 1:]))
              for i in range(k + 1)]
    assume(math.gcd(*minors) == 1)
    return vectors


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_spanning_binomials())
def test_binomial_closed_form_matches_the_newton_route(vectors):
    zpolys = binomial_system(vectors)
    res = compute_resultant(zpolys, seed=0)
    assert (res.m2_dim, res.attempts) == (0, 1)
    for seed in (0, 1):
        subdiv, pair, quotient = newton_route(zpolys, seed)
        assert quotient == res.polynomial
        assert len(subdiv.points) == res.m1_dim
        assert pair.minor_rows == ()
        assert subdiv.mixed_counts == res.mixed_counts
    if len(vectors) == 2:
        assert sylvester_reference(zpolys) == (res.polynomial, res.m1_dim)
    rng = random.Random(0)
    assert vanishes_on_lattice_system(res.polynomial, res.symbols, zpolys, rng)


def test_binomial_closed_form_draws_no_random_number(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a random stream was drawn")

    monkeypatch.setattr(resultant, "stage_rng", no_draw)
    res = compute_resultant(binomial_system([(2, 1), (-1, 3), (0, 1)]), seed=0)
    # 1 * (2, 1) + 2 * (-1, 3) - 7 * (0, 1) = 0
    assert (res.m1_dim, res.m2_dim, res.mixed_counts) == (10, 0, (1, 2, 7))


def test_binomial_with_a_merged_coefficient_is_multiplied_out():
    # u00 + (u01 + u02) z^2 and u10 + u11 z^3: the merged coefficient is
    # raised to the power 3
    zpolys = binomial_system([(2,), (3,)], merged=(0,))
    res = compute_resultant(zpolys, seed=0)
    subdiv, pair, quotient = newton_route(zpolys, 0)
    assert quotient == res.polynomial == sylvester_reference(zpolys)[0]
    assert res.mixed_counts == subdiv.mixed_counts == (3, 2)
    assert len(res.polynomial) == 5


def test_merged_coefficient_above_the_box_budget_raises():
    zpolys = binomial_system([(MAX_BOX_POINTS,), (1,)], merged=(1,))
    with pytest.raises(InternalError, match="^budget: "):
        compute_resultant(zpolys, seed=0)
    # the same exponents with single-symbol coefficients are solved
    res = compute_resultant(binomial_system([(MAX_BOX_POINTS,), (1,)]))
    assert res.mixed_counts == (1, MAX_BOX_POINTS)


def merged_binomials(power, terms):
    """u00 + (u01 + ... ) z and u10 + u11 z^power, the first coefficient of
    z a sum of ``terms`` symbols: it is raised to ``power``."""
    first, second = binomial_system([(1,), (power,)])
    extra = tuple((CoeffRef(0, j, 0), (1,)) for j in range(2, terms + 1))
    return first + extra, second


def test_binomial_just_above_the_term_budget_fails_before_expanding(
        monkeypatch):
    def no_power(*args):
        raise AssertionError("a coefficient was multiplied out")

    monkeypatch.setattr(resultant, "_power", no_power)
    # (u01 + u02)^1199 has 1200 terms, the answer 1201
    with pytest.raises(InternalError, match="^budget: .* 1201 terms"):
        compute_resultant(merged_binomials(1199, 2), seed=0)


def test_binomial_below_the_term_budget_is_solved():
    # (u01 + u02 + u03 + u04)^17 has C(20, 3) = 1140 terms
    res = compute_resultant(merged_binomials(17, 4), seed=0)
    assert len(res.polynomial) == 1141
    assert res.mixed_counts == (17, 1)


@pytest.mark.parametrize("vectors", [[(2,), (2,)], [(1, 0), (2, 0), (3, 0)],
                                     [(2, 0), (0, 2), (2, 2)]],
                         ids=["index-2", "rank-1", "index-4"])
def test_non_spanning_binomials_raise(vectors):
    with pytest.raises(InternalError, match="do not span"):
        compute_resultant(binomial_system(vectors), seed=0)


def test_s6_vanishes_at_random_solutions():
    src = parse_system((CASES / "S6.sys").read_text())
    report = run_pipeline(src, seed=0)
    assert len(report.resultant) == 2
    assert report.resultant.total_degree() == 10 ** 11
    system = src.to_system()
    rng = random.Random(0)
    for _ in range(3):
        assert vanishes_on_difference_system(report.resultant, report.symbols,
                                             system, rng)
    # the check rejects a wrong answer: one term with its sign flipped
    mono, c = next(iter(report.resultant.terms.items()))
    wrong = report.resultant - MultiPoly({mono: 2 * c})
    assert not vanishes_on_difference_system(wrong, report.symbols, system,
                                             rng)


def test_shift_family_at_k_10000_reaches_the_resultant():
    # the prolonged system is about 10^4 x 10^4 with about two nonzeros
    # per row, which stages 1-4 keep sparse
    src = parse_system("P0 = u + u*y[1,0]*y[1,10000]\nP1 = u + u*y[1,1]")
    report = run_pipeline(src, seed=0)
    assert report.stage == "resultant"
    assert len(report.resultant) == 2
    system = src.to_system()
    rng = random.Random(0)
    for _ in range(3):
        assert vanishes_on_difference_system(report.resultant, report.symbols,
                                             system, rng)


# ------------------------------------------------------------ LP oracle


@pytest.mark.parametrize("name", ["toy", "golden", "corpus1", "corpus2",
                                  "corpus3", "corpus4", "corpus5", "s1_4_3",
                                  "s1_4_5", "S1"])
def test_cell_walk_matches_lp_per_point(name):
    sets, _ = extract_supports(case_reduction(name).zpolys)
    for seed in (0, 1, 5):
        for attempt in (0, 1):
            walk = mixed_subdivision(sets, seed, attempt)
            oracle = lp_subdivision(sets, seed, attempt)
            for field in walk._fields:
                assert getattr(walk, field) == getattr(oracle, field), field


@st.composite
def _full_dimensional_supports(draw):
    """k + 1 supports of 1-4 points in {0..3}^k, k <= 2, whose Minkowski
    sum is full-dimensional."""
    k = draw(st.integers(1, 2))
    point = st.tuples(*[st.integers(0, 3)] * k)
    sets = [tuple(sorted(draw(st.sets(point, min_size=1, max_size=4))))
            for _ in range(k + 1)]
    edges = [[a - b for a, b in zip(p, pts[0])] for pts in sets for p in pts[1:]]
    assume(edges and eliminate(edges).rank == k)
    return tuple(SupportSet(i, pts, ()) for i, pts in enumerate(sets))


def _subdivision_or_degenerate(build, supports, seed):
    try:
        return build(supports, seed, 0)
    except DegenerateLifting:
        return "degenerate"


@settings(derandomize=True, deadline=None)
@given(_full_dimensional_supports(), st.integers(0, 1000))
def test_cell_walk_matches_lp_per_point_property(supports, seed):
    assert (_subdivision_or_degenerate(mixed_subdivision, supports, seed)
            == _subdivision_or_degenerate(lp_subdivision, supports, seed))


def cells_checked_against_the_plain_scan(supports, seed):
    """Walk once with every ``_cell_points`` call checked against
    ``cell_scan.cell_points`` on the same cell: same points, or the same
    DegenerateLifting.  Returns the number of cells checked."""
    cell_points, cells = resultant._cell_points, []

    def checked(*args):
        cells.append(args[1])
        try:
            expected = cell_scan.cell_points(*args)
        except DegenerateLifting as exc:
            with pytest.raises(DegenerateLifting) as got:
                cell_points(*args)
            assert str(got.value) == str(exc)
            raise
        assert cell_points(*args) == expected
        return expected

    with pytest.MonkeyPatch.context() as m:
        m.setattr(resultant, "_cell_points", checked)
        try:
            mixed_subdivision(supports, seed)
        except DegenerateLifting:
            pass
    return len(cells)


@pytest.mark.parametrize("name", ["golden", "toy", "corpus1", "corpus2",
                                  "corpus3", "corpus4", "corpus5", "S2",
                                  "S3"])
def test_cell_points_match_the_plain_scan(name):
    sets, _ = extract_supports(case_reduction(name).zpolys)
    for seed in (0, 1):
        assert cells_checked_against_the_plain_scan(sets, seed) > 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_full_dimensional_supports(), st.integers(0, 1000), st.booleans())
def test_cell_points_match_the_plain_scan_property(supports, seed, diagonal):
    # delta = (1, ..., 1) / DELTA_DENOM is parallel to every wall whose
    # normal sums to zero, so lattice points on such a wall stay on it and
    # raise DegenerateLifting
    with pytest.MonkeyPatch.context() as m:
        if diagonal:
            m.setattr(resultant, "DELTA_NUM_BOUND", 1)
        cells_checked_against_the_plain_scan(supports, seed)


class _Stage5(Exception):
    """Carries the lattice-form system that run_pipeline hands to the
    resultant stage."""


def _stop_at_stage5(zpolys, **kwargs):
    raise _Stage5(zpolys)


def test_walk_digest_over_the_analysis_draws(monkeypatch):
    # the sha256 of repr(mixed_subdivision(sets, 0, a)), or of the error it
    # raises, for a = 0, 1, each followed by a NUL byte, over the seed-0
    # analysis draws among the first 150 that reach stage 5, are not all
    # binomials and have a Minkowski box of at most 4096 points
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", CASES.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(pipeline, "compute_resultant", _stop_at_stage5)
    digest, walks = hashlib.sha256(), 0
    for text in workloads.analysis_texts(0, 150):
        try:
            run_pipeline(parse_system(text), seed=0)
            continue
        except _Stage5 as stop:
            sets, _ = extract_supports(stop.args[0])
        widths = [[max(c) - min(c) for c in zip(*s.points)] for s in sets]
        box = math.prod(map(sum, zip(*widths)))
        if box > 4096 or all(len(s.points) == 2 for s in sets):
            continue
        for attempt in (0, 1):
            try:
                out = repr(mixed_subdivision(sets, 0, attempt))
            except SDResError as exc:
                out = repr(exc)
            digest.update(out.encode() + b"\0")
            walks += 1
    assert walks == 156
    assert digest.hexdigest() == WALK_DIGEST


@settings(derandomize=True, deadline=None)
@given(_full_dimensional_supports(), st.lists(st.integers(0, 9), min_size=12,
                                              max_size=12))
def test_start_simplex_matches_the_rational_lp(supports, lifts):
    # small lifts make ties and degenerate pivots common
    columns = [tuple(int(j == i) for j in range(len(supports))) + a
               for i, s in enumerate(supports) for a in s.points]
    costs = lifts[:len(columns)]
    pivots = eliminate(list(zip(*columns))).pivots
    rhs = [sum(columns[c][j] for c in pivots) for j in range(len(columns[0]))]
    start = resultant.solve_lp(columns, costs)
    assert start.status == "optimal"
    x = [Fraction(sum(u * v for u, v in zip(row[len(columns):], rhs)),
                  start.scale) for row in start.tab[:-1]]
    assert min(x) >= 0
    rows = [list(row) for row in zip(*columns)]
    assert (sum(costs[c] * v for c, v in zip(start.basis, x))
            == rational_lp.solve_lp(costs, rows, rhs).objective)


def fraction_inverse(matrix):
    """Gauss-Jordan inverse over Fraction of a square number matrix."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for k in range(n):
        sel = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[sel] = m[sel], m[k]
        m[k] = [v / m[k][k] for v in m[k]]
        for r in range(n):
            if r != k and m[r][k]:
                m[r] = [a - m[r][k] * b if b else a
                        for a, b in zip(m[r], m[k])]
    return [row[n:] for row in m]


def assert_tableau(columns, costs, tab, scale, basis):
    """(tab, scale) of basis B against a Fraction inverse of B: row r over
    scale is the row of B^-1 [A | I] for basis[r], the last row over scale
    is c - c_B B^-1 [A | I], and scale is +-det B."""
    m = len(basis)
    full = [*columns, *(tuple(int(i == j) for i in range(m)) for j in range(m))]
    b = [[columns[c][i] for c in basis] for i in range(m)]
    inverse = fraction_inverse(b)
    duals = [sum(costs[c] * row[i] for c, row in zip(basis, inverse))
             for i in range(m)]                      # c_B B^-1

    def times(row, col):
        return sum(u * v for u, v in zip(row, col) if v)

    assert [[Fraction(x, scale) for x in row] for row in tab[:-1]] == [
        [times(row, col) for col in full] for row in inverse]
    assert [Fraction(x, scale) for x in tab[-1]] == [
        c - times(duals, col) for c, col in zip([*costs, *[0] * m], full)]
    assert abs(scale) == abs(frac_gauss_det(b))


def assert_walk_tableaux(supports, seed):
    """assert_tableau on the start tableau of one ``mixed_subdivision`` and
    on every (tab, scale, basis) its walk passes to ``_is_fine``."""
    lps, fine = [], []
    solve_lp, is_fine = resultant.solve_lp, resultant._is_fine

    def recording_solve_lp(columns, costs):
        start = solve_lp(columns, costs)
        lps.append((columns, costs, start))
        return start

    def recording_is_fine(tab, scale, basis):
        fine.append((tab, scale, basis))
        return is_fine(tab, scale, basis)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(resultant, "solve_lp", recording_solve_lp)
        m.setattr(resultant, "_is_fine", recording_is_fine)
        try:
            mixed_subdivision(supports, seed)
        except DegenerateLifting:
            pass
    (columns, costs, start), = lps
    assert start.status == "optimal"
    assert fine and fine[0] == (start.tab, start.scale, start.basis)
    for tab, scale, basis in fine:
        assert_tableau(columns, costs, tab, scale, basis)


def test_walk_tableaux_match_fraction_inverse_golden():
    # and on the acceptance corpus and S3
    for red in (golden_reduction(), *map(case_reduction, (
            "corpus1", "corpus2", "corpus3", "corpus4", "corpus5", "S3"))):
        sets, _ = extract_supports(red.zpolys)
        for seed in (0, 1):
            assert_walk_tableaux(sets, seed)


@settings(derandomize=True, deadline=None)
@given(_full_dimensional_supports(), st.integers(0, 1000))
def test_walk_tableaux_match_fraction_inverse_property(supports, seed):
    assert_walk_tableaux(supports, seed)


def test_flat_supports_give_an_empty_subdivision():
    # three supports on one line in Z^2: the Cayley columns have rank 4 < 5
    sets = tuple(SupportSet(i, pts, ()) for i, pts in enumerate(
        [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((0, 0), (1, 0), (3, 0))]))
    for seed in (0, 1, 5):
        walk = mixed_subdivision(sets, seed)
        assert walk == lp_subdivision(sets, seed)
        assert (walk.points, walk.cells, walk.mixed_counts) == ((), (), (0, 0, 0))


# ------------------------------------------------------ interpolated quotient


def laplace_quotient(pair, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(resultant, "LAPLACE_MAX_DIM", len(pair.m1))
        return quotient_resultant(pair)


@pytest.mark.parametrize("name", ["toy", "golden", "corpus1", "corpus2",
                                  "corpus3", "corpus4", "corpus5", "s1_4_3"])
def test_interpolated_quotient_matches_laplace(monkeypatch, name):
    sets, _ = extract_supports(case_reduction(name).zpolys)
    pair = build_matrices(mixed_subdivision(sets, seed=0))
    expected = laplace_quotient(pair, monkeypatch)
    for seed in (0, 1):
        assert interpolated_quotient(pair, seed, 0) == expected


@settings(derandomize=True, deadline=None)
@given(_full_dimensional_supports())
def test_interpolated_quotient_matches_laplace_property(supports):
    # one coefficient symbol per support point; the Laplace side keeps the
    # pairs small, while D and so the root-splitting depth k vary widely
    sids = itertools.count()
    supports = tuple(
        s._replace(coeffs=tuple(MultiPoly.symbol(next(sids)) for _ in s.points))
        for s in supports)
    for seed in (0, 1):
        try:
            pair = build_matrices(mixed_subdivision(supports, seed))
        except DegenerateLifting:
            continue
        assume(len(pair.m1) <= 12)
        assert interpolated_quotient(pair, seed, 0) == laplace_quotient(
            pair, pytest.MonkeyPatch)


def test_interpolated_quotient_rejects_non_dividing_liftings(monkeypatch):
    # a finer perturbation gives golden pairs of 22 rows over a 15-row
    # minor; at liftings 1 and 3 det M2 does not divide det M1
    monkeypatch.setattr(resultant, "DELTA_NUM_BOUND", 1 << 19)
    sets, table = extract_supports(golden_reduction().zpolys)
    expected = poly_from_terms(GOLDEN_TERMS, ref_ids(table)).sign_normalized()
    for attempt in range(6):
        pair = build_matrices(mixed_subdivision(sets, 0, attempt))
        assert (len(pair.m1), len(pair.minor_rows)) == (22, 15)
        # the check rejects them before any interpolation point
        if attempt in (1, 3):
            with pytest.raises(NotDivisible, match="random line"):
                resultant._minor_nonzero_check(pair, 0, attempt)
        else:
            assert resultant._minor_nonzero_check(pair, 0, attempt)
            assert interpolated_quotient(pair, 0, attempt) == expected


def test_vanishing_minor_redraws_scaling_without_an_attempt(monkeypatch):
    # det M2 vanishes at the first interpolation point: a new scaling is
    # drawn from the same stream, and the lifting is kept
    zpolys = case_reduction("corpus4").zpolys
    expected = compute_resultant(zpolys, seed=0)
    assert expected.m2_dim > 0
    checked, calls, tags = [], [], []
    original_check = resultant._minor_nonzero_check
    original = resultant._Evaluator.ratio

    def check(*args):
        checked.append(original_check(*args))
        return checked[-1]

    def vanishing_once(self, values, p):
        if not checked:
            return original(self, values, p)
        calls.append(values)
        return None if len(calls) == 1 else original(self, values, p)

    def recording_rng(seed, tag):
        tags.append(tag)
        return stage_rng(seed, tag)

    monkeypatch.setattr(resultant, "LAPLACE_MAX_DIM", 0)
    monkeypatch.setattr(resultant, "_minor_nonzero_check", check)
    monkeypatch.setattr(resultant._Evaluator, "ratio", vanishing_once)
    monkeypatch.setattr(resultant, "stage_rng", recording_rng)
    res = compute_resultant(zpolys, seed=0)
    assert res.polynomial == expected.polynomial
    assert (res.attempts, res.m1_dim, res.m2_dim) == (1, expected.m1_dim,
                                                      expected.m2_dim)
    assert tags == ["subdivision-0", "minor-check-0", "interpolation-0"]
    assert checked == [True] and len(calls) > 1


def test_one_evaluator_records_once_per_attempt(monkeypatch, record_calls):
    # the minor check's first point records the elimination that its line,
    # the interpolation and the certificate then replay
    built = []

    class CountingEvaluator(resultant._Evaluator):
        def __init__(self, pair):
            built.append(pair)
            super().__init__(pair)

    monkeypatch.setattr(resultant, "LAPLACE_MAX_DIM", 0)
    monkeypatch.setattr(resultant, "_Evaluator", CountingEvaluator)
    res = compute_resultant(case_reduction("corpus4").zpolys, seed=0)
    assert res.m2_dim > 0
    assert len(built) == res.attempts
    assert len(record_calls) == res.attempts


def test_a_singular_minor_fails_the_check_after_every_line(monkeypatch):
    # [[x0, x1, 0], [x0, x1, x2], [0, x3, x0]] over the minor on rows and
    # columns 0, 1: det M2 = x0 x1 - x1 x0 is zero, det M1 = -x0 x2 x3 is
    # not; each line stops at its first point, MAX_SCALINGS lines in all
    pair = resultant.NewtonMatrixPair(
        linear_pair([[{0: 1}, {1: 1}, {}], [{0: 1}, {1: 1}, {2: 1}],
                     [{}, {3: 1}, {0: 1}]], (0, 1)).m1, (), (0, 1))
    calls = []
    original = resultant._Evaluator.ratio

    def counting(self, values, p):
        calls.append(p)
        return original(self, values, p)

    monkeypatch.setattr(resultant._Evaluator, "ratio", counting)
    assert resultant._minor_nonzero_check(pair, 0, 0) is False
    assert calls == [resultant.rank_prime(0)] * resultant.MAX_SCALINGS


@pytest.mark.parametrize("name", ["S1", "corpus4"])
def test_blocks_from_the_evaluator_match_the_entries(name):
    sets, _ = extract_supports(case_reduction(name).zpolys)
    pair = build_matrices(mixed_subdivision(sets, seed=0))
    minor = set(pair.minor_rows)
    symbols, degrees = {}, {}
    for r, (row, tag) in enumerate(zip(pair.m1, pair.row_tags)):
        for entry in row:
            symbols.setdefault(tag[0], set()).update(entry.symbols())
        degrees[tag[0]] = degrees.get(tag[0], 0) + (r not in minor)
    assert resultant._blocks(pair) == [(tuple(sorted(symbols[i])), degrees[i])
                                       for i in sorted(symbols)]


# ------------------------------------------------------ replayed elimination

P61 = (1 << 61) - 1
REPLAY_PRIMES = (101, 65537, P61, 531 * 2**52 + 1)


def linear_pair(entries, minor_rows):
    """A Newton pair whose entries are linear forms: ``entries[r][c]`` is
    a dict {sid: coeff}, empty for a zero entry."""
    m1 = tuple(tuple(MultiPoly({((s, 1),): c for s, c in e.items()})
                     for e in row) for row in entries)
    return SimpleNamespace(m1=m1, minor_rows=tuple(minor_rows))


def reference_ratio(det1, det2, p):
    """det1 / det2 mod p, or None where det2 vanishes mod p."""
    return det1 * pow(det2, -1, p) % p if det2 % p else None


def reference_dets(pair, values, p):
    """det M1 / det M2 mod p by Fraction elimination of the evaluated
    entries, or None where det M2 vanishes."""
    rows = [[e.evaluate(values) % p if e else 0 for e in row]
            for row in pair.m1]
    minor = [[rows[r][c] for c in pair.minor_rows] for r in pair.minor_rows]
    return reference_ratio(int(frac_gauss_det(rows)),
                           int(frac_gauss_det(minor)), p)


FORM = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool),
                       max_size=2)


def planted_singular(entries, minor_rows, kind):
    """``entries`` with a planted vanishing determinant: "M2" copies the
    minor part of the first minor row onto the last one, so det M2 is
    zero and det M1 in general is not; "M1" copies a whole row."""
    entries = [list(row) for row in entries]
    if kind == "M2" and len(minor_rows) > 1:
        first, last = minor_rows[0], minor_rows[-1]
        for c in minor_rows:
            entries[last][c] = entries[first][c]
    elif kind == "M1" and len(entries) > 1:
        entries[-1] = entries[0]
    return entries


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
           st.lists(st.lists(FORM, min_size=n, max_size=n),
                    min_size=n, max_size=n),
           st.lists(st.booleans(), min_size=n, max_size=n))),
       st.sampled_from((None, "M2", "M1")),
       st.sampled_from(REPLAY_PRIMES),
       st.lists(st.lists(st.integers(0, P61), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_replayed_dets_match_det_mod(matrix, singular, p, points):
    entries, in_minor = matrix
    minor_rows = [r for r, m in enumerate(in_minor) if m]
    pair = linear_pair(planted_singular(entries, minor_rows, singular),
                       minor_rows)
    evaluator = resultant._Evaluator(pair)
    for point in points:
        values = {s: v % p for s, v in enumerate(point)}
        assert evaluator.ratio(values, p) == reference_dets(pair, values, p)


def int_pair(rows, minor_rows=()):
    """A Newton pair over the one symbol 0 that evaluates to the integer
    matrix ``rows`` at symbol 0 = 1."""
    return linear_pair([[{0: v} if v else {} for v in row] for row in rows],
                       minor_rows)


@pytest.mark.parametrize("p", [7, P61])
def test_evaluator_dets_match_oracles_on_sparse_int_matrices(p):
    rng = random.Random(112)
    signs = set()
    for trial in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.35 else 0
                 for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0:
            rows[rng.randrange(n)] = [0] * n             # a zero row
        elif trial % 5 == 1 and n > 1:
            rows[0] = [3 * v for v in rows[-1]]          # rank deficient
        minor = sorted(rng.sample(range(n), rng.randint(0, n)))
        expect = int(frac_gauss_det(rows))
        if n <= 5:
            consts = [[MultiPoly.const(v) for v in row] for row in rows]
            assert leibniz_det(consts).const_value() == expect
        expect2 = int(frac_gauss_det([[rows[r][c] for c in minor]
                                      for r in minor]))
        got = resultant._Evaluator(int_pair(rows, minor)).ratio({0: 1}, p)
        assert got == reference_ratio(expect, expect2, p)
        signs.add((expect > 0) - (expect < 0))
    assert signs == {-1, 0, 1}


def test_evaluator_det_sign_of_row_permutations():
    rng = random.Random(113)
    for n in range(1, 8):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)]
        sign = int(frac_gauss_det(rows))
        evaluator = resultant._Evaluator(int_pair(rows))
        assert evaluator.ratio({0: 1}, P61) == sign % P61
    # pivots that are not on the diagonal and a negative determinant
    for rows, expect in (([[0, 2], [3, 0]], -6),
                         ([[1, 0, 1], [0, 0, 1], [0, 1, 0]], -1),
                         ([], 1)):
        evaluator = resultant._Evaluator(int_pair(rows))
        assert evaluator.ratio({0: 1}, P61) == expect % P61
    # a minor whose pivots come from rows off its diagonal
    evaluator = resultant._Evaluator(int_pair([[0, 2, 1], [3, 0, 0],
                                               [1, 1, 1]], (0, 1)))
    assert evaluator.ratio({0: 1}, P61) == reference_ratio(-3, -6, P61)


@pytest.fixture
def record_calls(monkeypatch):
    """The ratio that every ``_Evaluator._record`` call returns."""
    calls = []
    original = resultant._Evaluator._record

    def counting(self, rows, p):
        ratio, schedule = original(self, rows, p)
        calls.append(ratio)
        return ratio, schedule

    monkeypatch.setattr(resultant._Evaluator, "_record", counting)
    return calls


TWO_BY_TWO = [[{0: 1}, {1: 1}], [{2: 1}, {3: 1}]]   # [[x0, x1], [x2, x3]]


def point(*xs):
    return dict(enumerate(xs))


def test_a_vanishing_replayed_pivot_re_eliminates_that_point(record_calls):
    # the recorded order pivots on x0 first; x0 = 0 leaves no pivot there,
    # though det M1 = -x1 x2 does not vanish
    evaluator = resultant._Evaluator(linear_pair(TWO_BY_TWO, ()))
    assert evaluator.ratio(point(1, 2, 3, 4), P61) == P61 - 2
    schedule = evaluator.schedule
    assert schedule is not None and record_calls == [P61 - 2]
    assert evaluator.ratio(point(0, 2, 3, 4), P61) == P61 - 6
    assert record_calls == [P61 - 2, P61 - 6]
    assert evaluator.schedule is schedule
    assert evaluator.ratio(point(5, 2, 3, 4), P61) == 14
    assert record_calls == [P61 - 2, P61 - 6]


def test_a_vanishing_minor_makes_the_ratio_none(record_calls):
    pair = linear_pair(TWO_BY_TWO, (0,))            # det M2 = x0
    replayed = resultant._Evaluator(pair)
    assert replayed.ratio(point(1, 2, 3, 4), P61) == P61 - 2
    schedule = replayed.schedule
    assert replayed.ratio(point(0, 2, 3, 4), P61) is None
    # the zero minor pivot eliminates the point once more, which stops at
    # the minor's column with no det M1 and keeps the schedule
    assert record_calls == [P61 - 2, None]
    assert replayed.schedule is schedule
    # at a first point where det M2 vanishes nothing is recorded yet
    fresh = resultant._Evaluator(pair)
    assert fresh.ratio(point(0, 2, 3, 4), P61) is None
    assert fresh.schedule is None
    assert fresh.ratio(point(2, 2, 3, 4), P61) == 1
    assert fresh.schedule is not None


def test_a_vanishing_det_m1_records_nothing():
    # det M1 = x0 x3 - x1 x2 vanishes at (1, 2, 3, 6); det M2 = x0 does not
    evaluator = resultant._Evaluator(linear_pair(TWO_BY_TWO, (0,)))
    assert evaluator.ratio(point(1, 2, 3, 6), P61) == 0
    assert evaluator.schedule is None
    assert evaluator.ratio(point(1, 2, 3, 4), P61) == P61 - 2
    assert evaluator.schedule is not None
    assert evaluator.ratio(point(1, 2, 3, 6), P61) == 0


# ------------------------------------------------- mixed-radix term decoding

# three blocks: u0..u2 of degree 3, u3..u4 of degree 2, u5 alone of degree 1
PLANTED_BLOCKS = (((0, 1, 2), 3), ((3, 4), 2), ((5,), 1))


def planted(terms):
    """MultiPoly from {exponent tuple over u0..u5: coefficient}."""
    return MultiPoly({tuple((s, e) for s, e in enumerate(exps) if e): c
                      for exps, c in terms.items()})


class PlantedEvaluator:
    """A Newton pair whose det M1 is a planted polynomial and det M2 is 1.
    Its forms are one row whose coefficients are the planted ones, so the
    coefficient bound that ``_coefficient_bound`` reads from them holds."""

    def __init__(self, poly):
        self.poly = poly
        self.symbols = list(range(6))
        self.forms = [{0: tuple((0, c) for c in poly.terms.values())}]

    def ratio(self, values, p):
        return resultant._eval_mod(self.poly, values, p)


def interpolate_planted(monkeypatch, poly, seed=0):
    """interpolated_quotient on a pair with an empty minor (no line check)
    whose blocks are PLANTED_BLOCKS and whose det M1 is ``poly``."""
    monkeypatch.setattr(resultant, "_blocks", lambda pair: PLANTED_BLOCKS)
    return interpolated_quotient(
        SimpleNamespace(minor_rows=(), evaluator=PlantedEvaluator(poly)),
        seed, 0)


class VanishingCertificateEvaluator(PlantedEvaluator):
    """det M2 vanishes at the first ``vanishing`` certificate points, those
    modulo a prime above 2^62."""

    def __init__(self, poly, vanishing):
        super().__init__(poly)
        self.vanishing, self.certificate_calls = vanishing, 0

    def ratio(self, values, p):
        if p < 1 << 62:
            return super().ratio(values, p)
        self.certificate_calls += 1
        if self.certificate_calls <= self.vanishing:
            return None
        return super().ratio(values, p)


def test_the_certificate_redraws_a_point_where_det_m2_vanishes(monkeypatch):
    poly = planted({(3, 0, 0, 2, 0, 1): 4, (0, 0, 3, 1, 1, 1): -6})
    monkeypatch.setattr(resultant, "_blocks", lambda pair: PLANTED_BLOCKS)
    evaluator = VanishingCertificateEvaluator(poly, 1)
    pair = SimpleNamespace(minor_rows=(), evaluator=evaluator)
    assert interpolated_quotient(pair, 0, 0) == poly.primitive().sign_normalized()
    assert evaluator.certificate_calls == 3
    # a point where det M2 vanishes is no pass: after MAX_SCALINGS such
    # draws the certificate gives up
    evaluator = VanishingCertificateEvaluator(poly, resultant.MAX_SCALINGS)
    pair = SimpleNamespace(minor_rows=(), evaluator=evaluator)
    with pytest.raises(resultant.ZeroDenominator, match="certificate point"):
        interpolated_quotient(pair, 0, 0)
    assert evaluator.certificate_calls == resultant.MAX_SCALINGS


def test_mixed_radix_positions_and_index_count():
    positions, size = resultant._term_weights(PLANTED_BLOCKS)
    assert positions == {0: 0, 1: 1, 2: 4, 3: 0, 4: 16, 5: 0}
    assert size == 4 * 4 * 3


def test_planted_quotient_on_the_radix_boundaries_decodes(monkeypatch):
    # each non-first digit reaches its radix minus one (the block degree),
    # and one term puts every exponent on the first symbols (index 0); a
    # radix one too small would read u1^3 as u0^2*u2 and fail the certificate
    poly = planted({(0, 3, 0, 0, 2, 1): 7,
                    (3, 0, 0, 2, 0, 1): -3,
                    (0, 0, 3, 1, 1, 1): (1 << 40) + 1,
                    (0, 0, 3, 0, 2, 1): 2,
                    (1, 1, 1, 2, 0, 1): 5,
                    (0, 2, 1, 0, 2, 1): -11})
    expected = poly.primitive().sign_normalized()
    for seed in (0, 1, 2):
        assert interpolate_planted(monkeypatch, poly, seed) == expected


@pytest.mark.parametrize("exps", [(0, 2, 2, 2, 0, 1), (0, 3, 0, 0, 3, 1)],
                         ids=["digit-sum-above-degree", "index-at-least-D"])
def test_term_off_its_block_degrees_fails_every_round(monkeypatch, exps):
    # u1^2*u2^2 sums to 4 > 3 in the first block; u1^3*u4^3 has index
    # 3 + 3*16 = 51 >= D = 48: both are no term of the declared degrees
    poly = planted({(3, 0, 0, 2, 0, 1): 1, exps: 1})
    with pytest.raises(NotDivisible,
                       match=f"certificate {CERTIFICATE_ROUNDS} times"):
        interpolate_planted(monkeypatch, poly)


def recording_fields(monkeypatch):
    """The two-adic fields interpolated_quotient asks for, in order."""
    fields = []

    def recording(n, k):
        fields.append(two_adic_field(n, k))
        return fields[-1]

    monkeypatch.setattr(resultant, "two_adic_field", recording)
    return fields


def test_planted_coefficient_above_2_200_is_recovered_by_crt(monkeypatch):
    # the support prime is below 2^30; six more primes of the same k, each
    # giving T + 1 = 4 ratios, carry the coefficient past 2^200
    big = (1 << 200) + 12345
    poly = planted({(0, 3, 0, 0, 2, 1): big,
                    (3, 0, 0, 2, 0, 1): -3,
                    (1, 1, 1, 1, 1, 1): 5})
    fields = recording_fields(monkeypatch)
    assert interpolate_planted(monkeypatch, poly) == poly.sign_normalized()
    assert [f.k for f in fields] == [6] * 7
    assert fields[0].p < 1 << 30
    assert math.prod(f.p for f in fields[:-1]) <= 2 * big < math.prod(
        f.p for f in fields)


def test_term_lost_at_the_support_prime_comes_back_at_a_fresh_one(monkeypatch):
    # a coefficient that is a multiple of the first sequence prime p0
    # vanishes there: the support round finds two terms of three, and the
    # check point of the next prime p1 disagrees at once, before the primes
    # that the 2^100 coefficient's bound would allow; a support round at p2
    # finds all three, and three more primes lift the coefficients
    p0 = two_adic_field(1 << 29, 6).p
    poly = planted({(0, 3, 0, 0, 2, 1): 3 * p0,
                    (3, 0, 0, 2, 0, 1): (1 << 100) + 7,
                    (1, 1, 1, 1, 1, 1): 5})
    supports = []

    def recording_reconstruct(gen, blocks, size, scale, field):
        supports.append((field.p, ORIGINAL_RECONSTRUCT(
            gen, blocks, size, scale, field)))
        return supports[-1][1]

    fields = recording_fields(monkeypatch)
    monkeypatch.setattr(resultant, "_reconstruct", recording_reconstruct)
    assert interpolate_planted(monkeypatch, poly) == poly.sign_normalized()
    p = [f.p for f in fields]
    assert [(q, len(r.terms)) for q, r in supports] == [(p0, 2), (p[2], 3)]
    assert len(p) == 6 and p == sorted(set(p))


def test_a_wrong_coefficient_spends_the_bounded_primes_of_every_round(
        monkeypatch):
    # the support is right but one coefficient is off by one at every
    # support prime: each round adds primes until their product passes
    # twice the coefficient bound, and no lift ever certifies
    poly = planted({(3, 0, 0, 2, 0, 1): 1 << 40, (0, 0, 3, 1, 1, 1): 2})
    bound = resultant._coefficient_bound(PlantedEvaluator(poly),
                                         PLANTED_BLOCKS)
    assert bound == ((1 << 40) + 2) << 8
    fields = recording_fields(monkeypatch)
    monkeypatch.setattr(resultant, "_reconstruct", perturbed_reconstruct)
    with pytest.raises(NotDivisible,
                       match=f"certificate {CERTIFICATE_ROUNDS} times"):
        interpolate_planted(monkeypatch, poly)
    # p0 <= 2 * bound < p0 * p1: each round takes two primes, none used twice
    p = [f.p for f in fields]
    assert len(p) == 2 * CERTIFICATE_ROUNDS == len(set(p))
    assert all(p[i] <= 2 * bound < p[i] * p[i + 1] for i in range(0, len(p), 2))


def test_s1_interpolates_over_a_word_size_two_adic_prime(monkeypatch):
    sets, _ = extract_supports(case_reduction("S1").zpolys)
    pair = build_matrices(mixed_subdivision(sets, seed=0))
    blocks = resultant._blocks(pair)
    assert resultant._term_weights(blocks)[1] == 7 * 31 * 37 ** 2
    fields = recording_fields(monkeypatch)
    assert len(interpolated_quotient(pair, 0, 0).terms) == 28
    # D = 297073 < 2^19: one support round, over a prime below 2^30, and
    # no further prime
    assert [(f.k, f.p < 1 << 30, (f.p - 1) % (1 << 19)) for f in fields] == [
        (19, True, 0)]
