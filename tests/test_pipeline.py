"""Staged driver tests: stage gating, report contents, serialization."""

import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres import algred, diffpoly, essanalysis, multipoly, pipeline
from sdres.diffpoly import CoeffRef
from sdres.errors import InputError, SDResError
from sdres.parsing import parse_system
from sdres.pipeline import (
    STAGES,
    PipelineReport,
    resultant_terms,
    run_pipeline,
    serialize,
)

from json_reference import reference_json
from systems import GOLDEN_TEXT, RANK_DEFICIENT_TEXT, TOY_TEXT, specialize
from vanishing import vanishes_on_difference_system

SCHEMA_KEYS = {
    "essential", "super_essential", "kept_vars", "order_matrix", "jacobi",
    "modified_jacobi", "alg_essential", "m1_dim", "m2_dim", "resultant",
    "seed",
}


CASES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "cases"


def golden_source():
    return parse_system(GOLDEN_TEXT)


def test_check_stage_stops_early():
    report = run_pipeline(golden_source(), stage="check", seed=0)
    assert report.essential is True
    assert report.rank == 4
    assert report.stage == "check"
    assert report.super_essential is None
    assert report.resultant is None


def test_super_stage():
    report = run_pipeline(golden_source(), stage="super", seed=0)
    assert report.super_essential == (0, 1, 2)
    assert report.kept_vars is None


def test_bounds_stage():
    report = run_pipeline(golden_source(), stage="bounds", seed=0)
    assert report.kept_vars == (1, 4)
    assert report.order_matrix == ((1, 1), (1, 2), (2, 1))
    assert report.jacobi == (4, 3, 3)
    assert report.modified_jacobi == (3, 2, 2)
    assert report.resultant is None


@pytest.mark.parametrize("name", ["golden", "corpus1", "corpus4", "S4",
                                  "shift20"])
def test_echelon_pivot_fallback_keeps_the_resultant(monkeypatch, name):
    # past MAX_PIVOT_CANDIDATES column subsets the kept variables are the
    # echelon pivots, not the subset of least total bound; on golden that
    # changes them, and the resultant must not change with them
    src = parse_system((CASES / f"{name}.sys").read_text())
    expected = resultant_terms(run_pipeline(src, seed=0))
    monkeypatch.setattr(essanalysis, "MAX_PIVOT_CANDIDATES", 0)
    report = run_pipeline(src, seed=0)
    if name == "golden":
        assert report.kept_vars == (1, 2)
        assert report.modified_jacobi == (3, 3, 2)
    assert resultant_terms(report) == expected


# (RankOracle constructions, _eliminate passes) of one run at seed 0: one
# oracle on the symbolic support matrix for stages 1-3 and one on the
# prolonged matrix for stage 4; golden's overshooting bounds (3, 2, 2) are
# lowered by selecting rows of the same oracle
WORK_PER_RUN = {"shift20": (2, 6), "S6": (2, 5), "golden": (2, 10)}


@pytest.mark.parametrize("name", WORK_PER_RUN)
def test_each_support_matrix_is_evaluated_once_per_run(monkeypatch, name):
    counts = {"oracles": 0, "passes": 0}
    init, eliminate = essanalysis.RankOracle.__init__, multipoly._eliminate

    def counted_init(self, *args, **kwargs):
        counts["oracles"] += 1
        init(self, *args, **kwargs)

    def counted_eliminate(*args, **kwargs):
        counts["passes"] += 1
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(essanalysis.RankOracle, "__init__", counted_init)
    monkeypatch.setattr(multipoly, "_eliminate", counted_eliminate)
    report = run_pipeline(parse_system((CASES / f"{name}.sys").read_text()),
                          seed=0)
    assert report.resultant is not None
    assert (counts["oracles"], counts["passes"]) == WORK_PER_RUN[name]


@pytest.mark.parametrize("name", ["golden", "shift20", "S1"])
def test_support_rows_are_built_once_per_run(monkeypatch, name):
    # stages 3 and 4 select and re-key the symbolic matrix's rows; only the
    # chosen basis's polynomials are specialized and put in norm form
    counts = dict.fromkeys(("support_rows", "specialize_poly", "norm_form"), 0)

    def counted(fn):
        def call(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return call

    # every module's name for each function, so an imported copy counts too
    for fn in [getattr(diffpoly, fname) for fname in counts]:
        for module in (diffpoly, essanalysis, algred, pipeline):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn))
    report = run_pipeline(parse_system((CASES / f"{name}.sys").read_text()),
                          seed=0)
    assert report.resultant is not None
    npolys = len(report.super_essential)
    assert counts == {"support_rows": 1, "specialize_poly": npolys,
                      "norm_form": npolys}


def test_resultant_stage_full_report():
    report = run_pipeline(golden_source(), stage="resultant", seed=0)
    assert report.stage == "resultant"
    assert report.alg_essential == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1))
    assert report.m1_dim == 7
    assert report.m2_dim == 0
    assert len(report.resultant.sorted_terms()) == 26
    assert set(report.timing) == {"check", "super", "bounds", "resultant"}


@pytest.mark.parametrize("name", ["toy", "golden", "corpus1", "corpus2",
                                  "corpus3", "corpus4", "corpus5", "s1_4_3"])
def test_alg_essential_names_the_rows_of_the_resultant(name):
    # the rows are (input polynomial, shift), the indices the resultant's
    # coefficients u[i,j] shifted l times carry; corpus2's super-essential
    # subsystem is {P0, P1, P3}, so its third row is P3, not P2
    report = run_pipeline(parse_system((CASES / f"{name}.sys").read_text()),
                          seed=0)
    rows = set(report.alg_essential)
    assert {i for i, _ in rows} <= set(report.super_essential)
    for _, factors in resultant_terms(report):
        for ref, _ in factors:
            assert (ref.poly, ref.shift) in rows
    if name == "corpus2":
        assert report.alg_essential == ((0, 2), (1, 1), (3, 0))
        assert ("algebraic essential system: d2P0, dP1, P3"
                in serialize(report, "text").decode())


@pytest.mark.parametrize("kept", [(1, 7), (1, 1)])
def test_kept_override_must_name_distinct_variables(kept):
    # golden has the variables 1..4
    with pytest.raises(InputError, match=r"kept variables \(1, \d\) must be "
                                         r"distinct variables among"):
        run_pipeline(golden_source(), kept_override=kept)


COLLIDING_TEXT = """\
P0 = u + u*y[1,1]*y[2,1] + u*y[1,1]*y[2,1]
P1 = u + u*y[1,1]*y[2,0]^-1*y[3,1] + u*y[2,0]*y[3,0]
P2 = u + u*y[1,1]*y[3,0]
P3 = u + u*y[1,1]^2*y[2,1]^2
"""


def test_colliding_specialization_still_vanishes_on_solutions():
    # P0 repeats a monomial, so its specialization to y1 has two equal
    # terms; they merge into one lattice point with a two-symbol
    # coefficient
    src = parse_system(COLLIDING_TEXT)
    report = run_pipeline(src, seed=0)
    assert report.super_essential == (0, 3)
    assert report.kept_vars == (1,)
    assert len(report.resultant) == 4
    system = src.to_system()
    assert specialize(system, report.super_essential).has_collisions
    rng = random.Random(0)
    for _ in range(3):
        assert vanishes_on_difference_system(report.resultant, report.symbols,
                                             system, rng)


def test_rank_deficient_reports_no_resultant():
    report = run_pipeline(parse_system(RANK_DEFICIENT_TEXT), seed=0)
    assert report.essential is False
    assert report.no_resultant
    assert report.stage == "check"
    assert "rank 2" in report.reason
    text = serialize(report, "text").decode()
    assert "No SDResultant" in text


def test_wrong_polynomial_count_reports_no_resultant():
    src = parse_system("P0 = u + u*y[1,0]\nP1 = u + u*y[2,0]\nP2 = u + u*y[3,0]")
    report = run_pipeline(src, seed=0)
    assert report.essential is False
    assert "exactly 4" in report.reason
    assert "No SDResultant" in serialize(report, "text").decode()


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        run_pipeline(golden_source(), stage="everything")


def test_structured_output_uses_only_schema_keys():
    for stage in ("check", "super", "bounds", "resultant"):
        report = run_pipeline(parse_system(TOY_TEXT), stage=stage, seed=0)
        data = json.loads(serialize(report, "json").decode())
        assert set(data) <= SCHEMA_KEYS
        assert data["essential"] is True
        assert data["seed"] == 0
        if stage == "check":
            assert "super_essential" not in data
        if stage == "resultant":
            assert data["m1_dim"] == 2
            assert data["m2_dim"] == 0
            terms = data["resultant"]["terms"]
            assert len(terms) == 2
            for term in terms:
                assert isinstance(term["coeff"], str)
                int(term["coeff"])
                for factor in term["factors"]:
                    assert set(factor) == {"u", "shift", "exp"}


def test_structured_output_is_byte_stable():
    first = serialize(run_pipeline(golden_source(), seed=5), "json")
    second = serialize(run_pipeline(golden_source(), seed=5), "json")
    assert first == second
    # deserialize and re-dump reproduces the bytes
    redumped = (json.dumps(json.loads(first.decode()), indent=2,
                           sort_keys=True) + "\n").encode()
    assert redumped == first


def test_order_matrix_minus_infinity_serialization():
    report = PipelineReport(
        seed=0, stage="bounds", essential=True, rank=1, nvars=1, npolys=2,
        super_essential=(0, 1), kept_vars=(1,),
        order_matrix=((0,), (None,)), jacobi=(0, 0), modified_jacobi=(0, 0))
    data = json.loads(serialize(report, "json").decode())
    assert data["order_matrix"] == [[0], ["-inf"]]
    text = serialize(report, "text").decode()
    assert "-inf" in text


def test_text_output_shows_every_stage():
    report = run_pipeline(golden_source(), seed=0)
    text = serialize(report, "text").decode()
    assert "essential: yes" in text
    assert "{P0, P1, P2}" in text
    assert "kept variables: y1, y4" in text
    assert "jacobi bounds: 4, 3, 3" in text
    assert "modified bounds: 3, 2, 2" in text
    assert "P0, dP0, d2P0, P1, dP1, P2, dP2" in text
    assert "26 terms" in text
    assert "seed: 0" in text


def test_verbose_log_receives_stage_lines():
    lines = []
    run_pipeline(golden_source(), stage="bounds", seed=0, log=lines.append)
    joined = "\n".join(lines)
    assert "stage check done" in joined
    assert "stage bounds done" in joined


def test_unknown_format_rejected():
    report = run_pipeline(parse_system(TOY_TEXT), stage="check", seed=0)
    with pytest.raises(ValueError):
        serialize(report, "yaml")


@pytest.mark.parametrize(
    "case", ["toy", "golden", "shift20", "shift30", "S4", "S6", "N1"])
def test_resultant_and_report_do_not_depend_on_the_seed(case):
    src = parse_system((CASES / f"{case}.sys").read_text())
    first = None
    for seed in range(5):
        report = run_pipeline(src, seed=seed)
        payload = json.loads(serialize(report, "json"))
        assert payload.pop("seed") == seed
        if first is None:
            first = report.resultant, payload
        assert (report.resultant, payload) == first


def renamed(text, poly_perm, var_perm):
    """``text`` without comments, P_i renamed P_(poly_perm[i]) and y[v,k]
    renamed y[var_perm[v],k]."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    text = re.sub(r"P(\d+)", lambda m: f"P{poly_perm[int(m[1])]}", text)
    return re.sub(r"y\[(\d+),", lambda m: f"y[{var_perm[int(m[1])]},", text)


def answer_terms(text, poly_perm):
    """The resultant's terms with u[i,j] renamed back to the input order."""
    back = {new: old for old, new in enumerate(poly_perm)}
    report = run_pipeline(parse_system(text), seed=0)
    return {(c, tuple(sorted((ref._replace(poly=back[ref.poly]), e)
                             for ref, e in factors)))
            for c, factors in resultant_terms(report)}


@pytest.mark.parametrize("case", ["toy", "golden", "corpus1", "corpus2",
                                  "corpus3", "corpus4", "corpus5", "S4",
                                  "s1_4_3"])
def test_resultant_is_invariant_under_reordering_and_relabelling(case):
    # the resultant of a reordered system, or of one with its difference
    # variables relabelled, is the same polynomial up to renaming u[i,j]
    # and the sign
    text = (CASES / f"{case}.sys").read_text()
    src = parse_system(text)
    rng = random.Random(case)
    polys, variables = range(len(src.polys)), range(1, src.nvars + 1)
    identity = list(polys), dict(zip(variables, variables))
    expected = answer_terms(text, identity[0])
    flipped = {(-c, f) for c, f in expected}
    for draw in range(6):
        poly_perm, var_perm = identity
        if draw < 3:
            poly_perm = rng.sample(polys, len(polys))
        else:
            var_perm = dict(zip(variables,
                                rng.sample(variables, len(variables))))
        got = answer_terms(renamed(text, poly_perm, var_perm), poly_perm)
        assert got in (expected, flipped), (poly_perm, var_perm)


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps
# ---------------------------------------------------------------------------

@st.composite
def system_texts(draw):
    """Inputs in 1-3 variables, mostly n + 1 polynomials, some n or n + 2,
    of 1-3 terms with shifts 0-2 and exponents +-1, +-2: essential or not,
    some failing a later stage."""
    nvars = draw(st.integers(1, 3))
    npolys = draw(st.sampled_from((nvars + 1,) * 4 + (nvars, nvars + 2)))
    factor = st.tuples(st.integers(1, nvars), st.integers(0, 2),
                       st.sampled_from((-2, -1, 1, 2)))
    monomial = st.lists(factor, min_size=1, max_size=3,
                        unique_by=lambda f: f[:2])
    lines = []
    for i in range(npolys):
        terms = ["u"] + ["*".join(["u"] + [
            f"y[{v},{k}]" + ("" if e == 1 else f"^{e}") for v, k, e in m])
            for m in draw(st.lists(monomial, max_size=2))]
        lines.append(f"P{i} = " + " + ".join(terms))
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(system_texts(), st.sampled_from(STAGES), st.integers(-3, 2 ** 70))
def test_json_writer_matches_json_dumps_on_pipeline_reports(text, stage,
                                                            seed):
    try:
        report = run_pipeline(parse_system(text), stage=stage, seed=seed)
    except SDResError:
        return  # no report to write
    payload = serialize(report, "json")
    assert payload == reference_json(report)
    assert json.loads(payload)["seed"] == seed


ints = st.integers(-10 ** 30, 10 ** 30)


@st.composite
def drawn_reports(draw):
    """Reports of every depth with values the pipeline rarely makes: huge
    and negative numbers, empty lists, -inf order entries and constant
    resultant terms."""
    depth = draw(st.integers(0, 3))
    report = PipelineReport(seed=draw(ints), stage=STAGES[depth],
                            essential=draw(st.booleans()), rank=0, nvars=0,
                            npolys=0)
    if depth >= 1:
        report.super_essential = tuple(draw(st.lists(ints, max_size=3)))
    if depth >= 2:
        width = draw(st.integers(0, 3))
        report.kept_vars = tuple(draw(st.lists(ints, min_size=width,
                                               max_size=width)))
        report.order_matrix = tuple(tuple(row) for row in draw(st.lists(
            st.lists(st.none() | ints, min_size=width, max_size=width),
            max_size=3)))
        report.jacobi = tuple(draw(st.lists(ints, max_size=3)))
        report.modified_jacobi = tuple(draw(st.lists(ints, max_size=3)))
    if depth >= 3:
        report.alg_essential = tuple(draw(st.lists(
            st.tuples(ints, ints), max_size=3)))
        report.m1_dim, report.m2_dim = draw(ints), draw(ints)
        table = multipoly.SymbolTable()
        refs = st.builds(CoeffRef, ints, ints, ints).map(table.id_for)
        monomials = st.dictionaries(refs, st.integers(1, 10 ** 6),
                                    max_size=3).map(
            lambda d: tuple(sorted(d.items())))
        report.resultant = multipoly.MultiPoly(draw(st.dictionaries(
            monomials, ints, max_size=4)))
        report.symbols = table
    return report


@settings(derandomize=True, deadline=None, max_examples=300)
@given(drawn_reports())
def test_json_writer_matches_json_dumps_on_drawn_reports(report):
    payload = serialize(report, "json")
    assert payload == reference_json(report)
    assert set(json.loads(payload)) <= SCHEMA_KEYS
