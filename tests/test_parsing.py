"""Input language tests: grammar coverage, round trips, error reporting."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres.diffpoly import CoeffRef, DiffPolynomial, Monomial, VarRef
from sdres.errors import (
    DimensionMismatch,
    DuplicatePolynomial,
    DuplicateVariable,
    NonGenericTerm,
    ParseError,
)
from sdres.parsing import (
    MAX_TRANSFORM,
    SystemSource,
    parse_system,
    print_system,
)

from systems import (
    GOLDEN_TEXT,
    RANK_DEFICIENT_TEXT,
    TOY_TEXT,
    golden_system,
    rank_deficient_system,
    toy_system,
)


@pytest.mark.parametrize("text,builder", [
    (GOLDEN_TEXT, golden_system),
    (TOY_TEXT, toy_system),
    (RANK_DEFICIENT_TEXT, rank_deficient_system),
])
def test_fixture_texts_parse_to_their_builders(text, builder):
    src = parse_system(text)
    system = builder()
    assert src.polys == system.polys
    assert src.nvars == system.nvars


@pytest.mark.parametrize("text", [GOLDEN_TEXT, TOY_TEXT, RANK_DEFICIENT_TEXT])
def test_print_parse_round_trip(text):
    src = parse_system(text)
    assert parse_system(print_system(src)) == src


# one term's factors: distinct VarRefs with nonzero, possibly negative exponents
_powers = st.dictionaries(
    st.builds(VarRef, st.integers(1, 4), st.integers(0, 5)),
    st.integers(-3, 3).filter(bool), max_size=3)


@st.composite
def _sources(draw):
    """SystemSource values shaped as parse_system builds them; a polynomial
    may repeat a monomial."""
    polys, coeffs = [], []
    for i in range(draw(st.integers(1, 4))):
        powers = draw(st.lists(_powers, min_size=1, max_size=4))
        if draw(st.booleans()):
            powers.append(draw(st.sampled_from(powers)))
        refs = [CoeffRef(i, j, 0) for j in range(len(powers))]
        coeffs += refs
        polys.append(DiffPolynomial(tuple(zip(refs, map(Monomial, powers)))))
    nvars = max((v.var for p in polys for v in p.var_refs()), default=0)
    return SystemSource(polys=tuple(polys), nvars=nvars, coeffs=tuple(coeffs))


@settings(derandomize=True)
@given(_sources())
def test_print_parse_round_trip_property(src):
    assert parse_system(print_system(src)) == src


def test_whitespace_is_insignificant():
    tight = parse_system("P0=u+u*y[1,0]^2\nP1=u+u*y[1,1]")
    spaced = parse_system("P0 =  u  +  u * y[ 1 , 0 ] ^ 2\nP1 = u + u*y[1,1]")
    assert tight == spaced


def test_comments_and_blank_lines_are_skipped():
    text = """
# leading comment
P0 = u + u*y[1,0]   # trailing comment

P1 = u + u*y[1,1]
"""
    src = parse_system(text)
    assert len(src.polys) == 2
    assert src.nvars == 1


def test_negative_laurent_exponents():
    src = parse_system("P0 = u + u*y[1,0]^-2*y[2,1]\nP1 = u + y[2,0]\nP2 = u")
    mono = src.polys[0].terms[1][1]
    assert mono.exponent(VarRef(1, 0)) == -2
    assert mono.exponent(VarRef(2, 1)) == 1


def test_bare_factors_get_an_implicit_coefficient():
    src = parse_system("P0 = u + y[1,0]\nP1 = u + u*y[1,1]")
    explicit = parse_system("P0 = u + u*y[1,0]\nP1 = u + u*y[1,1]")
    assert src == explicit


def test_coefficients_are_numbered_in_term_order():
    src = parse_system(TOY_TEXT)
    assert src.coeffs == (CoeffRef(0, 0, 0), CoeffRef(0, 1, 0),
                          CoeffRef(1, 0, 0), CoeffRef(1, 1, 0))
    assert src.polys[0].terms[0][1] == Monomial.one()


def test_to_system_enforces_count():
    src = parse_system("P0 = u + u*y[1,0]\nP1 = u + u*y[2,0]\nP2 = u + u*y[3,0]")
    assert src.nvars == 3
    with pytest.raises(DimensionMismatch):
        src.to_system()


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_system("P0 = u + u*y[1,0]\nP1 = u + u*y[1 0]")
    assert info.value.line == 2
    assert info.value.col is not None
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("sep", ["\f", "\u2028"], ids=["form-feed", "u2028"])
def test_only_newlines_end_a_line(sep):
    # a form feed or U+2028 inside a line is an error on that line, not
    # the end of it
    with pytest.raises(ParseError) as info:
        parse_system(f"P0 = u + u*y[1,0]{sep} + u*y[1,1]\nP1 = u + u*y[1,1]")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_system(f"P0 = u + u*y[1,0]{sep}P1 = u + u*y[1,1]")
    assert info.value.line == 1


def test_crlf_line_ends_parse():
    assert parse_system(TOY_TEXT.replace("\n", "\r\n")) == parse_system(TOY_TEXT)
    with pytest.raises(ParseError) as info:
        parse_system("P0 = u + u*y[1,0]\r\nP1 = u + u*y[1 1]\r\n")
    assert info.value.line == 2


@pytest.mark.parametrize("text", [
    "P0 u + u*y[1,0]",          # missing '='
    "P0 = u + ",                # dangling '+'
    "P0 = u * ",                # dangling '*'
    "P0 = u + u*z[1,0]",        # unknown factor head
    "P0 = u + u*y[0,0]",        # variable indices start at 1
    "P0 = u + u*y[1,0]^0",      # zero exponent
    "P0 = u + u*y[1,0] junk",   # trailing garbage
    "Q0 = u + u*y[1,0]",        # bad line head
    "",                         # no definitions at all
    "# only a comment",
    "P1 = u + u*y[1,0]",        # indices must start at 0
    "P0 = u + u*y[1,0]\nP2 = u + u*y[1,1]",  # gap in indices
    pytest.param("P\u00b2 = u", id="non-ascii-digit"),
    pytest.param("P0 = u*y[1," + "9" * 5000 + "]", id="too-many-digits"),
])
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_system(text)


def test_transform_count_is_bounded():
    src = parse_system(f"P0 = u + u*y[1,0]*y[1,{MAX_TRANSFORM}]\n"
                       "P1 = u + u*y[1,1]")
    assert max(v.shift for v, _ in src.polys[0].terms[1][1].powers) == (
        MAX_TRANSFORM)
    with pytest.raises(ParseError, match="transform count 1000000 is above "
                       f"the limit {MAX_TRANSFORM}") as info:
        parse_system("P0 = u + u*y[1,0]*y[1, 1000000]\nP1 = u + u*y[1,1]")
    assert (info.value.line, info.value.col) == (1, 24)   # the count's column


def test_bench_cases_parse_within_the_limits():
    cases = pathlib.Path(__file__).resolve().parent.parent / "bench" / "cases"
    for path in sorted(cases.glob("*.sys")):
        parse_system(path.read_text())


def test_duplicate_polynomial_rejected():
    with pytest.raises(DuplicatePolynomial):
        parse_system("P0 = u + u*y[1,0]\nP0 = u + u*y[1,1]")


def test_duplicate_variable_in_one_term_rejected():
    with pytest.raises(DuplicateVariable):
        parse_system("P0 = u + u*y[1,0]*y[1,0]")


def test_numeric_coefficients_rejected():
    with pytest.raises(NonGenericTerm):
        parse_system("P0 = u + 3*y[1,0]")
    with pytest.raises(NonGenericTerm):
        parse_system("P0 = u + -2*y[1,0]")
