"""Command-line interface tests: subcommands, formats, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres.cli import main

from systems import GOLDEN_TEXT, RANK_DEFICIENT_TEXT, TOY_TEXT


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.sys"
    path.write_text(TOY_TEXT)
    return str(path)


@pytest.fixture
def rankdef_file(tmp_path):
    path = tmp_path / "rankdef.sys"
    path.write_text(RANK_DEFICIENT_TEXT)
    return str(path)


def test_resultant_text_output(toy_file, capsys):
    assert main(["resultant", toy_file]) == 0
    out = capsys.readouterr().out
    assert "resultant (2 terms" in out
    assert "du[0,0]*u[1,1]" in out
    assert "-du[0,1]*u[1,0]" in out


def test_readme_transcript_matches_the_cli(tmp_path, capsys):
    # the README's example: the system after "$ cat toy.sys" and the output
    # after "$ sdres resultant toy.sys", up to the end of the code block
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    block = readme.split("$ cat toy.sys\n", 1)[1].split("```", 1)[0]
    system, transcript = block.split("\n$ sdres resultant toy.sys\n")
    (tmp_path / "toy.sys").write_text(system)
    assert main(["resultant", str(tmp_path / "toy.sys")]) == 0
    assert capsys.readouterr().out == transcript


def test_check_reports_no_resultant_with_exit_zero(rankdef_file, capsys):
    assert main(["check", rankdef_file]) == 0
    assert "No SDResultant" in capsys.readouterr().out


def test_json_format(toy_file, capsys):
    assert main(["resultant", toy_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["essential"] is True
    assert data["m1_dim"] == 2
    assert len(data["resultant"]["terms"]) == 2


def test_structured_alias(toy_file, capsys):
    assert main(["check", toy_file, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["essential"] is True


def test_out_file(toy_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["bounds", toy_file, "--format", "json",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["kept_vars"] == [1]
    assert data["order_matrix"] == [[0], [1]]


def byte_stdin(data):
    """A stand-in for sys.stdin over ``data``, strict UTF-8 like a real
    stdin under a UTF-8 locale, with the byte buffer that sdres reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="strict")


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(TOY_TEXT.encode()))
    assert main(["super", "-"]) == 0
    assert "{P0, P1}" in capsys.readouterr().out


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.sys"
    path.write_bytes(b"P0 = u + u*y[1,0]\n\xff\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"sdres: error: {path} is not UTF-8: invalid byte at offset 18\n"


def test_non_utf8_stdin_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(b"P0 = u\xff + u*y[1,0]\n"))
    assert main(["check", "-"]) == 1
    assert capsys.readouterr().err == ("sdres: error: standard input is not "
                                       "UTF-8: invalid byte at offset 6\n")


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/no/such/file.sys"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("P0 = u + u*y[1 0]\n")
    assert main(["check", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_duplicate_polynomial_is_input_error(tmp_path, capsys):
    path = tmp_path / "dup.sys"
    path.write_text("P0 = u + u*y[1,0]\nP0 = u + u*y[1,1]\n")
    assert main(["check", str(path)]) == 1


def test_bad_usage_is_input_error(capsys):
    assert main([]) == 1
    assert main(["frobnicate", "x"]) == 1
    assert main(["check"]) == 1


@pytest.mark.parametrize("retries", ["0", "-3"])
def test_max_retries_below_one_is_input_error(toy_file, capsys, retries):
    assert main(["resultant", toy_file, "--max-retries", retries]) == 1
    assert capsys.readouterr().err.startswith(
        "sdres: error: argument --max-retries: must be at least 1")


def test_unwritable_out_is_input_error(toy_file, capsys):
    assert main(["check", toy_file, "--out", "/no/such/dir/report.txt"]) == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("exhaustion", [MemoryError, RecursionError])
def test_resource_exhaustion_is_internal_error(toy_file, monkeypatch, capsys,
                                               exhaustion):
    def exhausted(*args, **kwargs):
        raise exhaustion()

    monkeypatch.setattr("sdres.cli.run_pipeline", exhausted)
    assert main(["resultant", toy_file]) == 2
    err = capsys.readouterr().err
    assert err == f"sdres: internal error: {exhaustion.__name__}\n"


def test_oversized_box_fails_on_budget_with_exit_two():
    # 10^11 lattice points in the Minkowski box: rejected before any LP
    # (a third term keeps the system off the closed form for binomials)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sdres.cli import main; sys.exit(main(sys.argv[1:]))",
         "resultant", "-"],
        input="P0 = u + u*y[1,0]^99999999999 + u*y[1,0]\nP1 = u + u*y[1,1]\n",
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("sdres: internal error: budget")
    assert "Traceback" not in done.stderr


def test_binomial_system_with_a_huge_exponent_is_solved(tmp_path, capsys):
    # stress case S6: every support is a binomial, so the resultant comes
    # from the closed form and the exponent's size costs nothing
    path = tmp_path / "s6.sys"
    path.write_text("P0 = u + u*y[1,0]^99999999999\nP1 = u + u*y[1,1]\n")
    assert main(["resultant", str(path)]) == 0
    out = capsys.readouterr().out
    assert "resultant (2 terms, total degree 100000000000):" in out
    assert "\n  du[0,0]*u[1,1]^99999999999\n" in out
    assert "\n  -du[0,1]*u[1,0]^99999999999\n" in out


def test_huge_transform_count_exits_one_at_parse_time():
    # the existence check's cost grows with the transform count; 10^6 is
    # rejected by the parser instead of running unbounded
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sdres.cli import main; sys.exit(main(sys.argv[1:]))",
         "check", "-"],
        input="P0 = u + u*y[1,0]*y[1,1000000]\nP1 = u + u*y[1,1]\n",
        env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stderr == ("sdres: error: transform count 1000000 is above "
                           "the limit 100000 at line 1, column 23\n")


# grammar-near input: well-formed lines with out-of-range pieces, mixed with
# token soup and arbitrary text
_FACTOR = st.builds("y[{},{}]{}".format, st.integers(-1, 4), st.integers(-1, 3),
                    st.sampled_from(["", "^2", "^-1", "^0", "^", "^-"]))
_TERM = st.builds(lambda head, factors: "*".join(head + factors),
                  st.sampled_from([["u"], [], ["2"], ["-1"], ["u", "u"]]),
                  st.lists(_FACTOR, max_size=3))
_LINE = st.builds(lambda i, terms: f"P{i} = " + " + ".join(terms),
                  st.integers(-1, 4), st.lists(_TERM, max_size=4))
_SOUP = st.lists(st.sampled_from(
    ["P", "P0", "P1", "=", "u", "u*", "+", "*", "y", "y[", "[", "]", ",", "^",
     "-", "0", "1", "2", "9", "\u00b2", "\u0661", "#", " ", "\t", "\n", "\r"]),
    max_size=24).map("".join)
_TEXT = st.lists(st.one_of(_LINE, _SOUP, st.text(max_size=12)),
                 max_size=5).map("\n".join)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_TEXT)
def test_check_never_leaks_a_traceback(text):
    # every input ends in a documented exit code with a one-line message
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.sys"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
                contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_seed_flag_changes_nothing_for_deterministic_paths(toy_file, capsys):
    assert main(["resultant", toy_file, "--seed", "0",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["resultant", toy_file, "--seed", "12345",
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    first_data = json.loads(first)
    second_data = json.loads(second)
    assert first_data["resultant"] == second_data["resultant"]
    assert first_data["seed"] == 0
    assert second_data["seed"] == 12345


def test_paranoid_flag(toy_file, capsys):
    assert main(["bounds", toy_file, "--paranoid", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["modified_jacobi"] == [1, 0]


def test_verbose_logs_to_stderr(toy_file, capsys):
    assert main(["check", toy_file, "--verbose"]) == 0
    captured = capsys.readouterr()
    assert "stage check done" in captured.err
    assert "timing:" in captured.out


def test_golden_full_run_through_cli(tmp_path, capsys):
    path = tmp_path / "golden.sys"
    path.write_text(GOLDEN_TEXT)
    assert main(["resultant", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["super_essential"] == [0, 1, 2]
    assert data["kept_vars"] == [1, 4]
    assert data["jacobi"] == [4, 3, 3]
    assert data["modified_jacobi"] == [3, 2, 2]
    assert len(data["resultant"]["terms"]) == 26
    assert all(term["coeff"] in ("1", "-1")
               for term in data["resultant"]["terms"])


S1_TEXT = """\
P0 = u + u*y[1,0]^6
P1 = u + u*y[1,1]^5 + u*y[1,0]
"""


def test_s1_matches_two_step_classical_resultant(tmp_path, capsys):
    # a 72-row Newton matrix, so the quotient is interpolated; with
    # x = y[1,0] and y = y[1,1] the algebraic system is P0, dP0, P1
    import sympy as sp

    path = tmp_path / "s1.sys"
    path.write_text(S1_TEXT)
    answers = []
    for seed in ("0", "1", "5"):
        assert main(["resultant", str(path), "--seed", seed,
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["m1_dim"], data["m2_dim"]) == (72, 0)
        answers.append(data["resultant"])
    assert answers[0] == answers[1] == answers[2]
    a0, a1, b0, b1, c0, c1, c2, x, y = sp.symbols("a0 a1 b0 b1 c0 c1 c2 x y")
    names = {(0, 0, 0): a0, (0, 1, 0): a1, (0, 0, 1): b0, (0, 1, 1): b1,
             (1, 0, 0): c0, (1, 1, 0): c1, (1, 2, 0): c2}
    got = sp.Integer(0)
    for term in answers[0]["terms"]:
        value = sp.Integer(int(term["coeff"]))
        for f in term["factors"]:
            value *= names[(*f["u"], f["shift"])] ** f["exp"]
        got += value
    got = sp.Poly(got, *names.values())
    assert len(got.terms()) == 28
    assert got.total_degree() == 72
    inner = sp.resultant(a0 + a1 * x**6, c0 + c1 * y**5 + c2 * x, x)
    ref = sp.Poly(sp.resultant(b0 + b1 * y**6, inner, y), *names.values())
    assert got in (ref, -ref)
