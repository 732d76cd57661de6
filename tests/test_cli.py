"""Command-line interface tests: subcommands, formats, exit codes."""

import io
import json

import pytest

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


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(TOY_TEXT))
    assert main(["super", "-"]) == 0
    assert "{P0, P1}" in capsys.readouterr().out


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
