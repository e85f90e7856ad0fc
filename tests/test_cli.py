import functools
import re

import pytest

from cgbell import all_fixtures, analysis, quantum, reference_csv_path, serialize_file
from cgbell.cli import main

# a row failure as `cgbell analyze` reports it on standard error
ROW_FAILURE = re.compile(r"^row \d+ .* failed: ", re.MULTILINE)

HUGE_BLOCK = """\
inequality HUGE
scenario 2 2
bound 0
c -1 0
e -1 0
d 1 12345678901234567890123
  1 -1
end
"""


def test_analyze_huge_coefficient_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_BLOCK, encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 6" in err


def test_canon_beyond_the_cap_after_relabeling(tmp_path, capsys):
    # valid input whose relabelings need coefficients above 2**44
    m = 2**44
    path = tmp_path / "near_cap.txt"
    path.write_text(
        f"inequality NEAR\nscenario 2 2\nbound 0\nc -{m} 3\ne -{m} 0\n"
        f"d {m} {m - 1}\n  {m} -{m}\nend\n",
        encoding="utf-8",
    )
    assert main(["canon", "--input", str(path)]) == 2
    assert "cannot canonicalise" in capsys.readouterr().err


def test_analyze_near_the_cap(tmp_path, capsys):
    # the same table: the correlator check builds no relabeled table, so
    # its row is analysed
    m = 2**44
    path = tmp_path / "near_cap.txt"
    path.write_text(
        f"inequality NEAR\nscenario 2 2\nbound 0\nc -{m} 3\ne -{m} 0\n"
        f"d {m} {m - 1}\n  {m} -{m}\nend\n",
        encoding="utf-8",
    )
    assert main(["analyze", "--input", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("1,NEAR,2x2,")


def test_compare_non_numeric_cell_is_an_input_error(tmp_path, capsys):
    reference = open(reference_csv_path(), encoding="utf-8").read()
    lines = reference.splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("L")] = "abc"
    path = tmp_path / "report.csv"
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    code = main(["compare", "--input", str(path), "--reference", reference_csv_path()])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err


def test_compare_reference_against_itself(capsys):
    path = reference_csv_path()
    assert main(["compare", "--input", path, "--reference", path, "--normalized"]) == 0
    assert capsys.readouterr().out.endswith("OK\n")


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fixtures.txt"
    path.write_text(serialize_file(all_fixtures()), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "option",
    [
        ["--restarts", "0"],
        ["--restarts", "-3"],
        ["--restarts", "many"],
        ["--workers", "0"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "0"],
        ["--tol=-1e-10"],
        ["--tol", "tiny"],
        ["--seed=-1"],
        ["--seed", "one"],
    ],
)
def test_analyze_rejects_bad_option_values(fixture_file, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(fixture_file), *option])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and option[0].split("=")[0] in out.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "=-1e-9", "loose"])
def test_compare_rejects_bad_tolerance(capsys, tol):
    path = reference_csv_path()
    option = ["--tol" + tol] if tol.startswith("=") else ["--tol", tol]
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", path, "--reference", path, *option])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--tol" in out.err


def test_compare_zero_tolerance_is_an_exact_match(tmp_path, capsys):
    path = reference_csv_path()
    assert main(["compare", "--input", path, "--reference", path, "--tol", "0"]) == 0
    assert capsys.readouterr().out == "compared 30 values: OK\n"
    lines = open(path, encoding="utf-8").read().splitlines()
    header, cells = lines[0].split(","), lines[1].split(",")
    column = header.index("L")
    cells[column] = repr(float(cells[column]) + 1e-9)
    moved = tmp_path / "report.csv"
    moved.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    assert main(["compare", "--input", str(moved), "--reference", path, "--tol", "0"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "compared 30 values: 1 failures"


@pytest.mark.parametrize("command", ["analyze", "canon"])
def test_missing_input_file_is_an_input_error(tmp_path, capsys, command):
    assert main([command, "--input", str(tmp_path / "absent.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_canon_parse_error_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("inequality BAD\nscenario 2 2\nbound zero\nend\n", encoding="utf-8")
    assert main(["canon", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_compare_value_mismatch_exits_1(tmp_path, capsys):
    lines = open(reference_csv_path(), encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    column = header.index("lambda")
    cells[column] = f"{float(cells[column]) + 0.1:.4f}"
    path = tmp_path / "report.csv"
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    code = main(
        ["compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"]
    )
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("row 1 CHSH lambda: ")
    assert out[-1] == "compared 30 values: 1 failures"


def test_analyze_warns_about_an_unconverged_see_saw(fixture_file, capsys, monkeypatch):
    # one sweep per restart: no row's best restart meets the tolerance
    monkeypatch.setattr(
        analysis, "quantum_bound", functools.partial(quantum.quantum_bound, max_sweeps=1)
    )
    fixtures = all_fixtures()
    assert main(["analyze", "--input", str(fixture_file)]) == 0
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 1 + len(fixtures)
    warnings = out.err.splitlines()
    assert warnings == [
        f"warning: row {i} ({t.name}): see-saw stopped at its sweep limit before converging"
        for i, t in enumerate(fixtures, start=1)
    ]
    assert not ROW_FAILURE.search(out.err)
