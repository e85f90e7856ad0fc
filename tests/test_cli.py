from cgbell import reference_csv_path
from cgbell.cli import main

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
