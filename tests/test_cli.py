import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgbell
from cgbell import (
    Scenario,
    all_fixtures,
    analyze_tables,
    canonical_form,
    chsh,
    i3322,
    load_report_csv,
    parse_file,
    quantum,
    reference_csv_path,
    serialize_file,
)
from cgbell.cli import main

from oracles import apply_relabeling, random_relabeling
from test_localpoly import embed

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
    # its row is analysed.  -2^44 p(00|00) <= 0 cannot be violated: its
    # see-saw rounding lies within the margin's rounding term, which grows
    # with the coefficients
    m = 2**44
    path = tmp_path / "near_cap.txt"
    path.write_text(
        f"inequality NEAR\nscenario 2 2\nbound 0\nc -{m} 3\ne -{m} 0\n"
        f"d {m} {m - 1}\n  {m} -{m}\nend\n"
        f"inequality POS\nscenario 1 1\nbound 0\nc 0\ne 0\nd -{m}\nend\n",
        encoding="utf-8",
    )
    assert main(["analyze", "--input", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert len(lines) == 3 and lines[1].startswith("1,NEAR,2x2,")
    assert lines[2].startswith("2,POS,1x1,")
    assert lines[2].split(",")[7:10] == ["1.000000"] * 3  # lambda, lambda_me, eta_sym


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


@pytest.mark.parametrize("row", ["short", "long"])
def test_compare_row_with_wrong_cell_count_is_an_input_error(tmp_path, capsys, row):
    # the second data row, on line 3, loses its last cell or gains one
    lines = open(reference_csv_path(), encoding="utf-8").read().splitlines()
    cells = lines[2].split(",")
    cells = cells[:-1] if row == "short" else [*cells, "0.5"]
    path = tmp_path / "report.csv"
    path.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n", encoding="utf-8")
    argv = ["compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "line 3" in out.err


@pytest.mark.parametrize("side", ["--input", "--reference"])
def test_compare_oversized_cell_is_an_input_error(tmp_path, capsys, side):
    # the csv module refuses a field over 131,072 characters
    lines = open(reference_csv_path(), encoding="utf-8").read().splitlines()
    path = tmp_path / "report.csv"
    path.write_text("\n".join([*lines[:2], lines[2] + "9" * 200_000, *lines[3:]]) + "\n", encoding="utf-8")
    paths = {"--input": reference_csv_path(), "--reference": reference_csv_path(), side: str(path)}
    assert main(["compare", *(arg for pair in paths.items() for arg in pair)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {path}: line 3: ")


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
        ["--tol", "1e-10"],  # the see-saw tolerance is a constant, not an option
        ["--workers", "-2"],
        ["--workers", "many"],
        ["--restarts=2.5"],
        ["--output", "xml"],
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


def test_option_type_errors_name_the_type(fixture_file, capsys):
    path = reference_csv_path()
    for argv, kind in (
        (["analyze", "--input", str(fixture_file), "--restarts", "many"], "int"),
        (["compare", "--input", path, "--reference", path, "--tol", "tiny"], "float"),
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert f"invalid {kind} value: '{argv[-1]}'" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["analyze", "canon", "compare"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("inequality Bell\u00e9\n".encode("latin-1"))
    argv = [command, "--input", str(path)]
    assert main(argv + ["--reference", str(path)] if command == "compare" else argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "utf-8" in out.err


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
    text = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    # a byte-order mark must not hide the first column, the row index
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        code = main(
            ["compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"]
        )
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("row 1 CHSH lambda: ")
        assert out[-1] == "compared 30 values: 1 failures"


def test_compare_tol_raises_every_column_above_its_default(tmp_path, capsys):
    lines = open(reference_csv_path(), encoding="utf-8").read().splitlines()
    cells = lines[1].split(",")
    column = lines[0].split(",").index("lambda")
    cells[column] = f"{float(cells[column]) + 0.5:.4f}"
    path = tmp_path / "report.csv"
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    argv = ["compare", "--input", str(path), "--reference", reference_csv_path()]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "compared 30 values: 1 failures"
    assert main([*argv, "--tol", "1"]) == 0
    assert capsys.readouterr().out == "compared 30 values: OK\n"


def test_compare_findings_name_rows_without_an_index_by_position(tmp_path, capsys):
    rows = load_report_csv(open(reference_csv_path(), encoding="utf-8").read())
    lams = [float(row["lambda"]) for row in rows]
    lams[0] += 0.1
    path = tmp_path / "report.csv"
    path.write_text(
        "name,lambda\n" + "".join(f"{row['name']},{lam}\n" for row, lam in zip(rows, lams)),
        encoding="utf-8",
    )
    argv = ["compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    missing = "theta_over_pi, lambda_me, eta_sym, L_minus_N, Q_minus_L"
    assert out[:5] == [f"structural: missing at index {i}: {missing}" for i in range(1, 6)]
    assert out[5].startswith("row 1 CHSH lambda: ")
    assert out[6:] == ["compared 5 values: 6 failures"]


def test_a_non_number_in_a_row_without_an_index_names_it_by_position(tmp_path, capsys):
    rows = load_report_csv(Path(reference_csv_path()).read_text(encoding="utf-8"))
    cells = ["abc", *(row["lambda"] for row in rows[1:])]
    path = tmp_path / "report.csv"
    path.write_text(
        "name,lambda\n" + "".join(f"{row['name']},{cell}\n" for row, cell in zip(rows, cells)),
        encoding="utf-8",
    )
    assert main(["compare", "--input", str(path), "--reference", reference_csv_path()]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(": row 1: lambda is not a number: 'abc'\n")


@pytest.mark.parametrize("command", ["analyze", "canon", "fixtures"])
def test_a_closed_output_exits_1_without_a_traceback(fixture_file, command):
    # the reader closes the pipe before the command writes, as `| head` may
    argv = [command] if command == "fixtures" else [command, "--input", str(fixture_file)]
    env = {**os.environ, "PYTHONPATH": str(Path(cgbell.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cgbell.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines[:-1], "row count mismatch: report 4 vs reference 5"),
        (
            lambda lines: [lines[0], lines[1].replace(",CHSH,", ",CHSH2,"), *lines[2:]],
            "name mismatch at index 1: 'CHSH2' vs 'CHSH'",
        ),
    ],
)
def test_compare_structural_mismatch_exits_1(tmp_path, capsys, edit, message):
    lines = open(reference_csv_path(), encoding="utf-8").read().splitlines()
    path = tmp_path / "report.csv"
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    argv = ["compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"structural: {message}"
    assert out[-1].endswith(": 1 failures")


@pytest.mark.parametrize(
    "mode,missing",
    [
        ([], "theta_over_pi, lambda, lambda_me, eta_sym, L, N, Q"),
        (["--normalized"], "theta_over_pi, lambda, lambda_me, eta_sym, L_minus_N, Q_minus_L"),
    ],
)
def test_compare_a_report_without_values_exits_1(fixture_file, tmp_path, capsys, mode, missing):
    # a report of index and name only has none of the reference's values,
    # and a reference of index and name only checks none of the report's
    assert main(["analyze", "--input", str(fixture_file)]) == 0
    full = capsys.readouterr().out
    reference, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    reference.write_text(full, encoding="utf-8")
    cut_lines = [",".join(line.split(",")[:2]) for line in full.splitlines()]
    cut.write_text("\n".join(cut_lines) + "\n", encoding="utf-8")
    assert main(["compare", "--input", str(cut), "--reference", str(reference), *mode]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        *(f"structural: missing at index {i}: {missing}" for i in range(1, 6)),
        "compared 0 values: 5 failures",
    ]
    assert main(["compare", "--input", str(reference), "--reference", str(cut), *mode]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "structural: no value compared: the reference has no compared cell",
        "compared 0 values: 1 failures",
    ]


@pytest.mark.parametrize("command", ["analyze", "canon"])
def test_input_with_a_byte_order_mark_reads_as_without(fixture_file, tmp_path, capsys, command):
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture_file.read_bytes())
    plain = main([command, "--input", str(fixture_file)]), capsys.readouterr()
    assert main([command, "--input", str(bom)]) == plain[0] == 0
    assert capsys.readouterr() == plain[1]


def test_analyze_warns_about_an_unconverged_see_saw(fixture_file, capsys, monkeypatch):
    # one sweep per restart and no Newton step: no row's best restart is certified
    monkeypatch.setattr(quantum, "SWEEP_CAP", 1)
    monkeypatch.setattr(quantum, "POLISH_STEPS", 0)
    fixtures = all_fixtures()
    assert main(["analyze", "--input", str(fixture_file)]) == 0
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 1 + len(fixtures)
    warnings = out.err.splitlines()
    assert warnings == [
        f"warning: row {i} ({t.name}): see-saw did not reach a certified local maximum"
        for i, t in enumerate(fixtures, start=1)
    ]
    assert not ROW_FAILURE.search(out.err)


def test_canon_prints_groups_in_order_of_first_member(tmp_path, capsys):
    moved = random_relabeling(Scenario(3, 3), np.random.default_rng(7))
    tables = [
        i3322(),
        chsh(),
        apply_relabeling(i3322(), moved).with_name("I3322_moved"),
        embed(chsh(), Scenario(3, 3), (0, 2), (1, 2)).with_name("CHSH_3x3"),
    ]
    path = tmp_path / "interleaved.txt"
    path.write_text(serialize_file(tables), encoding="utf-8")
    assert main(["canon", "--input", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert [line for line in out.out.splitlines() if line.startswith("#")] == [
        "# group 1 (2 inequalities): I3322, I3322_moved",
        "# group 2 (1 inequality): CHSH",
        "# group 3 (1 inequality): CHSH_3x3",
        "# CHSH_3x3: lifted_from 2x2",
    ]
    blocks = re.split(r"^# .*\n", out.out, flags=re.MULTILINE)
    assert blocks[0] == "" and blocks[-1] == ""
    for g, (block, members) in enumerate(zip(blocks[1:4], ([1, 3], [2], [4])), start=1):
        for i in members:
            assert parse_file(block) == [canonical_form(tables[i - 1]).with_name(f"group_{g}")]


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "command,expected",
    [
        (["fixtures"], "fixtures.txt"),
        (["analyze", "--input", str(DATA / "fixtures.txt")], "fixtures_analyze.csv"),
        (["canon", "--input", str(DATA / "fixtures.txt")], "fixtures_canon.txt"),
        # relabeled 4x4 zero-lifts of the fixtures; the expected report was
        # computed with every stage on the full 4x4 table, so it checks the
        # reduced-table pipeline against the full-table one
        (["analyze", "--input", str(DATA / "lifts_4x4.txt")], "lifts_4x4_analyze.csv"),
        (["canon", "--input", str(DATA / "lifts_4x4.txt")], "lifts_4x4_canon.txt"),
        # one relabeled zero-lift of each fixture at 5x5..8x8, the WORST_8X8
        # tables of test_symmetry.py and CHSH+CHSH+I3422_1 (direct_sum of
        # test_robustness.py), drawn from default_rng(2019)
        (["canon", "--input", str(DATA / "canon_large.txt")], "canon_large_canon.txt"),
    ],
)
def test_fixture_outputs_are_byte_identical(capsys, command, expected):
    # the files hold the commands' output at the default options; every CSV
    # value lies at least 3.3e-8 from a 6-decimal rounding boundary, so
    # rounding noise in BLAS cannot move a digit
    assert main(command) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.encode("utf-8") == (DATA / expected).read_bytes()


# the rows whose q_me no pi/4 certificate proves, even after the pi/4
# see-saw; every row of the three files ends its see-saws converged
UNCERTIFIED_Q_ME = {}


@pytest.mark.parametrize("name", ["fixtures.txt", "lifts_4x4.txt", "canon_large.txt"])
def test_unrendered_flags_are_pinned(name):
    # converged and q_me_certified reach no output format, so only this pin
    # sees them move
    reports, failures = analyze_tables(parse_file((DATA / name).read_text(encoding="utf-8")))
    assert failures == [] and reports
    for r in reports:
        assert type(r.converged) is bool and type(r.q_me_certified) is bool, r.name
        assert r.converged, r.name
    assert {r.name for r in reports if not r.q_me_certified} == UNCERTIFIED_Q_ME.get(name, set())


@pytest.mark.parametrize("name", ["fixtures.txt", "lifts_4x4.txt", "no_violation.txt"])
def test_analyze_does_not_depend_on_the_seed(capsys, name):
    # no_violation.txt holds positivity, positivity lifted to 4x4 and the zero
    # table: their Q is L, which every theta reaches, and theta is reported as 0
    outputs = []
    for seed in range(5):
        assert main(["analyze", "--input", str(DATA / name), "--seed", str(seed)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        outputs.append(out.out)
    assert outputs == [outputs[0]] * 5
    if name == "no_violation.txt":
        rows = load_report_csv(outputs[0])
        assert [row["theta_over_pi"] for row in rows] == ["0.000000"] * 3


@pytest.mark.parametrize("name", ["fixtures.txt", "lifts_4x4.txt"])
def test_json_report_holds_its_floats_to_1e_9(capsys, name):
    # fixtures_analyze.json holds `analyze --output json` of both inputs at
    # the default options; the CSV rounds to 6 decimals, so only this pin
    # sees a drift of the see-saw between 1e-9 and 5e-7
    expected = json.loads((DATA / "fixtures_analyze.json").read_text(encoding="utf-8"))[name]
    assert main(["analyze", "--input", str(DATA / name), "--output", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [list(row) for row in rows] == [list(row) for row in expected]
    for row, want in zip(rows, expected):
        for key, value in row.items():
            if isinstance(want[key], float):
                assert abs(value - want[key]) <= 1e-9, (row["index"], key)
            else:
                assert value == want[key], (row["index"], key)
