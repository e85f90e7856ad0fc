"""The analysis pipeline end to end: the bundled reference, worker counts,
the three report formats, and invariance of the report under relabelings."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    CgTable,
    Scenario,
    all_fixtures,
    analysis,
    analyze_table,
    analyze_tables,
    chsh,
    i3322,
    local_bound,
    reference_csv_path,
    to_csv,
    to_json,
    to_markdown,
)
from cgbell.analysis import CSV_COLUMNS, DEFAULT_TOLERANCES
from cgbell.cli import main
from cgbell.quantum import QUARTER_PI, _margin

from oracles import apply_relabeling, random_relabeling
from test_cli import DATA
from test_localpoly import embed, random_embedding


def cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    code, text, _ = cli("fixtures")
    assert code == 0
    path = tmp_path_factory.mktemp("pipeline") / "fixtures.txt"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fixture_report(fixture_file):
    code, report, err = cli("analyze", "--input", str(fixture_file))
    # no row failure, and no warning of a see-saw stopped at its sweep limit
    assert (code, err) == (0, "")
    return report


def test_fixtures_match_the_bundled_reference(fixture_report, tmp_path):
    path = tmp_path / "report.csv"
    path.write_text(fixture_report, encoding="utf-8")
    code, out, _ = cli(
        "compare", "--input", str(path), "--reference", reference_csv_path(), "--normalized"
    )
    assert (code, out) == (0, "compared 30 values: OK\n")


@pytest.mark.parametrize("output", ["csv", "json", "md"])
def test_worker_count_does_not_change_the_report(fixture_file, output):
    # the five fixtures, their 4x4 lifts and the 5x5-8x8 tables, where the
    # see-saws do the most work
    for path in (fixture_file, DATA / "lifts_4x4.txt", DATA / "canon_large.txt"):
        serial, pooled = (
            cli("analyze", "--input", str(path), "--output", output, "--workers", workers)
            for workers in ("1", "2")
        )
        assert serial[0] == 0 and serial[2] == "", path.name
        assert pooled == serial, path.name


def test_pool_is_sized_to_the_rows(fixture_file, fixture_report, monkeypatch):
    # at most one process per row and per CPU, and none when that is one
    sizes = []

    def pool(max_workers):
        # threads stand in for the processes, so a large count starts none
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    for cpus, expected in ((64, [5]), (3, [3]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        code, report, err = cli("analyze", "--input", str(fixture_file), "--workers", "64")
        assert (code, report, err) == (0, fixture_report, "")
        assert sizes == expected, cpus


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_row_leaves_the_others(fixture_file, fixture_report, monkeypatch, workers):
    real = analysis.analyze_table

    def fail_row_2(table, index, *args):
        if index == 2:
            raise RuntimeError("boom")
        return real(table, index, *args)

    monkeypatch.setattr(analysis, "analyze_table", fail_row_2)
    # threads stand in for the worker processes, which would not see the patch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    code, report, err = cli("analyze", "--input", str(fixture_file), "--workers", workers)
    header, *rows = fixture_report.splitlines()
    assert (code, err) == (1, "row 2 (I3322) failed: boom\n")
    assert report.splitlines() == [header, *rows[:1], *rows[2:]]


# positivity of p(00|00), lifted to 3x3: no quantum violation, so lambda and
# eta_sym are 1
POSITIVITY_3x3 = CgTable(
    Scenario(3, 3), [[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 0], [0, 0, 0], 0, "POS_3x3"
)


@pytest.fixture(scope="module")
def reports():
    tables = [*all_fixtures(), chsh().with_name(None), POSITIVITY_3x3]
    reports, failures = analyze_tables(tables)
    assert failures == [] and len(reports) == len(tables)
    return reports


def formatted(value):
    """A JSON value as the CSV and Markdown reports print it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def test_json_rows_follow_the_csv_columns(reports):
    rows = json.loads(to_json(reports))
    assert [list(row) for row in rows] == [CSV_COLUMNS] * len(reports)
    for row in rows:
        assert type(row["index"]) is int and type(row["L"]) is int
        assert type(row["scenario"]) is str
        assert all(type(row[c]) is float for c in ("N", "Q", "theta_over_pi"))
        assert all(type(row[c]) is float for c in ("lambda", "lambda_me", "eta_sym"))
        assert type(row["facet"]) is bool and type(row["correlation_form"]) is bool
    *fixtures, unnamed, lifted = rows
    assert [row["lifted_from"] for row in fixtures] == [None] * len(fixtures)
    assert (unnamed["name"], unnamed["lifted_from"]) == (None, None)
    assert (lifted["name"], lifted["lifted_from"]) == ("POS_3x3", "1x1")
    assert (lifted["lambda"], lifted["lambda_me"], lifted["eta_sym"]) == (1.0, 1.0, 1.0)


def test_csv_and_markdown_cells_format_the_json_values(reports):
    rows = json.loads(to_json(reports))
    header, *cells = csv.reader(io.StringIO(to_csv(reports)))
    assert header == CSV_COLUMNS
    assert cells == [[formatted(row[c]) for c in CSV_COLUMNS] for row in rows]
    lines = to_markdown(reports).splitlines()
    assert lines[1] == "|" + "|".join("---" for _ in CSV_COLUMNS) + "|"
    table = [lines[0], *lines[2:]]
    assert all(line.startswith("| ") and line.endswith(" |") for line in table)
    assert [line[2:-2].split(" | ") for line in table] == [header, *cells]


BASES = {
    "CHSH": chsh(),
    "I3322": i3322(),
    "CHSH_3x3": embed(chsh(), Scenario(3, 3), (0, 2), (1, 2)),
    "I3322_3x4": embed(i3322(), Scenario(3, 4), (0, 1, 2), (0, 2, 3)),
}


@functools.cache
def base_report(name):
    return analyze_table(BASES[name])


@given(name=st.sampled_from(sorted(BASES)), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_report_invariant_under_relabeling(name, seed):
    table = BASES[name]
    r = random_relabeling(table.scenario, np.random.default_rng(seed))
    base, moved = base_report(name), analyze_table(apply_relabeling(table, r))
    tol = DEFAULT_TOLERANCES
    assert abs((moved.local - moved.noise) - (base.local - base.noise)) <= tol["L_minus_N"]
    assert abs((moved.quantum - moved.local) - (base.quantum - base.local)) <= tol["Q_minus_L"]
    assert abs(moved.lam - base.lam) <= tol["lambda"]
    assert abs(moved.lam_me - base.lam_me) <= tol["lambda_me"]
    assert abs(moved.eta_sym - base.eta_sym) <= tol["eta_sym"]
    assert (moved.is_facet, moved.has_correlation_form) == (base.is_facet, base.has_correlation_form)


@pytest.mark.parametrize("k", range(5), ids=[t.name for t in all_fixtures()])
def test_a_zero_lift_reports_its_base_numbers_bit_for_bit(k):
    # every stage runs on the reduced table, which equals the base, and the
    # see-saws draw from the same (seed, index) streams
    base = all_fixtures()[k]
    lift = random_embedding(base, np.random.default_rng(k), 8, 8)
    got, want = analyze_table(lift, index=4, seed=9), analyze_table(base, index=4, seed=9)
    assert (got.scenario, got.lifted_from) == (Scenario(8, 8), str(base.scenario))
    assert dataclasses.replace(got, scenario=base.scenario, lifted_from=None) == want


def test_markdown_escapes_a_pipe_in_a_name(reports):
    row = to_markdown([dataclasses.replace(reports[0], name="a|b")]).splitlines()[2]
    cells = re.split(r"(?<!\\)\|", row)[1:-1]
    assert len(cells) == len(CSV_COLUMNS) == 13
    assert cells[1] == r" a\|b "


def counted_seesaws(monkeypatch):
    """The fix_theta keyword of each quantum_bound call analyze_table makes,
    None when not given."""
    calls, real = [], analysis.quantum_bound

    def counted(*args, **kwargs):
        calls.append(kwargs.get("fix_theta"))
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "quantum_bound", counted)
    return calls


CERTIFIED = {
    # -p(00|00) <= 0 in 4x4 reaches L = 0 at pi/4.  The spectral bound is 0
    # because it counts the one setting each party uses (with all four it
    # would be 3/4), and 0 is within the margin by which Q must pass L
    "POS_4x4": CgTable(Scenario(4, 4), np.diag([-1, 0, 0, 0]), [0] * 4, [0] * 4, 0),
    # w = 0: the value at pi/4 is the constant k0
    "ZERO_4x4": CgTable(Scenario(4, 4), np.zeros((4, 4), int), [0] * 4, [0] * 4, 0),
    "RANDOM_6x6": CgTable(
        Scenario(6, 6),
        [[2, -3, 1, 0, 3, -1], [-2, 1, 3, -3, 0, 2], [1, 2, -1, 3, -2, 0],
         [0, -1, 2, 1, 3, -3], [3, 0, -2, 2, -1, 1], [-3, 2, 0, -1, 1, 3]],
        [1, -2, 0, 3, -1, 2],
        [-1, 0, 2, -3, 1, 1],
        0,
    ),
}


def dual_points_off(monkeypatch):
    """analyze_table with neither pi/4 dual point of _pi4_certified_value
    holding, the uniform one nor the gradient one."""
    monkeypatch.setattr(analysis, "_pi4_certified_value", lambda table, strategy, bound: None)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_a_certified_table_runs_the_free_seesaw_only(monkeypatch, name):
    table = CERTIFIED[name]
    table = CgTable(table.scenario, table.d, table.c, table.e, local_bound(table), name)
    calls = counted_seesaws(monkeypatch)
    report = analyze_table(table)
    assert calls == [None] and report.q_me_certified
    # a numpy bool once came from the w = 0 branch
    assert type(report.q_me_certified) is bool and type(report.converged) is bool
    calls.clear()
    dual_points_off(monkeypatch)
    assert analyze_table(table) == dataclasses.replace(report, q_me_certified=False)
    assert calls == [None, QUARTER_PI]


# the fixtures whose free-theta see-saw ends off pi/4, so that its vectors
# certify no q_me and the pi/4 see-saw runs
OFF_PI4 = ("I3422_1", "I3422_2")


def test_fixtures_run_the_pi4_seesaw_only_without_a_certificate(monkeypatch):
    calls = counted_seesaws(monkeypatch)
    reports = []
    for table in all_fixtures():
        calls.clear()
        reports.append(analyze_table(table))
        assert calls == ([None, QUARTER_PI] if table.name in OFF_PI4 else [None]), table.name
        assert reports[-1].q_me_certified, table.name
    calls.clear()
    dual_points_off(monkeypatch)
    uncertified = [analyze_table(table) for table in all_fixtures()]
    assert calls == [None, QUARTER_PI] * len(reports)
    assert not any(r.q_me_certified for r in uncertified)
    assert to_csv(uncertified) == to_csv(reports)


def test_validate_names_the_row_and_the_column(reports):
    report = reports[0]
    with pytest.raises(ValueError, match=f"row {report.index}: non-finite"):
        dataclasses.replace(report, quantum=float("nan")).validate()
    for label, field, value in (("lambda", "lam", 0.0), ("eta_sym", "eta_sym", 1.5)):
        with pytest.raises(ValueError, match=f"row {report.index}: {label} = {value}"):
            dataclasses.replace(report, **{field: value}).validate()


@pytest.mark.parametrize("times, fails", [(2.0, True), (0.5, False)])
def test_a_free_value_below_the_margin_fails_its_row(monkeypatch, times, fails):
    # the free-theta see-saw returns L - times * margin, the margin scaled to the table
    table = chsh()
    low = local_bound(table) - times * _margin(table)
    real = analysis.quantum_bound

    def lowered(*args, **kwargs):
        result = real(*args, **kwargs)
        return result if "fix_theta" in kwargs else dataclasses.replace(result, value=low)

    monkeypatch.setattr(analysis, "quantum_bound", lowered)
    if fails:
        with pytest.raises(ValueError, match="row 3: quantum value .* below local bound 0"):
            analyze_table(table, index=3)
    else:
        assert analyze_table(table, index=3).quantum == low


# tables whose violation, or lack of one, no positive scale changes: the
# fixtures, a positivity facet and a 2x1 table, which no quantum value violates
SCALED = {
    **{t.name: t for t in all_fixtures()},
    "POS_4x4": CERTIFIED["POS_4x4"],
    "TWO_BY_ONE": CgTable(Scenario(2, 1), [[1], [0]], [0, -1], [-1], 0),
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_report_invariant_under_scaling(name):
    # theta is not compared: it is arbitrary on a degenerate maximum such as POS_4x4's
    table = SCALED[name]
    flags = attrgetter("is_facet", "has_correlation_form")
    thresholds = attrgetter("lam", "lam_me", "eta_sym")
    for seed in (0, 6):
        base = analyze_table(table, seed=seed)
        for k in (20, 30, 36, 40):
            m = 2**k
            moved = analyze_table(
                CgTable(table.scenario, m * table.d, m * table.c, m * table.e, m * table.bound),
                seed=seed,
            )
            assert flags(moved) == flags(base), (k, seed)
            for got, want in zip(thresholds(moved), thresholds(base)):
                assert (got == want) if want == 1.0 else (abs(got - want) <= 1e-6), (k, seed)


@pytest.mark.parametrize("k", [30, 40])
def test_a_large_coefficient_hides_no_violation(k):
    # CHSH in 3x3 plus -2^k p(00|22): a local strategy and the quantum one
    # (a[2] = -z, b[2] = +z) both set that term to 0, so L = 0 and Q is the
    # CHSH value 0.207, though scale ~ 2^(k-2) makes 1e-9 * scale exceed it
    base = analyze_table(chsh())
    d = np.zeros((3, 3), int)
    d[:2, :2], d[2, 2] = chsh().d, -(2**k)
    table = CgTable(Scenario(3, 3), d, [*chsh().c, 0], [*chsh().e, 0], 0)
    report = analyze_table(table)
    assert report.local == 0 and report.quantum > 0.2
    assert report.lam < 1 and report.lam_me < 1
    assert abs(report.eta_sym - base.eta_sym) <= 1e-3
