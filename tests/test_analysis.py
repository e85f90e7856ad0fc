"""The analysis pipeline end to end: the bundled reference, worker counts,
and invariance of the report under relabelings."""

import contextlib
import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    Scenario,
    analyze_table,
    apply_relabeling,
    chsh,
    i3322,
    random_relabeling,
    reference_csv_path,
)
from cgbell.analysis import DEFAULT_TOLERANCES
from cgbell.cli import main

from test_localpoly import embed


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


def test_worker_count_does_not_change_the_report(fixture_file, fixture_report):
    code, report, err = cli("analyze", "--input", str(fixture_file), "--workers", "2")
    assert (code, err) == (0, "")
    assert report == fixture_report


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
