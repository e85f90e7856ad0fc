"""The benchmark's output checks accept a correct report and refuse wrong ones.

Reports here are written by hand from the bundled reference values and the
benchmark's own oracles, so the package is never run.

    python3 -m pytest -q bench/test_bench_checks.py
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

REFERENCE = Path(__file__).resolve().parent.parent / "src/cgbell/data/fixture_reference.csv"
COLUMNS = ["index", "name", "scenario", "L", "N", "Q", "theta_over_pi", "lambda",
           "lambda_me", "eta_sym", "facet", "correlation_form", "lifted_from"]


@pytest.fixture(scope="module")
def reference():
    return checks.parse_csv(REFERENCE.read_text(encoding="utf-8"))


def render(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def base_row(index, t, ref):
    """A correct report row for a table derived from a bundled inequality."""
    want = {**checks.invariants(ref), **checks.CLOSED_FORMS.get(t.base, {})}
    return {
        "index": str(index), "name": t.name, "scenario": f"{t.shape[0]}x{t.shape[1]}",
        "L": str(t.bound), "N": f"{t.bound - want['L_minus_N']:.6f}",
        "Q": f"{t.bound + want['Q_minus_L']:.6f}",
        **{col: f"{want[col]:.6f}" for col in ("theta_over_pi", "lambda", "lambda_me", "eta_sym")},
        "facet": "true",
        "correlation_form": "true" if checks.correlator_condition(t.d, t.c, t.e) else "false",
        "lifted_from": t.lifted_from,
    }


def report_for(work, reference):
    ref = {r["name"]: r for r in reference}
    return [base_row(i, t, ref[t.base]) for i, t in enumerate(work.rows, start=1)]


@pytest.mark.parametrize("name", ["fixtures", "lifted"])
def test_derived_rows(name, reference):
    work = workloads.build(name, seed=0)
    rows = report_for(work, reference)
    assert checks.check(work, render(rows), reference) == []

    wrong = [dict(r) for r in rows]
    wrong[-1]["eta_sym"] = f"{float(wrong[-1]['eta_sym']) + 0.01:.6f}"
    assert any("eta_sym" in f for f in checks.check(work, render(wrong), reference))

    for column, value in (("facet", "false"), ("lifted_from", "9x9"), ("L", "99")):
        wrong = [dict(r) for r in rows]
        wrong[1][column] = value
        assert checks.check(work, render(wrong), reference), column

    assert checks.check(work, render(rows[:-1]), reference)


def test_reference_row_off(reference):
    work = workloads.build("fixtures", seed=0)
    rows = report_for(work, reference)
    i3422_1 = next(r for r in rows if r["name"] == "I3422_1")
    i3422_1["Q"] = f"{float(i3422_1['Q']) + 0.001:.6f}"
    assert any("closed form" in f for f in checks.check(work, render(rows), reference))


def random_work():
    rng = np.random.default_rng(0)
    rows = tuple(workloads.random_table(rng, 3, f"R{k}") for k in range(4))
    return workloads.Workload("random", "analyze", rows)


def random_rows(work):
    rows = []
    for i, t in enumerate(work.rows, start=1):
        noise = t.d.sum() / 4 + (t.c.sum() + t.e.sum()) / 2
        rows.append({
            "index": str(i), "name": t.name, "scenario": f"{t.shape[0]}x{t.shape[1]}",
            "L": str(t.bound), "N": f"{noise:.6f}", "Q": f"{t.bound:.6f}",
            "theta_over_pi": "0.250000", "lambda": "1.000000", "lambda_me": "1.000000",
            "eta_sym": "1.000000", "facet": "true" if checks.facet_by_svd(t) else "false",
            "correlation_form": "true" if checks.correlator_condition(t.d, t.c, t.e) else "false",
            "lifted_from": "",
        })
    return rows


def test_random_rows():
    work = random_work()
    rows = random_rows(work)
    assert checks.check(work, render(rows), None) == []
    flip = {"true": "false", "false": "true"}
    for column, change in (("L", lambda v: str(int(v) + 1)), ("N", lambda v: "0.125000"),
                           ("facet", flip.get), ("correlation_form", flip.get),
                           ("lambda", lambda v: "0.900000")):
        wrong = [dict(r) for r in rows]
        wrong[0][column] = change(wrong[0][column])
        assert checks.check(work, render(wrong), None), column


def test_facet_oracle():
    chsh = workloads.base("CHSH")
    assert checks.facet_by_svd(chsh)
    assert checks.facet_by_svd(workloads.zero_lift(chsh, 3, 3))
    assert not checks.facet_by_svd(workloads.Ineq("x", chsh.d, chsh.c, chsh.e, chsh.bound + 1))
    zero = np.zeros(2, dtype=np.int64)
    positivity = workloads.Ineq("p", -np.array([[1, 0], [0, 0]]), zero, zero, 0)
    probability_cap = workloads.Ineq("q", np.array([[1, 0], [0, 0]]), zero, zero, 1)
    assert checks.facet_by_svd(positivity)
    assert not checks.facet_by_svd(probability_cap)


@pytest.mark.parametrize("name, expected", [("CHSH", True), ("I3322", False)])
def test_correlator_condition_survives_relabeling(name, expected):
    rng = np.random.default_rng(7)
    t = workloads.zero_lift(workloads.base(name), 4, 4)
    for _ in range(20):
        r = workloads.relabel(t, rng, name)
        assert checks.correlator_condition(r.d, r.c, r.e) is expected


def canon_text(groups, lifts):
    lines = []
    for g, members in enumerate(groups, start=1):
        lines.append(f"# group {g} ({len(members)} inequalities): {', '.join(members)}")
        lines.append(f"inequality group_{g}\n...\nend")
    lines += [f"# {name}: lifted_from {scenario}" for name, scenario in lifts]
    return "\n".join(lines) + "\n"


def test_canon():
    work = workloads.build("canon", seed=0)
    groups = {}
    for t in work.rows:
        groups.setdefault(t.base, []).append(t.name)
    lifts = [(t.name, t.lifted_from) for t in work.rows]
    assert checks.check(work, canon_text(groups.values(), lifts), None) == []

    split = list(groups.values())
    split = split[1:] + [split[0][:1], split[0][1:]]
    assert checks.check(work, canon_text(split, lifts), None)
    merged = [split[0] + split[1]] + split[2:]
    assert checks.check(work, canon_text(merged, lifts), None)
    assert checks.check(work, canon_text(groups.values(), lifts[1:]), None)
    wrong = [(name, "4x4") for name, _ in lifts]
    assert checks.check(work, canon_text(groups.values(), wrong), None)
