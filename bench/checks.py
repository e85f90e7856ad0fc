"""Output checks for each workload, computed apart from the package.

Each check takes the generated workload, the text the CLI printed and the
bundled reference rows, and returns a list of failure messages (empty when
the output is correct).  Expected values come from the reference CSV,
closed forms, the benchmark's own brute-force enumeration and invariance
under relabeling and zero-lifting, never from the package's code.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

from workloads import Workload, local_max, vertex_values

# Same tolerances as the package's reference comparison; the reference CSV
# carries four decimals and the see-saw value is a lower bound.
TOL = {
    "L_minus_N": 1e-6,
    "Q_minus_L": 2e-4,
    "theta_over_pi": 2e-3,
    "lambda": 3e-3,
    "lambda_me": 3e-3,
    "eta_sym": 3e-3,
}
INVARIANTS = tuple(TOL)
EXACT_TOL = 1e-5  # closed forms and formulas evaluated on 6-decimal cells

SQRT2, SQRT5 = math.sqrt(2), math.sqrt(5)
CLOSED_FORMS = {
    "CHSH": {"Q_minus_L": (SQRT2 - 1) / 2, "lambda": 1 / SQRT2, "eta_sym": 2 * (SQRT2 - 1)},
    "I3322": {"Q_minus_L": 0.25},
    "I3422_1": {"Q_minus_L": SQRT5 - 2},
}


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def invariants(row: dict[str, str]) -> dict[str, float]:
    """Quantities that relabeling and zero-lifting leave unchanged."""
    out = {col: float(row[col]) for col in INVARIANTS if row.get(col, "") != ""}
    if row.get("L_minus_N", "") == "":
        out["L_minus_N"] = float(row["L"]) - float(row["N"])
    if row.get("Q_minus_L", "") == "":
        out["Q_minus_L"] = float(row["Q"]) - float(row["L"])
    return out


def correlator_condition(d, c, e) -> bool:
    """2c[x] = -sum_y d[x][y] for all x, and 2e[y] = -sum_x d[x][y] for all y."""
    return bool(np.all(2 * c == -d.sum(axis=1)) and np.all(2 * e == -d.sum(axis=0)))


def facet_by_svd(t) -> bool:
    """Facet test from the floating-point rank of the saturating vertices."""
    na, nb = t.shape
    values = vertex_values(t.d, t.c, t.e)
    if values.max() != t.bound:
        return False
    a_idx, b_idx = np.nonzero(values == t.bound)
    bits = lambda idx, n: (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    a, b = bits(a_idx, na), bits(b_idx, nb)
    points = np.hstack([(a[:, :, None] * b[:, None, :]).reshape(len(a), -1), a, b])
    rank = np.linalg.matrix_rank((points[1:] - points[0]).astype(float)) if len(points) > 1 else 0
    return rank == na * nb + na + nb - 1


def _check_rows(work: Workload, rows: list[dict[str, str]]) -> list[str]:
    """Checks shared by the analyze workloads."""
    if [r.get("name") for r in rows] != [t.name for t in work.rows]:
        return [f"report rows {[r.get('name') for r in rows]} do not match the inputs"]
    failures = []
    for t, row in zip(work.rows, rows):
        na, nb = t.shape
        if row["scenario"] != f"{na}x{nb}":
            failures.append(f"{t.name}: scenario {row['scenario']} != {na}x{nb}")
        if row["L"] != str(local_max(t.d, t.c, t.e)):
            failures.append(f"{t.name}: L {row['L']} != {local_max(t.d, t.c, t.e)} by enumeration")
        if (row["correlation_form"] == "true") != correlator_condition(t.d, t.c, t.e):
            failures.append(f"{t.name}: correlation_form {row['correlation_form']} "
                            "disagrees with the correlator condition")
        if row["lifted_from"] != t.lifted_from:
            failures.append(f"{t.name}: lifted_from {row['lifted_from']!r} != {t.lifted_from!r}")
    return failures


def _check_against(label: str, base: str, row: dict, want: dict[str, float]) -> list[str]:
    """Invariants of a row against `want` and the closed forms of its base."""
    got = invariants(row)
    failures = [f"{label} {col}: {got[col]:.6f} vs expected {want[col]:.6f}"
                for col in want if abs(got[col] - want[col]) > TOL[col]]
    for col, value in CLOSED_FORMS.get(base, {}).items():
        if abs(got[col] - value) > EXACT_TOL:
            failures.append(f"{label} {col}: {got[col]:.6f} vs closed form {value:.6f}")
    return failures


def check_fixtures(work: Workload, text: str, reference: list[dict[str, str]]) -> list[str]:
    rows = parse_csv(text)
    failures = _check_rows(work, rows)
    if failures:
        return failures
    ref = {r["name"]: invariants(r) for r in reference}
    by_base = {}
    for t, row in zip(work.rows, rows):
        if row["facet"] != "true":
            failures.append(f"{t.name}: a zero-lifting of the facet {t.base} is not a facet")
        if t.name == t.base:
            by_base[t.base] = row
            failures += _check_against(f"{t.name} (reference)", t.base, row, ref[t.base])
        else:
            failures += _check_against(f"{t.name} (copy)", t.base, row, invariants(by_base[t.base]))
    return failures


def check_lifted(work: Workload, text: str, reference: list[dict[str, str]]) -> list[str]:
    rows = parse_csv(text)
    failures = _check_rows(work, rows)
    if failures:
        return failures
    ref = {r["name"]: invariants(r) for r in reference}
    for t, row in zip(work.rows, rows):
        if row["facet"] != "true":
            failures.append(f"{t.name}: a zero-lifting of the facet {t.base} is not a facet")
        failures += _check_against(f"{t.name} (lift)", t.base, row, ref[t.base])
    return failures


def check_random(work: Workload, text: str, reference=None) -> list[str]:
    rows = parse_csv(text)
    failures = _check_rows(work, rows)
    if failures:
        return failures
    for t, row in zip(work.rows, rows):
        noise = Fraction(int(t.d.sum()), 4) + Fraction(int(t.c.sum()) + int(t.e.sum()), 2)
        if abs(float(row["N"]) - float(noise)) > 1e-9:
            failures.append(f"{t.name}: N {row['N']} != {float(noise)}")
        if (row["facet"] == "true") != facet_by_svd(t):
            failures.append(f"{t.name}: facet {row['facet']} disagrees with the SVD rank")
        q, local = float(row["Q"]), t.bound
        lam = 1.0 if q <= local else float(local - noise) / (q - float(noise))
        if abs(float(row["lambda"]) - lam) > EXACT_TOL:
            failures.append(f"{t.name}: lambda {row['lambda']} != {lam:.6f}")
        if q <= local and float(row["eta_sym"]) != 1.0:
            failures.append(f"{t.name}: eta_sym {row['eta_sym']} without a violation")
    return failures


_GROUP = re.compile(r"^# group (\d+) \((\d+) inequalit(?:y|ies)\): (.*)$")
_LIFT = re.compile(r"^# (\S+): lifted_from (\S+)$")


def check_canon(work: Workload, text: str, reference=None) -> list[str]:
    lines = text.splitlines()
    groups = [m.group(3).split(", ") for m in map(_GROUP.match, lines) if m]
    lifts = dict(m.groups() for m in map(_LIFT.match, lines) if m)
    failures = []
    expected = {}
    for t in work.rows:
        expected.setdefault(t.base, []).append(t.name)
    if sorted(map(sorted, groups)) != sorted(map(sorted, expected.values())):
        failures.append(f"groups {groups} != one group per base {list(expected.values())}")
    for t in work.rows:
        if lifts.get(t.name) != t.lifted_from:
            failures.append(f"{t.name}: lifted_from {lifts.get(t.name)!r} != {t.lifted_from!r}")
    return failures


CHECKS = {
    "fixtures": check_fixtures,
    "lifted": check_lifted,
    "random": check_random,
    "canon": check_canon,
}


def check(work: Workload, text: str, reference: list[dict[str, str]]) -> list[str]:
    return CHECKS[work.name](work, text, reference)
