"""Batch analysis pipeline, report formats, and reference comparison.

One report row per inequality: local bound L, white-noise value N, quantum
bound Q with its Schmidt angle, visibility thresholds for the optimal and
the maximally entangled state, symmetric detection efficiency, facet flag,
correlation-form flag and lifting origin.  Whether both see-saws converged
is kept on the report but not rendered.

Reports are rendered deterministically (6 decimal places, round-half-even),
so identical inputs, seed, restarts and tolerance give byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .localpoly import detect_lifting, facet_check, local_bound, white_noise_value
from .model import CgTable, Scenario
from .quantum import QUARTER_PI, quantum_bound
from .robustness import detection_threshold, noise_resistance
from .symmetry import canonical_form, correlation_form

CSV_COLUMNS = [
    "index",
    "name",
    "scenario",
    "L",
    "N",
    "Q",
    "theta_over_pi",
    "lambda",
    "lambda_me",
    "eta_sym",
    "facet",
    "correlation_form",
    "lifted_from",
]

# Columns that survive renormalisation of the functional, hence are safe to
# compare against reference tables using a different normalisation.
INVARIANT_COLUMNS = ("theta_over_pi", "lambda", "lambda_me", "eta_sym")

DEFAULT_TOLERANCES = {
    "L": 1e-6,
    "N": 1e-6,
    "Q": 2e-4,
    "L_minus_N": 1e-6,
    "Q_minus_L": 2e-4,
    "theta_over_pi": 2e-3,
    "lambda": 3e-3,
    "lambda_me": 3e-3,
    "eta_sym": 3e-3,
}


@dataclass(frozen=True)
class AnalysisReport:
    """One output row of the analysis table."""

    index: int
    name: Optional[str]
    scenario: Scenario
    local: int
    noise: Fraction
    quantum: float
    theta_over_pi: float
    lam: float
    lam_me: float
    eta_sym: float
    is_facet: bool
    has_correlation_form: bool
    lifted_from: Optional[str]
    converged: bool  # both see-saws (free theta and pi/4) met their tolerance

    def validate(self) -> None:
        finite = [self.quantum, self.theta_over_pi, self.lam, self.lam_me, self.eta_sym]
        if not all(math.isfinite(v) for v in finite):
            raise ValueError(f"row {self.index}: non-finite value in report")
        for label, v in (("lambda", self.lam), ("lambda_me", self.lam_me), ("eta_sym", self.eta_sym)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"row {self.index}: {label} = {v} outside (0, 1]")
        if self.quantum < self.local - 1e-9:
            raise ValueError(
                f"row {self.index}: quantum value {self.quantum} below local bound {self.local}"
            )


def _derived_seed(seed: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0])


def analyze_table(
    table: CgTable,
    index: int = 1,
    restarts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> AnalysisReport:
    """Run the full pipeline on one inequality.

    The two optimizations (free theta, theta = pi/4) get seeds derived from
    (seed, index), so rows are reproducible independently of batch order.
    """
    bound = local_bound(table)
    noise = white_noise_value(table)
    facet = facet_check(table)
    lift = detect_lifting(table)
    corr = correlation_form(table)
    free = quantum_bound(table, restarts=restarts, seed=_derived_seed(seed, index, 0), tol=tol)
    fixed = quantum_bound(
        table,
        fix_theta=QUARTER_PI,
        restarts=restarts,
        seed=_derived_seed(seed, index, 1),
        tol=tol,
    )
    report = AnalysisReport(
        index=index,
        name=table.name,
        scenario=table.scenario,
        local=bound,
        noise=noise,
        quantum=free.value,
        theta_over_pi=free.strategy.theta / math.pi,
        lam=noise_resistance(table, free.value),
        lam_me=noise_resistance(table, fixed.value),
        eta_sym=detection_threshold(table, fixed.value).eta,
        is_facet=facet.is_facet,
        has_correlation_form=corr is not None,
        lifted_from=str(lift.reduced.scenario) if lift else None,
        converged=free.converged and fixed.converged,
    )
    report.validate()
    return report


@dataclass(frozen=True)
class RowFailure:
    index: int
    name: Optional[str]
    message: str


def _analyze_args(args) -> AnalysisReport:
    return analyze_table(*args)


def analyze_tables(
    tables: Sequence[CgTable],
    restarts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
    workers: int = 1,
) -> tuple[list[AnalysisReport], list[RowFailure]]:
    """Analyze a batch; failed rows are collected, not fatal.

    Rows are seeded independently, so results do not depend on worker count
    or completion order; output keeps input order.
    """
    jobs = [(t, i, restarts, seed, tol) for i, t in enumerate(tables, start=1)]
    reports: list[AnalysisReport] = []
    failures: list[RowFailure] = []
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(job, pool.submit(_analyze_args, job)) for job in jobs]
            for (table, index, *_), future in futures:
                try:
                    reports.append(future.result())
                except Exception as exc:  # noqa: BLE001 - row isolation is the point
                    failures.append(RowFailure(index, table.name, str(exc)))
    else:
        for job in jobs:
            try:
                reports.append(_analyze_args(job))
            except Exception as exc:  # noqa: BLE001
                failures.append(RowFailure(job[1], job[0].name, str(exc)))
    return reports, failures


# --- rendering ---------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _row_cells(r: AnalysisReport) -> dict[str, str]:
    return {
        "index": str(r.index),
        "name": r.name or "",
        "scenario": str(r.scenario),
        "L": str(r.local),
        "N": _fmt(float(r.noise)),
        "Q": _fmt(r.quantum),
        "theta_over_pi": _fmt(r.theta_over_pi),
        "lambda": _fmt(r.lam),
        "lambda_me": _fmt(r.lam_me),
        "eta_sym": _fmt(r.eta_sym),
        "facet": "true" if r.is_facet else "false",
        "correlation_form": "true" if r.has_correlation_form else "false",
        "lifted_from": r.lifted_from or "",
    }


def to_csv(reports: Sequence[AnalysisReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow(_row_cells(r))
    return buf.getvalue()


def to_json(reports: Sequence[AnalysisReport]) -> str:
    rows = []
    for r in reports:
        rows.append(
            {
                "index": r.index,
                "name": r.name,
                "scenario": str(r.scenario),
                "L": r.local,
                "N": float(r.noise),
                "Q": r.quantum,
                "theta_over_pi": r.theta_over_pi,
                "lambda": r.lam,
                "lambda_me": r.lam_me,
                "eta_sym": r.eta_sym,
                "facet": r.is_facet,
                "correlation_form": r.has_correlation_form,
                "lifted_from": r.lifted_from,
            }
        )
    return json.dumps(rows, indent=2) + "\n"


def to_markdown(reports: Sequence[AnalysisReport]) -> str:
    lines = [
        "| " + " | ".join(CSV_COLUMNS) + " |",
        "|" + "|".join("---" for _ in CSV_COLUMNS) + "|",
    ]
    for r in reports:
        cells = _row_cells(r)
        lines.append("| " + " | ".join(cells[c] for c in CSV_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


# --- comparison against a reference table ------------------------------------


def load_report_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def reference_csv_path() -> str:
    """Path of the bundled golden reference values for the fixtures."""
    return str(resources.files("cgbell").joinpath("data/fixture_reference.csv"))


@dataclass(frozen=True)
class ColumnDiff:
    index: str
    name: str
    column: str
    value: float
    reference: float
    delta: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.delta <= self.tol


@dataclass(frozen=True)
class CompareResult:
    diffs: list[ColumnDiff]
    structural: list[str]

    @property
    def ok(self) -> bool:
        return not self.structural and all(d.ok for d in self.diffs)


def _cell(row: dict[str, str], column: str) -> float:
    try:
        return float(row[column])
    except ValueError:
        raise ValueError(
            f"row {row.get('index', '?')}: {column} is not a number: {row[column]!r}"
        ) from None


def _shift_invariant(row: dict[str, str], column: str) -> Optional[float]:
    """L_minus_N or Q_minus_L from an explicit column or the raw columns."""
    if row.get(column, "") != "":
        return _cell(row, column)
    if column == "L_minus_N" and row.get("L") and row.get("N"):
        return _cell(row, "L") - _cell(row, "N")
    if column == "Q_minus_L" and row.get("Q") and row.get("L"):
        return _cell(row, "Q") - _cell(row, "L")
    return None


def compare_reports(
    rows: Sequence[dict[str, str]],
    reference: Sequence[dict[str, str]],
    tolerances: Optional[dict[str, float]] = None,
    normalized: bool = False,
) -> CompareResult:
    """Per-row, per-column absolute differences against a reference table.

    Rows are paired in order and must agree on names.  Raw L, N, Q columns
    are compared only when ``normalized`` is off; with it, the
    normalisation-independent pairs L - N and Q - L are compared instead,
    which is what allows checking against references using a shifted form
    of the same inequality.  A compared cell that is not a number raises
    ValueError.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    structural: list[str] = []
    if len(rows) != len(reference):
        structural.append(f"row count mismatch: report {len(rows)} vs reference {len(reference)}")
    diffs: list[ColumnDiff] = []
    for row, ref in zip(rows, reference):
        name, ref_name = row.get("name", ""), ref.get("name", "")
        if name != ref_name:
            structural.append(f"name mismatch at index {row.get('index')}: {name!r} vs {ref_name!r}")
            continue
        columns: list[tuple[str, Optional[float], Optional[float]]] = []
        for col in INVARIANT_COLUMNS:
            if row.get(col, "") != "" and ref.get(col, "") != "":
                columns.append((col, _cell(row, col), _cell(ref, col)))
        if normalized:
            for col in ("L_minus_N", "Q_minus_L"):
                a, b = _shift_invariant(row, col), _shift_invariant(ref, col)
                if a is not None and b is not None:
                    columns.append((col, a, b))
        else:
            for col in ("L", "N", "Q"):
                if row.get(col, "") != "" and ref.get(col, "") != "":
                    columns.append((col, _cell(row, col), _cell(ref, col)))
        for col, a, b in columns:
            diffs.append(
                ColumnDiff(
                    index=row.get("index", "?"),
                    name=name,
                    column=col,
                    value=a,
                    reference=b,
                    delta=abs(a - b),
                    tol=tols.get(col, 1e-6),
                )
            )
    return CompareResult(diffs, structural)


# --- canonicalisation report --------------------------------------------------


@dataclass(frozen=True)
class CanonGroup:
    canonical: CgTable
    members: tuple[int, ...]  # 1-based input positions


def group_equivalent(tables: Sequence[CgTable]) -> list[CanonGroup]:
    """Group mutually equivalent inequalities by canonical form."""
    groups: dict[tuple, list[int]] = {}
    canonicals: dict[tuple, CgTable] = {}
    for i, t in enumerate(tables, start=1):
        canon = canonical_form(t)
        key = canon.key()
        groups.setdefault(key, []).append(i)
        canonicals.setdefault(key, canon)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    return [CanonGroup(canonicals[k], tuple(members)) for k, members in ordered]
