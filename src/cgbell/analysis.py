"""Batch analysis pipeline, report formats, and reference comparison.

One report row per inequality: local bound L, white-noise value N, quantum
bound Q with its Schmidt angle, visibility thresholds for the optimal and
the maximally entangled state, symmetric detection efficiency, facet flag,
correlation-form flag and lifting origin.  Whether both see-saws converged
is kept on the report but not rendered.

One row record (`_row_values`, keyed and ordered by CSV_COLUMNS) feeds all
three formats: JSON dumps it, CSV and Markdown print its cells.  Reports are
rendered deterministically (6 decimal places, round-half-even), so identical
inputs, seed, restarts and tolerance give byte-identical CSV.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
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
    converged: bool  # both see-saws (free theta and pi/4) ended at a certified local maximum

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
    if workers > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its processes on the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            calls = [pool.submit(_analyze_args, job).result for job in jobs]
    else:
        calls = [functools.partial(_analyze_args, job) for job in jobs]
    reports: list[AnalysisReport] = []
    failures: list[RowFailure] = []
    for (table, index, *_), call in zip(jobs, calls):
        try:
            reports.append(call())
        except Exception as exc:  # noqa: BLE001 - row isolation is the point
            failures.append(RowFailure(index, table.name, str(exc)))
    return reports, failures


# --- rendering ---------------------------------------------------------------


def _row_values(r: AnalysisReport) -> dict[str, object]:
    """The report row as JSON values, keyed and ordered by CSV_COLUMNS."""
    return {
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


def _row_cells(r: AnalysisReport) -> list[str]:
    """The CSV and Markdown cells: None empty, bools lower-case, floats to 6 places."""
    return [
        "" if v is None
        else ("true" if v else "false") if isinstance(v, bool)
        else f"{v:.6f}" if isinstance(v, float)
        else str(v)
        for v in _row_values(r).values()
    ]


def to_csv(reports: Sequence[AnalysisReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_cells(r) for r in reports)
    return buf.getvalue()


def to_json(reports: Sequence[AnalysisReport]) -> str:
    return json.dumps([_row_values(r) for r in reports], indent=2) + "\n"


def to_markdown(reports: Sequence[AnalysisReport]) -> str:
    lines = [
        "| " + " | ".join(CSV_COLUMNS) + " |",
        "|" + "|".join("---" for _ in CSV_COLUMNS) + "|",
    ]
    for r in reports:
        # a name may hold "|", which would end its cell early
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in _row_cells(r)) + " |")
    return "\n".join(lines) + "\n"


# --- comparison against a reference table ------------------------------------


def load_report_csv(text: str) -> list[dict[str, str]]:
    """Rows keyed by the header; ValueError when a row has more or fewer cells."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for row in reader:
        # DictReader keys extra cells by None and fills missing ones with None
        if None in row or None in row.values():
            raise ValueError(f"line {reader.line_num}: cell count differs from the header's")
        rows.append(row)
    return rows


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


# The normalisation-independent differences: column -> (minuend, subtrahend).
_SHIFTS = {"L_minus_N": ("L", "N"), "Q_minus_L": ("Q", "L")}


def _value(row: dict[str, str], column: str) -> Optional[float]:
    """A compared cell as a number; None when empty.  An empty or absent
    _SHIFTS column is derived from its two raw columns when both are set."""
    if row.get(column, "") == "":
        if column not in _SHIFTS:
            return None
        a, b = (_value(row, c) for c in _SHIFTS[column])
        return None if a is None or b is None else a - b
    try:
        return float(row[column])
    except ValueError:
        raise ValueError(
            f"row {row.get('index', '?')}: {column} is not a number: {row[column]!r}"
        ) from None


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
    of the same inequality.  A value the reference has and the report
    lacks (no column, an empty cell, no raw columns to derive it from) is
    a structural issue; one the reference lacks is not compared.  A
    comparison that compares no value at all checks nothing, so it is a
    structural issue too.  A compared cell that is not a number raises
    ValueError, also when the other table leaves that cell empty.
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
        missing = []
        for col in (*INVARIANT_COLUMNS, *(_SHIFTS if normalized else ("L", "N", "Q"))):
            a, b = _value(row, col), _value(ref, col)
            if b is None:
                continue
            if a is None:
                missing.append(col)
                continue
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
        if missing:
            structural.append(f"missing at index {row.get('index')}: {', '.join(missing)}")
    if not diffs and not structural:
        structural.append("no value compared: the reference has no compared cell")
    return CompareResult(diffs, structural)


# --- canonicalisation report --------------------------------------------------


@dataclass(frozen=True)
class CanonGroup:
    canonical: CgTable
    members: tuple[int, ...]  # 1-based input positions


def group_equivalent(tables: Sequence[CgTable]) -> list[CanonGroup]:
    """Group mutually equivalent inequalities by canonical form.

    Groups come in the order of their first member in ``tables``.
    """
    groups: dict[tuple, tuple[CgTable, list[int]]] = {}
    for i, t in enumerate(tables, start=1):
        canon = canonical_form(t)
        groups.setdefault(canon.key(), (canon, []))[1].append(i)
    return [CanonGroup(canon, tuple(members)) for canon, members in groups.values()]
