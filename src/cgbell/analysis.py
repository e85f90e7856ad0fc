"""Batch analysis pipeline, report formats, and reference comparison.

One report row per inequality: local bound L, white-noise value N, quantum
bound Q with its Schmidt angle, visibility thresholds for the optimal and
the maximally entangled state, symmetric detection efficiency, facet flag,
correlation-form flag and lifting origin.  Whether the see-saws converged
is kept on the report but not rendered.

A lifted row is analysed as its reduced table (localpoly.detect_lifting):
settings whose coefficients are all zero change none of the reported
numbers, and zero-lifting keeps facet status (Pironio, J. Math. Phys. 46,
062112 (2005)), so no stage pays for them.  The report keeps the input's
name and scenario.

q_me, the pi/4 value behind lambda_me and eta_sym, comes from one
certificate, quantum._pi4_certified_value: it returns L when no pi/4 value
lies above L + margin (quantum._margin: 1e-9 plus the reach of rounding,
which grows with the functional), so that lambda_me and eta_sym are 1
whatever q_me is, or the pi/4 value of the free-theta see-saw's vectors
when no pi/4 strategy exceeds it by more than the margin.  Only when it
returns None does the theta = pi/4 see-saw run; its value is q_me, and its
vectors go through the same certificate, which a see-saw stopped short of
the maximum fails.  Whether q_me was certified is kept on the report, like
`converged`, but not rendered.

Theta is reported as 0 on a row whose free-theta value does not pass
L + margin: that value is L to within the margin, which deterministic
measurements attain exactly at theta = 0, so the see-saw's own theta, which
its seed decides, is not reported.

One row record (`_row_values`, keyed and ordered by CSV_COLUMNS) feeds all
three formats: JSON dumps it, CSV and Markdown print its cells.  Reports are
rendered deterministically (6 decimal places, round-half-even), so identical
inputs, seed and restarts give byte-identical CSV.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .localpoly import detect_lifting, facet_check, local_bound, white_noise_value
from .model import CgTable, Scenario
from .quantum import QUARTER_PI, _margin, _pi4_certified_value, quantum_bound
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
    noise: float
    quantum: float
    theta_over_pi: float
    lam: float
    lam_me: float
    eta_sym: float
    is_facet: bool
    has_correlation_form: bool
    lifted_from: Optional[str]
    # the free-theta see-saw, and the pi/4 one when it ran, ended at a
    # certified local maximum (a gradient and Hessian test, not a global one)
    converged: bool
    # quantum._pi4_certified_value proves that no pi/4 strategy exceeds the
    # q_me behind lam_me and eta_sym by more than the margin
    q_me_certified: bool

    def validate(self) -> None:
        finite = [self.quantum, self.theta_over_pi, self.lam, self.lam_me, self.eta_sym]
        if not all(math.isfinite(v) for v in finite):
            raise ValueError(f"row {self.index}: non-finite value in report")
        for label, v in (("lambda", self.lam), ("lambda_me", self.lam_me), ("eta_sym", self.eta_sym)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"row {self.index}: {label} = {v} outside (0, 1]")


def _derived_seed(seed: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0])


def analyze_table(
    table: CgTable,
    index: int = 1,
    restarts: int = 50,
    seed: int = 0,
) -> AnalysisReport:
    """Run the full pipeline on one inequality.

    Every stage runs on detect_lifting(table) when the table is lifted, so a
    lift reports the numbers of the table it lifts at the same index and
    seed; only scenario and lifted_from tell them apart.  The two
    optimizations (free theta, theta = pi/4) get seeds derived from
    (seed, index), so rows are reproducible independently of batch order.
    The pi/4 one runs only when quantum._pi4_certified_value certifies no
    q_me from the free-theta vectors.  A free-theta value below L - margin
    raises ValueError, and one at most L + margin reports theta = 0.
    """
    lift = detect_lifting(table)
    reduced = lift or table
    bound = local_bound(reduced)
    noise = white_noise_value(reduced)
    facet = facet_check(reduced)
    corr = correlation_form(reduced)
    free = quantum_bound(reduced, restarts=restarts, seed=_derived_seed(seed, index, 0))
    margin = _margin(reduced)
    if free.value < bound - margin:
        raise ValueError(f"row {index}: quantum value {free.value} below local bound {bound}")
    q_me, converged = _pi4_certified_value(reduced, free.strategy, bound), free.converged
    certified = q_me is not None
    if not certified:
        fixed = quantum_bound(
            reduced,
            fix_theta=QUARTER_PI,
            restarts=restarts,
            seed=_derived_seed(seed, index, 1),
        )
        q_me, converged = fixed.value, converged and fixed.converged
        certified = _pi4_certified_value(reduced, fixed.strategy, bound) is not None
    report = AnalysisReport(
        index=index,
        name=table.name,
        scenario=table.scenario,
        local=bound,
        noise=noise,
        quantum=free.value,
        theta_over_pi=free.strategy.theta / math.pi if free.value > bound + margin else 0.0,
        lam=noise_resistance(reduced, free.value),
        lam_me=noise_resistance(reduced, q_me),
        eta_sym=detection_threshold(reduced, q_me).eta,
        is_facet=facet.is_facet,
        has_correlation_form=corr is not None,
        lifted_from=str(lift.scenario) if lift else None,
        converged=converged,
        q_me_certified=certified,
    )
    report.validate()
    return report


@dataclass(frozen=True)
class RowFailure:
    index: int
    name: Optional[str]
    message: str


def analyze_tables(
    tables: Sequence[CgTable],
    restarts: int = 50,
    seed: int = 0,
    workers: int = 1,
) -> tuple[list[AnalysisReport], list[RowFailure]]:
    """Analyze a batch; failed rows are collected, not fatal.

    Rows are seeded independently, so results do not depend on worker count
    or completion order; output keeps input order.  The pool has at most
    one process per row and per CPU.
    """
    jobs = [(t, i, restarts, seed) for i, t in enumerate(tables, start=1)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its processes on the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            calls = [pool.submit(analyze_table, *job).result for job in jobs]
    else:
        calls = [functools.partial(analyze_table, *job) for job in jobs]
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
        "N": r.noise,
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
    """Rows keyed by the header; ValueError when a row has more or fewer
    cells, or when the csv module rejects a line (such as an oversized cell)."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    try:
        for row in reader:
            # DictReader keys extra cells by None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: cell count differs from the header's")
            rows.append(row)
    except csv.Error as exc:  # the DictReader's own line_num lags the failed line
        raise ValueError(f"line {reader.reader.line_num}: {exc}") from exc
    return rows


def reference_csv_path() -> str:
    """Path of the bundled golden reference values for the fixtures."""
    return str(resources.files("cgbell").joinpath("data/fixture_reference.csv"))


@dataclass(frozen=True)
class CompareResult:
    """The number of values compared, the structural issues and one line
    per value outside its tolerance: what `cgbell compare` prints."""

    compared: int
    structural: list[str]
    failures: list[str]


# The normalisation-independent differences: column -> (minuend, subtrahend).
_SHIFTS = {"L_minus_N": ("L", "N"), "Q_minus_L": ("Q", "L")}


def _value(row: dict[str, str], column: str, position: int) -> Optional[float]:
    """A compared cell as a number; None when empty.  An empty or absent
    _SHIFTS column is derived from its two raw columns when both are set."""
    if row.get(column, "") == "":
        if column not in _SHIFTS:
            return None
        a, b = (_value(row, c, position) for c in _SHIFTS[column])
        return None if a is None or b is None else a - b
    try:
        return float(row[column])
    except ValueError:
        raise ValueError(
            f"row {row.get('index') or position}: {column} is not a number: {row[column]!r}"
        ) from None


def compare_reports(
    rows: Sequence[dict[str, str]],
    reference: Sequence[dict[str, str]],
    tol: Optional[float] = None,
    normalized: bool = False,
) -> CompareResult:
    """Per-row, per-column absolute differences against a reference table.

    Rows are paired in order and must agree on names.  Raw L, N, Q columns
    are compared only when ``normalized`` is off; with it, the
    normalisation-independent pairs L - N and Q - L are compared instead,
    which is what allows checking against references using a shifted form
    of the same inequality.  Each column is held to its DEFAULT_TOLERANCES
    entry, or every column to ``tol`` when it is given; a difference that
    is not at most the tolerance (NaN included) is a failure, reported as
    ``row I NAME COL: V vs R (|diff| D > tol T)``.  A value the reference
    has and the report lacks (no column, an empty cell, no raw columns to
    derive it from) is a structural issue; one the reference lacks is not
    compared.  A comparison that compares no value at all checks nothing,
    so it is a structural issue too.  Findings name a row by its index
    cell, or by its 1-based position when that cell is absent or empty.  A
    compared cell that is not a number raises ValueError naming its row so,
    also when the other table leaves that cell empty.
    """
    structural: list[str] = []
    failures: list[str] = []
    compared = 0
    if len(rows) != len(reference):
        structural.append(f"row count mismatch: report {len(rows)} vs reference {len(reference)}")
    for position, (row, ref) in enumerate(zip(rows, reference), start=1):
        label = row.get("index") or position
        name, ref_name = row.get("name", ""), ref.get("name", "")
        if name != ref_name:
            structural.append(f"name mismatch at index {label}: {name!r} vs {ref_name!r}")
            continue
        missing = []
        for col in (*INVARIANT_COLUMNS, *(_SHIFTS if normalized else ("L", "N", "Q"))):
            a, b = _value(row, col, position), _value(ref, col, position)
            if b is None:
                continue
            if a is None:
                missing.append(col)
                continue
            compared += 1
            delta = abs(a - b)
            limit = DEFAULT_TOLERANCES[col] if tol is None else tol
            if not delta <= limit:  # a NaN difference fails too
                failures.append(
                    f"row {label} {name} {col}: {a:.6f} vs {b:.6f} "
                    f"(|diff| {delta:.2e} > tol {limit:.2e})"
                )
        if missing:
            structural.append(f"missing at index {label}: {', '.join(missing)}")
    if not compared and not structural:
        structural.append("no value compared: the reference has no compared cell")
    return CompareResult(compared, structural, failures)


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
