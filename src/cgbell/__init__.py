"""Toolkit for bipartite binary-outcome Bell inequalities in Collins-Gisin form.

Local bounds and facet verification by exact arithmetic, two-qubit quantum
bounds by multi-restart see-saw, white-noise and detection-efficiency
thresholds, canonical and correlator forms under local relabeling, plus a
batch CLI.  The package holds only what these computations run; the slower
references they are checked against (behaviors, per-strategy values, the
relabeling group) live with the tests.
"""

from .analysis import (
    AnalysisReport,
    CanonGroup,
    CompareResult,
    analyze_table,
    analyze_tables,
    compare_reports,
    group_equivalent,
    load_report_csv,
    reference_csv_path,
    to_csv,
    to_json,
    to_markdown,
)
from .fixtures import all_fixtures, chsh, i3322, i3422_1, i3422_2, i3422_3
from .localpoly import (
    FacetReport,
    detect_lifting,
    facet_check,
    local_bound,
    white_noise_value,
)
from .model import CgTable, ParseError, Scenario, parse_file, serialize_file
from .quantum import QuantumBoundResult, QuantumStrategy, quantum_bound
from .robustness import (
    DetectionAnalysis,
    InconsistencyError,
    NoClickAssignment,
    detection_threshold,
    noise_resistance,
)
from .symmetry import canonical_form, correlation_form

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CanonGroup",
    "CgTable",
    "CompareResult",
    "DetectionAnalysis",
    "FacetReport",
    "InconsistencyError",
    "NoClickAssignment",
    "ParseError",
    "QuantumBoundResult",
    "QuantumStrategy",
    "Scenario",
    "all_fixtures",
    "analyze_table",
    "analyze_tables",
    "canonical_form",
    "chsh",
    "compare_reports",
    "correlation_form",
    "detect_lifting",
    "detection_threshold",
    "facet_check",
    "group_equivalent",
    "i3322",
    "i3422_1",
    "i3422_2",
    "i3422_3",
    "load_report_csv",
    "local_bound",
    "noise_resistance",
    "parse_file",
    "quantum_bound",
    "reference_csv_path",
    "serialize_file",
    "to_csv",
    "to_json",
    "to_markdown",
    "white_noise_value",
]
