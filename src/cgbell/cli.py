"""Command-line front-end.

Subcommands:
    analyze   run the full pipeline on an inequality file, emit a report
    compare   diff a report CSV against a reference CSV with tolerances
    canon     canonical forms, duplicate groups and lifting flags
    fixtures  print the bundled inequalities in the file format

Exit codes: 0 success, 1 tolerance/diff or per-row failure, 2 input error
(a bad option value included).  `analyze` warns on standard error about each
row whose see-saw stopped at its sweep limit; the exit code ignores it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .analysis import (
    analyze_tables,
    compare_reports,
    group_equivalent,
    load_report_csv,
    to_csv,
    to_json,
    to_markdown,
)
from .fixtures import all_fixtures
from .localpoly import detect_lifting
from .model import ParseError, parse_file, serialize_file


class InputError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _read_tables(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return parse_file(text)
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_csv(path: str):
    try:
        return load_report_csv(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    tables = _read_tables(args.input)
    reports, failures = analyze_tables(
        tables, restarts=args.restarts, seed=args.seed, tol=args.tol, workers=args.workers
    )
    render = {"csv": to_csv, "json": to_json, "md": to_markdown}[args.output]
    sys.stdout.write(render(reports))
    for r in reports:
        if not r.converged:
            print(
                f"warning: row {r.index} ({r.name or 'unnamed'}): "
                "see-saw stopped at its sweep limit before converging",
                file=sys.stderr,
            )
    for f in failures:
        print(f"row {f.index} ({f.name or 'unnamed'}) failed: {f.message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_compare(args) -> int:
    rows = _read_csv(args.input)
    reference = _read_csv(args.reference)
    tolerances = None
    if args.tol is not None:
        tolerances = {
            col: args.tol
            for col in ("L", "N", "Q", "L_minus_N", "Q_minus_L",
                        "theta_over_pi", "lambda", "lambda_me", "eta_sym")
        }
    try:
        result = compare_reports(rows, reference, tolerances, normalized=args.normalized)
    except ValueError as exc:
        raise InputError(f"{args.input} vs {args.reference}: {exc}") from exc
    for issue in result.structural:
        print(f"structural: {issue}")
    for d in result.diffs:
        if not d.ok:
            print(
                f"row {d.index} {d.name} {d.column}: {d.value:.6f} vs {d.reference:.6f} "
                f"(|diff| {d.delta:.2e} > tol {d.tol:.2e})"
            )
    n_bad = len(result.structural) + sum(not d.ok for d in result.diffs)
    print(f"compared {len(result.diffs)} values: " + ("OK" if result.ok else f"{n_bad} failures"))
    return 0 if result.ok else 1


def _cmd_canon(args) -> int:
    tables = _read_tables(args.input)
    try:
        groups = group_equivalent(tables)
    except ValueError as exc:
        # a relabeling can grow a coefficient up to 9-fold, past MAX_COEFFICIENT
        raise InputError(f"{args.input}: cannot canonicalise: {exc}") from exc
    label = lambda i: tables[i - 1].name or f"#{i}"
    for g, group in enumerate(groups, start=1):
        members = ", ".join(label(i) for i in group.members)
        print(f"# group {g} ({len(group.members)} inequalit{'y' if len(group.members) == 1 else 'ies'}): {members}")
        sys.stdout.write(serialize_file([group.canonical.with_name(f"group_{g}")]))
    for i, t in enumerate(tables, start=1):
        lift = detect_lifting(t)
        if lift is not None:
            print(f"# {label(i)}: lifted_from {lift.reduced.scenario}")
    return 0


def _cmd_fixtures(_args) -> int:
    sys.stdout.write(serialize_file(all_fixtures()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgbell",
        description="Analyze bipartite binary-outcome Bell inequalities in Collins-Gisin form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of an inequality file")
    p.add_argument("--input", required=True, help="inequality file")
    p.add_argument("--output", choices=("csv", "json", "md"), default="csv")
    p.add_argument(
        "--restarts", type=_positive_int, default=50, help="see-saw restarts per optimization"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tol", type=_positive_float, default=1e-10, help="see-saw convergence tolerance"
    )
    p.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel per-inequality workers"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="diff a report against a reference CSV")
    p.add_argument("--input", required=True, help="report CSV")
    p.add_argument("--reference", required=True, help="reference CSV")
    p.add_argument("--tol", type=float, default=None, help="uniform tolerance for all columns")
    p.add_argument(
        "--normalized",
        action="store_true",
        help="compare the shift-invariant pairs L-N and Q-L instead of raw L, N, Q",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("canon", help="canonical forms and duplicate groups")
    p.add_argument("--input", required=True, help="inequality file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("fixtures", help="print the bundled inequalities")
    p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
