"""Command-line front-end.

Subcommands:
    analyze   run the full pipeline on an inequality file, emit a report
    compare   diff a report CSV against a reference CSV with tolerances
    canon     canonical forms, duplicate groups and lifting flags
    fixtures  print the bundled inequalities in the file format

Exit codes: 0 success, 1 tolerance/diff or per-row failure, or standard
output closed before the command wrote all of it (as by `| head`), 2 input
error (a bad option value included).  `analyze` warns on standard error
about each row whose see-saw did not reach a certified local maximum; the
exit code ignores it.
"""

from __future__ import annotations

import argparse
import math
import os
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
from .model import parse_file, serialize_file


class InputError(Exception):
    pass


def _number(kind, low):
    """An argparse type for a finite ``kind`` >= ``low``."""

    def parse(text: str):
        value = kind(text)
        if not (value >= low and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _read(path: str, parse):
    """parse(text of the file at path); a ParseError and a UnicodeDecodeError
    are ValueErrors, so every unreadable or malformed file is an InputError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    tables = _read(args.input, parse_file)
    reports, failures = analyze_tables(tables, restarts=args.restarts, seed=args.seed, workers=args.workers)
    render = {"csv": to_csv, "json": to_json, "md": to_markdown}[args.output]
    sys.stdout.write(render(reports))
    for r in reports:
        if not r.converged:
            print(
                f"warning: row {r.index} ({r.name or 'unnamed'}): "
                "see-saw did not reach a certified local maximum",
                file=sys.stderr,
            )
    for f in failures:
        print(f"row {f.index} ({f.name or 'unnamed'}) failed: {f.message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_compare(args) -> int:
    rows = _read(args.input, load_report_csv)
    reference = _read(args.reference, load_report_csv)
    try:
        result = compare_reports(rows, reference, args.tol, normalized=args.normalized)
    except ValueError as exc:
        raise InputError(f"{args.input} vs {args.reference}: {exc}") from exc
    for issue in result.structural:
        print(f"structural: {issue}")
    for line in result.failures:
        print(line)
    n_bad = len(result.structural) + len(result.failures)
    print(f"compared {result.compared} values: " + (f"{n_bad} failures" if n_bad else "OK"))
    return 1 if n_bad else 0


def _cmd_canon(args) -> int:
    tables = _read(args.input, parse_file)
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
            print(f"# {label(i)}: lifted_from {lift.scenario}")
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
        "--restarts", type=_number(int, 1), default=50, help="see-saw restarts per optimization"
    )
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument(
        "--workers", type=_number(int, 1), default=1, help="parallel per-inequality workers"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="diff a report against a reference CSV")
    p.add_argument("--input", required=True, help="report CSV")
    p.add_argument("--reference", required=True, help="reference CSV")
    p.add_argument(
        "--tol", type=_number(float, 0), default=None, help="uniform tolerance for all columns"
    )
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # devnull takes the interpreter's last flush (Python's signal docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
