"""Collins-Gisin tables: scenarios, inequality coefficients, file I/O.

A bipartite scenario where Alice chooses among ``na`` binary-outcome
measurements and Bob among ``nb`` has ``na*nb + na + nb`` independent
probability coordinates once normalisation and no-signalling are used up:
the joint probabilities p(00|xy), Alice's marginals pA(0|x) and Bob's
marginals pB(0|y).  A Bell functional is an integer coefficient table over
those coordinates together with a local bound::

    sum_xy d[x][y] p(00|xy) + sum_x c[x] pA(0|x) + sum_y e[y] pB(0|y) <= bound

Coefficients are restricted to integers, which is what makes exact local
bounds and exact facet ranks possible downstream.  Their magnitude, and the
bound's, is capped at MAX_COEFFICIENT = 2^44.  Every value the package
derives from a table as a sum of at most 80 coefficients, each weighted by
1, 1/2 or 1/4, is then a multiple of 1/4 whose quadruple lies below
4 * 80 * 2^44 < 2^53, and so is every partial sum on the way to it: the
vertex values, the white-noise value N, the detection analysis's M_A, M_B
and X, and the correlator expansion of _correlators.  float64 holds each
of them exactly, as int64 holds the integer ones.

The package never builds a behavior (a point of those coordinates): local
values come from the int64 vertex grid of localpoly and quantum values from
the see-saw kernels' coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

MAX_SETTINGS = 8
MAX_COEFFICIENT = 2**44
# the integers serialize_file writes; int() would also take 1_0 and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


class ParseError(ValueError):
    """Malformed inequality file; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass(frozen=True)
class Scenario:
    """Number of binary-outcome settings per party."""

    na: int
    nb: int

    def __post_init__(self):
        for n in (self.na, self.nb):
            if not isinstance(n, int) or not 1 <= n <= MAX_SETTINGS:
                raise ValueError(
                    f"setting counts must be integers in 1..{MAX_SETTINGS}, got {self!r}"
                )

    def cg_dimension(self) -> int:
        """Number of independent probability coordinates: na*nb + na + nb."""
        return self.na * self.nb + self.na + self.nb

    def __str__(self) -> str:
        return f"{self.na}x{self.nb}"


def _int_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    # numpy holds a Python int past 64 bits, None or a str as an object or
    # string array, and the cast to int64 would drop an imaginary part
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} entries must be real numbers within +-2**44, got {arr.dtype}")
    # bound the values before a cast to int64 could wrap them; numpy
    # compares integers of every width exactly, int64's minimum included
    if arr.max() > MAX_COEFFICIENT or arr.min() < -MAX_COEFFICIENT:
        raise ValueError(f"{what} entries must lie within +-2**44")
    if arr.dtype.kind not in "iu":  # neither a signed nor an unsigned integer
        rounded = np.rint(arr)
        if not np.array_equal(arr, rounded):
            raise ValueError(f"{what} must contain integers only")
        arr = rounded
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CgTable:
    """One Bell inequality in Collins-Gisin coefficients.

    ``d`` is the na-by-nb joint coefficient matrix, ``c`` Alice's marginal
    coefficients, ``e`` Bob's, ``bound`` the right-hand side.  All entries
    are integers.  Instances are immutable.
    """

    scenario: Scenario
    d: np.ndarray
    c: np.ndarray
    e: np.ndarray
    bound: int
    name: Optional[str] = None

    def __post_init__(self):
        na, nb = self.scenario.na, self.scenario.nb
        object.__setattr__(self, "d", _int_array(self.d, (na, nb), "d"))
        object.__setattr__(self, "c", _int_array(self.c, (na,), "c"))
        object.__setattr__(self, "e", _int_array(self.e, (nb,), "e"))
        if not isinstance(self.bound, (int, np.integer)):
            raise ValueError(f"bound must be an integer, got {self.bound!r}")
        if abs(int(self.bound)) > MAX_COEFFICIENT:
            raise ValueError(f"bound must lie within +-2**44, got {self.bound}")
        object.__setattr__(self, "bound", int(self.bound))
        # a name must survive serialize_file: parse_file strips it and '#'
        # opens a comment; nor may it hold a line end of str.splitlines, at
        # which other readers of the file would break the line
        name = self.name
        if name is not None and (
            not name or "#" in name or name != name.strip() or name.splitlines() != [name]
        ):
            raise ValueError(f"invalid inequality name {name!r}")

    def key(self) -> tuple:
        """Total order on tables of one scenario; ignores the name."""
        return (
            self.scenario.na,
            self.scenario.nb,
            self.bound,
            tuple(self.c.tolist()),
            tuple(self.e.tolist()),
            tuple(map(tuple, self.d.tolist())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CgTable):
            return NotImplemented
        return self.key() == other.key() and self.name == other.name

    def __hash__(self) -> int:
        return hash((self.key(), self.name))

    def with_name(self, name: Optional[str]) -> "CgTable":
        return CgTable(self.scenario, self.d, self.c, self.e, self.bound, name)


def _correlators(table: CgTable):
    """(w, ua, ub, k0) with the functional equal to k0 + ua . <A> + ub . <B>
    + sum_xy w[x, y] <A_x B_y> in +-1 correlators (Collins and Gisin, J. Phys.
    A 37, 1775 (2004)), exact in float64: w = d/4, ua = (row sums of d)/4 + c/2,
    ub = (column sums of d)/4 + e/2 and k0 = sum(d)/4 + (sum(c) + sum(e))/2,
    the value on white noise."""
    w, c, e = table.d / 4, table.c / 2, table.e / 2
    return w, w.sum(axis=1) + c, w.sum(axis=0) + e, w.sum() + c.sum() + e.sum()


# --- inequality file format -------------------------------------------------
#
# UTF-8 text with \n, \r\n or \r line ends, '#' starts a comment, blank
# lines ignored. One block per inequality, order significant:
#
#   inequality <name>          (name optional)
#   scenario <na> <nb>
#   bound <integer>
#   c <na integers>
#   e <nb integers>
#   d <nb integers>            row x=0; then na-1 further rows, then
#   ...
#   end


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    # str.splitlines would also end a line at \v, \f, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which may stand in a comment
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _parse_ints(lineno: int, tokens: Sequence[str], count: int, what: str) -> list[int]:
    if len(tokens) != count:
        raise ParseError(lineno, f"expected {count} entries for {what}, got {len(tokens)}")
    values = []
    for tok in tokens:
        if not _INTEGER.fullmatch(tok):
            raise ParseError(lineno, f"non-integer coefficient {tok!r} in {what}")
        values.append(int(tok))
        if abs(values[-1]) > MAX_COEFFICIENT:
            raise ParseError(lineno, f"coefficient {tok} in {what} exceeds 2**44 in magnitude")
    return values


def parse_file(text: str) -> list[CgTable]:
    """Parse an inequality file into tables, preserving order and names."""
    lines = list(_logical_lines(text))
    pos = 0
    tables: list[CgTable] = []

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise ParseError(last, "unexpected end of input")
        item = lines[pos]
        pos += 1
        return item

    def keyword_line(keyword: str) -> tuple[int, list[str]]:
        lineno, line = take()
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(lineno, f"expected '{keyword}', got {parts[0]!r}")
        return lineno, parts[1:]

    while pos < len(lines):
        lineno, line = take()
        head = line.split(maxsplit=1)
        if head[0] != "inequality":
            raise ParseError(lineno, f"expected 'inequality', got {head[0]!r}")
        name = head[1].strip() if len(head) > 1 else None
        name_line = lineno

        lineno, rest = keyword_line("scenario")
        na, nb = _parse_ints(lineno, rest, 2, "scenario")
        try:
            scenario = Scenario(na, nb)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

        lineno, rest = keyword_line("bound")
        bound = _parse_ints(lineno, rest, 1, "bound")[0]
        lineno, rest = keyword_line("c")
        c = _parse_ints(lineno, rest, na, "c")
        lineno, rest = keyword_line("e")
        e = _parse_ints(lineno, rest, nb, "e")

        lineno, rest = keyword_line("d")
        rows = [_parse_ints(lineno, rest, nb, "d row 0")]
        for x in range(1, na):
            lineno, line = take()
            rows.append(_parse_ints(lineno, line.split(), nb, f"d row {x}"))

        lineno, line = take()
        if line != "end":
            raise ParseError(lineno, f"expected 'end', got {line!r}")
        try:
            tables.append(CgTable(scenario, rows, c, e, bound, name))
        except ValueError as exc:  # the parsed coefficients are valid, so it is the name
            raise ParseError(name_line, str(exc)) from None
    return tables


def serialize_file(tables: Sequence[CgTable]) -> str:
    """Inverse of parse_file; parse_file(serialize_file(ts)) == ts."""
    blocks = []
    for t in tables:
        lines = [
            "inequality" if t.name is None else f"inequality {t.name}",
            f"scenario {t.scenario.na} {t.scenario.nb}",
            f"bound {t.bound}",
            "c " + " ".join(str(v) for v in t.c.tolist()),
            "e " + " ".join(str(v) for v in t.e.tolist()),
        ]
        rows = t.d.tolist()
        lines.append("d " + " ".join(str(v) for v in rows[0]))
        for row in rows[1:]:
            lines.append("  " + " ".join(str(v) for v in row))
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
