"""Collins-Gisin tables: scenarios, inequality coefficients, behaviors, file I/O.

A bipartite scenario where Alice chooses among ``na`` binary-outcome
measurements and Bob among ``nb`` has ``na*nb + na + nb`` independent
probability coordinates once normalisation and no-signalling are used up:
the joint probabilities p(00|xy), Alice's marginals pA(0|x) and Bob's
marginals pB(0|y).  A Bell functional is an integer coefficient table over
those coordinates together with a local bound::

    sum_xy d[x][y] p(00|xy) + sum_x c[x] pA(0|x) + sum_y e[y] pB(0|y) <= bound

Coefficients are restricted to integers, which is what makes exact local
bounds and exact facet ranks possible downstream.  Their magnitude, and the
bound's, is capped at MAX_COEFFICIENT = 2^44: with at most 80 coefficients
every vertex value, and every doubled one-detector sum of the detection
analysis, stays below 4 * 80 * 2^44 < 2^53, so it is exact in int64 and in
float64 alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

MAX_SETTINGS = 8
MAX_COEFFICIENT = 2**44


class ParseError(ValueError):
    """Malformed inequality file; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class ScenarioMismatchError(ValueError):
    """Objects disagree on the scenario shape (table vs behavior vs relabeling)."""


@dataclass(frozen=True, order=True)
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
    if arr.dtype != np.int64:
        # bound the values before a cast to int64 could wrap them
        if np.any((arr > MAX_COEFFICIENT) | (arr < -MAX_COEFFICIENT)):
            raise ValueError(f"{what} entries must lie within +-2**44")
        if not np.issubdtype(arr.dtype, np.integer):
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
        # one pass over all int64 coefficients; abs(-2**63) wraps to itself,
        # which the unsigned view reads as 2**63
        coefficients = np.concatenate((self.d.ravel(), self.c, self.e))
        if np.abs(coefficients).view(np.uint64).max() > MAX_COEFFICIENT:
            raise ValueError("coefficients must lie within +-2**44")
        if not isinstance(self.bound, (int, np.integer)):
            raise ValueError(f"bound must be an integer, got {self.bound!r}")
        if abs(int(self.bound)) > MAX_COEFFICIENT:
            raise ValueError(f"bound must lie within +-2**44, got {self.bound}")
        object.__setattr__(self, "bound", int(self.bound))
        if self.name is not None:
            if not self.name or "#" in self.name or "\n" in self.name:
                raise ValueError(f"invalid inequality name {self.name!r}")

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


_BEHAVIOR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Behavior:
    """A no-signalling behavior in CG coordinates.

    ``joint[x][y] = p(00|xy)``, ``marg_a[x] = pA(0|x)``, ``marg_b[y] = pB(0|y)``.
    Validity (all four outcome probabilities nonnegative for every setting
    pair) is checked at construction up to a 1e-9 slack.
    """

    scenario: Scenario
    joint: np.ndarray
    marg_a: np.ndarray
    marg_b: np.ndarray

    def __post_init__(self):
        na, nb = self.scenario.na, self.scenario.nb
        joint = np.asarray(self.joint, dtype=float)
        ma = np.asarray(self.marg_a, dtype=float)
        mb = np.asarray(self.marg_b, dtype=float)
        if joint.shape != (na, nb) or ma.shape != (na,) or mb.shape != (nb,):
            raise ValueError("behavior arrays do not match the scenario shape")
        if not (np.all(np.isfinite(joint)) and np.all(np.isfinite(ma)) and np.all(np.isfinite(mb))):
            raise ValueError("behavior entries must be finite")
        tol = _BEHAVIOR_TOL
        upper = np.minimum(ma[:, None], mb[None, :])
        if np.any(joint < -tol) or np.any(joint > upper + tol):
            raise ValueError("p(00|xy) outside [0, min(pA, pB)]")
        if np.any(ma[:, None] + mb[None, :] - joint > 1 + tol):
            raise ValueError("p(11|xy) would be negative")
        for arr in (joint, ma, mb):
            arr.flags.writeable = False
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marg_a", ma)
        object.__setattr__(self, "marg_b", mb)

    @staticmethod
    def white_noise(scenario: Scenario) -> "Behavior":
        """Uniformly random outcomes: joint 1/4, marginals 1/2."""
        return Behavior(
            scenario,
            np.full((scenario.na, scenario.nb), 0.25),
            np.full(scenario.na, 0.5),
            np.full(scenario.nb, 0.5),
        )

    @staticmethod
    def deterministic(scenario: Scenario, alpha: Sequence[int], beta: Sequence[int]) -> "Behavior":
        """Local deterministic point: output 0 on setting x iff alpha[x] = 1."""
        a = np.asarray(alpha, dtype=float)
        b = np.asarray(beta, dtype=float)
        return Behavior(scenario, np.outer(a, b), a, b)

    def mix(self, other: "Behavior", weight: float) -> "Behavior":
        """Convex combination weight*self + (1-weight)*other."""
        if self.scenario != other.scenario:
            raise ScenarioMismatchError("cannot mix behaviors of different scenarios")
        w = float(weight)
        return Behavior(
            self.scenario,
            w * self.joint + (1 - w) * other.joint,
            w * self.marg_a + (1 - w) * other.marg_a,
            w * self.marg_b + (1 - w) * other.marg_b,
        )


def evaluate(table: CgTable, behavior: Behavior) -> float:
    """Value of the Bell functional on a behavior."""
    if table.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"table is {table.scenario}, behavior is {behavior.scenario}"
        )
    return float(
        np.sum(table.d * behavior.joint)
        + table.c @ behavior.marg_a
        + table.e @ behavior.marg_b
    )


# --- inequality file format -------------------------------------------------
#
# UTF-8 text, '#' starts a comment, blank lines ignored. One block per
# inequality, order significant:
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _parse_ints(lineno: int, tokens: Sequence[str], count: int, what: str) -> list[int]:
    if len(tokens) != count:
        raise ParseError(lineno, f"expected {count} entries for {what}, got {len(tokens)}")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(lineno, f"non-integer coefficient {tok!r} in {what}") from None
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
        tables.append(CgTable(scenario, rows, c, e, bound, name))
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
