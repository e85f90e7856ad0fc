"""Seeded inputs for the four benchmark workloads, built apart from the package.

Every table is made here from integer coefficients with the benchmark's own
zero-lifting, relabeling and brute-force local bound, and written in the
package's text format.  The package only ever sees the generated file.

Workloads (see README.md for why each exists):

    fixtures  the five bundled inequalities, then COPIES rounds of a seeded
              relabeling of each one zero-lifted to 4x4          (analyze)
    lifted    CHSH and I3322 zero-lifted to LIFT_SHAPES, relabeled (analyze)
    random    RANDOM_ROWS dense random 6x6 tables at their local bound (analyze)
    canon     the 4x4 relabeled lifts of `fixtures`, CANON_COPIES per base (canon)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("fixtures", "lifted", "random", "canon")

COPIES = 3
CANON_COPIES = 12
LIFT_SHAPES = ((4, 4), (5, 5), (4, 6))
RANDOM_ROWS = 6
RANDOM_SIZE = 6
RANDOM_RANGE = 3  # coefficients uniform in [-RANDOM_RANGE, RANDOM_RANGE]

# The five bundled inequalities, fixed here so that the inputs do not move
# when the package's own fixtures module changes.  Order follows the
# bundled reference CSV.
BASES = {
    "CHSH": ([[1, 1], [1, -1]], [-1, 0], [-1, 0], 0),
    "I3322": ([[1, 1, 1], [1, 1, -1], [1, -1, 0]], [-2, -1, 0], [-1, 0, 0], 0),
    "I3422_1": ([[-1, -1, 1, -1], [-1, 1, -1, -1], [1, 1, 1, -1]], [1, 1, -2], [1, 0, 0, 1], 2),
    "I3422_2": ([[-1, 0, 1, -1], [1, -1, 0, -1], [1, 1, 1, 0]], [0, 1, -1], [-1, 0, -1, 1], 1),
    "I3422_3": ([[-2, 0, 1, -1], [1, -1, 1, -1], [1, 1, 1, -1]], [1, 0, -1], [0, 0, -1, 2], 2),
}

# Random streams: numpy SeedSequence entropy [seed, STREAM, ...].
_FIXTURE_STREAM, _LIFT_STREAM, _RANDOM_STREAM = 1, 2, 3


@dataclass(frozen=True)
class Ineq:
    """One input row with what the benchmark knows about it independently.

    ``base`` names the bundled inequality a row was derived from (None for
    random tables); ``lifted_from`` is the expected `lifted_from` cell.
    """

    name: str
    d: np.ndarray
    c: np.ndarray
    e: np.ndarray
    bound: int
    base: Optional[str] = None
    lifted_from: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        return self.d.shape


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the cgbell subcommand: "analyze" or "canon"
    rows: tuple[Ineq, ...]


def base(name: str) -> Ineq:
    d, c, e, bound = BASES[name]
    return Ineq(name, np.array(d, dtype=np.int64), np.array(c, dtype=np.int64),
                np.array(e, dtype=np.int64), bound, base=name)


def vertex_values(d: np.ndarray, c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Functional value at every deterministic point, by plain enumeration.

    Row i, column j is the point whose Alice bits are the binary digits of i
    (setting 0 first) and Bob bits those of j; bit 1 means output 0.
    """
    na, nb = d.shape
    a = np.array(list(itertools.product((0, 1), repeat=na)), dtype=np.int64).reshape(-1, na)
    b = np.array(list(itertools.product((0, 1), repeat=nb)), dtype=np.int64).reshape(-1, nb)
    return a @ d @ b.T + (a @ c)[:, None] + (b @ e)[None, :]


def local_max(d, c, e) -> int:
    return int(vertex_values(d, c, e).max())


def zero_lift(t: Ineq, na: int, nb: int) -> Ineq:
    """Embed t in na x nb by adding settings with all-zero coefficients."""
    d = np.zeros((na, nb), dtype=np.int64)
    d[: t.shape[0], : t.shape[1]] = t.d
    c = np.zeros(na, dtype=np.int64)
    c[: t.shape[0]] = t.c
    e = np.zeros(nb, dtype=np.int64)
    e[: t.shape[1]] = t.e
    return Ineq(t.name, d, c, e, t.bound, t.base, f"{t.shape[0]}x{t.shape[1]}")


def relabel(t: Ineq, rng: np.random.Generator, name: str) -> Ineq:
    """A random element of the relabeling group applied to t.

    Outcome flips first (flipping Alice's x maps d[x] -> -d[x], e += d[x],
    c[x] -> -c[x], bound -> bound - c[x]; Bob's likewise), then input
    permutations, then the party swap on square tables.  Zero-lifted
    settings stay zero under all of it, so the used scenario only transposes
    with the swap.
    """
    na, nb = t.shape
    d, c, e, bound = t.d.copy(), t.c.copy(), t.e.copy(), t.bound
    for x in np.flatnonzero(rng.integers(0, 2, size=na)):
        e = e + d[x]
        bound -= int(c[x])
        d[x], c[x] = -d[x], -c[x]
    for y in np.flatnonzero(rng.integers(0, 2, size=nb)):
        c = c + d[:, y]
        bound -= int(e[y])
        d[:, y], e[y] = -d[:, y], -e[y]
    pa, pb = rng.permutation(na), rng.permutation(nb)
    d, c, e = d[np.ix_(pa, pb)], c[pa], e[pb]
    lifted_from = t.lifted_from
    if na == nb and rng.integers(2):
        d, c, e = d.T.copy(), e, c
        if lifted_from:
            ua, ub = lifted_from.split("x")
            lifted_from = f"{ub}x{ua}"
    out = Ineq(name, d, c, e, bound, t.base, lifted_from)
    if local_max(d, c, e) != bound:
        raise AssertionError(f"relabeling broke the local bound of {name}")
    return out


def relabeled_lift(seed: int, base_index: int, copy: int) -> Ineq:
    """Copy `copy` of bundled inequality `base_index`, zero-lifted to 4x4.

    Seeded per (base, copy), so copy j of a base is the same table in
    `fixtures` and in `canon`.
    """
    name = list(BASES)[base_index]
    rng = np.random.default_rng([seed, _FIXTURE_STREAM, base_index, copy])
    return relabel(zero_lift(base(name), 4, 4), rng, f"{name}_r{copy}")


def random_table(rng: np.random.Generator, size: int, name: str) -> Ineq:
    d, c, e = (rng.integers(-RANDOM_RANGE, RANDOM_RANGE + 1, size=s)
               for s in ((size, size), size, size))
    return Ineq(name, d, c, e, local_max(d, c, e))


def build(workload: str, seed: int) -> Workload:
    if workload == "fixtures":
        rows = [base(name) for name in BASES]
        rows += [relabeled_lift(seed, i, j)
                 for j in range(1, COPIES + 1) for i in range(len(BASES))]
        return Workload(workload, "analyze", tuple(rows))
    if workload == "lifted":
        rng = np.random.default_rng([seed, _LIFT_STREAM])
        rows = [relabel(zero_lift(base(name), na, nb), rng, f"{name}_{na}x{nb}")
                for name in ("CHSH", "I3322") for na, nb in LIFT_SHAPES]
        return Workload(workload, "analyze", tuple(rows))
    if workload == "random":
        rng = np.random.default_rng([seed, _RANDOM_STREAM])
        rows = [random_table(rng, RANDOM_SIZE, f"R{k:02d}") for k in range(1, RANDOM_ROWS + 1)]
        return Workload(workload, "analyze", tuple(rows))
    if workload == "canon":
        rows = [relabeled_lift(seed, i, j)
                for j in range(1, CANON_COPIES + 1) for i in range(len(BASES))]
        return Workload(workload, "canon", tuple(rows))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def serialize(rows) -> str:
    """The package's inequality file format (see cgbell.model)."""
    blocks = []
    for t in rows:
        d = t.d.tolist()
        lines = [f"inequality {t.name}", f"scenario {t.shape[0]} {t.shape[1]}",
                 f"bound {t.bound}", "c " + " ".join(map(str, t.c.tolist())),
                 "e " + " ".join(map(str, t.e.tolist())), "d " + " ".join(map(str, d[0]))]
        lines += ["  " + " ".join(map(str, row)) for row in d[1:]]
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
