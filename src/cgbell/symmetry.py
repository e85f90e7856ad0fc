"""Relabeling group on CG tables: input permutations, outcome flips, party swap.

A relabeling is applied to a table as flips first, then input permutations,
then the optional party swap.  Every group element has exactly one such
normal form, (flips, permutations, swap).  Nothing here walks an orbit:
only the tests enumerate one, through these normal forms, to check the
closed forms below against it.

Flipping Alice's outcome at setting x rewrites the functional through
p(00|xy) -> pB(0|y) - p(00|xy) and pA(0|x) -> 1 - pA(0|x), giving the
coefficient rules d[x][:] -> -d[x][:], e += old d[x][:], c[x] -> -c[x],
bound -> bound - old c[x] (and symmetrically for Bob).  For flip bit
vectors fa, fb with signs sa = 1 - 2 fa, sb = 1 - 2 fb, applying all of
them gives d' = sa_x sb_y d, c' = sa (c + d fb), e' = sb (e + d^T fa) and
bound' = bound - V(fa, fb), where V(fa, fb) = fa^T d fb + fa.c + fb.e is the
functional's value at the deterministic vertex with bits (fa, fb).

The canonical form, the lexicographic minimum of (bound, c, e, d row-major)
over the orbit, is found without walking the orbit.  Permutations and the
swap keep the bound, so only flips at a maximal vertex are candidates.  The
smallest c of a candidate is its c sorted, and the smallest e, for any
order of Alice's rows, is its e sorted; so only candidates with the least
(sorted c, sorted e) remain.  Alice's rows are then ordered only within
runs of equal c, and for each such order one sort of Bob's columns by
(e[y], d[0][y], ..., d[na-1][y]) gives the least d.  The cost is the number
of distinct row orders within those runs: 1 when c has no ties, up to 8!
for an 8x8 table whose c is constant and whose rows all differ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .localpoly import _bit_rows, _vertex_values
from .model import CgTable, Scenario, ScenarioMismatchError

# row orders compared per numpy batch in canonical_form (at most 8! = 40,320)
_ORDER_CHUNK = 4096


def _check_perm(perm: Sequence[int], what: str) -> tuple[int, ...]:
    p = tuple(int(v) for v in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{what} is not a permutation of 0..{len(p) - 1}: {p}")
    return p


def _check_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    b = tuple(int(v) for v in bits)
    if not all(v in (0, 1) for v in b):
        raise ValueError(f"{what} must be a bit vector, got {b}")
    return b


@dataclass(frozen=True)
class Relabeling:
    """One element of the local relabeling group.

    ``perm_a[x]`` is the original Alice setting placed at slot x (same for
    Bob); ``flip_a[x] = 1`` flips Alice's outcome at original setting x;
    ``swap_parties`` exchanges the parties and is only compatible with
    square scenarios.
    """

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    flip_a: tuple[int, ...]
    flip_b: tuple[int, ...]
    swap_parties: bool = False

    def __post_init__(self):
        object.__setattr__(self, "perm_a", _check_perm(self.perm_a, "perm_a"))
        object.__setattr__(self, "perm_b", _check_perm(self.perm_b, "perm_b"))
        object.__setattr__(self, "flip_a", _check_bits(self.flip_a, "flip_a"))
        object.__setattr__(self, "flip_b", _check_bits(self.flip_b, "flip_b"))
        if len(self.flip_a) != len(self.perm_a) or len(self.flip_b) != len(self.perm_b):
            raise ValueError("flip vectors must match permutation lengths")
        if self.swap_parties and len(self.perm_a) != len(self.perm_b):
            raise ScenarioMismatchError("party swap requires equal setting counts")


def _flipped(
    table: CgTable, fa: np.ndarray, fb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d, c, e, bound) of the table after each of a batch of outcome flips.

    ``fa`` is a (k, na) and ``fb`` a (k, nb) 0/1 integer array; entry i of
    every output belongs to the flips (fa[i], fb[i]).
    """
    sa, sb = 1 - 2 * fa, 1 - 2 * fb
    fa_d = fa @ table.d
    d = sa[:, :, None] * sb[:, None, :] * table.d
    c = sa * (table.c + fb @ table.d.T)
    e = sb * (table.e + fa_d)
    bound = table.bound - fa @ table.c - fb @ table.e - (fa_d * fb).sum(axis=1)
    return d, c, e, bound


def apply_relabeling(table: CgTable, r: Relabeling) -> CgTable:
    """The table representing the same functional after relabeling."""
    na, nb = table.scenario.na, table.scenario.nb
    if len(r.perm_a) != na or len(r.perm_b) != nb:
        raise ScenarioMismatchError(
            f"relabeling is for {len(r.perm_a)}x{len(r.perm_b)}, table is {table.scenario}"
        )
    if r.swap_parties and na != nb:
        raise ScenarioMismatchError("party swap requires a square scenario")

    d, c, e, bound = (
        v[0] for v in _flipped(table, np.array([r.flip_a]), np.array([r.flip_b]))
    )
    d = d[np.ix_(r.perm_a, r.perm_b)]
    c = c[list(r.perm_a)]
    e = e[list(r.perm_b)]
    scenario = table.scenario
    if r.swap_parties:
        d = d.T
        c, e = e, c
        scenario = Scenario(table.scenario.nb, table.scenario.na)
    return CgTable(scenario, d, c, e, int(bound), table.name)


def random_relabeling(
    scenario: Scenario, rng: np.random.Generator, allow_swap: bool = True
) -> Relabeling:
    na, nb = scenario.na, scenario.nb
    swap = bool(allow_swap and na == nb and rng.integers(2))
    return Relabeling(
        tuple(int(v) for v in rng.permutation(na)),
        tuple(int(v) for v in rng.permutation(nb)),
        tuple(int(v) for v in rng.integers(0, 2, size=na)),
        tuple(int(v) for v in rng.integers(0, 2, size=nb)),
        swap,
    )


def _divide_by_content(table: CgTable) -> CgTable:
    g = 0
    for v in (*table.d.ravel().tolist(), *table.c.tolist(), *table.e.tolist(), table.bound):
        g = math.gcd(g, abs(int(v)))
    if g <= 1:
        return table
    return CgTable(
        table.scenario, table.d // g, table.c // g, table.e // g, table.bound // g, table.name
    )


def _row_orders(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Every distinct order of d's rows that keeps the sorted c sorted.

    Rows move only within runs of equal c, and equal rows are never told
    apart: each row is named by the first row equal to it, so an order is a
    sequence of row indices in which equal rows share one index.
    """
    rows = d.tolist()
    names = [rows.index(row) for row in rows]
    edges = [0, *(np.flatnonzero(np.diff(c)) + 1).tolist(), len(rows)]
    runs = [set(itertools.permutations(names[i:j])) for i, j in zip(edges, edges[1:])]
    return np.array([sum(parts, ()) for parts in itertools.product(*runs)])


def _least_d(c: np.ndarray, e: np.ndarray, d: np.ndarray) -> tuple[int, ...]:
    """Least d row-major over the row orders that sort c and the column
    orders that sort e."""
    d = d[np.argsort(c, kind="stable")][:, np.argsort(e, kind="stable")]
    c, e = np.sort(c), np.sort(e)
    orders = _row_orders(c, d)
    least = []
    for start in range(0, len(orders), _ORDER_CHUNK):
        rows = d[orders[start : start + _ORDER_CHUNK]]
        # for fixed rows the least d sorts the columns by (e[y], d[0][y], ...)
        keys = [rows[:, x, :] for x in reversed(range(rows.shape[1]))]
        columns = np.lexsort([*keys, np.broadcast_to(e, rows[:, 0, :].shape)], axis=-1)
        flat = np.take_along_axis(rows, columns[:, None, :], axis=2).reshape(len(rows), -1)
        least.append(tuple(flat[np.lexsort(flat.T[::-1])[0]].tolist()))
    return min(least)


def canonical_form(table: CgTable) -> CgTable:
    """Lexicographically minimal table over the full relabeling orbit.

    The overall positive scale is normalised away first by dividing out the
    gcd of all coefficients and the bound.  Two tables are equivalent iff
    their canonical forms are identical.  The key is (bound, c, e, d
    row-major); the module docstring gives the algorithm.  Its cost is the
    number of distinct orders of Alice's rows within runs of equal c, so it
    is exponential only for highly symmetric tables (up to 8! orders at
    8x8, when c is constant and the rows all differ).
    """
    t = _divide_by_content(table)
    na, nb = t.scenario.na, t.scenario.nb
    values = _vertex_values(t)
    top = values.max()
    ia, ib = np.nonzero(values == top)
    fa, fb = _bit_rows(na)[ia], _bit_rows(nb)[ib]
    # flipping a setting without coefficients changes nothing
    idle_a = (t.c == 0) & ~t.d.any(axis=1)
    idle_b = (t.e == 0) & ~t.d.any(axis=0)
    busy = ~fa[:, idle_a].any(axis=1) & ~fb[:, idle_b].any(axis=1)
    d, c, e, _ = _flipped(t, fa[busy], fb[busy])
    if na == nb:  # the swap adds (d^T, e, c) for every flip
        d = np.concatenate([d, d.transpose(0, 2, 1)])
        c, e = np.concatenate([c, e]), np.concatenate([e, c])
    # the least c and e a candidate reaches are its c and e sorted
    keys = np.hstack([np.sort(c, axis=1), np.sort(e, axis=1)])
    least = keys[np.lexsort(keys.T[::-1])[0]]
    keep = (keys == least).all(axis=1)
    triples = np.hstack([c[keep], e[keep], d[keep].reshape(-1, na * nb)])
    candidates = np.array(sorted(set(map(tuple, triples.tolist()))))
    best_d = min(
        _least_d(row[:na], row[na : na + nb], row[na + nb :].reshape(na, nb))
        for row in candidates
    )
    return CgTable(
        t.scenario,
        np.reshape(best_d, (na, nb)),
        least[:na],
        least[na:],
        t.bound - int(top),
        None,
    )


@dataclass(frozen=True)
class CorrelatorForm:
    """Full-correlation presentation: sum_xy g[x][y] E(x,y) - constant.

    ``E(x,y) = p(a=b|xy) - p(a!=b|xy) = 4 p(00|xy) - 2 pA(0|x) - 2 pB(0|y) + 1``
    and the equality with the table's CG functional holds on every behavior.
    """

    g: tuple[tuple[Fraction, ...], ...]
    constant: Fraction


def correlation_form(table: CgTable) -> Optional[CorrelatorForm]:
    """The table's correlator-only presentation, or None when it has none.

    A table is expressible purely in correlators iff 2 c[x] = -sum_y d[x][y]
    for every x and 2 e[y] = -sum_x d[x][y] for every y.  No relabeling
    changes that: flipping Alice's x negates both sides of row x and adds
    2 d[x][y] to both sides of column y (Bob's flips alike), permutations
    reorder the equations and the swap exchanges rows and columns.  So the
    table itself is tested, and no relabeling is searched.
    """
    d = table.d
    if not (
        np.array_equal(2 * table.c, -d.sum(axis=1))
        and np.array_equal(2 * table.e, -d.sum(axis=0))
    ):
        return None
    g = tuple(tuple(Fraction(v, 4) for v in row) for row in d.tolist())
    return CorrelatorForm(g, Fraction(int(d.sum()), 4))
