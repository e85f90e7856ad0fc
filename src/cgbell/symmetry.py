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
(sorted c, sorted e) remain, each with its rows sorted by c and its columns
by e, and without duplicates.  Rows may then move only within runs of equal
c, and columns only within classes that start as the runs of equal e.

The least d is built one Alice row at a time, by a branch and bound over a
frontier of states (candidate, rows used, column classes).  At level k each
state is extended by each unused row in the run of c that holds position k.
An extension shows that row sorted within each column class, the classes
in order.  Only the extensions that show the least row survive, that row
is row k of the answer, and each survivor splits its classes by it.  This
is exact: d is compared row-major, so the answer's first k rows are the
least k-row prefix, and all survivors show that prefix, so their classes
have the same sizes.  Each level is one numpy pass over the frontier of all
candidates together.  Its cost is the frontier size, the states whose
prefix ties the least one: small unless the table has many automorphisms,
which are not pruned (the 8x8 identity ends with 8! = 40,320 states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .localpoly import _bit_rows, _vertex_values
from .model import CgTable, Scenario, ScenarioMismatchError

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


def random_relabeling(scenario: Scenario, rng: np.random.Generator) -> Relabeling:
    na, nb = scenario.na, scenario.nb
    swap = bool(na == nb and rng.integers(2))
    return Relabeling(
        tuple(int(v) for v in rng.permutation(na)),
        tuple(int(v) for v in rng.permutation(nb)),
        tuple(int(v) for v in rng.integers(0, 2, size=na)),
        tuple(int(v) for v in rng.integers(0, 2, size=nb)),
        swap,
    )


def _divide_by_content(table: CgTable) -> CgTable:
    g = math.gcd(*table.d.ravel().tolist(), *table.c.tolist(), *table.e.tolist(), table.bound)
    if g <= 1:
        return table
    return CgTable(
        table.scenario, table.d // g, table.c // g, table.e // g, table.bound // g, table.name
    )


def _least_rows(c: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least d row-major over the candidates ``d`` (k, na, nb), rows sorted by
    c and columns by e, by the branch and bound of the module docstring."""
    k, na, nb = d.shape
    off = int(np.abs(d).max())
    span = 2 * off + 1  # a key class * span + value + off is exact in int64
    flat = d.reshape(k * na, nb)
    # a state is (index into d, free rows, keys): equal rows go in index
    # order, and column na of free is a sink for a row with no equal successor
    same = (d[:, :, None, :] == d[:, None, :, :]).all(axis=3)
    after = np.where(np.triu(same, 1), np.arange(na), na).min(axis=2)
    free = np.hstack([~np.tril(same, -1).any(axis=2), np.ones((k, 1), dtype=bool)])
    cand, least = np.arange(k), np.empty((na, nb), dtype=np.int64)
    best, keys = e, np.broadcast_to(e, (k, nb))  # classes start as the runs of e
    for x in range(na):
        # a column's class is named by its key's first position in the
        # shown row; every state shows the same row, so one list names all
        base = np.searchsorted(best, keys) * span + off
        # row x of the answer comes from the run of equal c that holds x
        state, row = np.nonzero(free[:, :na] & (c == c[x]))
        keys = base[state] + flat[cand[state] * na + row]
        shown = np.sort(keys, axis=1)
        keep = np.ones(len(shown), dtype=bool)
        for col in shown.T:
            keep &= col == col[keep].min()
        best = shown[keep.argmax()]
        least[x] = best % span - off
        state, row, keys = state[keep], row[keep], keys[keep]
        cand, free = cand[state], free[state]
        at = np.arange(len(row))
        free[at, row] = False
        free[at, after[cand, row]] = True
    return least


def canonical_form(table: CgTable) -> CgTable:
    """Lexicographically minimal table over the full relabeling orbit.

    The overall positive scale is normalised away first by dividing out the
    gcd of all coefficients and the bound.  Two tables are equivalent iff
    their canonical forms are identical.  The key is (bound, c, e, d
    row-major).  The module docstring gives the algorithm: one numpy pass
    per Alice row over all candidates at once, whose cost is the number of
    states whose d prefix ties the least one at that row.  A relabeled c or
    e past MAX_COEFFICIENT raises ValueError.
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
    rows = np.argsort(c[keep], axis=1, kind="stable")[:, :, None]
    cols = np.argsort(e[keep], axis=1, kind="stable")[:, None, :]
    d = d[keep][np.arange(keep.sum())[:, None, None], rows, cols]
    distinct = np.array(sorted(set(map(tuple, d.reshape(len(d), -1).tolist()))))
    best_d = _least_rows(least[:na], least[na:], distinct.reshape(-1, na, nb))
    return CgTable(t.scenario, best_d, least[:na], least[na:], t.bound - int(top), None)


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
