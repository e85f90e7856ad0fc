"""Canonical and correlator forms of CG tables under the relabeling group.

The local relabeling group is generated by input permutations, outcome
flips and, in square scenarios, the party swap.  Every element has exactly
one normal form: flips first, then input permutations, then the optional
swap.  Nothing here builds a group element or walks an orbit; both forms
below are reached in closed form.  The tests hold the group type and check
those closed forms against orbits enumerated through the normal forms.

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

One kernel, ``_least_row``, takes the least row of an integer array and
the mask of its ties by one ``np.lexsort``: the least (sorted c, sorted e)
among the candidates, and the least shown row at every level.  So a level
costs a fixed number of numpy passes over the frontier whatever nb is.  The
sort is O(nb F log F) on F rows against O(nb F) for a filter column by
column: fewer numpy calls win on the frontiers of a few dozen states that
4x4 tables reach, and lose on the 64,512 states of the 8x8 Hadamard table.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .localpoly import _bit_rows, _unused_settings, _vertex_values
from .model import CgTable, _correlators


def _flipped(
    table: CgTable, fa: np.ndarray, fb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, c, e) of the table after each of a batch of outcome flips.

    ``fa`` is a (k, na) and ``fb`` a (k, nb) 0/1 integer array; entry i of
    every output belongs to the flips (fa[i], fb[i]).  The bound moves by
    the vertex value V(fa, fb), which the caller reads off the vertex grid.
    """
    sa, sb = 1 - 2 * fa, 1 - 2 * fb
    d = sa[:, :, None] * sb[:, None, :] * table.d
    c = sa * (table.c + fb @ table.d.T)
    e = sb * (table.e + fa @ table.d)
    return d, c, e


def _divide_by_content(table: CgTable) -> CgTable:
    g = math.gcd(*table.d.ravel().tolist(), *table.c.tolist(), *table.e.tolist(), table.bound)
    if g <= 1:
        return table
    return CgTable(
        table.scenario, table.d // g, table.c // g, table.e // g, table.bound // g, table.name
    )


def _least_row(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically least row of the 2-D integer array ``rows`` and
    the mask of the rows equal to it, by one ``np.lexsort``."""
    least = rows[np.lexsort(rows.T[::-1])[0]]
    return least, (rows == least).all(axis=1)


def _least_rows(c: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least d row-major over the candidates ``d`` (k, na, nb), rows sorted by
    c and columns by e, by the branch and bound of the module docstring.

    At every level ``_least_row`` takes the least shown row and the
    extensions that show it, so a level costs a fixed number of numpy passes
    over the frontier whatever nb is.  The rows are kept as keys and decoded
    once, on the answer."""
    k, na, nb = d.shape
    off = int(np.abs(d).max())
    span = 2 * off + 1  # a key class * span + value + off is exact in int64
    flat = d.reshape(k * na, nb)
    # a state is (index into d, free rows, keys): equal rows go in index
    # order, and column na of free is a sink for a row with no equal successor
    same = (d[:, :, None, :] == d[:, None, :, :]).all(axis=3)
    after = np.where(np.triu(same, 1), np.arange(na), na).min(axis=2)
    free = np.hstack([~np.tril(same, -1).any(axis=2), np.ones((k, 1), dtype=bool)])
    # row x of the answer comes from the run of equal c that holds x
    runs = c[:, None] == c
    cand, least = np.arange(k), np.empty((na, nb), dtype=np.int64)
    best, keys = e, np.broadcast_to(e, (k, nb))  # classes start as the runs of e
    for x in range(na):
        # a column's class is named by its key's first position in the
        # shown row; every state shows the same row, so one list names all
        base = np.searchsorted(best, keys) * span + off
        state, row = np.nonzero(free[:, :na] & runs[x])
        keys = base[state] + flat[cand[state] * na + row]
        shown = np.sort(keys, axis=1)
        best, keep = (shown[0], slice(None)) if len(shown) == 1 else _least_row(shown)
        least[x] = best
        if x == na - 1:
            break
        state, row, keys = state[keep], row[keep], keys[keep]
        cand, free = cand[state], free[state]
        at = np.arange(len(row))
        free[at, row] = False
        free[at, after[cand, row]] = True
    return least % span - off


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
    idle_a, idle_b = _unused_settings(t)
    busy = ~fa[:, idle_a].any(axis=1) & ~fb[:, idle_b].any(axis=1)
    d, c, e = _flipped(t, fa[busy], fb[busy])
    if na == nb:  # the swap adds (d^T, e, c) for every flip
        d = np.concatenate([d, d.transpose(0, 2, 1)])
        c, e = np.concatenate([c, e]), np.concatenate([e, c])
    # the least c and e a candidate reaches are its c and e sorted
    least, keep = _least_row(np.hstack([np.sort(c, axis=1), np.sort(e, axis=1)]))
    rows = np.argsort(c[keep], axis=1, kind="stable")[:, :, None]
    cols = np.argsort(e[keep], axis=1, kind="stable")[:, None, :]
    d = d[keep][np.arange(keep.sum())[:, None, None], rows, cols]
    distinct = np.array(sorted(set(map(tuple, d.reshape(len(d), -1).tolist()))))
    best_d = _least_rows(least[:na], least[na:], distinct.reshape(-1, na, nb))
    return CgTable(t.scenario, best_d, least[:na], least[na:], t.bound - int(top), None)


def correlation_form(table: CgTable) -> Optional[tuple[tuple[float, ...], ...]]:
    """The correlator matrix g of the table's correlator-only presentation,
    or None when it has none.

    With E(x,y) = p(a=b|xy) - p(a!=b|xy) = 4 p(00|xy) - 2 pA(0|x) - 2 pB(0|y) + 1,
    the functional equals white_noise_value(table) + sum_xy g[x][y] E(x,y) on
    every behavior.  A table is expressible purely in correlators iff the
    one-party terms ua and ub of its correlator expansion (model._correlators)
    vanish, that is 2 c[x] = -sum_y d[x][y] and 2 e[y] = -sum_x d[x][y].  No
    relabeling changes that: flipping Alice's x negates both sides of row x
    and adds 2 d[x][y] to both sides of column y (Bob's flips alike),
    permutations reorder the equations and the swap exchanges rows and
    columns.  So the table itself is tested, and no relabeling is searched.
    Then g = w, as a tuple of float rows: immutable, and truthy even for the
    zero table.
    """
    w, ua, ub, _ = _correlators(table)
    if ua.any() or ub.any():
        return None
    return tuple(map(tuple, w.tolist()))
