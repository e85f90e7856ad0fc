"""Local polytope computations: vertex enumeration, bounds, facet tests, liftings.

A linear functional over the local set attains its maximum at a deterministic
vertex, so the local bound is an exact integer maximum over the
2^(na+nb) deterministic strategies.

Facet verification needs the affine dimension of the saturating vertex set,
which is rank(B) - 1 for the 0/1 matrix B = [1 | joint | alpha | beta] whose
n rows are the saturating vertices.  Over the rationals rank(B) equals the
rank of the Gram matrix G = B^T B, which is (D+1) x (D+1) for
D = cg_dimension however many vertices saturate.  Its entries are vertex
counts, so float64 forms it exactly, straight from the vertex grid.

The rank of G modulo the prime p = 2^31 - 1, by int64 row reduction, is a
lower bound on the rational rank.  It is therefore exact when it reaches the
upper bound min(n, D + 1), or min(n, D) when the functional is not
identically zero (every saturating row then lies on its hyperplane).  A
facet, the full polytope and an affinely independent vertex set are all
certified that way.  Only below that bound does exact rational elimination
(exact_rank) run, on G.  No step is random and none rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import CgTable, Scenario

# the largest prime below 2^31: residues multiply without leaving int64
_PRIME = 2**31 - 1


@dataclass(frozen=True)
class FacetReport:
    is_valid: bool
    saturating_count: int
    affine_dimension: int
    is_facet: bool


@dataclass(frozen=True)
class Lifting:
    """A table reduced by removing settings that carry no coefficients."""

    reduced: CgTable
    dropped_a: tuple[int, ...]
    dropped_b: tuple[int, ...]


def _bit_rows(n: int) -> np.ndarray:
    # row i is the n-bit big-endian expansion of i, so rows come out in
    # lexicographic order
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _vertex_values(table: CgTable) -> np.ndarray:
    """Functional value at every vertex, shape (2^na, 2^nb), exact int64."""
    a_bits = _bit_rows(table.scenario.na)
    b_bits = _bit_rows(table.scenario.nb)
    return (
        a_bits @ table.d @ b_bits.T
        + (a_bits @ table.c)[:, None]
        + (b_bits @ table.e)[None, :]
    )


def local_bound(table: CgTable) -> int:
    """Exact maximum of the functional over local (shared-randomness) models."""
    return int(_vertex_values(table).max())


def white_noise_value(table: CgTable) -> Fraction:
    """Exact value on the white-noise behavior (joint 1/4, marginals 1/2)."""
    return (
        Fraction(int(table.d.sum()), 4)
        + Fraction(int(table.c.sum()), 2)
        + Fraction(int(table.e.sum()), 2)
    )


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / pv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _gram(scenario: Scenario, saturating: np.ndarray) -> np.ndarray:
    """G = B^T B for the 0/1 matrix B whose rows are the saturating vertices.

    Every vertex coordinate is a product u_i * v_j of an entry of
    u = (1, alpha) and one of v = (1, beta): (0, 0) is the constant, (x, 0)
    alpha, (0, y) beta and (x, y) the joint.  So G[(i, j), (k, l)] sums
    u_i u_k v_j v_l over the saturated cells of the vertex grid, which is one
    product P_a^T S P_b of the 0/1 grid S with the pair products P_a, P_b,
    and B itself is never formed.  Entries are counts <= 2^16, exact in
    float64.  Coordinates come in row-major (i, j) order, a permutation of
    (joint, alpha, beta) that leaves the rank alone.
    """

    def pairs(n: int) -> np.ndarray:
        u = np.hstack([np.ones((2**n, 1), dtype=np.int64), _bit_rows(n)])
        return (u[:, :, None] * u[:, None, :]).reshape(2**n, -1).astype(np.float64)

    ua, ub = scenario.na + 1, scenario.nb + 1
    g = pairs(scenario.na).T @ saturating.astype(np.float64) @ pairs(scenario.nb)
    g = g.reshape(ua, ua, ub, ub).transpose(0, 2, 1, 3).reshape(ua * ub, ua * ub)
    return g.astype(np.int64)


def _rank_mod_p(m: np.ndarray) -> int:
    """Rank over F_p of a nonnegative int64 matrix, by row reduction."""
    m = m % _PRIME
    rank = 0
    for col in range(m.shape[1]):
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        # entries stay below p < 2^31, so every product fits in int64
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, _PRIME) % _PRIME
        factors = m[rank + 1 :, col].copy()
        m[rank + 1 :] = (m[rank + 1 :] - factors[:, None] * m[rank]) % _PRIME
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def facet_check(table: CgTable) -> FacetReport:
    """Verify validity and facet-ness of a table against its own bound.

    A table is valid iff its bound equals the local bound, and a facet iff the
    vertices saturating the bound span an affine set of dimension
    cg_dimension - 1.
    """
    values = _vertex_values(table)
    is_valid = int(values.max()) == table.bound
    dim_cg = table.scenario.cg_dimension()

    saturating = values == table.bound
    n = int(saturating.sum())
    if n <= 1:
        dim = 0
    else:
        gram = _gram(table.scenario, saturating)
        nonzero = table.bound != 0 or table.d.any() or table.c.any() or table.e.any()
        upper = min(n, dim_cg if nonzero else dim_cg + 1)
        rank = _rank_mod_p(gram)
        if rank < upper:
            rank = exact_rank(gram.tolist())
        dim = rank - 1
    is_facet = is_valid and dim == dim_cg - 1
    return FacetReport(is_valid, n, dim, is_facet)


def detect_lifting(table: CgTable) -> Optional[Lifting]:
    """Strip settings with all-zero coefficients; None when every setting is used.

    A setting x of Alice is unused when c[x] = 0 and the whole d row x
    vanishes (symmetrically for Bob).  When a party's settings are all
    unused the first one is retained so the reduced scenario stays valid.
    """
    na, nb = table.scenario.na, table.scenario.nb
    drop_a = [x for x in range(na) if table.c[x] == 0 and not table.d[x, :].any()]
    drop_b = [y for y in range(nb) if table.e[y] == 0 and not table.d[:, y].any()]
    if len(drop_a) == na:
        drop_a = drop_a[1:]
    if len(drop_b) == nb:
        drop_b = drop_b[1:]
    if not drop_a and not drop_b:
        return None
    keep_a = [x for x in range(na) if x not in drop_a]
    keep_b = [y for y in range(nb) if y not in drop_b]
    reduced = CgTable(
        Scenario(len(keep_a), len(keep_b)),
        table.d[np.ix_(keep_a, keep_b)],
        table.c[keep_a],
        table.e[keep_b],
        table.bound,
        table.name,
    )
    return Lifting(reduced, tuple(drop_a), tuple(drop_b))
