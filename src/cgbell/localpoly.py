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

The rank of G modulo a prime p, by int64 row reduction, is a lower bound on
the rational rank r, and exact once it reaches the upper bound min(n, D + 1),
or min(n, D) when the functional is not identically zero (every saturating
row then lies on its hyperplane).  The first prime certifies facets, the
full polytope and affinely independent vertex sets that way.  Below the
bound more primes follow.  As G is positive semidefinite and integer, one of
its principal minors of order r is a nonzero integer of at most h, the
product of its upper-bound-many largest diagonal entries (Hadamard), and
every prime whose rank falls short of r divides it.  So once the primes
tried multiply past h, the largest rank seen is r.  No step is random and
none rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import CgTable, Scenario, _correlators

# the 42 largest primes below 2^31 (residue products fit in int64); their product,
# about 2^1302, exceeds h <= (2^16)^81: at most 81 diagonal entries, each <= 2^16
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543,
    2147483497, 2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323,
    2147483269, 2147483249, 2147483237, 2147483179, 2147483171, 2147483137, 2147483123,
    2147483077, 2147483069, 2147483059, 2147483053, 2147483033, 2147483029, 2147482951,
    2147482949, 2147482943, 2147482937, 2147482921, 2147482877, 2147482873, 2147482867,
    2147482859, 2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
)


@dataclass(frozen=True)
class FacetReport:
    is_valid: bool
    saturating_count: int
    affine_dimension: int
    is_facet: bool


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


def white_noise_value(table: CgTable) -> float:
    """Exact value on the white-noise behavior (joint 1/4, marginals 1/2): the
    constant k0 of the correlator expansion, exact in float64 (model)."""
    return float(_correlators(table)[3])


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


def _rank_mod_p(m: np.ndarray, p: int, upper: int) -> int:
    """Rank over F_p of a nonnegative int64 matrix, by row reduction, which
    stops once the rank reaches upper, a bound on it."""
    m = m % p
    rank = 0
    for col in range(m.shape[1]):
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        # entries stay below p < 2^31, so every product fits in int64; the
        # rows below are already zero left of col
        m[rank, col:] = m[rank, col:] * pow(int(m[rank, col]), -1, p) % p
        factors = m[rank + 1 :, col].copy()
        m[rank + 1 :, col:] = (m[rank + 1 :, col:] - factors[:, None] * m[rank, col:]) % p
        rank += 1
        if rank == upper:
            break
    return rank


def _rational_rank(gram: np.ndarray, upper: int) -> int:
    """Rank over Q of a Gram matrix of rank <= upper, certified as in the module docstring."""
    rank = _rank_mod_p(gram, _PRIMES[0], upper)
    if rank < upper:
        # the diagonal of G holds vertex counts, so the positive entries are the nonzero ones
        hadamard = math.prod(sorted(filter(None, np.diagonal(gram).tolist()))[-upper:])
        for k in range(1, len(_PRIMES)):
            if rank == upper or math.prod(_PRIMES[:k]) > hadamard:
                break
            rank = max(rank, _rank_mod_p(gram, _PRIMES[k], upper))
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
    gram = _gram(table.scenario, saturating)
    nonzero = table.bound != 0 or table.d.any() or table.c.any() or table.e.any()
    rank = _rational_rank(gram, min(n, dim_cg if nonzero else dim_cg + 1))
    dim = rank - 1
    is_facet = is_valid and dim == dim_cg - 1
    return FacetReport(is_valid, n, dim, is_facet)


def _unused_settings(table: CgTable) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of Alice's and Bob's unused settings: Alice's x is unused
    when c[x] = 0 and the whole d row x vanishes, Bob's y when e[y] = 0 and
    the d column y vanishes."""
    return (table.c == 0) & ~table.d.any(axis=1), (table.e == 0) & ~table.d.any(axis=0)


def detect_lifting(table: CgTable) -> Optional[CgTable]:
    """The table without its unused settings (_unused_settings); None when every setting is used.

    When a party's settings are all unused the first one is retained so the
    reduced scenario stays valid.
    """
    keep_a, keep_b = (~unused for unused in _unused_settings(table))
    for keep in (keep_a, keep_b):
        keep[0] |= not keep.any()
    if keep_a.all() and keep_b.all():
        return None
    return CgTable(
        Scenario(int(keep_a.sum()), int(keep_b.sum())),
        table.d[np.ix_(keep_a, keep_b)],
        table.c[keep_a],
        table.e[keep_b],
        table.bound,
        table.name,
    )
