"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: probabilities
and Bell operators come from explicit 4x4 matrix algebra, bounds from brute-force
enumeration over behaviors, thresholds from bisection, ranks from floating
point SVD.  Facet checks and no-click values are the earlier per-vertex and
per-assignment Fraction formulas, kept here as references for the integer
kernels that replaced them, and canonical forms and correlator forms come
from the earlier scans over the relabeling orbit and the earlier enumeration
of row orders.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from cgbell import Behavior, CgTable, evaluate
from cgbell.localpoly import _bit_rows, _vertex_values

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return (_I2 + v[0] * _SX + v[1] * _SY + v[2] * _SZ) / 2


def _psi(theta: float) -> np.ndarray:
    return np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex)


def born_trace(theta: float, a, b) -> float:
    """p(00) via the explicit 4x4 matrix element <psi|A x B|psi>."""
    psi = _psi(theta)
    return float(np.real(psi.conj() @ np.kron(_projector(a), _projector(b)) @ psi))


def marginal_trace_a(theta: float, a) -> float:
    psi = _psi(theta)
    return float(np.real(psi.conj() @ np.kron(_projector(a), _I2) @ psi))


def marginal_trace_b(theta: float, b) -> float:
    psi = _psi(theta)
    return float(np.real(psi.conj() @ np.kron(_I2, _projector(b)) @ psi))


# Two-qubit maxima of the fixtures in closed form, matched numerically to the
# see-saw and the Bell-operator bound below, not quoted from the paper.
QUANTUM_CLOSED_FORMS = {
    "CHSH": (math.sqrt(2) - 1) / 2,
    "I3322": 0.25,
    "I3422_1": math.sqrt(5),
    "I3422_3": 2 + (math.sqrt(15) - 3) / 2,
}


def bell_operator(table: CgTable, a_vecs, b_vecs) -> np.ndarray:
    """The 4x4 operator whose expectation in any two-qubit state is the
    functional's value at the projective measurements (1 + v.sigma)/2."""
    alice = [_projector(v) for v in a_vecs]
    bob = [_projector(v) for v in b_vecs]
    op = sum(int(table.d[x, y]) * np.kron(alice[x], bob[y])
             for x in range(len(alice)) for y in range(len(bob)))
    op = op + sum(int(table.c[x]) * np.kron(alice[x], _I2) for x in range(len(alice)))
    return op + sum(int(table.e[y]) * np.kron(_I2, bob[y]) for y in range(len(bob)))


def local_bound_bruteforce(table: CgTable) -> float:
    """Maximum over explicitly constructed deterministic behaviors."""
    na, nb = table.scenario.na, table.scenario.nb
    best = -np.inf
    for alpha in itertools.product((0, 1), repeat=na):
        for beta in itertools.product((0, 1), repeat=nb):
            behavior = Behavior.deterministic(table.scenario, alpha, beta)
            best = max(best, evaluate(table, behavior))
    return best


def float_rank(rows) -> int:
    m = np.asarray(rows, dtype=float)
    if m.size == 0:
        return 0
    return int(np.linalg.matrix_rank(m))


def facet_check_fraction(table: CgTable) -> tuple[bool, int, int, bool]:
    """(is_valid, saturating_count, affine_dimension, is_facet) by exact
    Fraction elimination of the differences between saturating vertices."""
    from cgbell import exact_rank

    na, nb = table.scenario.na, table.scenario.nb
    vertices = []
    for alpha in itertools.product((0, 1), repeat=na):
        for beta in itertools.product((0, 1), repeat=nb):
            value = (
                sum(int(table.d[x, y]) * alpha[x] * beta[y] for x in range(na) for y in range(nb))
                + sum(int(table.c[x]) * alpha[x] for x in range(na))
                + sum(int(table.e[y]) * beta[y] for y in range(nb))
            )
            joint = tuple(a * b for a in alpha for b in beta)
            vertices.append((value, joint + alpha + beta))
    saturating = [v for value, v in vertices if value == table.bound]
    is_valid = max(value for value, _ in vertices) == table.bound
    if len(saturating) <= 1:
        dim = 0
    else:
        base = saturating[0]
        dim = exact_rank([[a - b for a, b in zip(v, base)] for v in saturating[1:]])
    is_facet = is_valid and dim == table.scenario.cg_dimension() - 1
    return is_valid, len(saturating), dim, is_facet


def assignment_values(table: CgTable, a_outputs, b_outputs) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (M_A, M_B, X) of a no-click assignment, maximally entangled state.

    M_A is the functional value when only Alice's detector fires (her
    marginals are 1/2, Bob outputs b_outputs[y] deterministically), M_B the
    reverse, X the value when neither fires.
    """
    a0 = [1 - v for v in a_outputs]
    b0 = [1 - v for v in b_outputs]
    col = table.d.sum(axis=0).tolist()
    row = table.d.sum(axis=1).tolist()
    m_a = Fraction(int(table.c.sum()), 2) + sum(
        (Fraction(col[y], 2) + int(table.e[y])) * b0[y] for y in range(len(b0))
    )
    m_b = Fraction(int(table.e.sum()), 2) + sum(
        (Fraction(row[x], 2) + int(table.c[x])) * a0[x] for x in range(len(a0))
    )
    x_val = Fraction(
        int(np.asarray(a0) @ table.d @ np.asarray(b0))
        + int(table.c @ np.asarray(a0))
        + int(table.e @ np.asarray(b0))
    )
    return m_a, m_b, x_val


def threshold_root(a: float, b: float, c: float) -> float:
    """Largest np.roots root of a*eta^2 + b*eta + c in [0, 1) with the
    polynomial positive just above it, else 1.0."""
    roots = [r.real for r in np.roots([a, b, c]) if abs(r.imag) < 1e-9]
    for r in sorted(roots, reverse=True):
        probe = min(1.0, r + 1e-7)
        if 0.0 <= r < 1.0 and a * probe * probe + b * probe + c > 0.0:
            return r
    return 1.0


def eta_roots(table: CgTable, q_me: float):
    """(eta, a_outputs, b_outputs, (M_A, M_B, X)) of the best no-click
    assignment: np.roots per assignment, first strict minimum wins."""
    from cgbell import local_bound

    bound = local_bound(table)
    assignments = [
        (a_out, b_out)
        for a_out in itertools.product((0, 1), repeat=table.scenario.na)
        for b_out in itertools.product((0, 1), repeat=table.scenario.nb)
    ]
    if q_me <= bound + 1e-9:
        a_out, b_out = assignments[0]
        return 1.0, a_out, b_out, assignment_values(table, a_out, b_out)
    best = None
    for a_out, b_out in assignments:
        m_a, m_b, x_val = assignment_values(table, a_out, b_out)
        m = m_a + m_b
        eta = threshold_root(
            q_me - float(m) + float(x_val), float(m - 2 * x_val), float(x_val) - bound
        )
        if best is None or eta < best[0]:
            best = (eta, a_out, b_out, (m_a, m_b, x_val))
    return best


def relabel_behavior(behavior: Behavior, r) -> Behavior:
    """Transform a behavior's probabilities through a relabeling directly.

    Mirrors the application order used on tables: outcome flips, then input
    permutations, then the party swap.
    """
    from cgbell import Scenario

    joint = np.array(behavior.joint)
    ma = np.array(behavior.marg_a)
    mb = np.array(behavior.marg_b)
    for x, flip in enumerate(r.flip_a):
        if flip:
            joint[x, :] = mb - joint[x, :]
            ma[x] = 1 - ma[x]
    for y, flip in enumerate(r.flip_b):
        if flip:
            joint[:, y] = ma - joint[:, y]
            mb[y] = 1 - mb[y]
    joint = joint[np.ix_(r.perm_a, r.perm_b)]
    ma = ma[list(r.perm_a)]
    mb = mb[list(r.perm_b)]
    scenario = behavior.scenario
    if r.swap_parties:
        joint = joint.T
        ma, mb = mb, ma
        scenario = Scenario(scenario.nb, scenario.na)
    return Behavior(scenario, joint, ma, mb)


def eta_bisection(table: CgTable, q_me: float, iterations: int = 200) -> float:
    """Threshold efficiency by bisection on max-over-assignment I(eta) - L."""
    from cgbell import local_bound

    bound = local_bound(table)
    na, nb = table.scenario.na, table.scenario.nb
    d = table.d.astype(float)
    c = table.c.astype(float)
    e = table.e.astype(float)
    profiles = []
    for a_out in itertools.product((0, 1), repeat=na):
        a0 = np.array([1 - v for v in a_out], dtype=float)
        for b_out in itertools.product((0, 1), repeat=nb):
            b0 = np.array([1 - v for v in b_out], dtype=float)
            m_a = c.sum() / 2 + b0 @ (d.sum(axis=0) / 2 + e)
            m_b = e.sum() / 2 + a0 @ (d.sum(axis=1) / 2 + c)
            x_val = a0 @ d @ b0 + c @ a0 + e @ b0
            profiles.append((m_a + m_b, x_val))

    def best_value(eta: float) -> float:
        return max(
            eta * eta * q_me + eta * (1 - eta) * m + (1 - eta) ** 2 * x
            for m, x in profiles
        )

    if best_value(1.0) <= bound:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if best_value(mid) > bound:
            hi = mid
        else:
            lo = mid
    return hi


def random_behavior(scenario, rng: np.random.Generator) -> Behavior:
    """A random local behavior: a convex mixture of deterministic points."""
    na, nb = scenario.na, scenario.nb
    k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(k))
    joint = np.zeros((na, nb))
    ma = np.zeros(na)
    mb = np.zeros(nb)
    for w in weights:
        alpha = rng.integers(0, 2, size=na)
        beta = rng.integers(0, 2, size=nb)
        joint += w * np.outer(alpha, beta)
        ma += w * alpha
        mb += w * beta
    return Behavior(scenario, joint, ma, mb)


def canonical_form_scan(table: CgTable) -> CgTable:
    """Lexicographically minimal (bound, c, e, d row-major) over the orbit,
    by a plain scan of flips x swap x permutations (294,912 at 4x4), after
    dividing out the gcd of all coefficients and the bound."""
    g = 0
    for v in (*table.d.ravel().tolist(), *table.c.tolist(), *table.e.tolist(), table.bound):
        g = math.gcd(g, abs(int(v)))
    t = table
    if g > 1:
        t = CgTable(table.scenario, table.d // g, table.c // g, table.e // g, table.bound // g)
    na, nb = t.scenario.na, t.scenario.nb
    swaps = (False, True) if na == nb else (False,)
    best = None

    for flip_a in itertools.product((0, 1), repeat=na):
        for flip_b in itertools.product((0, 1), repeat=nb):
            d = t.d.copy()
            c = t.c.copy()
            e = t.e.copy()
            bound = t.bound
            for x in range(na):
                if flip_a[x]:
                    e = e + d[x, :]
                    d[x, :] = -d[x, :]
                    bound -= int(c[x])
                    c[x] = -c[x]
            for y in range(nb):
                if flip_b[y]:
                    c = c + d[:, y]
                    d[:, y] = -d[:, y]
                    bound -= int(e[y])
                    e[y] = -e[y]
            if best is not None and bound > best[0]:
                continue
            for swap in swaps:
                if swap:
                    dl, cl, el = d.T.tolist(), e.tolist(), c.tolist()
                else:
                    dl, cl, el = d.tolist(), c.tolist(), e.tolist()
                for perm_a in itertools.permutations(range(len(cl))):
                    cp = tuple(cl[p] for p in perm_a)
                    if best is not None and (bound, cp) > best[:2]:
                        continue
                    rows = [dl[p] for p in perm_a]
                    for perm_b in itertools.permutations(range(len(el))):
                        ep = tuple(el[q] for q in perm_b)
                        dp = tuple(tuple(row[q] for q in perm_b) for row in rows)
                        key = (bound, cp, ep, dp)
                        if best is None or key < best:
                            best = key
    bound, cp, ep, dp = best
    return CgTable(t.scenario, [list(row) for row in dp], list(cp), list(ep), bound, None)


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


# row orders compared per numpy batch in _least_d (at most 8! = 40,320)
_ORDER_CHUNK = 4096


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


def canonical_form_orders(table: CgTable) -> CgTable:
    """The canonical form by the earlier search: the same candidates as
    cgbell's (flips at the maximal vertices, the swap, the least sorted c
    and e), then every distinct order of Alice's rows within runs of equal
    c, each with its least column order.  Up to 8! orders per candidate."""
    g = 0
    for v in (*table.d.ravel().tolist(), *table.c.tolist(), *table.e.tolist(), table.bound):
        g = math.gcd(g, abs(int(v)))
    t = table
    if g > 1:
        t = CgTable(table.scenario, table.d // g, table.c // g, table.e // g, table.bound // g)
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


def correlation_form_search(table: CgTable):
    """(g, constant, relabeling) of the first outcome-flip and party-swap
    relabeling whose table satisfies the correlator condition, else None."""
    from cgbell import Relabeling, apply_relabeling

    na, nb = table.scenario.na, table.scenario.nb
    swaps = (False, True) if na == nb else (False,)
    for swap in swaps:
        for flip_a in itertools.product((0, 1), repeat=na):
            for flip_b in itertools.product((0, 1), repeat=nb):
                r = Relabeling(
                    tuple(range(na)), tuple(range(nb)), flip_a, flip_b, swap
                )
                cand = apply_relabeling(table, r)
                row_ok = all(
                    2 * int(cand.c[x]) == -int(cand.d[x, :].sum())
                    for x in range(cand.scenario.na)
                )
                if not row_ok:
                    continue
                col_ok = all(
                    2 * int(cand.e[y]) == -int(cand.d[:, y].sum())
                    for y in range(cand.scenario.nb)
                )
                if not col_ok:
                    continue
                g = tuple(
                    tuple(Fraction(int(v), 4) for v in row) for row in cand.d.tolist()
                )
                return g, Fraction(int(cand.d.sum()), 4), r
    return None
