"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: probabilities
come from explicit 4x4 density-matrix algebra, bounds from brute-force
enumeration over behaviors, thresholds from bisection, ranks from floating
point SVD.  Facet checks and no-click values are the earlier per-vertex and
per-assignment Fraction formulas, kept here as references for the integer
kernels that replaced them.
"""

import itertools
from fractions import Fraction

import numpy as np

from cgbell import Behavior, CgTable, evaluate

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
