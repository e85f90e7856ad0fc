"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: probabilities
and Bell operators come from explicit 4x4 matrix algebra, bounds from brute-force
enumeration over behaviors, thresholds from bisection, ranks from floating
point SVD.  Facet checks, no-click values and the white-noise value are the
earlier per-vertex, per-assignment and per-table Fraction formulas, kept
here as references for the integer and float64 kernels that replaced them,
and canonical forms and correlator forms come from the earlier scans over
the relabeling orbit and the earlier enumeration of row orders.  The
see-saw sweep, its block gradients and the functional's value at a
strategy are scalar loops over the correlator expansion, one restart at a
time, with theta stepped by arctan2 as the earlier batched kernel did.

The package's pipeline never builds a behavior or a group element, so the
types for them live here: Behavior, with evaluate for the functional's
value on one, strategy_behavior and quantum_value for the closed form of a
two-qubit strategy, and Relabeling, with apply_relabeling and
random_relabeling, to move tables along their orbits.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cgbell import CgTable, Scenario
from cgbell.localpoly import _bit_rows, _vertex_values

_SLACK = 1e-9  # the rounding a valid behavior's probabilities may carry


@dataclass(frozen=True, eq=False)
class Behavior:
    """A no-signalling behavior in CG coordinates.

    ``joint[x][y] = p(00|xy)``, ``marg_a[x] = pA(0|x)``, ``marg_b[y] = pB(0|y)``.
    Construction checks that all four outcome probabilities of every
    setting pair are nonnegative, up to a 1e-9 slack, so the references
    that build behaviors build valid ones.
    """

    scenario: Scenario
    joint: np.ndarray
    marg_a: np.ndarray
    marg_b: np.ndarray

    def __post_init__(self):
        na, nb = self.scenario.na, self.scenario.nb
        joint = np.array(self.joint, dtype=float)
        ma = np.array(self.marg_a, dtype=float)
        mb = np.array(self.marg_b, dtype=float)
        if joint.shape != (na, nb) or ma.shape != (na,) or mb.shape != (nb,):
            raise ValueError("behavior arrays do not match the scenario shape")
        upper = np.minimum(ma[:, None], mb[None, :])
        if np.any(joint < -_SLACK) or np.any(joint > upper + _SLACK):
            raise ValueError("p(00|xy) outside [0, min(pA, pB)]")
        if np.any(ma[:, None] + mb[None, :] - joint > 1 + _SLACK):
            raise ValueError("p(11|xy) would be negative")
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
    def deterministic(scenario: Scenario, alpha, beta) -> "Behavior":
        """Local deterministic point: output 0 on setting x iff alpha[x] = 1."""
        a = np.asarray(alpha, dtype=float)
        b = np.asarray(beta, dtype=float)
        return Behavior(scenario, np.outer(a, b), a, b)


def evaluate(table: CgTable, behavior: Behavior) -> float:
    """Value of the Bell functional on a behavior."""
    if table.scenario != behavior.scenario:
        raise ValueError(f"table is {table.scenario}, behavior is {behavior.scenario}")
    return float(
        np.sum(table.d * behavior.joint)
        + table.c @ behavior.marg_a
        + table.e @ behavior.marg_b
    )


def strategy_behavior(scenario: Scenario, s) -> Behavior:
    """The CG behavior of a two-qubit strategy (theta, a_vecs, b_vecs), by
    the closed form in the cgbell.quantum docstring."""
    ct, st = math.cos(2 * s.theta), math.sin(2 * s.theta)
    a, b = s.a_vecs, s.b_vecs
    az, bz = a[:, 2], b[:, 2]
    joint = 1.0 + ct * (az[:, None] + bz[None, :]) + np.outer(az, bz)
    joint += st * (np.outer(a[:, 0], b[:, 0]) - np.outer(a[:, 1], b[:, 1]))
    return Behavior(scenario, joint / 4, (1 + ct * az) / 2, (1 + ct * bz) / 2)


def quantum_value(table: CgTable, s) -> float:
    """Value of the Bell functional on the behavior of a strategy."""
    return evaluate(table, strategy_behavior(table.scenario, s))


def _correlator_lists(table: CgTable):
    """(w, ua, ub, k0) of the table's functional in +-1 correlators, in Python
    floats: w = d/4, ua = row sums of d/4 + c/2, ub = column sums of d/4 + e/2
    and k0 = sum(d)/4 + (sum(c) + sum(e))/2."""
    d = [[int(v) for v in row] for row in table.d]
    w = [[v / 4 for v in row] for row in d]
    ua = [sum(row) / 4 + int(c) / 2 for row, c in zip(d, table.c)]
    ub = [sum(col) / 4 + int(e) / 2 for col, e in zip(zip(*d), table.e)]
    k0 = sum(map(sum, d)) / 4 + (sum(map(int, table.c)) + sum(map(int, table.e))) / 2
    return w, ua, ub, k0


def correlator_value(table: CgTable, s) -> float:
    """The functional at a two-qubit strategy (theta, a_vecs, b_vecs), term by
    term: k0 + cos 2t (ua . a_z + ub . b_z) + sum_xy w[x][y] (a_z b_z +
    sin 2t (a_x b_x - a_y b_y)), the expansion in the cgbell.quantum docstring."""
    w, ua, ub, k0 = _correlator_lists(table)
    ct, st = math.cos(2 * s.theta), math.sin(2 * s.theta)
    a, b = s.a_vecs.tolist(), s.b_vecs.tolist()
    value = k0 + ct * (sum(u * v[2] for u, v in zip(ua, a)) + sum(u * v[2] for u, v in zip(ub, b)))
    for x, ax in enumerate(a):
        for y, by in enumerate(b):
            value += w[x][y] * (ax[2] * by[2] + st * (ax[0] * by[0] - ax[1] * by[1]))
    return value


def block_gradient(table: CgTable, theta: float, a_vecs, b_vecs, party: str) -> np.ndarray:
    """The see-saw's gradient in each of one party's vectors: for Alice's x,
    sum_y w[x][y] D b[y] + ua[x] cos 2t z, D = diag(sin 2t, -sin 2t, 1); for
    Bob's y the same over Alice's vectors, with ub[y]."""
    w, ua, ub, _ = _correlator_lists(table)
    ct, st = math.cos(2 * theta), math.sin(2 * theta)
    if party == "a":
        others, u = np.asarray(b_vecs).tolist(), ua
    else:
        others, u, w = np.asarray(a_vecs).tolist(), ub, [list(col) for col in zip(*w)]
    rows = []
    for weights, ux in zip(w, u):
        r = [0.0, 0.0, ux * ct]
        for wxy, v in zip(weights, others):
            r[0] += wxy * st * v[0]
            r[1] -= wxy * st * v[1]
            r[2] += wxy * v[2]
        rows.append(r)
    return np.array(rows)


def seesaw_sweep(table: CgTable, theta: float, a_vecs, b_vecs, update_theta: bool = True):
    """One see-saw sweep of one strategy in scalar math: every Alice vector to
    the direction of its block gradient, then every Bob vector, then theta to
    the maximum of k1 cos 2t + k2 sin 2t over the whole circle, with
    k1 = ua . a_z + ub . b_z and k2 = sum_xy w[x][y] (a_x b_x - a_y b_y).  A
    vector whose gradient is exactly zero keeps its direction.  theta is
    atan2(k2, k1)/2 in [-pi/2, pi/2], and 0 where k1 = k2 = 0, so it may lie
    outside [0, pi/4]; cgbell.quantum._gauge maps it there.  Returns
    (theta, a_vecs, b_vecs)."""

    def towards(vecs, gradient):
        out = []
        for v, r in zip(np.asarray(vecs).tolist(), gradient.tolist()):
            norm = math.sqrt(r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
            out.append([x / norm for x in r] if norm > 0 else v)
        return out

    a = towards(a_vecs, block_gradient(table, theta, a_vecs, b_vecs, "a"))
    b = towards(b_vecs, block_gradient(table, theta, a, b_vecs, "b"))
    if update_theta:
        w, ua, ub, _ = _correlator_lists(table)
        k1 = sum(u * v[2] for u, v in zip(ua, a)) + sum(u * v[2] for u, v in zip(ub, b))
        k2 = sum(
            w[x][y] * (a[x][0] * b[y][0] - a[x][1] * b[y][1])
            for x in range(len(a))
            for y in range(len(b))
        )
        theta = math.atan2(k2, k1) / 2 if k1 or k2 else 0.0
    return theta, np.array(a), np.array(b)


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


def pi4_correlator_bound(table: CgTable) -> float:
    """An upper bound on the functional over all strategies at theta = pi/4,
    by SVD.

    There every marginal is 1/2 and p(00|xy) = (1 + a[x] . R b[y])/4 with
    R = diag(1, -1, 1), so the value is k0 + sum_xy d[x, y]/4 a[x] . R b[y],
    k0 = sum(d)/4 + (sum(c) + sum(e))/2.  By Cauchy-Schwarz over the three
    components, the sum is at most sigma_max(d/4) sqrt(na' nb'), with na'
    and nb' the settings whose row or column of d is nonzero.
    """
    d = np.asarray(table.d, dtype=float)
    k0 = d.sum() / 4 + (np.sum(table.c) + np.sum(table.e)) / 2
    rows, cols = np.any(d != 0, axis=1).sum(), np.any(d != 0, axis=0).sum()
    if rows == 0:
        return float(k0)
    sigma = np.linalg.svd(d / 4, compute_uv=False)[0]
    return float(k0 + sigma * math.sqrt(rows * cols))


def pi4_elliptope_value(table: CgTable, starts: int = 4, sweeps: int = 20000) -> float:
    """The maximum of the functional over all strategies at theta = pi/4, of
    any dimension, by block ascent: a value that unit vectors attain.

    There the value is k0 + sum_xy d[x, y]/4 u[x] . v[y] over unit vectors
    u[x] = a[x] and v[y] = R b[y] (see pi4_correlator_bound), the elliptope
    program of Tsirelson.  The ascent sets all of u to the unit direction of
    d/4 @ v, then all of v to that of d.T/4 @ u, in R^(na+nb), a rank at
    which the Burer-Monteiro form of the program generically has no local
    maximum but the global one (Boumal, Voroninski and Bandeira, NeurIPS
    2016), from ``starts`` seeded random points, until a sweep gains less
    than 1e-15 or after ``sweeps`` sweeps.  A setting of zero weight keeps
    its vector.
    """
    d = np.asarray(table.d, dtype=float) / 4
    k0 = d.sum() + (np.sum(table.c) + np.sum(table.e)) / 2
    na, nb = d.shape

    def towards(old, r):
        norms = np.linalg.norm(r, axis=1, keepdims=True)
        return np.where(norms > 0, r / np.where(norms > 0, norms, 1.0), old)

    rng = np.random.default_rng(0)
    best = -math.inf
    for _ in range(starts):
        u, v = (rng.normal(size=(n, na + nb)) for n in (na, nb))
        u, v = towards(u, u), towards(v, v)
        value = -math.inf
        for _ in range(sweeps):
            u = towards(u, d @ v)
            v = towards(v, d.T @ u)
            reached = float(np.sum(u * (d @ v)))
            gained, value = reached - value, reached
            if gained < 1e-15:
                break
        best = max(best, value)
    return float(k0 + best)


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


def exact_rank(rows) -> int:
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


def facet_check_fraction(table: CgTable) -> tuple[bool, int, int, bool]:
    """(is_valid, saturating_count, affine_dimension, is_facet) by exact
    Fraction elimination of the differences between saturating vertices."""
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
        dim = len(saturating) - 1
    else:
        base = saturating[0]
        dim = exact_rank([[a - b for a, b in zip(v, base)] for v in saturating[1:]])
    is_facet = is_valid and dim == table.scenario.cg_dimension() - 1
    return is_valid, len(saturating), dim, is_facet


def white_noise_fraction(table: CgTable) -> Fraction:
    """Exact value on white noise (joint 1/4, marginals 1/2), in Python integers."""
    return (
        Fraction(sum(table.d.ravel().tolist()), 4)
        + Fraction(sum(table.c.tolist()), 2)
        + Fraction(sum(table.e.tolist()), 2)
    )


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


@dataclass(frozen=True)
class Relabeling:
    """One element of the local relabeling group, in the normal form of the
    cgbell.symmetry docstring: outcome flips, then input permutations, then
    the optional party swap.

    ``perm_a[x]`` is the original Alice setting placed at slot x (same for
    Bob); ``flip_a[x] = 1`` flips Alice's outcome at original setting x;
    ``swap_parties`` exchanges the parties.
    """

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    flip_a: tuple[int, ...]
    flip_b: tuple[int, ...]
    swap_parties: bool = False


def apply_relabeling(table: CgTable, r: Relabeling) -> CgTable:
    """The table representing the same functional after relabeling."""
    d, c, e, bound = (v[0] for v in _flipped(table, np.array([r.flip_a]), np.array([r.flip_b])))
    d = d[np.ix_(r.perm_a, r.perm_b)]
    c = c[list(r.perm_a)]
    e = e[list(r.perm_b)]
    scenario = table.scenario
    if r.swap_parties:
        d, c, e = d.T, e, c
        scenario = Scenario(scenario.nb, scenario.na)
    return CgTable(scenario, d, c, e, int(bound), table.name)


def random_relabeling(scenario: Scenario, rng: np.random.Generator) -> Relabeling:
    """A random group element; the swap only in square scenarios."""
    na, nb = scenario.na, scenario.nb
    swap = bool(na == nb and rng.integers(2))
    return Relabeling(
        tuple(int(v) for v in rng.permutation(na)),
        tuple(int(v) for v in rng.permutation(nb)),
        tuple(int(v) for v in rng.integers(0, 2, size=na)),
        tuple(int(v) for v in rng.integers(0, 2, size=nb)),
        swap,
    )


def relabel_behavior(behavior: Behavior, r: Relabeling) -> Behavior:
    """Transform a behavior's probabilities through a relabeling directly.

    Mirrors the application order used on tables: outcome flips, then input
    permutations, then the party swap.
    """
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
