"""Two-qubit quantum values and their see-saw maximization.

The state family is |psi(theta)> = cos(theta)|00> + sin(theta)|11>, and
theta is reported in [0, pi/4]: theta -> -theta is undone by negating
Alice's x and y components, and theta -> pi/2 - theta by negating every z
component.  The see-saw runs on the whole circle; _gauge maps its result.
Each binary measurement is the projector (1 + v.sigma)/2 for a unit Bloch
vector v, which gives <A_x> = cos(2t) az, <B_y> = cos(2t) bz and
<A_x B_y> = az bz + sin(2t)(ax bx - ay by).  In the table's correlator
expansion (w, ua, ub, k0) of model._correlators the functional is then

    k0 + cos(2t) (ua . az + ub . bz)
       + sum_xy w[x, y] (az[x] bz[y] + sin(2t) (ax[x] bx[y] - ay[x] by[y]))

The Bell functional is linear in each measurement vector separately and a
shifted cosine in theta, so see-saw sweeps (all of Alice, all of Bob, then
theta; Werner and Wolf, QIC 1 (2001)) are exact block maximizations and the
value never decreases.
One batched sweep steps all restarts in lockstep, and its cost is set by
the number of numpy calls, not by flops.  Each party's vectors form one
(n + 1, 3, R) array, restarts last and contiguous, whose last row is
(0, 0, cos 2t) for each restart.  With M = [[w, ua], [ub^T, 0]] and
D = diag(sin 2t, -sin 2t, 1) the functional is k0 + sum_xy a[x] . D M[x, y]
b[y] over those rows, so the block gradients of Alice's vectors, marginals
included, are D (M @ b) without its last row, one 2-D matrix product and
one multiply, and Bob's are D (M^T @ a) likewise.  Theta is carried as
(cos 2t, sin 2t), and its step is the point of the circle where
k1 cos 2t + k2 sin 2t is largest, (k1, k2)/hypot(k1, k2) (_theta_step),
so no sweep calls a trigonometric function; theta = atan2(sin 2t,
cos 2t)/2 is formed once, for the restart that is polished.

quantum_bound works in two phases.  The sweeps, at most SWEEP_CAP of them,
bring every restart near a local maximum; they stop once each restart has
had a sweep that gained less than TOL.  Sweeps alone crawl near some
maxima (I3422_1 took 1305 of them and still ended 7e-9 below sqrt(5)), so
the best restart alone is then polished by damped Newton steps on the
sphere in (theta, a, b) with the analytic gradient and Hessian (Absil,
Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 4-7), which stop at a certified local maximum: the gradient norm below
TOL * scale and the Hessian negative semidefinite up to 1e-9 * scale, which
leaves room for the gauge's zero modes.

At theta = pi/4 the one-party terms vanish and the functional is a pure
correlator, k0 + sum_xy w[x, y] a[x] . (R b[y]) with R = diag(1, -1, 1);
quantum_bound(fix_theta=QUARTER_PI) keeps only that part.  Without
one-party terms the value of any vectors, k0 + zz + sin(2t) k2, peaks at
sin 2t = +-1, which _gauge maps to pi/4, so theta moves only where ua or ub
is nonzero: else it starts and stays at pi/4, and the sweeps move the
vectors alone.  The maximum over unit vectors of any dimension is a
semidefinite program over the elliptope (Tsirelson, Lett. Math. Phys. 4,
93 (1980)), and every dual point bounds it: when Diag(mu) - [[0, w/2],
[w^T/2, 0]] is positive definite, no pi/4 strategy of any dimension
exceeds k0 + sum(mu).  _pi4_certified_value, the one certificate of q_me,
tries a spectral bound in closed form and a strategy's gradient point; only
when both fail does analyze_table run a pi/4 see-saw.  _margin, MARGIN plus
_ROUNDING * scale, is the one margin by which every stage tells a value
above L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import CgTable, _correlators

_UNIT_TOL = 1e-12
QUARTER_PI = math.pi / 4
RESTARTS = 50  # see-saw starting points per run
SWEEP_CAP = 30  # see-saw sweeps before the Newton polish
TOL = 1e-10  # a sweep's least gain, and the polish's gradient norm per unit scale
MARGIN = 1e-9  # how far Q must pass L beyond the reach of rounding
POLISH_STEPS = 20  # Newton steps of the polish
_HALVINGS = 0.5 ** np.arange(12)  # the polish's backtracking step lengths
_ROUNDING = 16 * np.finfo(float).eps  # the reach of rounding in one value, per unit scale


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Schmidt angle plus Bloch measurement directions for both parties."""

    theta: float
    a_vecs: np.ndarray  # (na, 3), unit rows
    b_vecs: np.ndarray  # (nb, 3), unit rows

    def __post_init__(self):
        theta = float(self.theta)
        if not -_UNIT_TOL <= theta <= QUARTER_PI + _UNIT_TOL:
            raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
        theta = min(max(theta, 0.0), QUARTER_PI)
        # copies, so that freezing them leaves the caller's arrays writeable
        a = np.atleast_2d(np.array(self.a_vecs, dtype=float))
        b = np.atleast_2d(np.array(self.b_vecs, dtype=float))
        for arr, what in ((a, "a_vecs"), (b, "b_vecs")):
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{what} must have shape (n, 3)")
            norms = np.linalg.norm(arr, axis=1)
            if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):  # False for NaN too
                raise ValueError(f"{what} rows must be unit vectors")
            arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a_vecs", a)
        object.__setattr__(self, "b_vecs", b)


@dataclass(frozen=True)
class QuantumBoundResult:
    """Best see-saw value found; a lower bound on the true quantum maximum."""

    value: float
    strategy: QuantumStrategy
    converged: bool  # the strategy is a certified local maximum


# --- vectorized multi-restart kernel -----------------------------------------


def _scale(table: CgTable) -> float:
    """1 + sum|d|/4 + sum|c|/2 + sum|e|/2, the size of the functional's values."""
    return 1 + np.abs(table.d).sum() / 4 + np.abs(table.c).sum() / 2 + np.abs(table.e).sum() / 2


def _margin(table: CgTable) -> float:
    """MARGIN + _ROUNDING * scale: how far a value must pass L to violate, or
    fall below N to be inconsistent.  Only the reach of rounding grows with scale."""
    return MARGIN + _ROUNDING * _scale(table)


def _augmented(w, ua, ub):
    """M = [[w, ua], [ub^T, 0]], the functional's matrix on the rows (a, c) and
    (b, c) of a batch (module docstring)."""
    na, nb = w.shape
    m = np.zeros((na + 1, nb + 1))
    m[:na, :nb], m[:na, nb], m[na, :nb] = w, ua, ub
    return m


def _rows(vecs, c):
    """A party's (n, 3, ...) vectors with the row (0, 0, c) after them, c =
    cos 2t a float or one per restart: the (n + 1, 3, ...) rows of a batch."""
    rows = np.zeros((len(vecs) + 1,) + vecs.shape[1:])
    rows[:-1], rows[-1, 2] = vecs, c
    return rows


def _diagonal(s):
    """The rows (s, -s, 1) of D = diag(s, -s, 1), s = sin 2t, (R,) or a float."""
    return np.stack((s, -s, np.ones_like(s)))


def _product(m, rows):
    """m @ rows for (n, 3, R) rows, as one 2-D matrix product."""
    return (m @ rows.reshape(len(rows), -1)).reshape(len(m), 3, -1)


def _ascend(vecs, r):
    """Each of the (n, 3, R) vecs set in place to its block maximizer r/|r|;
    a vector with zero gradient keeps its old direction."""
    norms = np.sqrt((r * r).sum(axis=1, keepdims=True))
    if np.count_nonzero(norms) == norms.size:
        return np.divide(r, norms, out=vecs)
    return np.divide(r, norms, out=vecs, where=norms > 0)


def _batch_values(m, k0, a, b, d):
    """The functional at every restart of the rows a (na + 1, 3, R) and
    b (nb + 1, 3, R), d the rows of D: k0 + sum_x a[x] . (D (M @ b)[x])."""
    return k0 + np.einsum("xi...,xi...->...", a, _product(m, b) * d)


def _theta_step(k1, k2):
    """(c, s, top): the point (cos 2t, sin 2t) of the circle where
    k1 cos 2t + k2 sin 2t is largest, (k1, k2)/top, and that largest value,
    top = hypot(k1, k2), for (R,) arrays; (1, 0), t = 0, where k1 = k2 = 0."""
    top = np.hypot(k1, k2)
    if np.count_nonzero(top) == len(top):
        return k1 / top, k2 / top, top
    moves = top > 0.0
    c = np.divide(k1, top, out=np.ones_like(k1), where=moves)
    return c, np.divide(k2, top, out=np.zeros_like(k2), where=moves), top


def _theta_of(c, s) -> float:
    """The t in [-pi/2, pi/2] of the point (cos 2t, sin 2t) = (c, s)."""
    return math.atan2(s, c) / 2


def _gauge(theta, a, b):
    """(theta, a, b) with the same value and theta taken mod pi, then moved
    into [0, pi/4] (never -0.0) by the module docstring's two maps."""
    theta = math.remainder(theta, math.pi)
    if theta < 0.0:
        a = a * (-1.0, -1.0, 1.0)
    theta = abs(theta)
    if theta > QUARTER_PI:
        theta, a, b = math.pi / 2 - theta, a * (1.0, 1.0, -1.0), b * (1.0, 1.0, -1.0)
    return theta, a, b


def _batch_sweep(m, k0, a, b, d, update_theta):
    """One see-saw sweep of every restart, in place: all of Alice, all of Bob,
    then theta when update_theta.  a (na + 1, 3, R) and b (nb + 1, 3, R) are
    the batch's rows and d the rows of D (module docstring).  Returns the
    values the sweep reaches."""
    _ascend(a[:-1], _product(m[:-1], b) * d)
    q = _product(m.T, a)  # Bob's block products, then ua . a in its last row
    _ascend(b[:-1], q[:-1] * d)
    # sum_xy w a_i b_i for i = x, y, and zz + cos(2t) k1 with zz = sum_xy w a_z b_z
    t = (q * b).sum(axis=0)
    k2 = t[0] - t[1]
    if not update_theta:
        return k0 + t[2] + d[0] * k2
    k1 = q[-1, 2] + m[-1, :-1] @ b[:-1, 2]  # ua . a_z + ub . b_z
    zz = t[2] - b[-1, 2] * k1
    c, s, top = _theta_step(k1, k2)
    a[-1, 2] = b[-1, 2] = c
    d[0], d[1] = s, -s
    return k0 + zz + top


def _newton_model(m, a, b, theta):
    """Gradient g and Hessian H of the functional at one restart, a (na, 3)
    and b (nb, 3), in the coordinates that the polish steps in.

    Each vector v moves by a step delta in its tangent plane through the
    retraction v -> (v + delta)/|v + delta|, and theta is the last
    coordinate.  With r the block gradient and P = I - v v^T, the gradient
    is P r, and the Hessian has the blocks w[x, y] P_a D P_b, D = diag(s,
    -s, 1) and s = sin 2 theta, between Alice's x and Bob's y, and -(r . v) P
    on each vector, the retraction's curvature.  Each vector's normal
    direction is an exact zero of g and H.  Without one-party terms, at
    theta = pi/4, theta's entries are multiples of cos 2 theta = 6e-17 but
    H_tt = -4 k2 <= 0 (k2 >= 0 at a block maximum): theta decouples.
    """
    na, nv = len(a), len(a) + len(b)
    na3, n = 3 * na, 3 * nv
    ct, st = math.cos(2 * theta), math.sin(2 * theta)
    v, u = np.concatenate((a, b)), np.concatenate((m[:-1, -1], m[-1, :-1]))  # u = (ua, ub)
    # both parties' block products M @ rows, whose z holds u cos 2t
    p = np.concatenate((m[:-1] @ _rows(b, ct), m.T[:-1] @ _rows(a, ct)))
    diagonal = _diagonal(st)
    r = p * diagonal
    radial = np.einsum("ij,ij->i", r, v)
    proj = np.eye(3) - v[:, :, None] * v[:, None, :]
    g, h = np.empty(n + 1), np.zeros((n + 1,) * 2)
    # the blocks w[x, y] P_a D P_b from one matrix product
    cross = (proj[:na] * diagonal).reshape(na3, 3) @ proj[na:].transpose(1, 0, 2).reshape(3, -1)
    h[:na3, na3:n] = (cross.reshape(na, 3, -1, 3) * m[:-1, None, :-1, None]).reshape(na3, -1)
    h[na3:n, :na3] = h[:na3, na3:n].T
    np.einsum("iaib->iab", h[:n, :n].reshape(nv, 3, nv, 3))[...] = -radial[:, None, None] * proj
    g[:n] = (r - radial[:, None] * v).ravel()
    r_theta = p * (2 * ct, -2 * ct, 0.0)  # d r/d theta
    r_theta[:, 2] = -2 * st * u
    # the functional is k0 + zz + k1 cos 2t + k2 sin 2t (_batch_sweep)
    t = np.einsum("yi,yi->i", p[na:], b)
    k1, k2 = u @ v[:, 2], t[0] - t[1]
    h[n, :n] = h[:n, n] = (r_theta - np.einsum("ij,ij->i", r_theta, v)[:, None] * v).ravel()
    h[n, n], g[n] = -4 * (ct * k1 + st * k2), 2 * (ct * k2 - st * k1)
    return g, h


def _negative_definite(m, diag, mu):
    """Whether mu I - H has a Cholesky factor (H < mu I), mu a number or one
    per row; m = -H, whose diagonal is diag, becomes mu I - H in place."""
    m.flat[:: len(m) + 1] = mu - diag
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _pi4_certified_value(table: CgTable, strategy: QuantumStrategy, bound) -> Optional[float]:
    """A value that no strategy at theta = pi/4, of any dimension, exceeds
    by more than _margin: bound when the spectral bound S is below
    bound + MARGIN, else the strategy's pi/4 value v when S is below
    v + MARGIN or v's gradient dual point holds, else None.

    Both dual points weigh only the na' rows and nb' columns of w that are
    nonzero, since settings of zero weight add nothing to any value.  A
    point mu holds when [[Diag(mu_a), w/2], [w^T/2, Diag(mu_b)]] has a
    Cholesky factor; negating Bob's rows and columns turns it into
    Diag(mu) - [[0, w/2], [w^T/2, 0]].  Then no pi/4 value exceeds
    k0 + sum(mu): that value is k0 + <C, G> for the off-diagonal C and the
    Gram matrix G of unit vectors a[x] and R b[y], and <C, G> <=
    <Diag(mu), G> = sum(mu) as G is positive semidefinite with unit diagonal.

    - S = k0 + |w'|_2 sqrt(na' nb') (k0 when w' is empty) is the best point
      uniform per party, alpha on each row and beta on each column: the
      minimum of na' alpha + nb' beta over alpha beta > |w'|_2^2 / 4.
    - The gradient point is mu[x] = |r[x]|/2 with r[x] = sum_y w[x, y] R b[y],
      and mu[y] = |sum_x w[x, y] a[x]|/2, each raised by the same amount so
      that k0 + sum(mu) = v + _margin.  At a block maximum sum(mu) = v - k0,
      so each weight rises by about the margin over the settings' number; a
      strategy far from the pi/4 maximum, or with a value below k0, leaves
      the matrix indefinite.
    """
    w, _, _, k0 = _correlators(table)
    rows, cols = w.any(axis=1), w.any(axis=0)
    w = w[rows][:, cols]
    spectral = k0 + (np.linalg.norm(w, 2) * math.sqrt(w.size) if w.size else 0.0)
    if spectral < bound + MARGIN:
        return bound
    a, rb = strategy.a_vecs[rows], strategy.b_vecs[cols] * (1, -1, 1)
    r = w @ rb
    value = float(k0 + np.vdot(a, r))
    if spectral < value + MARGIN:
        return value
    na, nb = w.shape
    m = np.zeros((na + nb,) * 2)
    m[:na, na:], m[na:, :na] = w / 2, w.T / 2
    mu = np.concatenate((np.linalg.norm(r, axis=1), np.linalg.norm(w.T @ a, axis=1))) / 2
    mu += (value + _margin(table) - k0 - mu.sum()) / len(mu)
    return value if _negative_definite(m, 0.0, mu) else None


def _polish(m, k0, a, b, theta, value, scale):
    """Damped Newton ascent of one restart from (a, b, theta), which has
    the given value, in at most POLISH_STEPS steps.

    It stops once the gradient norm is below TOL * scale, and the restart
    is certified when H is then also below 1e-9 * scale, which leaves room
    for the exact zero mode of the Rz(phi) x Rz(-phi) gauge.  theta moves
    on the whole circle, as in the sweeps.  Each step solves
    (mu I - H) delta = g, mu raised tenfold from max(|g|, 1e-9 * scale)
    until mu I - H is positive definite (Levenberg-Marquardt), and takes the
    longest of delta, delta/2, delta/4, ... that does not lower the value by
    more than rounding.  Returns (a, b, theta, value, certified).
    """
    floor = 1e-9 * scale
    na, n = len(a), 3 * (len(a) + len(b))
    for step in range(POLISH_STEPS + 1):
        g, h = _newton_model(m, a, b, theta)
        gnorm = math.sqrt(g @ g)
        system, diag = -h, h.diagonal()
        if gnorm < TOL * scale:
            return a, b, theta, value, _negative_definite(system, diag, floor)
        if step == POLISH_STEPS:
            break
        mu = max(floor, gnorm)
        while not _negative_definite(system, diag, mu):
            mu *= 10
        delta = np.linalg.solve(system, g)  # system is now mu I - H
        # the steps delta, delta/2, ... as a batch, each vector retracted to its sphere
        moved = np.concatenate((a, b))[:, :, None] + delta[:n].reshape(-1, 3, 1) * _HALVINGS
        moved = _ascend(moved, moved)
        thetas = theta + _HALVINGS * delta[n]
        c, s = np.cos(2 * thetas), np.sin(2 * thetas)
        values = _batch_values(m, k0, _rows(moved[:na], c), _rows(moved[na:], c), _diagonal(s))
        rises = values >= value - _ROUNDING * scale
        if not rises.any():
            break
        k = int(np.argmax(rises))
        a, b, theta, value = moved[:na, :, k], moved[na:, :, k], float(thetas[k]), values[k]
    return a, b, theta, value, False


def _random_units(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform unit vectors, drawn as (R, n, 3) and returned as (n, 3, R)."""
    vecs = rng.normal(size=shape + (3,))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    return np.ascontiguousarray(vecs.transpose(1, 2, 0))


def quantum_bound(
    table: CgTable,
    fix_theta: Optional[float] = None,
    seed: int = 0,
) -> QuantumBoundResult:
    """Multi-restart see-saw maximization of the functional, polished by
    Newton steps: a lower bound on the quantum maximum, fixed by the table,
    ``fix_theta`` and the seed, since the budget (RESTARTS, SWEEP_CAP, TOL,
    POLISH_STEPS) is constant.
    ``fix_theta``, None or QUARTER_PI, picks the functional: the table's,
    or its correlator part, the value at theta = pi/4 (q_me).  Vectors start
    uniform on the sphere, and theta uniform on [0, pi/4] where it moves,
    else at pi/4 (module docstring).
    First all RESTARTS restarts are swept together, until each has had
    a sweep that improved its value by less than TOL, or SWEEP_CAP times.
    Then the best restart, the earliest on ties, takes at most POLISH_STEPS
    damped Newton steps, and the polished restart is returned, gauged.
    ``converged`` is True when it is a certified local maximum: gradient
    norm below TOL * _scale(table), Hessian below 1e-9 * _scale(table).
    """
    if fix_theta is not None and fix_theta != QUARTER_PI:
        raise ValueError("fix_theta must be None or QUARTER_PI")
    rng = np.random.default_rng(seed)
    a = _random_units(rng, (RESTARTS, table.scenario.na))
    b = _random_units(rng, (RESTARTS, table.scenario.nb))
    w, ua, ub, k0 = _correlators(table)
    if fix_theta is not None:
        ua, ub = np.zeros_like(ua), np.zeros_like(ub)
    update_theta = bool(ua.any() or ub.any())
    theta = rng.uniform(0.0, QUARTER_PI, RESTARTS) if update_theta else np.full(RESTARTS, QUARTER_PI)
    m = _augmented(w, ua, ub)
    c = np.cos(2 * theta)
    a, b, d = _rows(a, c), _rows(b, c), _diagonal(np.sin(2 * theta))
    values = _batch_values(m, k0, a, b, d)
    done = np.zeros(RESTARTS, dtype=bool)
    for _ in range(SWEEP_CAP):
        new_values = _batch_sweep(m, k0, a, b, d, update_theta)
        done |= new_values - values < TOL
        values = new_values
        if done.all():
            break

    best = int(np.argmax(values))  # the earliest on ties
    theta = _theta_of(a[-1, 2, best], d[0, best])
    a, b, theta, value, converged = _polish(
        m, k0, a[:-1, :, best], b[:-1, :, best], theta, values[best], _scale(table)
    )
    return QuantumBoundResult(float(value), QuantumStrategy(*_gauge(theta, a, b)), bool(converged))
