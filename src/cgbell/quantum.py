"""Two-qubit quantum values and their see-saw maximization.

The state family is |psi(theta)> = cos(theta)|00> + sin(theta)|11> with
theta in [0, pi/4]; states with theta beyond pi/4 are locally equivalent to
one in the range, with the bit flip absorbed into the measurement vectors.
Each binary measurement is the projector (1 + v.sigma)/2 for a unit Bloch
vector v, which gives the closed form

    p(00|xy) = [1 + cos(2t)(az + bz) + az*bz + sin(2t)(ax*bx - ay*by)] / 4
    pA(0|x)  = [1 + cos(2t) az] / 2        (and symmetrically for Bob)

The Bell functional is linear in each measurement vector separately and a
shifted cosine in theta, so see-saw sweeps (all of Alice, all of Bob, then
theta) are exact block maximizations and the value never decreases.
One batched sweep steps all restarts in lockstep: quantum_bound runs it
on every restart at once and seesaw_step on a batch of one, so each
restart follows the same kernel either way (not always to the last bit,
as BLAS picks its kernels by batch size).  For the same reason a restart
that has converged stays in the batch and is swept on, but keeps its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Behavior, CgTable, Scenario, evaluate

_UNIT_TOL = 1e-12
QUARTER_PI = math.pi / 4


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
        a = np.atleast_2d(np.asarray(self.a_vecs, dtype=float))
        b = np.atleast_2d(np.asarray(self.b_vecs, dtype=float))
        for arr, what in ((a, "a_vecs"), (b, "b_vecs")):
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{what} must have shape (n, 3)")
            norms = np.linalg.norm(arr, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
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
    converged: bool


def _born(theta: np.ndarray, a: np.ndarray, b: np.ndarray):
    """p(00|xy), pA(0|x) and pB(0|y) for every restart at once.

    theta is (R,), a is (R, na, 3), b is (R, nb, 3); the results are
    (R, na, nb), (R, na) and (R, nb).
    """
    ct = np.cos(2 * theta)[:, None]
    st = np.sin(2 * theta)[:, None, None]
    az, bz = a[:, :, 2], b[:, :, 2]
    joint = (
        1.0
        + ct[:, :, None] * (az[:, :, None] + bz[:, None, :])
        + az[:, :, None] * bz[:, None, :]
        + st * (a[:, :, 0, None] * b[:, None, :, 0] - a[:, :, 1, None] * b[:, None, :, 1])
    ) / 4
    return joint, (1 + ct * az) / 2, (1 + ct * bz) / 2


def strategy_behavior(scenario: Scenario, s: QuantumStrategy) -> Behavior:
    """The CG behavior produced by a strategy."""
    if s.a_vecs.shape[0] != scenario.na or s.b_vecs.shape[0] != scenario.nb:
        raise ValueError(
            f"strategy has {s.a_vecs.shape[0]}x{s.b_vecs.shape[0]} settings, "
            f"scenario is {scenario}"
        )
    joint, pa, pb = _born(np.array([s.theta]), s.a_vecs[None], s.b_vecs[None])
    return Behavior(scenario, joint[0], pa[0], pb[0])


def quantum_value(table: CgTable, s: QuantumStrategy) -> float:
    """Value of the Bell functional on the behavior of a strategy."""
    return evaluate(table, strategy_behavior(table.scenario, s))


def seesaw_step(
    table: CgTable, s: QuantumStrategy, update_theta: bool = True
) -> QuantumStrategy:
    """One full sweep: all Alice vectors, all Bob vectors, then theta.

    Each stage is an exact maximization of its block, so the value of the
    returned strategy never falls below the input's.  This is quantum_bound's
    batched sweep run on a batch of one.
    """
    a, b, theta = _batch_sweep(
        *_functional(table), s.a_vecs[None], s.b_vecs[None], np.array([s.theta]), update_theta
    )
    return QuantumStrategy(theta[0], a[0], b[0])


# --- vectorized multi-restart kernel -----------------------------------------


def _functional(table: CgTable):
    """(d, c, e, row sums of d, column sums of d) as floats."""
    d = table.d.astype(float)
    return d, table.c.astype(float), table.e.astype(float), d.sum(axis=1), d.sum(axis=0)


def _block_coefficients(d, dsum, m, other, ct, st):
    """Gradient of the functional in each of one party's vectors, every restart.

    For Alice d is the table's d, dsum its row sums, m = c and other Bob's
    (R, nb, 3) vectors; for Bob the same with d.T, the column sums, e and
    Alice's vectors.  ct and st are cos(2 theta) and sin(2 theta), (R, 1).
    The objective is r[x] . v[x] + const for fixed theta and the other
    party, so the exact block maximizer is r[x]/|r[x]|.
    """
    r = np.empty((other.shape[0], d.shape[0], 3))
    r[:, :, 0] = st * (other[:, :, 0] @ d.T) / 4
    r[:, :, 1] = -st * (other[:, :, 1] @ d.T) / 4
    r[:, :, 2] = (ct * (dsum + 2 * m) + other[:, :, 2] @ d.T) / 4
    return r


def _ascend(vecs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The block maximizer r/|r|, row by row."""
    norms = np.linalg.norm(r, axis=2)
    # a vector with zero gradient keeps its old direction
    return np.divide(r, norms[:, :, None], out=vecs.copy(), where=(norms > 0)[:, :, None])


def _batch_sweep(d, c, e, drow, dcol, a, b, theta, update_theta):
    """One see-saw sweep (all of Alice, all of Bob, then theta) applied to
    every restart at once.

    a is (R, na, 3), b is (R, nb, 3), theta is (R,).
    """
    ct = np.cos(2 * theta)[:, None]
    st = np.sin(2 * theta)[:, None]
    a = _ascend(a, _block_coefficients(d, drow, c, b, ct, st))
    b = _ascend(b, _block_coefficients(d.T, dcol, e, a, ct, st))

    if update_theta:
        # objective = K0 + k1 cos(2t) + k2 sin(2t), maximized over [0, pi/4]
        az, bz = a[:, :, 2], b[:, :, 2]
        k1 = (az @ drow + bz @ dcol) / 4 + az @ c / 2 + bz @ e / 2
        k2 = (np.sum((a[:, :, 0] @ d) * b[:, :, 0], axis=1)
              - np.sum((a[:, :, 1] @ d) * b[:, :, 1], axis=1)) / 4
        phi = np.arctan2(k2, k1)
        interior = (phi > 0.0) & (phi < math.pi / 2)
        peak = np.where(interior, k1 * np.cos(phi) + k2 * np.sin(phi), -np.inf)
        # ties go to theta = 0, then pi/4, then the interior peak
        theta = np.where(peak > np.maximum(k1, k2), phi / 2, np.where(k2 > k1, QUARTER_PI, 0.0))
    return a, b, theta


def _batch_values(d, c, e, a, b, theta):
    joint, pa, pb = _born(theta, a, b)
    return np.einsum("rxy,xy->r", joint, d) + pa @ c + pb @ e


def _random_units(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    vecs = rng.normal(size=shape + (3,))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def quantum_bound(
    table: CgTable,
    fix_theta: Optional[float] = None,
    restarts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
    max_sweeps: int = 2000,
) -> QuantumBoundResult:
    """Multi-restart see-saw maximization of the functional.

    Vectors start uniform on the sphere and theta uniform on [0, pi/4]
    unless ``fix_theta`` pins it (pi/4 for maximally entangled analyses).
    A restart stops when a sweep improves its value by less than ``tol``
    or after ``max_sweeps``.  Deterministic for a fixed seed; the best
    value across restarts is returned, ties resolved to the earliest
    restart.  The result is a lower bound on the true quantum maximum.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    if fix_theta is not None and not 0.0 <= fix_theta <= QUARTER_PI + _UNIT_TOL:
        raise ValueError("fix_theta must lie in [0, pi/4]")
    rng = np.random.default_rng(seed)
    na, nb = table.scenario.na, table.scenario.nb
    update_theta = fix_theta is None

    a = _random_units(rng, (restarts, na))
    b = _random_units(rng, (restarts, nb))
    if fix_theta is None:
        theta = rng.uniform(0.0, QUARTER_PI, size=restarts)
    else:
        theta = np.full(restarts, float(fix_theta))

    d, c, e, drow, dcol = _functional(table)
    values = _batch_values(d, c, e, a, b, theta)
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(max_sweeps):
        # converged restarts are swept too, so BLAS keeps the kernels it picked for this batch size
        new_a, new_b, new_theta = _batch_sweep(d, c, e, drow, dcol, a, b, theta, update_theta)
        new_values = _batch_values(d, c, e, new_a, new_b, new_theta)
        live = ~converged
        a[live], b[live], theta[live] = new_a[live], new_b[live], new_theta[live]
        converged[live] = new_values[live] - values[live] < tol
        values[live] = new_values[live]
        if converged.all():
            break

    best = int(np.argmax(values))  # argmax takes the earliest on ties
    strategy = QuantumStrategy(float(theta[best]), a[best], b[best])
    return QuantumBoundResult(float(values[best]), strategy, bool(converged[best]))
