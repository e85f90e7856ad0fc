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
as BLAS picks its kernels by batch size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .model import Behavior, CgTable, Scenario, evaluate

if TYPE_CHECKING:
    from .symmetry import Relabeling

_UNIT_TOL = 1e-12
QUARTER_PI = math.pi / 4


def _as_unit(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {arr.shape}")
    if abs(np.linalg.norm(arr) - 1.0) > _UNIT_TOL:
        raise ValueError(f"{what} must be a unit vector, |v| = {np.linalg.norm(arr)}")
    return arr


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
    restarts_used: int
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


def born_probability(theta: float, a, b) -> float:
    """p(00) for measurement vectors a, b on |psi(theta)>."""
    a = _as_unit(a, "a")[None, None]
    b = _as_unit(b, "b")[None, None]
    return float(_born(np.array([theta]), a, b)[0][0, 0, 0])


def born_marginal_a(theta: float, a) -> float:
    """pA(0) for measurement vector a on |psi(theta)>."""
    a = _as_unit(a, "a")[None, None]
    return float(_born(np.array([theta]), a, a)[1][0, 0])


def born_marginal_b(theta: float, b) -> float:
    """pB(0); the reduced states of both qubits coincide."""
    return born_marginal_a(theta, _as_unit(b, "b"))


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


def relabel_strategy(s: QuantumStrategy, r: "Relabeling") -> QuantumStrategy:
    """Transport a strategy through a table relabeling.

    An outcome flip negates the party's Bloch vector at that setting, input
    permutations reorder the vectors, and the party swap exchanges the two
    lists (the state is symmetric under it).  quantum_value of the
    transported strategy on the relabeled table equals the original value
    plus the bound shift of the relabeling.
    """
    a = s.a_vecs * np.where(np.asarray(r.flip_a, dtype=bool), -1.0, 1.0)[:, None]
    b = s.b_vecs * np.where(np.asarray(r.flip_b, dtype=bool), -1.0, 1.0)[:, None]
    a = a[list(r.perm_a)]
    b = b[list(r.perm_b)]
    if r.swap_parties:
        a, b = b, a
    return QuantumStrategy(s.theta, a, b)


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
        cand_vals = np.stack([
            k1,  # phi = 0
            k2,  # phi = pi/2
            np.where(interior, k1 * np.cos(phi) + k2 * np.sin(phi), -np.inf),
        ])
        cand_theta = np.stack([
            np.zeros_like(theta),
            np.full_like(theta, QUARTER_PI),
            np.where(interior, phi / 2, 0.0),
        ])
        pick = np.argmax(cand_vals, axis=0)  # first max wins: 0, then pi/4
        theta = cand_theta[pick, np.arange(theta.size)]
    return a, b, theta


def _batch_values(d, c, e, a, b, theta):
    joint, pa, pb = _born(theta, a, b)
    return np.einsum("rxy,xy->r", joint, d) + pa @ c + pb @ e


def _random_units(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    vecs = rng.normal(size=shape + (3,))
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    while np.any(norms < 1e-12):  # essentially unreachable
        vecs = rng.normal(size=shape + (3,))
        norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    return vecs / norms


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
    active = np.ones(restarts, dtype=bool)
    out_a, out_b = a.copy(), b.copy()
    out_theta, out_values = theta.copy(), values.copy()
    out_converged = np.zeros(restarts, dtype=bool)

    for _ in range(max_sweeps):
        a, b, theta = _batch_sweep(d, c, e, drow, dcol, a, b, theta, update_theta)
        new_values = _batch_values(d, c, e, a, b, theta)
        done = active & (new_values - values < tol)
        if np.any(done):
            out_a[done], out_b[done] = a[done], b[done]
            out_theta[done], out_values[done] = theta[done], new_values[done]
            out_converged[done] = True
            active &= ~done
        values = new_values
        if not np.any(active):
            break
    if np.any(active):  # hit the sweep cap
        out_a[active], out_b[active] = a[active], b[active]
        out_theta[active], out_values[active] = theta[active], values[active]

    best = int(np.argmax(out_values))  # argmax takes the earliest on ties
    strategy = QuantumStrategy(float(out_theta[best]), out_a[best], out_b[best])
    return QuantumBoundResult(
        float(out_values[best]), strategy, restarts, bool(out_converged[best])
    )
