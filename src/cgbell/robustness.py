"""White-noise resistance and symmetric detection-efficiency thresholds.

The visibility threshold for mixing a state with white noise is exact once
the quantum value is known: the functional is linear in the density matrix
and the white-noise value N is measurement independent, so the violation
dies at lambda = (L - N)/(Q - N).

Detection analysis assumes the maximally entangled state, whose marginals
are 1/2 for every projective measurement.  The one-detector and
zero-detector contributions are then exact rationals independent of the
measurement choice, and the efficiency threshold decouples into a quadratic

    (Q - M + X) eta^2 + (M - 2X) eta + (X - L) = 0,   M = M_A + M_B

solved per no-click assignment: on non-detection each party substitutes a
fixed output, chosen per setting.  The no-detector value X of an assignment
is the functional at the deterministic vertex that outputs 0 exactly where
the substituted output is 0, and 2 M_A (2 M_B) is an integer that depends
only on Bob's (Alice's) outputs.  So all 2^(na+nb) quadratics come from the
integer vertex grid of the local bound and are solved at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .localpoly import _bit_rows, _vertex_values, local_bound, white_noise_value
from .model import CgTable

_VIOLATION_TOL = 1e-9


class InconsistencyError(ValueError):
    """A quantum value below the white-noise value; not producible by a valid run."""


@dataclass(frozen=True, order=True)
class NoClickAssignment:
    """Substituted output per setting: a_outputs[x] on Alice's x, b_outputs[y] on Bob's y."""

    a_outputs: tuple[int, ...]
    b_outputs: tuple[int, ...]

    def __post_init__(self):
        if not all(v in (0, 1) for v in self.a_outputs + self.b_outputs):
            raise ValueError("no-click outputs must be bits")


def noise_resistance(table: CgTable, q: float) -> float:
    """Visibility threshold lambda below which white-noise mixing kills the violation.

    ``q`` should come from quantum_bound: free theta for the optimal-state
    threshold, theta = pi/4 for the maximally entangled one.  Returns 1.0
    when there is no violation.
    """
    bound = local_bound(table)
    noise = white_noise_value(table)
    if q < float(noise) - _VIOLATION_TOL:
        raise InconsistencyError(
            f"quantum value {q} below white-noise value {float(noise)}"
        )
    if q <= bound + _VIOLATION_TOL:
        return 1.0
    return float(bound - noise) / (q - float(noise))


@dataclass(frozen=True)
class DetectionAnalysis:
    """Threshold bundle: both-fire value q, one-detector values m_a/m_b,
    no-detector value x, the optimal no-click assignment and its eta."""

    q: float
    m_a: Fraction
    m_b: Fraction
    x: Fraction
    strategy: NoClickAssignment
    eta: float


def _threshold_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per cell, the largest root of a*eta^2 + b*eta + c in [0, 1) with the
    polynomial positive just above it; 1.0 where there is none.

    Here c = X - L <= 0, so a negative discriminant needs a < 0, and then
    the polynomial is negative everywhere: no crossing, whatever np.roots
    would make of the complex pair.  a = 0 leaves the linear root, as in
    np.roots.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stable pair q/a and c/q, q = -(b + sign(b) sqrt(disc))/2;
        # nan where disc < 0, and fmax/fmin skip the 0/0 of a double root at 0
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        r1, r2 = q / a, c / q
        hi = np.where(a != 0.0, np.fmax(r1, r2), -c / b)
        lo = np.where(a != 0.0, np.fmin(r1, r2), np.nan)

    def crossing(r):
        probe = np.minimum(1.0, r + 1e-7)
        return (r >= 0.0) & (r < 1.0) & (a * probe * probe + b * probe + c > 0.0)

    # + 0.0 turns a root of -0.0 into the 0.0 that np.roots returns
    return np.where(crossing(hi), hi, np.where(crossing(lo), lo, 1.0)) + 0.0


def detection_threshold(table: CgTable, q_me: float) -> DetectionAnalysis:
    """Minimal symmetric detector efficiency preserving a violation.

    ``q_me`` must be the quantum value for the maximally entangled state
    (quantum_bound with fix_theta = pi/4); only then are M_A, M_B, X
    measurement independent and the decoupled quadratic exact.  All
    2^(na+nb) per-setting no-click assignments are solved and the smallest
    threshold returned.  Ties go to the lexicographically smallest
    assignment.  Returns eta = 1 when the state does not violate at full
    efficiency.
    """
    values = _vertex_values(table)
    bound = int(values.max())
    # assignment (a, b) substitutes a where alpha = 1 - a: reversing both
    # axes of the vertex grid puts the cells in assignment order
    x_grid = values[::-1, ::-1]
    a_bits = _bit_rows(table.scenario.na)
    b_bits = _bit_rows(table.scenario.nb)
    m_a2 = (int(table.c.sum()) + b_bits @ (table.d.sum(axis=0) + 2 * table.e))[::-1]
    m_b2 = (int(table.e.sum()) + a_bits @ (table.d.sum(axis=1) + 2 * table.c))[::-1]

    if q_me <= bound + _VIOLATION_TOL:
        i = j = 0
        eta = 1.0
    else:
        m2 = m_b2[:, None] + m_a2[None, :]  # 2 M, exact int64
        x = x_grid.astype(np.float64)
        etas = _threshold_roots(
            q_me - m2 / 2.0 + x, (m2 - 4 * x_grid) / 2.0, x - float(bound)
        )
        i, j = np.unravel_index(int(np.argmin(etas)), etas.shape)
        eta = float(etas[i, j])
    return DetectionAnalysis(
        q_me,
        Fraction(int(m_a2[j]), 2),
        Fraction(int(m_b2[i]), 2),
        Fraction(int(x_grid[i, j])),
        NoClickAssignment(tuple(a_bits[i].tolist()), tuple(b_bits[j].tolist())),
        eta,
    )
