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

Each quadratic f is solved only when Q > L + margin (quantum._margin).
Then f(0) = X - L <= 0, since X is a vertex value, and f(1) = Q - L > 0,
so f crosses zero upward in [0, 1).  A quadratic crosses upward at one
root only, the one where its slope 2a eta + b is +sqrt(disc): the
efficiency above which that assignment violates, and the only root that
needs computing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localpoly import _bit_rows, _vertex_values, local_bound, white_noise_value
from .model import CgTable
from .quantum import _margin


class InconsistencyError(ValueError):
    """A quantum value below the white-noise value; not producible by a valid run."""


@dataclass(frozen=True)
class NoClickAssignment:
    """Substituted output per setting: a_outputs[x] on Alice's x, b_outputs[y] on Bob's y."""

    a_outputs: tuple[int, ...]
    b_outputs: tuple[int, ...]

    def __post_init__(self):
        if not all(v in (0, 1) for v in self.a_outputs + self.b_outputs):
            raise ValueError("no-click outputs must be bits")


def _checked_noise(table: CgTable, q: float, margin: float) -> float:
    """The white-noise value N, after checking that q is a value that a
    quantum run can return: a non-finite q raises ValueError, and one below
    N - margin, margin = quantum._margin(table), InconsistencyError."""
    if not math.isfinite(q):
        raise ValueError(f"quantum value must be finite, got {q}")
    noise = white_noise_value(table)
    if q < noise - margin:
        raise InconsistencyError(f"quantum value {q} below white-noise value {noise}")
    return noise


def noise_resistance(table: CgTable, q: float) -> float:
    """Visibility threshold lambda below which white-noise mixing kills the violation.

    ``q`` should be a quantum value: quantum_bound's free-theta one for the
    optimal-state threshold, and q_me, the theta = pi/4 one, for the
    maximally entangled threshold.  analyze_table takes q_me from
    quantum._pi4_certified_value, which returns L when no pi/4 value
    exceeds L + margin and otherwise the certified pi/4 value of the
    free-theta vectors, and from quantum_bound with fix_theta = pi/4 when
    it certifies neither.  Returns 1.0 when there is no violation,
    q <= L + margin (quantum._margin), so q may be L itself, which
    analyze_table passes as Q on a row that does not violate.  A non-finite
    q raises ValueError, and one below N - margin InconsistencyError.
    """
    margin = _margin(table)
    noise = _checked_noise(table, q, margin)
    bound = local_bound(table)
    if q <= bound + margin:
        return 1.0
    return (bound - noise) / (q - noise)


@dataclass(frozen=True)
class DetectionAnalysis:
    """Threshold bundle: one-detector values m_a/m_b, no-detector value x,
    the optimal no-click assignment and its eta."""

    m_a: float
    m_b: float
    x: float
    strategy: NoClickAssignment
    eta: float


def _threshold_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per cell, the root in [0, 1) of f(eta) = a*eta^2 + b*eta + c.

    Contract: c <= 0 < a + b + c in every cell, that is f(0) <= 0 < f(1),
    which detection_threshold guarantees (module docstring).  The root
    returned is the one where f crosses zero upward, with slope +sqrt(disc):
    (-b + sqrt(disc))/(2a) = 2c/(-b - sqrt(disc)), and the second form also
    covers a = 0.  With q = -(b + sign(b) sqrt(disc))/2 that root is c/q
    where b >= 0 and q/a where b < 0 (by the sign bit, as copysign reads
    it), neither of which cancels, and 0 where q = 0, the double root at 0.  A NaN, or a root that rounding puts at 1
    or beyond, gives 1.0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        root = np.where(q == 0.0, 0.0, np.where(np.signbit(b), q / a, c / q))
    # + 0.0 turns a root of -0.0 into 0.0
    return np.fmin(root, 1.0) + 0.0


def detection_threshold(table: CgTable, q_me: float) -> DetectionAnalysis:
    """Minimal symmetric detector efficiency preserving a violation.

    ``q_me`` must be a quantum value of the maximally entangled state,
    theta = pi/4: quantum_bound's with fix_theta = pi/4, or a value that
    quantum._pi4_certified_value certifies, such as the pi/4 value of the
    free-theta see-saw's vectors.  Only at pi/4 are M_A, M_B, X
    measurement independent and the decoupled quadratic exact.  All
    2^(na+nb) per-setting no-click assignments are solved and the smallest
    threshold returned.  Ties go to the lexicographically smallest
    assignment.  Returns eta = 1 when the state does not violate at full
    efficiency, q_me <= L + margin (quantum._margin), so q_me may be L
    itself, which quantum._pi4_certified_value returns when no pi/4 value
    exceeds L + margin.  As in noise_resistance, a non-finite q_me raises
    ValueError, and one below N - margin InconsistencyError.
    """
    margin = _margin(table)
    _checked_noise(table, q_me, margin)
    values = _vertex_values(table)
    bound = int(values.max())
    # assignment (a, b) substitutes a where alpha = 1 - a: reversing both
    # axes of the vertex grid puts the cells in assignment order
    x_grid = values[::-1, ::-1]
    # the mean of Alice's all-0 and all-1 vertices puts her marginals at 1/2, so
    # rows 0 and -1 sum to 2 M_A per Bob assignment, and columns 0 and -1 to 2 M_B
    m_a2 = x_grid[0] + x_grid[-1]
    m_b2 = x_grid[:, 0] + x_grid[:, -1]

    if q_me <= bound + margin:
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
    a_bits, b_bits = _bit_rows(table.scenario.na), _bit_rows(table.scenario.nb)
    return DetectionAnalysis(
        float(m_a2[j]) / 2,
        float(m_b2[i]) / 2,
        float(x_grid[i, j]),
        NoClickAssignment(tuple(a_bits[i].tolist()), tuple(b_bits[j].tolist())),
        eta,
    )
