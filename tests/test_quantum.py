import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    Behavior,
    QuantumStrategy,
    apply_relabeling,
    born_marginal_a,
    born_marginal_b,
    born_probability,
    evaluate,
    local_bound,
    quantum_bound,
    quantum_value,
    random_relabeling,
    seesaw_step,
    strategy_behavior,
    white_noise_value,
)
from cgbell.quantum import (
    QUARTER_PI,
    _batch_sweep,
    _block_coefficients,
    _functional,
    relabel_strategy,
)

import oracles
from test_localpoly import random_table

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
S2 = 1 / math.sqrt(2)

CHSH_OPTIMAL = dict(
    theta=QUARTER_PI,
    a_vecs=np.array([Z, X]),
    b_vecs=np.array([[S2, 0, S2], [-S2, 0, S2]]),
)


def block_coefficients(table, s, party):
    """The see-saw gradient in one party's vectors, from the kernel on a batch of one."""
    d, c, e, drow, dcol = _functional(table)
    ct = np.array([[math.cos(2 * s.theta)]])
    st = np.array([[math.sin(2 * s.theta)]])
    if party == "a":
        return _block_coefficients(d, drow, c, s.b_vecs[None], ct, st)[0]
    return _block_coefficients(d.T, dcol, e, s.a_vecs[None], ct, st)[0]


def random_strategy(rng, na, nb, theta=None):
    a = rng.normal(size=(na, 3))
    b = rng.normal(size=(nb, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    if theta is None:
        theta = rng.uniform(0, QUARTER_PI)
    return QuantumStrategy(theta, a, b)


class TestBornProbability:
    def test_aligned_z_maximally_entangled(self):
        assert born_probability(QUARTER_PI, Z, Z) == pytest.approx(0.5, abs=1e-15)

    def test_product_state(self):
        assert born_probability(0.0, Z, Z) == pytest.approx(1.0, abs=1e-15)

    def test_aligned_x_maximally_entangled(self):
        assert born_probability(QUARTER_PI, X, X) == pytest.approx(0.5, abs=1e-15)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            born_probability(0.3, [1, 1, 0], Z)

    def test_against_trace_oracle(self, rng):
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(0, QUARTER_PI)
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            worst = max(worst, abs(born_probability(theta, a, b) - oracles.born_trace(theta, a, b)))
        assert worst <= 1e-12

    def test_marginals_against_trace_oracle(self, rng):
        for _ in range(200):
            theta = rng.uniform(0, QUARTER_PI)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert born_marginal_a(theta, v) == pytest.approx(
                oracles.marginal_trace_a(theta, v), abs=1e-12
            )
            assert born_marginal_b(theta, v) == pytest.approx(
                oracles.marginal_trace_b(theta, v), abs=1e-12
            )

    def test_outcome_probabilities_form_distribution(self, rng):
        for _ in range(300):
            theta = rng.uniform(0, QUARTER_PI)
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            p00 = born_probability(theta, a, b)
            pa = born_marginal_a(theta, a)
            pb = born_marginal_b(theta, b)
            probs = [p00, pa - p00, pb - p00, 1 - pa - pb + p00]
            assert all(p >= -1e-12 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestQuantumStrategy:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            QuantumStrategy(-0.1, np.array([Z]), np.array([Z]))
        with pytest.raises(ValueError):
            QuantumStrategy(1.0, np.array([Z]), np.array([Z]))

    def test_unit_rows_required(self):
        with pytest.raises(ValueError):
            QuantumStrategy(0.1, np.array([[1.0, 1.0, 0.0]]), np.array([Z]))


class TestQuantumValue:
    def test_chsh_standard_optimum(self, chsh_table):
        s = QuantumStrategy(**CHSH_OPTIMAL)
        assert quantum_value(chsh_table, s) == pytest.approx(
            (math.sqrt(2) - 1) / 2, abs=1e-12
        )

    def test_theta_zero_is_deterministic(self, fixtures):
        for t in fixtures:
            s = QuantumStrategy(
                0.0,
                np.tile(Z, (t.scenario.na, 1)),
                np.tile(Z, (t.scenario.nb, 1)),
            )
            ones = Behavior.deterministic(
                t.scenario, [1] * t.scenario.na, [1] * t.scenario.nb
            )
            assert quantum_value(t, s) == pytest.approx(evaluate(t, ones), abs=1e-12)

    def test_white_noise_reference(self, fixtures):
        # the maximally mixed state gives the white-noise value no matter
        # the measurements
        for t in fixtures:
            assert evaluate(t, Behavior.white_noise(t.scenario)) == pytest.approx(
                float(white_noise_value(t)), abs=1e-12
            )

    def test_behavior_matches_born(self, chsh_table, rng):
        s = random_strategy(rng, 2, 2)
        b = strategy_behavior(chsh_table.scenario, s)
        for x in range(2):
            for y in range(2):
                assert b.joint[x, y] == pytest.approx(
                    oracles.born_trace(s.theta, s.a_vecs[x], s.b_vecs[y]), abs=1e-12
                )


class TestSeesaw:
    def test_monotone_from_random_starts(self, fixtures, rng):
        # with update_theta off the angle must also stay where it started
        for t in fixtures:
            for update_theta in (True, False):
                s = random_strategy(rng, t.scenario.na, t.scenario.nb)
                theta = s.theta
                value = quantum_value(t, s)
                for _ in range(100):
                    s = seesaw_step(t, s, update_theta=update_theta)
                    new = quantum_value(t, s)
                    assert new >= value - 1e-12
                    value = new
                    assert update_theta or s.theta == theta

    def test_batch_of_one_follows_the_batch(self, fixtures, rng):
        # the same kernel, though BLAS may pick different routines by batch
        # size, so the floats may part in the last bits
        restarts, sweeps = 50, 30
        for t in fixtures:
            na, nb = t.scenario.na, t.scenario.nb
            starts = [random_strategy(rng, na, nb) for _ in range(restarts)]
            a = np.array([s.a_vecs for s in starts])
            b = np.array([s.b_vecs for s in starts])
            theta = np.array([s.theta for s in starts])
            for _ in range(sweeps):
                a, b, theta = _batch_sweep(*_functional(t), a, b, theta, True)
            for r, s in enumerate(starts):
                for _ in range(sweeps):
                    s = seesaw_step(t, s)
                assert abs(s.theta - theta[r]) <= 1e-12
                np.testing.assert_allclose(s.a_vecs, a[r], rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.b_vecs, b[r], rtol=0, atol=1e-12)

    def test_fixed_point_at_optimum(self, chsh_table):
        s = QuantumStrategy(**CHSH_OPTIMAL)
        stepped = seesaw_step(chsh_table, s)
        assert abs(quantum_value(chsh_table, stepped) - quantum_value(chsh_table, s)) < 1e-12

    def test_theta_update_at_chsh_vectors(self, chsh_table):
        # with the optimal vectors the angle objective is a pure sin(2t)
        # term, so the update drives theta to pi/4 in one sweep
        s = QuantumStrategy(**CHSH_OPTIMAL)
        assert seesaw_step(chsh_table, s).theta == pytest.approx(QUARTER_PI)

    def test_gradient_against_finite_differences(self, fixtures, rng):
        for t, party in itertools.product(fixtures[:3], "ab"):
            s = random_strategy(rng, t.scenario.na, t.scenario.nb)
            coeffs = block_coefficients(t, s, party)
            vecs = s.a_vecs if party == "a" else s.b_vecs
            for x in range(len(vecs)):
                base = vecs[x]
                tangent = np.cross(base, rng.normal(size=3))
                tangent /= np.linalg.norm(tangent)
                eps = 1e-6

                def value_at(step):
                    moved = np.array(vecs)
                    moved[x] = base + step * tangent
                    moved[x] /= np.linalg.norm(moved[x])
                    if party == "a":
                        return quantum_value(t, QuantumStrategy(s.theta, moved, s.b_vecs))
                    return quantum_value(t, QuantumStrategy(s.theta, s.a_vecs, moved))

                numeric = (value_at(eps) - value_at(-eps)) / (2 * eps)
                analytic = float(coeffs[x] @ tangent)
                assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)

    def test_bob_gradient_symmetry(self, chsh_table, rng):
        # party swap on CHSH-like symmetric table: bob coefficients follow
        # the same closed form through the transpose
        s = random_strategy(rng, 2, 2)
        swapped = QuantumStrategy(s.theta, s.b_vecs, s.a_vecs)
        transposed = apply_relabeling(
            chsh_table,
            type(random_relabeling(chsh_table.scenario, rng))(
                (0, 1), (0, 1), (0, 0), (0, 0), swap_parties=True
            ),
        )
        np.testing.assert_allclose(
            block_coefficients(chsh_table, s, "b"),
            block_coefficients(transposed, swapped, "a"),
            atol=1e-12,
        )


class TestQuantumBound:
    def test_chsh(self, chsh_table):
        result = quantum_bound(chsh_table, restarts=30, seed=0)
        assert result.value == pytest.approx(0.2071, abs=2e-4)
        assert result.strategy.theta / math.pi == pytest.approx(0.25, abs=1e-3)
        assert result.converged

    def test_i3322(self, i3322_table):
        result = quantum_bound(i3322_table, restarts=30, seed=0)
        assert result.value == pytest.approx(0.25, abs=2e-4)
        assert result.strategy.theta / math.pi == pytest.approx(0.25, abs=1e-3)

    def test_i3422_1_partially_entangled(self, fixtures):
        result = quantum_bound(fixtures[2], restarts=60, seed=0)
        assert result.strategy.theta / math.pi == pytest.approx(0.2332, abs=2e-3)
        assert result.value - 2 == pytest.approx(math.sqrt(5) - 2, abs=2e-4)

    def test_deterministic_for_seed(self, chsh_table):
        r1 = quantum_bound(chsh_table, restarts=10, seed=42)
        r2 = quantum_bound(chsh_table, restarts=10, seed=42)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.strategy.a_vecs, r2.strategy.a_vecs)
        assert r1.strategy.theta == r2.strategy.theta

    def test_theta_zero_reaches_local_bound(self, fixtures):
        for t in fixtures:
            result = quantum_bound(t, fix_theta=0.0, restarts=50, seed=1)
            assert result.value == pytest.approx(local_bound(t), abs=1e-9)

    def test_ordering_free_vs_fixed_vs_local(self, fixtures):
        for t in fixtures:
            free = quantum_bound(t, restarts=40, seed=2)
            fixed = quantum_bound(t, fix_theta=QUARTER_PI, restarts=40, seed=3)
            assert free.value >= fixed.value - 1e-9
            assert free.value >= local_bound(t) - 1e-9

    def test_restart_validation(self, chsh_table):
        with pytest.raises(ValueError):
            quantum_bound(chsh_table, restarts=0)
        with pytest.raises(ValueError):
            quantum_bound(chsh_table, fix_theta=1.0)
        for tol in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                quantum_bound(chsh_table, tol=tol)


class TestRelabelStrategy:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_value_covariance(self, seed):
        rng = np.random.default_rng(seed)
        t = random_table(rng, 2, 2)
        r = random_relabeling(t.scenario, rng)
        s = random_strategy(rng, 2, 2)
        relabeled = apply_relabeling(t, r)
        transported = relabel_strategy(s, r)
        lhs = quantum_value(relabeled, transported) - relabeled.bound
        rhs = quantum_value(t, s) - t.bound
        assert abs(lhs - rhs) < 1e-12
