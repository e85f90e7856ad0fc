import itertools
import math

import numpy as np
import pytest

from cgbell import (
    Behavior,
    CgTable,
    QuantumStrategy,
    Scenario,
    apply_relabeling,
    chsh,
    evaluate,
    i3322,
    i3422_3,
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
    _random_units,
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


def born(theta, a, b):
    """(p(00), pA(0), pB(0)) for vectors a, b, through strategy_behavior on 1x1."""
    behavior = strategy_behavior(Scenario(1, 1), QuantumStrategy(theta, [a], [b]))
    return behavior.joint[0, 0], behavior.marg_a[0], behavior.marg_b[0]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestBornProbability:
    def test_aligned_z_maximally_entangled(self):
        assert born(QUARTER_PI, Z, Z)[0] == pytest.approx(0.5, abs=1e-15)

    def test_product_state(self):
        assert born(0.0, Z, Z)[0] == pytest.approx(1.0, abs=1e-15)

    def test_aligned_x_maximally_entangled(self):
        assert born(QUARTER_PI, X, X)[0] == pytest.approx(0.5, abs=1e-15)

    def test_non_unit_vector_rejected(self):
        # test_unit_rows_required covers Alice's side
        with pytest.raises(ValueError):
            born(0.3, Z, [1, 1, 0])

    def test_against_trace_oracle(self, rng):
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(0, QUARTER_PI)
            a, b = random_unit(rng), random_unit(rng)
            worst = max(worst, abs(born(theta, a, b)[0] - oracles.born_trace(theta, a, b)))
        assert worst <= 1e-12

    def test_marginals_against_trace_oracle(self, rng):
        for _ in range(200):
            theta = rng.uniform(0, QUARTER_PI)
            a, b = random_unit(rng), random_unit(rng)
            _, pa, pb = born(theta, a, b)
            assert pa == pytest.approx(oracles.marginal_trace_a(theta, a), abs=1e-12)
            assert pb == pytest.approx(oracles.marginal_trace_b(theta, b), abs=1e-12)

    def test_outcome_probabilities_form_distribution(self, rng):
        for _ in range(300):
            theta = rng.uniform(0, QUARTER_PI)
            p00, pa, pb = born(theta, random_unit(rng), random_unit(rng))
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


    @pytest.mark.parametrize("max_sweeps", [1, 3, 2000])
    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_strategy_reproduces_value(self, fixtures, fix_theta, max_sweeps):
        # the returned value and strategy must come from the same sweep
        for t in fixtures:
            r = quantum_bound(t, fix_theta=fix_theta, restarts=20, seed=5, max_sweeps=max_sweeps)
            assert abs(quantum_value(t, r.strategy) - r.value) <= 1e-12

    @pytest.mark.parametrize("max_sweeps", [1, 3, 2000])
    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_best_of_restarts_run_one_at_a_time(self, fix_theta, max_sweeps):
        restarts, seed, tol = 8, 3, 1e-10
        rng = np.random.default_rng(11)
        tables = [chsh(), i3322(), i3422_3()]
        for na, nb in ((2, 2), (2, 3), (3, 2), (3, 3)):
            t = random_table(rng, na, nb)
            tables.append(CgTable(t.scenario, t.d, t.c, t.e, local_bound(t)))
        for t in tables:
            draws = np.random.default_rng(seed)
            a = _random_units(draws, (restarts, t.scenario.na))
            b = _random_units(draws, (restarts, t.scenario.nb))
            if fix_theta is None:
                theta = draws.uniform(0.0, QUARTER_PI, size=restarts)
            else:
                theta = np.full(restarts, fix_theta)
            runs = []
            for k in range(restarts):
                s = QuantumStrategy(theta[k], a[k], b[k])
                value, converged = quantum_value(t, s), False
                for _ in range(max_sweeps):
                    s = seesaw_step(t, s, update_theta=fix_theta is None)
                    new = quantum_value(t, s)
                    converged, value = new - value < tol, new
                    if converged:
                        break
                runs.append((value, converged))
            best_value, best_converged = max(runs, key=lambda run: run[0])
            r = quantum_bound(
                t, fix_theta=fix_theta, restarts=restarts, seed=seed, tol=tol, max_sweeps=max_sweeps
            )
            assert r.value == pytest.approx(best_value, abs=1e-9)
            assert r.converged == best_converged

    def test_zero_table_takes_theta_zero(self):
        # k1 = k2 = 0 and no interior peak: the tie goes to theta = 0
        zero = CgTable(Scenario(2, 2), np.zeros((2, 2), int), np.zeros(2, int), np.zeros(2, int), 0)
        r = quantum_bound(zero, restarts=5, seed=0)
        assert r.strategy.theta == 0.0
        assert r.value == 0.0 and r.converged
