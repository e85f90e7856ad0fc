import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cgbell import (
    CgTable,
    QuantumStrategy,
    Scenario,
    all_fixtures,
    chsh,
    i3322,
    i3422_3,
    local_bound,
    quantum_bound,
    white_noise_value,
)
from cgbell import quantum
from cgbell.model import _correlators
from cgbell.quantum import (
    POLISH_STEPS,
    QUARTER_PI,
    SWEEP_CAP,
    _ROUNDING,
    _augmented,
    _batch_sweep,
    _batch_values,
    _diagonal,
    _gauge,
    _margin,
    _newton_model,
    _pi4_certified_value,
    _random_units,
    _rows,
    _theta_of,
    _theta_step,
)

import oracles
from oracles import (
    Behavior,
    Relabeling,
    apply_relabeling,
    evaluate,
    quantum_value,
    random_relabeling,
)
from test_localpoly import embed, random_embedding, random_table
from test_robustness import direct_sum

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
S2 = 1 / math.sqrt(2)

CHSH_OPTIMAL = dict(
    theta=QUARTER_PI,
    a_vecs=np.array([Z, X]),
    b_vecs=np.array([[S2, 0, S2], [-S2, 0, S2]]),
)


def scalar_value(table, s):
    """The functional at a strategy, by the scalar formula of the oracle."""
    return oracles.correlator_value(table, s)


def seesaw_step(table, s, update_theta=True):
    """One full sweep (all Alice vectors, all Bob vectors, then theta) of one
    strategy, by the scalar see-saw of the oracle, with theta gauged into
    [0, pi/4]."""
    return QuantumStrategy(*_gauge(*oracles.seesaw_sweep(table, s.theta, s.a_vecs, s.b_vecs, update_theta)))


def block_coefficients(table, s, party):
    """The see-saw gradient in one party's vectors, by the oracle."""
    return oracles.block_gradient(table, s.theta, s.a_vecs, s.b_vecs, party)


def batch(table, starts):
    """quantum_bound's kernel arrays (m, k0, a, b, d) for a list of strategies."""
    w, ua, ub, k0 = _correlators(table)
    theta = np.array([s.theta for s in starts])
    c = np.cos(2 * theta)
    a = _rows(np.array([s.a_vecs for s in starts]).transpose(1, 2, 0), c)
    b = _rows(np.array([s.b_vecs for s in starts]).transpose(1, 2, 0), c)
    return _augmented(w, ua, ub), k0, a, b, _diagonal(np.sin(2 * theta))


def batch_strategies(a, b, d, update_theta=True, starts=None):
    """The strategies of a kernel batch, gauged into theta in [0, pi/4];
    theta from (cos 2t, sin 2t) when it is free, else the starts' theta."""
    return [
        QuantumStrategy(
            *_gauge(
                _theta_of(a[-1, 2, r], d[0, r]) if update_theta else starts[r].theta,
                a[:-1, :, r],
                b[:-1, :, r],
            )
        )
        for r in range(a.shape[-1])
    ]


def functional_scale(table):
    return 1 + np.abs(table.d).sum() / 4 + np.abs(table.c).sum() / 2 + np.abs(table.e).sum() / 2


def functional(table, pi4=False):
    """quantum_bound's functional (m, k0): the table's, or with pi4 its
    correlator part, the value at theta = pi/4, without ua and ub."""
    w, ua, ub, k0 = _correlators(table)
    return _augmented(w, 0 * ua, 0 * ub) if pi4 else _augmented(w, ua, ub), k0


def theta_moves(table, fix_theta):
    """Whether quantum_bound steps theta: only on the table's own functional,
    and only where it has one-party terms."""
    _, ua, ub, _ = _correlators(table)
    return fix_theta is None and bool(ua.any() or ub.any())


def certified(table, s, fix_theta):
    """Gradient below TOL * scale and Hessian below 1e-9 * scale, by
    eigenvalues, on the functional that quantum_bound maximizes."""
    m, _ = functional(table, fix_theta is not None)
    g, h = _newton_model(m, s.a_vecs, s.b_vecs, s.theta)
    scale = functional_scale(table)
    return bool(np.linalg.norm(g) < quantum.TOL * scale and np.linalg.eigvalsh(h).max() < 1e-9 * scale)


def cap_work(monkeypatch, budget):
    """Cap quantum_bound at ``budget`` sweeps plus Newton steps per restart,
    spent on sweeps first: at most SWEEP_CAP of them, then POLISH_STEPS."""
    sweeps = min(budget, SWEEP_CAP)
    monkeypatch.setattr(quantum, "SWEEP_CAP", sweeps)
    monkeypatch.setattr(quantum, "POLISH_STEPS", min(POLISH_STEPS, budget - sweeps))


def replayed(table, fix_theta, seed, sweeps):
    """quantum_bound's quantum.RESTARTS starting restarts, each swept alone
    ``sweeps`` times; where theta is held, the oracle keeps the table's
    one-party terms, which cos(pi/2) = 6e-17 weighs."""
    restarts = quantum.RESTARTS
    draws = np.random.default_rng(seed)
    a = _random_units(draws, (restarts, table.scenario.na))
    b = _random_units(draws, (restarts, table.scenario.nb))
    moves = theta_moves(table, fix_theta)
    theta = draws.uniform(0.0, QUARTER_PI, size=restarts) if moves else np.full(restarts, QUARTER_PI)
    for k in range(restarts):
        s = QuantumStrategy(theta[k], a[..., k], b[..., k])
        for _ in range(sweeps):
            s = seesaw_step(table, s, update_theta=moves)
        yield s


def random_strategy(rng, na, nb, theta=None):
    a = rng.normal(size=(na, 3))
    b = rng.normal(size=(nb, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    if theta is None:
        theta = rng.uniform(0, QUARTER_PI)
    return QuantumStrategy(theta, a, b)


# the 1x1 functionals p(00), pA(0) and pB(0)
BORN_TABLES = [
    CgTable(Scenario(1, 1), d, c, e, 0)
    for d, c, e in (([[1]], [0], [0]), ([[0]], [1], [0]), ([[0]], [0], [1]))
]


def born(theta, a, b):
    """(p(00), pA(0), pB(0)) for vectors a, b, through the see-saw kernel on 1x1."""
    s = QuantumStrategy(theta, [a], [b])
    return tuple(scalar_value(t, s) for t in BORN_TABLES)


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

    @pytest.mark.parametrize("side", ["a_vecs", "b_vecs"])
    def test_nan_rows_rejected(self, side):
        vecs = {"a_vecs": [Z], "b_vecs": [Z], side: [[math.nan, 0.0, 0.0]]}
        with pytest.raises(ValueError, match=f"{side} rows must be unit vectors"):
            QuantumStrategy(0.1, **vecs)

    def test_caller_arrays_stay_writeable(self):
        a, b = np.array([Z, X]), np.array([X])
        s = QuantumStrategy(0.3, a, b)
        for given, kept, first in ((a, s.a_vecs, Z), (b, s.b_vecs, X)):
            assert given.flags.writeable and not kept.flags.writeable
            given[0, 0] = 5.0
            np.testing.assert_array_equal(kept[0], first)


class TestQuantumValue:
    def test_chsh_standard_optimum(self, chsh_table):
        s = QuantumStrategy(**CHSH_OPTIMAL)
        assert scalar_value(chsh_table, s) == pytest.approx(
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
            assert scalar_value(t, s) == pytest.approx(evaluate(t, ones), abs=1e-12)

    def test_white_noise_reference(self, fixtures):
        # the maximally mixed state gives the white-noise value no matter
        # the measurements
        for t in fixtures:
            assert evaluate(t, Behavior.white_noise(t.scenario)) == pytest.approx(
                float(white_noise_value(t)), abs=1e-12
            )

    def test_batch_values_against_the_oracle(self, fixtures, rng):
        # quantum_bound's kernel values a batch of strategies, theta at 0,
        # pi/4 and between, as the scalar formula of the oracle does
        shapes = ((1, 1), (2, 3), (5, 2), (6, 6))
        for t in [*fixtures, *(random_table(rng, na, nb) for na, nb in shapes)]:
            na, nb = t.scenario.na, t.scenario.nb
            starts = [random_strategy(rng, na, nb, th) for th in (0.0, QUARTER_PI, None, None)]
            for value, s in zip(_batch_values(*batch(t, starts)), starts):
                assert abs(value - oracles.correlator_value(t, s)) <= 1e-12

    def test_behavior_matches_born(self, chsh_table, rng):
        # the closed form that quantum_value references, against the trace
        s = random_strategy(rng, 2, 2)
        b = oracles.strategy_behavior(chsh_table.scenario, s)
        for x in range(2):
            for y in range(2):
                assert b.joint[x, y] == pytest.approx(
                    oracles.born_trace(s.theta, s.a_vecs[x], s.b_vecs[y]), abs=1e-12
                )


class TestSeesaw:
    def test_monotone_from_random_starts(self, fixtures, rng):
        # the kernel's values never fall, and with update_theta off the
        # angle must also stay where it started
        for t in fixtures:
            for update_theta in (True, False):
                starts = [random_strategy(rng, t.scenario.na, t.scenario.nb) for _ in range(10)]
                m, k0, a, b, d = batch(t, starts)
                angle = a[-1, 2].copy(), b[-1, 2].copy(), d.copy()
                values = _batch_values(m, k0, a, b, d)
                for _ in range(100):
                    new = _batch_sweep(m, k0, a, b, d, update_theta)
                    assert (new >= values - 1e-12).all()
                    values = new
                    if not update_theta:
                        for kept, start in zip((a[-1, 2], b[-1, 2], d), angle):
                            np.testing.assert_array_equal(kept, start)
                for value, s in zip(values, batch_strategies(a, b, d, update_theta, starts)):
                    assert abs(quantum_value(t, s) - value) <= 1e-12

    def test_batch_of_one_follows_the_batch(self, fixtures, rng):
        # each restart of the kernel's batch against the scalar sweep of the
        # oracle on that restart alone, which steps theta by arctan2; both
        # run on the whole circle, ungauged, and the value the batch reports
        # is the value of the state it reaches.  Some restarts of random
        # tables run to sin 2t near 1e-30, where the x and y of the vectors
        # enter no probability, so rounding turns them freely: there the
        # behaviors must agree, not the vectors
        sweeps, compared = 30, 0
        tables = [(t, 50) for t in fixtures] + [(t, 10) for t in relabeled_lifts(rng)]
        tables += [(random_table(rng, na, nb), 20) for na, nb in ((1, 2), (2, 3), (4, 4), (6, 6))]
        for t, restarts in tables:
            na, nb = t.scenario.na, t.scenario.nb
            starts = [random_strategy(rng, na, nb) for _ in range(restarts)]
            m, k0, a, b, d = batch(t, starts)
            for _ in range(sweeps):
                values = _batch_sweep(m, k0, a, b, d, True)
            for r, (s, swept) in enumerate(zip(starts, batch_strategies(a, b, d))):
                theta, va, vb = s.theta, s.a_vecs, s.b_vecs
                for _ in range(sweeps):
                    theta, va, vb = oracles.seesaw_sweep(t, theta, va, vb)
                assert abs(quantum_value(t, swept) - values[r]) <= 1e-12
                assert abs(math.cos(2 * theta) - a[-1, 2, r]) <= 1e-12
                assert abs(math.sin(2 * theta) - d[0, r]) <= 1e-12
                alone = QuantumStrategy(*_gauge(theta, va, vb))
                alone, batched = (oracles.strategy_behavior(t.scenario, v) for v in (alone, swept))
                for field in ("joint", "marg_a", "marg_b"):
                    np.testing.assert_allclose(
                        getattr(alone, field), getattr(batched, field), rtol=0, atol=1e-12
                    )
                if swept.theta > 1e-6:
                    compared += 1
                    np.testing.assert_allclose(va, a[:-1, :, r], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(vb, b[:-1, :, r], rtol=0, atol=1e-12)
        assert compared >= 300

    def test_fixed_point_at_optimum(self, chsh_table):
        s = QuantumStrategy(**CHSH_OPTIMAL)
        m, k0, a, b, d = batch(chsh_table, [s])
        value = _batch_sweep(m, k0, a, b, d, True)[0]
        assert abs(value - quantum_value(chsh_table, s)) < 1e-12
        assert abs(quantum_value(chsh_table, seesaw_step(chsh_table, s)) - value) < 1e-12

    def test_theta_update_at_chsh_vectors(self, chsh_table):
        # with the optimal vectors the angle objective is a pure sin(2t)
        # term, so the update drives theta to pi/4 in one sweep
        s = QuantumStrategy(**CHSH_OPTIMAL)
        m, k0, a, b, d = batch(chsh_table, [QuantumStrategy(0.1, s.a_vecs, s.b_vecs)])
        _batch_sweep(m, k0, a, b, d, True)
        assert batch_strategies(a, b, d)[0].theta == pytest.approx(QUARTER_PI)
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

    def test_theta_step_against_brute_force(self):
        # (c, s) = (cos 2t, sin 2t) reaches the maximum of k1 c + k2 s over a
        # grid of the whole circle, and the step returns that maximum; where
        # nothing depends on theta, (0, 0), the step is (1, 0) and t is 0
        ring = np.linspace(-math.pi, math.pi, 96, endpoint=False)  # holds the axes and +-3pi/4
        axes = [(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0), (2.0, -0.0), (-2.0, -0.0)]
        k1 = np.concatenate([r * np.cos(ring) for r in (1.0, 1e-3, 1e3)] + [[x for x, _ in axes]])
        k2 = np.concatenate([r * np.sin(ring) for r in (1.0, 1e-3, 1e3)] + [[y for _, y in axes]])
        c, s, top = _theta_step(k1, k2)
        grid = np.linspace(-math.pi, math.pi, 4 * 10**5)
        for x, y, cx, sx, v in zip(k1, k2, c, s, top):
            best = (x * np.cos(grid) + y * np.sin(grid)).max()
            scale = 1e-12 * math.hypot(x, y)
            t = _theta_of(cx, sx)
            assert -math.pi / 2 <= t <= math.pi / 2
            assert abs(math.hypot(cx, sx) - 1.0) <= 1e-15
            assert abs(math.cos(2 * t) - cx) <= 1e-15 and abs(math.sin(2 * t) - sx) <= 1e-15
            assert x * cx + y * sx >= best - scale
            assert abs(v - (x * cx + y * sx)) <= scale
        c, s, top = _theta_step(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert (c[0], s[0], top[0]) == (1.0, 0.0, 0.0) and _theta_of(c[0], s[0]) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 4), (5, 5), (6, 3), (7, 8), (8, 8)])
    def test_gauge_keeps_the_value(self, fixtures, rng, shape):
        # theta anywhere in [-2 pi, 2 pi], and at every multiple of pi/4
        # there, lands in [0, pi/4], never at -0.0, with the functional's
        # value; where theta is pi/4 mod pi/2 the gauged vectors' pi/4 value,
        # which the pi/4 certificate reads, is the input's value too
        tables = [*fixtures, *(random_table(rng, *shape) for _ in range(3))]
        quarters = [k * QUARTER_PI for k in range(-8, 9)]
        for t in tables:
            na, nb = t.scenario.na, t.scenario.nb
            for theta in [*rng.uniform(-2 * math.pi, 2 * math.pi, size=20), *quarters, -0.0]:
                s = random_strategy(rng, na, nb)
                raw = oracles.correlator_value(t, SimpleNamespace(theta=theta, a_vecs=s.a_vecs, b_vecs=s.b_vecs))
                gauged = QuantumStrategy(*_gauge(theta, s.a_vecs, s.b_vecs))
                assert 0.0 <= gauged.theta <= QUARTER_PI and not np.signbit(gauged.theta)
                assert abs(quantum_value(t, gauged) - raw) <= 1e-12
                if theta in quarters[1::2]:
                    pi4 = QuantumStrategy(QUARTER_PI, gauged.a_vecs, gauged.b_vecs)
                    assert abs(quantum_value(t, pi4) - raw) <= 1e-12

    def test_zero_gradient_keeps_direction(self, chsh_table, rng):
        # CHSH has ua = 0 and d[0] = (1, 1), so Alice's setting 0 has zero
        # gradient where b[1] = -b[0], here in restarts 1 and 4 only; the
        # zero-lifted settings 2 have zero gradient in every restart
        lifted = embed(chsh_table, Scenario(3, 3), [0, 1], [0, 1])
        for t, unused in ((chsh_table, []), (lifted, [2])):
            na, nb = t.scenario.na, t.scenario.nb
            starts = [random_strategy(rng, na, nb) for _ in range(6)]
            for r in (1, 4):
                b = np.array(starts[r].b_vecs)
                b[1] = -b[0]
                starts[r] = QuantumStrategy(starts[r].theta, starts[r].a_vecs, b)
            m, k0, a, b, d = batch(t, starts)
            a0, b0 = a.copy(), b.copy()
            _batch_sweep(m, k0, a, b, d, True)
            for r, (s, swept) in enumerate(zip(starts, batch_strategies(a, b, d))):
                kept_a = unused + ([0] if r in (1, 4) else [])
                for vecs, old, kept in ((a, a0, kept_a), (b, b0, unused)):
                    for x in range(len(vecs) - 1):
                        if x in kept:
                            np.testing.assert_array_equal(vecs[x, :, r], old[x, :, r])
                        else:
                            assert abs(np.linalg.norm(vecs[x, :, r]) - 1.0) <= 1e-12
                alone = seesaw_step(t, s)
                assert abs(alone.theta - swept.theta) <= 1e-12
                np.testing.assert_allclose(alone.a_vecs, swept.a_vecs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(alone.b_vecs, swept.b_vecs, rtol=0, atol=1e-12)

    def test_bob_gradient_symmetry(self, chsh_table, rng):
        # party swap on CHSH-like symmetric table: bob coefficients follow
        # the same closed form through the transpose
        s = random_strategy(rng, 2, 2)
        swapped = QuantumStrategy(s.theta, s.b_vecs, s.a_vecs)
        transposed = apply_relabeling(
            chsh_table, Relabeling((0, 1), (0, 1), (0, 0), (0, 0), swap_parties=True)
        )
        np.testing.assert_allclose(
            block_coefficients(chsh_table, s, "b"),
            block_coefficients(transposed, swapped, "a"),
            atol=1e-12,
        )


class TestNewtonModel:
    """The polish's gradient and Hessian against central differences of
    _batch_values along the retraction v -> (v + s u)/|v + s u|."""

    @staticmethod
    def values_along(m, k0, s, u, u_theta, steps):
        na = len(s.a_vecs)
        moved = np.concatenate((s.a_vecs, s.b_vecs)) + steps[:, None, None] * u
        moved /= np.linalg.norm(moved, axis=2, keepdims=True)
        moved = moved.transpose(1, 2, 0)
        two = 2 * (s.theta + steps * u_theta)  # may pass pi/2, which no QuantumStrategy holds
        a, b = _rows(moved[:na], np.cos(two)), _rows(moved[na:], np.cos(two))
        return _batch_values(m, k0, a, b, _diagonal(np.sin(two)))

    @pytest.mark.parametrize("theta", [None, 0.0, QUARTER_PI])
    @pytest.mark.parametrize("pi4", [True, False])
    def test_against_finite_differences(self, rng, theta, pi4):
        # on the table's functional and on its correlator part, the two that
        # quantum_bound maximizes; theta is always the last coordinate
        for na, nb in ((2, 2), (2, 3), (3, 4), (4, 4)):
            t = random_table(rng, na, nb)
            scale = functional_scale(t)
            m, k0 = functional(t, pi4)
            for _ in range(3):
                s = random_strategy(rng, na, nb, theta)
                g, h = _newton_model(m, s.a_vecs, s.b_vecs, s.theta)
                n = 3 * (na + nb)
                assert h.shape == (len(g), len(g)) == (n + 1,) * 2
                np.testing.assert_array_equal(h, h.T)
                v = np.concatenate((s.a_vecs, s.b_vecs))
                u = rng.normal(size=v.shape)
                u -= np.sum(u * v, axis=1, keepdims=True) * v  # tangent to each sphere
                u_theta = rng.normal()
                step = np.append(u.ravel(), u_theta)
                f1 = self.values_along(m, k0, s, u, u_theta, np.array([1e-5, -1e-5]))
                assert (f1[0] - f1[1]) / 2e-5 == pytest.approx(g @ step, abs=1e-7 * scale)
                f2 = self.values_along(m, k0, s, u, u_theta, np.array([1e-3, 0.0, -1e-3]))
                second = (f2[0] - 2 * f2[1] + f2[2]) / 1e-6
                assert second == pytest.approx(step @ h @ step, abs=1e-5 * scale)
                # each vector's normal direction is an exact zero of g and H
                normal = np.zeros(len(g))
                normal[:n] = v.ravel() * rng.normal(size=(na + nb, 1)).repeat(3, axis=1).ravel()
                assert abs(g @ normal) <= 1e-12 * scale
                assert np.abs(h @ normal).max() <= 1e-12 * scale

    def test_theta_decouples_from_the_correlator_part_at_pi4(self, fixtures, rng):
        # at a pi/4 see-saw maximum, where each vector follows its block
        # gradient, theta's row of g and H on the correlator part is a
        # multiple of cos(pi/2) = 6e-17 but for H_tt = -4 k2 <= 0, so the
        # polish cannot move theta off pi/4
        tables = [*fixtures, *(random_table(rng, na, nb) for na, nb in ((2, 3), (5, 5), (8, 8)))]
        for t in tables:
            s = quantum_bound(t, fix_theta=QUARTER_PI).strategy
            assert s.theta == QUARTER_PI
            m, _ = functional(t, pi4=True)
            g, h = _newton_model(m, s.a_vecs, s.b_vecs, s.theta)
            scale, w = functional_scale(t), m[:-1, :-1]
            k2 = s.a_vecs[:, 0] @ w @ s.b_vecs[:, 0] - s.a_vecs[:, 1] @ w @ s.b_vecs[:, 1]
            assert k2 >= 0.0 and h[-1, -1] == pytest.approx(-4 * k2, abs=1e-12 * scale)
            assert abs(g[-1]) <= 1e-15 * scale and np.abs(h[-1, :-1]).max() <= 1e-15 * scale


class TestPolishNearAMinimum:
    """_polish started 1e-3 off a minimiser, the maximiser of the negated
    table: there H is positive definite, so mu must grow before mu I - H
    has a Cholesky factor."""

    @staticmethod
    def start(table, rng):
        negated = CgTable(table.scenario, -table.d, -table.c, -table.e, 0)
        low = quantum_bound(negated, seed=3).strategy

        def off(v):
            v = v + 1e-3 * rng.normal(size=v.shape)
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        a, b = off(low.a_vecs), off(low.b_vecs)
        theta = min(max(low.theta, 1e-3), QUARTER_PI - 1e-3)
        m, k0, *rows = batch(table, [QuantumStrategy(theta, a, b)])
        return (m, k0), a, b, theta, _batch_values(m, k0, *rows)[0]

    @pytest.mark.parametrize("make", [chsh, i3322])
    def test_damping_grows_and_the_value_never_drops(self, make, rng, monkeypatch):
        t = make()
        f, a, b, theta, value = self.start(t, rng)
        scale = functional_scale(t)
        tests, real = [], quantum._negative_definite
        monkeypatch.setattr(
            quantum, "_negative_definite", lambda *args: tests.append(real(*args)) or tests[-1]
        )
        a, b, theta, polished, _ = quantum._polish(*f, a, b, theta, value, scale)
        assert False in tests
        assert polished >= value - _ROUNDING * scale
        at_end = _batch_values(*batch(t, [QuantumStrategy(*_gauge(theta, a, b))]))[0]
        assert polished == pytest.approx(at_end, abs=_ROUNDING * scale)

    @pytest.mark.parametrize("make", [chsh, i3322])
    def test_no_rising_step_returns_the_start(self, make, rng, monkeypatch):
        t = make()
        f, a, b, theta, value = self.start(t, rng)
        no_rise = np.full(len(quantum._HALVINGS), -math.inf)
        monkeypatch.setattr(quantum, "_batch_values", lambda *args: no_rise)
        out = quantum._polish(*f, a, b, theta, value, functional_scale(t))
        assert out[0] is a and out[1] is b and out[2:] == (theta, value, False)


class TestClosedForms:
    """Free-theta Q of the fixtures whose two-qubit maximum is known in
    closed form, on the table and on a relabeled 4x4 lift of it, and the
    Bell operator at the returned measurements: no two-qubit state beats
    the returned theta."""

    @staticmethod
    def lifted(table, rng):
        rows = sorted(rng.choice(4, size=table.scenario.na, replace=False))
        cols = sorted(rng.choice(4, size=table.scenario.nb, replace=False))
        big = embed(table, Scenario(4, 4), rows, cols)
        return apply_relabeling(big, random_relabeling(big.scenario, rng))

    @pytest.mark.parametrize("name", sorted(oracles.QUANTUM_CLOSED_FORMS))
    def test_free_theta_value(self, fixtures, rng, name):
        (table,) = [t for t in fixtures if t.name == name]
        closed = oracles.QUANTUM_CLOSED_FORMS[name]
        for t in (table, self.lifted(table, rng)):
            r = quantum_bound(t, seed=0)
            # relabeling shifts the functional by a constant, and its bound with it
            assert r.value - t.bound == pytest.approx(closed - table.bound, abs=1e-12)
            assert r.converged
            operator = oracles.bell_operator(t, r.strategy.a_vecs, r.strategy.b_vecs)
            assert np.linalg.eigvalsh(operator)[-1] <= r.value + 1e-9

    def test_crawling_fixtures_in_few_sweep_equivalents(self, fixtures, monkeypatch):
        # I3422_1 and I3422_2 took 1305 and 549 sweeps under a per-sweep gain rule
        calls = []
        for name in ("_batch_sweep", "_newton_model"):
            real = getattr(quantum, name)
            monkeypatch.setattr(
                quantum, name, lambda *args, real=real: calls.append(1) or real(*args)
            )
        i3422_1, i3422_2 = fixtures[2], fixtures[3]
        r = quantum_bound(i3422_1, seed=0)
        assert r.value == pytest.approx(math.sqrt(5), abs=1e-12) and r.converged
        assert len(calls) <= 100
        calls.clear()
        r = quantum_bound(i3422_2, seed=0)
        assert r.value >= 1.2595871038277529 - 1e-12 and r.converged
        assert len(calls) <= 100


class TestQuantumBound:
    def test_chsh(self, chsh_table):
        result = quantum_bound(chsh_table, seed=0)
        assert result.value == pytest.approx(0.2071, abs=2e-4)
        assert result.strategy.theta / math.pi == pytest.approx(0.25, abs=1e-3)
        assert result.converged

    def test_i3322(self, i3322_table):
        result = quantum_bound(i3322_table, seed=0)
        assert result.value == pytest.approx(0.25, abs=2e-4)
        assert result.strategy.theta / math.pi == pytest.approx(0.25, abs=1e-3)

    def test_i3422_1_partially_entangled(self, fixtures):
        result = quantum_bound(fixtures[2], seed=0)
        assert result.strategy.theta / math.pi == pytest.approx(0.2332, abs=2e-3)
        assert result.value - 2 == pytest.approx(math.sqrt(5) - 2, abs=2e-4)

    def test_deterministic_for_seed(self, chsh_table):
        r1 = quantum_bound(chsh_table, seed=42)
        r2 = quantum_bound(chsh_table, seed=42)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.strategy.a_vecs, r2.strategy.a_vecs)
        assert r1.strategy.theta == r2.strategy.theta

    def test_theta_zero_reaches_local_bound(self, fixtures):
        # the premise of analyze_table's theta = 0 rule: at theta = 0 the
        # vectors +z (outcome 0) and -z (outcome 1) play each fixture's
        # maximising deterministic vertex, and reach L
        for t in fixtures:
            na, nb = t.scenario.na, t.scenario.nb
            alpha, beta = max(
                itertools.product(itertools.product((0, 1), repeat=na), itertools.product((0, 1), repeat=nb)),
                key=lambda ab: evaluate(t, Behavior.deterministic(t.scenario, *ab)),
            )
            s = QuantumStrategy(0.0, [Z if x else -Z for x in alpha], [Z if y else -Z for y in beta])
            assert quantum_value(t, s) == pytest.approx(local_bound(t), abs=1e-12)

    def test_ordering_free_vs_fixed_vs_local(self, fixtures):
        for t in fixtures:
            free = quantum_bound(t, seed=2)
            fixed = quantum_bound(t, fix_theta=QUARTER_PI, seed=3)
            assert free.value >= fixed.value - 1e-9
            assert free.value >= local_bound(t) - 1e-9

    def test_restart_validation(self, chsh_table):
        # fix_theta only picks the pi/4 functional, no other angle
        for theta in (1.0, 0.0, QUARTER_PI / 2, np.nextafter(QUARTER_PI, 0.0), math.nan):
            with pytest.raises(ValueError, match="fix_theta must be None or QUARTER_PI"):
                quantum_bound(chsh_table, fix_theta=theta)
        assert quantum_bound(chsh_table, fix_theta=math.pi / 4).strategy.theta == QUARTER_PI


    @pytest.mark.parametrize("budget", [1, 3, 2000])
    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_strategy_reproduces_value(self, fixtures, monkeypatch, fix_theta, budget):
        # the returned value and strategy must come from the same sweep
        cap_work(monkeypatch, budget)
        for t in fixtures:
            r = quantum_bound(t, fix_theta=fix_theta, seed=5)
            assert abs(quantum_value(t, r.strategy) - r.value) <= 1e-12

    @pytest.mark.parametrize("budget", [1, 3, 2000])
    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_best_of_restarts_run_one_at_a_time(self, monkeypatch, fix_theta, budget):
        # the polish only climbs from the capped sweeps, and converged
        # means certified at the returned strategy
        cap_work(monkeypatch, budget)
        monkeypatch.setattr(quantum, "RESTARTS", 8)
        seed = 3
        rng = np.random.default_rng(11)
        tables = [chsh(), i3322(), i3422_3()]
        for na, nb in ((2, 2), (2, 3), (3, 2), (3, 3)):
            t = random_table(rng, na, nb)
            tables.append(CgTable(t.scenario, t.d, t.c, t.e, local_bound(t)))
        for t in tables:
            best = max(
                quantum_value(t, s) for s in replayed(t, fix_theta, seed, quantum.SWEEP_CAP)
            )
            r = quantum_bound(t, fix_theta=fix_theta, seed=seed)
            assert r.value >= best - 1e-12
            assert r.converged == certified(t, r.strategy, fix_theta)

    @pytest.mark.parametrize("tol", [1e-10, 1e-4])
    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_sweeps_stop_once_every_restart_has_gained_less_than_tol(
        self, fixtures, monkeypatch, fix_theta, tol
    ):
        # the reference: the first sweep after which each restart, swept
        # alone, has gained less than tol at least once
        calls = []
        sweep = quantum._batch_sweep
        monkeypatch.setattr(quantum, "_batch_sweep", lambda *args: calls.append(1) or sweep(*args))
        monkeypatch.setattr(quantum, "TOL", tol)
        monkeypatch.setattr(quantum, "RESTARTS", 8)
        seed = 4
        for t in fixtures:
            first_small = []
            for s in replayed(t, fix_theta, seed, 0):
                for k in range(1, SWEEP_CAP + 1):
                    stepped = seesaw_step(t, s, update_theta=theta_moves(t, fix_theta))
                    if quantum_value(t, stepped) - quantum_value(t, s) < tol:
                        break
                    s = stepped
                first_small.append(k)
            calls.clear()
            quantum_bound(t, fix_theta=fix_theta, seed=seed)
            assert len(calls) == max(first_small)

    @pytest.mark.parametrize("max_sweeps", [1, 5, 31, 45])
    def test_max_sweeps_bounds_sweeps_and_newton_steps(self, fixtures, monkeypatch, max_sweeps):
        # the parameter is a budget of sweeps plus Newton steps per restart,
        # which cap_work spends on SWEEP_CAP sweeps first, then POLISH_STEPS
        cap_work(monkeypatch, max_sweeps)
        counts = []
        sweep, model = quantum._batch_sweep, quantum._newton_model

        def counted_sweep(*args):
            counts.append("sweep")
            return sweep(*args)

        def counted_model(*args):
            counts.append("model")
            return model(*args)

        monkeypatch.setattr(quantum, "_batch_sweep", counted_sweep)
        monkeypatch.setattr(quantum, "_newton_model", counted_model)
        polish = quantum._polish
        steps = []

        def counted_polish(*args):
            before = len(counts)
            out = polish(*args)
            # one model per step taken and one for the point it stops at
            steps.append(counts[before:].count("model") - 1)
            return out

        monkeypatch.setattr(quantum, "_polish", counted_polish)
        for t in fixtures[2:4]:
            counts.clear()
            steps.clear()
            quantum_bound(t, seed=1)
            sweeps = counts.count("sweep")
            assert sweeps <= quantum.SWEEP_CAP
            assert len(steps) == 1
            assert steps[0] <= quantum.POLISH_STEPS and sweeps + steps[0] <= max_sweeps

    @pytest.mark.parametrize("fix_theta", [None, QUARTER_PI])
    def test_polishes_the_sweep_best_restart_alone(self, fixtures, monkeypatch, fix_theta):
        # every restart of the zero table sweeps to 0 exactly, a tie the earliest wins
        sweeps, polished = [], []
        sweep, polish = quantum._batch_sweep, quantum._polish
        monkeypatch.setattr(quantum, "_batch_sweep", lambda *args: sweeps.append(1) or sweep(*args))
        monkeypatch.setattr(quantum, "_polish", lambda *args: polished.append(args) or polish(*args))
        zero = CgTable(Scenario(2, 2), np.zeros((2, 2), int), np.zeros(2, int), np.zeros(2, int), 0)
        monkeypatch.setattr(quantum, "RESTARTS", 8)
        seed = 3
        for t in (*fixtures, zero):
            sweeps.clear()
            polished.clear()
            quantum_bound(t, fix_theta=fix_theta, seed=seed)
            assert len(polished) == 1
            a, b, theta, value = polished[0][2:6]
            theta, a, b = _gauge(theta, a, b)
            swept = list(replayed(t, fix_theta, seed, len(sweeps)))
            values = [quantum_value(t, s) for s in swept]
            assert value == pytest.approx(max(values), abs=1e-12)
            taken = next(
                k
                for k, s in enumerate(swept)
                if np.allclose(s.a_vecs, a, atol=1e-9)
                and np.allclose(s.b_vecs, b, atol=1e-9)
                and abs(s.theta - theta) <= 1e-9
            )
            if not t.d.any():
                assert taken == 0

    def test_zero_table_holds_theta_at_pi4(self, monkeypatch):
        # no one-party terms, so theta is never stepped; analyze_table
        # reports theta = 0 on such a row, whose value is L
        monkeypatch.setattr(quantum, "_theta_step", None)
        zero = CgTable(Scenario(2, 2), np.zeros((2, 2), int), np.zeros(2, int), np.zeros(2, int), 0)
        r = quantum_bound(zero, seed=0)
        assert r.strategy.theta == QUARTER_PI
        assert r.value == 0.0 and r.converged


# the gap of the SVD bound above the pi/4 maximum on the fixtures not at it
PI4_GAPS = {"I3322": 0.25, "I3422_3": 0.185}


def relabeled_lifts(rng):
    """Each fixture, and the positivity facet -p(00|00) <= 0, zero-lifted to
    4x4 and moved by a random relabeling."""
    positivity = CgTable(Scenario(1, 1), [[-1]], [0], [0], 0, "POS")
    for t in (*all_fixtures(), positivity):
        na, nb = t.scenario.na, t.scenario.nb
        rows, cols = (sorted(rng.choice(4, n, replace=False)) for n in (na, nb))
        lifted = embed(t, Scenario(4, 4), rows, cols)
        yield apply_relabeling(lifted, random_relabeling(lifted.scenario, rng))


def below_k0(table):
    """z-aligned vectors whose pi/4 value is k0 - |sum(w)| <= k0.  When w != 0
    no gradient point certifies them: Diag(mu) - [[0, w/2], [w^T/2, 0]] is
    positive definite only when every mu is positive and some
    mu[x] mu[y] > (w[x, y]/2)^2 >= 1/64, so sum(mu) > 1/4, while the point
    sets sum(mu) to the value + _margin - k0."""
    w = _correlators(table)[0]
    sign = -1.0 if w.sum() > 0 else 1.0
    return QuantumStrategy(QUARTER_PI, np.tile(Z, (len(w), 1)), sign * np.tile(Z, (w.shape[1], 1)))


def uniform_point_holds(table, bound):
    """Whether _pi4_certified_value's uniform point, the spectral bound,
    holds at bound, which it then returns; the vectors it gets lie below
    k0, which neither the spectral bound nor the gradient point certifies."""
    value = _pi4_certified_value(table, below_k0(table), bound)
    if _correlators(table)[0].any():
        assert value in (bound, None)
    return value == bound


def gradient_value(table, s):
    """_pi4_certified_value of the strategy with a bound below k0, which the
    uniform point never proves: the strategy's pi/4 value when the spectral
    bound or its gradient point proves it, else None."""
    return _pi4_certified_value(table, s, _correlators(table)[3] - 1.0)


class TestPi4Certificate:
    def test_svd_bound_is_above_the_seesaw(self, fixtures):
        for t in fixtures:
            gap = oracles.pi4_correlator_bound(t) - quantum_bound(t, fix_theta=QUARTER_PI).value
            assert gap >= -1e-12
            if t.name in PI4_GAPS:
                assert gap == pytest.approx(PI4_GAPS[t.name], abs=1e-3)
            else:
                assert gap <= 1e-9

    def test_cholesky_test_matches_the_svd_bound(self, fixtures, rng):
        # the uniform point proves no pi/4 value above bound + MARGIN, which is
        # bound + _margin less rounding, so it holds at a bound 1e-9 * scale
        # above svd - _margin and fails 1e-9 * scale below it
        tables = [*fixtures, *relabeled_lifts(rng)]
        tables += [random_table(rng, na, nb) for na in range(1, 9) for nb in (na, 9 - na)]
        tables.append(CgTable(Scenario(3, 2), np.zeros((3, 2), int), [1, 0, -2], [0, 3], 0))
        for t in tables:
            bound, margin = oracles.pi4_correlator_bound(t) - _margin(t), 1e-9 * functional_scale(t)
            assert uniform_point_holds(t, bound + margin)
            assert not uniform_point_holds(t, bound - margin)

    def test_uniform_point_against_its_closed_form(self, rng):
        # it holds just when slack > |w'|_2 sqrt(na' nb'), the SVD bound less k0
        cases = 0
        for na, nb in itertools.product(range(1, 9), repeat=2):
            for _ in range(3):
                t = random_table(rng, na, nb)
                w, _, _, k0 = _correlators(t)
                if not w.any():
                    continue
                t = CgTable(t.scenario, t.d, t.c, t.e, local_bound(t))
                margin = _margin(t)
                spectral = oracles.pi4_correlator_bound(t) - k0
                for bound in (t.bound - margin, t.bound, t.bound + margin, t.bound + 0.5, k0 - 1):
                    slack = bound + margin - k0 - _ROUNDING * functional_scale(t)
                    assert uniform_point_holds(t, bound) == (slack > spectral), (t, bound)
                    cases += 1
        assert cases >= 900

    def test_no_certificate_below_the_white_noise_value(self, fixtures):
        # negating Bob's vectors negates every term but k0, so some pi/4 value
        # is at least k0 and no bound below it holds; here w != 0
        for t in fixtures:
            k0 = _correlators(t)[3]
            assert _pi4_certified_value(t, below_k0(t), k0 - 1e-6) is None
            assert _pi4_certified_value(t, below_k0(t), k0 - 1.0) is None

    def test_no_pi4_seesaw_passes_a_certified_bound(self, rng):
        tables = list(relabeled_lifts(rng))
        for na in range(2, 9):
            for nb in (na, max(na - 2, 2)):
                t = random_table(rng, na, nb)
                tables.append(CgTable(t.scenario, t.d, t.c, t.e, local_bound(t)))
        certified = 0
        for t in tables:
            value = quantum_bound(t, fix_theta=QUARTER_PI, seed=7).value
            # the local bound, as analyze_table gives it, and the SVD bound
            for bound in (t.bound, oracles.pi4_correlator_bound(t)):
                if uniform_point_holds(t, bound):
                    certified += 1
                    assert value <= bound + _margin(t)
        # every table at the SVD bound, and most random ones and the positivity lift at L
        assert certified >= len(tables) + 10


def violating_population(rng, draws):
    """Seeded violating tables up to 8x8: one fixture or the direct sum of
    two, zero-lifted to a random size, 1-5 entries of d moved by -2..2,
    relabeled and set to their local bound; the draws whose free-theta
    see-saw passes L + margin."""
    fixtures = all_fixtures()
    for _ in range(draws):
        parts = rng.choice(len(fixtures), size=rng.integers(1, 3), replace=False)
        t = direct_sum(*(fixtures[k] for k in parts))
        na, nb = (int(rng.integers(n, 9)) for n in (t.scenario.na, t.scenario.nb))
        t = random_embedding(t, rng, na, nb)
        d = t.d.copy()
        for _ in range(rng.integers(1, 6)):
            d[rng.integers(len(d)), rng.integers(d.shape[1])] += rng.integers(-2, 3)
        t = CgTable(t.scenario, d, t.c, t.e, 0)
        t = apply_relabeling(t, random_relabeling(t.scenario, rng))
        t = CgTable(t.scenario, t.d, t.c, t.e, local_bound(t))
        if quantum_bound(t, seed=1).value > t.bound + _margin(t):
            yield t


class TestPi4GradientCertificate:
    """_pi4_certified_value's gradient point against the elliptope value of
    the oracle, block ascent in R^(na+nb) with no rank limit."""

    def test_a_certified_value_is_the_elliptope_maximum(self, fixtures):
        rng = np.random.default_rng(5)
        tables = [*fixtures, *(random_embedding(t, rng, 8, 8) for t in fixtures)]
        tables.append(direct_sum(chsh(), chsh(), fixtures[2]))
        tables += violating_population(rng, 60)
        certified = 0
        for t in tables:
            elliptope, margin = oracles.pi4_elliptope_value(t), _margin(t)
            for fix_theta in (None, QUARTER_PI):
                value = gradient_value(t, quantum_bound(t, fix_theta=fix_theta).strategy)
                if value is not None:
                    certified += 1
                    # no pi/4 strategy passes the certified value, and rank 3 reaches it
                    assert value - 1e-12 <= elliptope <= value + margin, (t.name, fix_theta)
        # most pi/4 see-saws certify, and the free-theta ones that end at pi/4
        assert len(tables) >= 30 and certified >= len(tables) + 10

    @pytest.mark.parametrize("name", ["I3422_1", "I3422_2"])
    def test_no_certificate_from_free_vectors_off_pi4(self, fixtures, name):
        (t,) = [t for t in fixtures if t.name == name]
        r = quantum_bound(t)
        assert r.strategy.theta < QUARTER_PI - 0.05
        assert gradient_value(t, r.strategy) is None

    def test_no_certificate_from_a_truncated_run(self, fixtures, monkeypatch):
        # one restart, one sweep and no Newton step: the run ends short of a maximum
        cap_work(monkeypatch, 1)
        monkeypatch.setattr(quantum, "RESTARTS", 1)
        truncated = 0
        for t in fixtures:
            for seed in range(4):
                for fix_theta in (None, QUARTER_PI):
                    r = quantum_bound(t, fix_theta=fix_theta, seed=seed)
                    if not r.converged:
                        truncated += 1
                        assert gradient_value(t, r.strategy) is None, (t.name, seed)
        # all but CHSH, whose see-saw holds theta at pi/4 in both runs and
        # reaches its maximum in one sweep
        assert truncated == 32

    def test_no_certificate_just_below_the_maximum(self, fixtures, rng):
        # vectors moved by about 1e-4 from a pi/4 maximum lose about 1e-8,
        # more than the margin, and a certificate for them would be false
        for t in fixtures:
            s = quantum_bound(t, fix_theta=QUARTER_PI).strategy
            best = gradient_value(t, s)
            moved = [v + 1e-4 * rng.normal(size=v.shape) for v in (s.a_vecs, s.b_vecs)]
            moved = QuantumStrategy(s.theta, *(v / np.linalg.norm(v, axis=1, keepdims=True) for v in moved))
            assert best - scalar_value(t, moved) > 2 * _margin(t), t.name
            assert gradient_value(t, moved) is None, t.name

    def test_no_certificate_below_k0(self, fixtures):
        # negating Bob's vectors negates every term but k0, and some pi/4
        # value is at least k0, so a value below it is no maximum
        for t in fixtures:
            s = quantum_bound(t, fix_theta=QUARTER_PI).strategy
            k0 = _correlators(t)[3]
            assert gradient_value(t, s) > k0 + 0.1
            flipped = QuantumStrategy(s.theta, s.a_vecs, -s.b_vecs)
            assert scalar_value(t, flipped) < k0 - 0.1
            assert gradient_value(t, flipped) is None

    def test_w_zero_certifies_k0(self):
        t = CgTable(Scenario(3, 2), np.zeros((3, 2), int), [1, 0, -2], [0, 3], 0)
        s = quantum_bound(t, fix_theta=QUARTER_PI).strategy
        assert gradient_value(t, s) == _correlators(t)[3] == 1.0
