import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    CgTable,
    InconsistencyError,
    NoClickAssignment,
    Scenario,
    chsh,
    detection_threshold,
    facet_check,
    i3322,
    load_report_csv,
    local_bound,
    noise_resistance,
    quantum_bound,
    reference_csv_path,
    white_noise_value,
)
from cgbell import localpoly
from cgbell.analysis import DEFAULT_TOLERANCES
from cgbell.model import MAX_COEFFICIENT
from cgbell.quantum import QUARTER_PI
from cgbell.robustness import _threshold_roots

import oracles
from test_localpoly import embed, random_table

CHSH_Q_ME = (math.sqrt(2) - 1) / 2
I3322_Q_ME = 0.25


def lift(table, n):
    return embed(table, Scenario(n, n), range(table.scenario.na), range(table.scenario.nb))


@pytest.fixture(scope="module")
def fixture_q_me(fixtures):
    return [
        quantum_bound(t, fix_theta=QUARTER_PI, restarts=20, seed=1).value for t in fixtures
    ]


def random_violating(seed):
    """A random 2x2..4x4 table at its local bound with a q_me above it."""
    rng = np.random.default_rng(seed)
    na, nb = (int(v) for v in rng.integers(2, 5, size=2))
    t = random_table(rng, na, nb)
    t = CgTable(t.scenario, t.d, t.c, t.e, local_bound(t))
    return t, t.bound + float(rng.uniform(0.01, 2.0))


def assert_matches_roots(table, q_me):
    got = detection_threshold(table, q_me)
    eta, a_out, b_out, values = oracles.eta_roots(table, q_me)
    assert got.eta == pytest.approx(eta, abs=1e-12)
    assert got.strategy == NoClickAssignment(a_out, b_out)
    assert (got.m_a, got.m_b, got.x) == values


class TestNoiseResistance:
    def test_reference_fixtures_against_exact_ratio(self, fixtures):
        # the reference Q is given as Q - L, so it carries over to the
        # fixtures' own normalisation
        reference = load_report_csv(open(reference_csv_path(), encoding="utf-8").read())
        for t, row in zip(fixtures, reference):
            assert t.name == row["name"]
            bound, noise = local_bound(t), white_noise_value(t)
            q = bound + float(row["Q_minus_L"])
            exact = (bound - noise) / (Fraction(q) - noise)
            lam = noise_resistance(t, q)
            assert lam == pytest.approx(float(exact), abs=1e-12)
            assert lam == pytest.approx(float(row["lambda"]), abs=DEFAULT_TOLERANCES["lambda"])

    def test_chsh_at_tsirelson(self, chsh_table):
        assert noise_resistance(chsh_table, CHSH_Q_ME) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_no_violation_gives_one(self, fixtures):
        for t in fixtures:
            bound, noise = local_bound(t), float(white_noise_value(t))
            for q in (bound, bound + 1e-10, (bound + noise) / 2, noise):
                assert noise_resistance(t, q) == 1.0

    def test_below_white_noise_is_inconsistent(self, fixtures):
        for t in fixtures:
            noise = float(white_noise_value(t))
            assert noise_resistance(t, noise - 0.5e-9) == 1.0
            with pytest.raises(InconsistencyError):
                noise_resistance(t, noise - 2e-9)


class TestThresholdRoots:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_np_roots(self, seed):
        # c = X - L <= 0 in every call; zeros, linear cases and (near-)double
        # roots of both signs of a included
        rng = np.random.default_rng(seed)
        n = 64
        a = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0, 4, size=n)
        b = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0, 4, size=n)
        c = -rng.choice([0.0, 1.0], size=n) * rng.uniform(0, 4, size=n)
        root = rng.uniform(0, 1, size=n // 4)
        a[: n // 4] = -np.abs(a[: n // 4]) - 0.1
        b[: n // 4] = -2 * a[: n // 4] * root
        c[: n // 4] = a[: n // 4] * root * root * (1 + rng.uniform(-1e-9, 0, size=n // 4))
        got = _threshold_roots(a, b, c)
        want = [oracles.threshold_root(*abc) for abc in zip(a, b, c)]
        # roots 1e-9 apart (relative) are conditioned to about 1e-11
        assert got == pytest.approx(want, abs=1e-9)
        assert not np.signbit(got).any()  # no -0.0, which np.roots never returns


class TestDetectionThreshold:
    def test_fixtures_against_bisection(self, fixtures, fixture_q_me):
        for t, q in zip(fixtures, fixture_q_me):
            eta = detection_threshold(t, q).eta
            assert abs(eta - oracles.eta_bisection(t, q)) <= 1e-9

    def test_fixtures_against_roots(self, fixtures, fixture_q_me):
        for t, q in zip(fixtures, fixture_q_me):
            assert_matches_roots(t, q)

    def test_lifts_to_4x4(self, fixtures, fixture_q_me):
        for t, q in zip(fixtures, fixture_q_me):
            lifted = lift(t, 4)
            assert detection_threshold(lifted, q).eta == detection_threshold(t, q).eta
            assert abs(detection_threshold(lifted, q).eta - oracles.eta_bisection(lifted, q)) <= 1e-9
            assert_matches_roots(lifted, q)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_against_oracles(self, seed):
        table, q_me = random_violating(seed)
        assert_matches_roots(table, q_me)
        assert abs(detection_threshold(table, q_me).eta - oracles.eta_bisection(table, q_me)) <= 1e-9

    def test_no_violation(self, chsh_table):
        got = detection_threshold(chsh_table, 0.0)
        assert got.eta == 1.0
        assert got.strategy == NoClickAssignment((0, 0), (0, 0))
        assert_matches_roots(chsh_table, 0.0)

    def test_coefficients_at_the_cap(self, chsh_table):
        m = MAX_COEFFICIENT
        t = CgTable(chsh_table.scenario, m * chsh_table.d, m * chsh_table.c, m * chsh_table.e, 0)
        assert detection_threshold(t, m * CHSH_Q_ME).eta == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12
        )
        assert_matches_roots(t, m * CHSH_Q_ME)
        # random signs, scaled so that the local bound stays within the cap
        rng = np.random.default_rng(5)
        d, c, e = (rng.choice([-1, 1], size=shape) * (m // 16) for shape in ((3, 3), 3, 3))
        t = CgTable(Scenario(3, 3), d, c, e, 0)
        t = CgTable(t.scenario, t.d, t.c, t.e, local_bound(t))
        assert_matches_roots(t, t.bound + m / 32)

    def test_chsh_closed_form(self, chsh_table):
        assert detection_threshold(chsh_table, CHSH_Q_ME).eta == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12
        )


class TestFacetCheckOracle:
    @given(na=st.integers(1, 3), nb=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_against_fraction_path(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        t = random_table(rng, na, nb, lo=-2, hi=2)
        # a bound at some vertex value: valid when it is the maximum,
        # a facet now and then, a lower-dimensional face or invalid otherwise
        values = sorted({oracles.local_bound_bruteforce(t), int(rng.choice([0, 1, 2, -1]))})
        for bound in values:
            t = CgTable(t.scenario, t.d, t.c, t.e, int(bound))
            r = facet_check(t)
            expected = oracles.facet_check_fraction(t)
            assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == expected

    def test_lifted_fixtures_against_fraction_path(self, fixtures):
        for t in fixtures:
            lifted = lift(t, 4)
            r = facet_check(lifted)
            assert r.is_facet
            expected = oracles.facet_check_fraction(lifted)
            assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == expected

    def test_exact_fallback_under_a_small_prime(self, fixtures, monkeypatch):
        # modulo 2 the Gram rank often falls short of the rational one (on
        # about one table in sixteen here), so the certificate must notice
        # and hand over to exact_rank
        monkeypatch.setattr(localpoly, "_PRIME", 2)
        tables = list(fixtures)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            t = random_table(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), lo=-2, hi=2)
            tables.append(CgTable(t.scenario, t.d, t.c, t.e, local_bound(t)))
        for t in tables:
            r = facet_check(t)
            assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == (
                oracles.facet_check_fraction(t)
            )

    def test_faces_of_chsh(self, chsh_table):
        # cutting the bound below the maximum leaves saturating sets of lower rank,
        # which go through the exact fallback
        for bound in (-1, -2):
            t = CgTable(chsh_table.scenario, chsh_table.d, chsh_table.c, chsh_table.e, bound)
            r = facet_check(t)
            assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == (
                oracles.facet_check_fraction(t)
            )


class TestEightSettings:
    def test_chsh_lifted_to_8x8(self):
        t = lift(chsh(), 8)
        r = facet_check(t)
        assert r.is_facet and r.affine_dimension == 79
        assert r.saturating_count == 8 * 2**12
        assert detection_threshold(t, CHSH_Q_ME).eta == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12
        )

    def test_i3322_lifted_to_8x8(self):
        t = lift(i3322(), 8)
        r = facet_check(t)
        assert r.is_facet and r.affine_dimension == 79
        eta = detection_threshold(t, I3322_Q_ME).eta
        assert eta == detection_threshold(i3322(), I3322_Q_ME).eta
        reference = load_report_csv(open(reference_csv_path(), encoding="utf-8").read())
        row = next(row for row in reference if row["name"] == "I3322")
        assert eta == pytest.approx(float(row["eta_sym"]), abs=DEFAULT_TOLERANCES["eta_sym"])

    def test_probability_cap_at_8x8(self):
        # p(00|00) <= 1: valid, a face of dimension 63, decided by the exact fallback
        d = np.zeros((8, 8), dtype=int)
        d[0, 0] = 1
        t = CgTable(Scenario(8, 8), d, np.zeros(8, int), np.zeros(8, int), 1)
        r = facet_check(t)
        assert r.is_valid and not r.is_facet
        assert r.saturating_count == 2**14
        assert r.affine_dimension == 63
