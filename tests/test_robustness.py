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
    all_fixtures,
    chsh,
    detection_threshold,
    facet_check,
    i3322,
    i3422_1,
    load_report_csv,
    local_bound,
    noise_resistance,
    quantum_bound,
    reference_csv_path,
    white_noise_value,
)
from cgbell import localpoly, robustness
from cgbell.analysis import DEFAULT_TOLERANCES
from cgbell.model import MAX_COEFFICIENT
from cgbell.quantum import QUARTER_PI, _margin
from cgbell.robustness import _threshold_roots

import oracles
from test_localpoly import embed, random_table

CHSH_Q_ME = (math.sqrt(2) - 1) / 2
I3322_Q_ME = 0.25


def lift(table, n):
    return embed(table, Scenario(n, n), range(table.scenario.na), range(table.scenario.nb))


def direct_sum(*tables):
    """The block-diagonal sum on disjoint settings; its bound is the sum of the bounds."""
    d = np.zeros((sum(t.scenario.na for t in tables), sum(t.scenario.nb for t in tables)), int)
    x = y = 0
    for t in tables:
        d[x : x + t.scenario.na, y : y + t.scenario.nb] = t.d
        x, y = x + t.scenario.na, y + t.scenario.nb
    return CgTable(
        Scenario(*d.shape),
        d,
        np.concatenate([t.c for t in tables]),
        np.concatenate([t.e for t in tables]),
        sum(t.bound for t in tables),
    )


@pytest.fixture(scope="module")
def fixture_q_me(fixtures):
    return [
        quantum_bound(t, fix_theta=QUARTER_PI, seed=1).value for t in fixtures
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


def eta_sym(table, q_me):
    return detection_threshold(table, q_me).eta


@pytest.mark.parametrize("threshold", [noise_resistance, eta_sym])
class TestQuantumValueCheck:
    def test_a_value_no_run_returns_raises(self, chsh_table, threshold):
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="quantum value must be finite"):
                threshold(chsh_table, q)
        with pytest.raises(InconsistencyError):
            threshold(chsh_table, white_noise_value(chsh_table) - 1)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_consistent_value_gives_a_threshold_in_the_unit_interval(self, threshold, data):
        table = data.draw(st.sampled_from(all_fixtures()))
        noise = white_noise_value(table)
        q = data.draw(st.floats(noise - _margin(table), noise + 2.0**40))
        assert 0.0 < threshold(table, q) <= 1.0


class TestNoiseResistance:
    def test_reference_fixtures_against_exact_ratio(self, fixtures):
        # the reference Q is given as Q - L, so it carries over to the
        # fixtures' own normalisation
        reference = load_report_csv(open(reference_csv_path(), encoding="utf-8").read())
        for t, row in zip(fixtures, reference):
            assert t.name == row["name"]
            bound, noise = local_bound(t), oracles.white_noise_fraction(t)
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
            noise, margin = float(white_noise_value(t)), _margin(t)
            assert noise_resistance(t, noise - 0.5 * margin) == 1.0
            with pytest.raises(InconsistencyError):
                noise_resistance(t, noise - 2 * margin)


class TestThresholdRoots:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_np_roots(self, seed):
        # only triples with c <= 0 < a + b + c, as detection_threshold builds
        # them: zeros, a = 0 with b > 0, c = 0 and the double root at 0 among
        # the random ones, then downward parabolas with roots 1 -+ sqrt(eps)
        rng = np.random.default_rng(seed)
        n = 256
        a = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0, 4, size=n)
        b = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0, 4, size=n)
        # c = X - L is +0.0 at a saturating vertex, where c/q would be -0.0
        c = np.where(rng.random(n) < 0.5, 0.0, -rng.uniform(0, 4, size=n))
        inside = a + b + c > 0.0
        a, b, c = a[inside], b[inside], c[inside]
        down = -rng.uniform(0.1, 4, size=16)
        eps = 10.0 ** rng.uniform(-12, -9, size=16)
        a, b, c = (np.concatenate(v) for v in ((a, down), (b, -2 * down), (c, down * (1 - eps))))
        assert (c <= 0.0).all() and (a + b + c > 0.0).all()
        got = _threshold_roots(a, b, c)
        want = [oracles.threshold_root(*abc) for abc in zip(a, b, c)]
        # roots 1 -+ sqrt(eps), 2e-6 apart or more, are conditioned to about 1e-10
        assert got == pytest.approx(want, abs=1e-9)
        assert not np.signbit(got).any()  # no -0.0, which np.roots never returns

    def test_contract_holds_in_every_call(self, fixtures, fixture_q_me, monkeypatch):
        # the closed form is exact only for c <= 0 < a + b + c: every cell that
        # detection_threshold hands the kernel must satisfy it
        calls = []

        def recorder(a, b, c):
            got = _threshold_roots(a, b, c)
            assert (c <= 0.0).all() and (a + b + c > 0.0).all()
            want = [oracles.threshold_root(*abc) for abc in zip(a.ravel(), b.ravel(), c.ravel())]
            assert got.ravel() == pytest.approx(want, abs=1e-9)
            calls.append(a.shape)
            return got

        monkeypatch.setattr(robustness, "_threshold_roots", recorder)
        cases = list(zip(fixtures, fixture_q_me))
        cases += [(lift(t, 4), q) for t, q in zip(fixtures, fixture_q_me)]
        cases += [random_violating(seed) for seed in range(60)]
        for table, q_me in cases:
            detection_threshold(table, q_me)
        assert len(calls) == len(cases)


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
        # and go on through the primes until their product passes h
        small = [p for p in range(2, 1000) if all(p % f for f in range(2, math.isqrt(p) + 1))]
        monkeypatch.setattr(localpoly, "_PRIMES", tuple(small))
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
        # which the first prime cannot certify
        for bound in (-1, -2):
            t = CgTable(chsh_table.scenario, chsh_table.d, chsh_table.c, chsh_table.e, bound)
            r = facet_check(t)
            assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == (
                oracles.facet_check_fraction(t)
            )


    def test_faces_below_full_rank(self):
        # dense random tables at their local bound, or at their next vertex
        # value, saturate fewer vertices than the D + 1 rows of the Gram
        # matrix, so the row reduction stops at the rank bound n
        rng = np.random.default_rng(17)
        faces = 0
        for n in range(2, 7):
            for _ in range(8):
                t = random_table(rng, n, n)
                for bound in sorted(set(localpoly._vertex_values(t).ravel()))[-2:]:
                    t = CgTable(t.scenario, t.d, t.c, t.e, int(bound))
                    r = facet_check(t)
                    if not 2 <= r.saturating_count < t.scenario.cg_dimension() + 1:
                        continue
                    faces += 1
                    assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == (
                        oracles.facet_check_fraction(t)
                    )
        assert faces >= 40

    def test_rank_deficient_direct_sum(self):
        # CHSH + CHSH saturates a face of dimension 22 < 23: its Gram rank
        # falls short of the upper bound under every prime
        t = direct_sum(chsh(), chsh())
        r = facet_check(t)
        assert (r.is_valid, r.saturating_count, r.affine_dimension, r.is_facet) == (
            oracles.facet_check_fraction(t)
        )
        assert r.affine_dimension == 22

    @pytest.mark.parametrize(
        "parts,dim",
        [
            ("CHSH+CHSH+CHSH", 45),
            ("I3322+I3322", 46),
            ("CHSH+CHSH+I3422_1", 68),
            ("CHSH+CHSH+CHSH+CHSH", 76),
            ("CHSH+I3322+I3322", 77),
        ],
    )
    def test_rank_deficient_direct_sums_up_to_8x8(self, parts, dim):
        # dimensions recorded from Fraction elimination of the Gram matrix
        tables = {"CHSH": chsh(), "I3322": i3322(), "I3422_1": i3422_1()}
        r = facet_check(direct_sum(*(tables[name] for name in parts.split("+"))))
        assert r.is_valid and not r.is_facet
        assert r.affine_dimension == dim

    def test_hadamard_zero_face(self):
        # d = H, c = e = 0 at 0: 11,664 saturating vertices span dimension 78,
        # as recorded from Fraction elimination of the Gram matrix
        h = np.array([[1]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        t = CgTable(Scenario(8, 8), h, np.zeros(8, int), np.zeros(8, int), 0)
        r = facet_check(t)
        assert (r.is_valid, r.saturating_count, r.affine_dimension) == (False, 11664, 78)


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
        # p(00|00) <= 1: valid, a face of dimension 63, decided by further primes
        d = np.zeros((8, 8), dtype=int)
        d[0, 0] = 1
        t = CgTable(Scenario(8, 8), d, np.zeros(8, int), np.zeros(8, int), 1)
        r = facet_check(t)
        assert r.is_valid and not r.is_facet
        assert r.saturating_count == 2**14
        assert r.affine_dimension == 63
