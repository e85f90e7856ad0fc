import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    CgTable,
    FacetReport,
    Scenario,
    detect_lifting,
    facet_check,
    local_bound,
    white_noise_value,
)
from cgbell.localpoly import _PRIMES, _bit_rows, _rational_rank, _vertex_values

import oracles


def embed(table, scenario, rows, cols):
    """Lift a table into a larger scenario by inserting zero rows/columns.

    ``rows[i]`` is the position of the original Alice setting i in the big
    scenario (same for ``cols``).
    """
    d = np.zeros((scenario.na, scenario.nb), dtype=int)
    c = np.zeros(scenario.na, dtype=int)
    e = np.zeros(scenario.nb, dtype=int)
    d[np.ix_(rows, cols)] = table.d
    c[list(rows)] = table.c
    e[list(cols)] = table.e
    return CgTable(scenario, d, c, e, table.bound, table.name)


def random_embedding(table, rng, na, nb):
    """Zero-lift a table into na x nb, its settings kept in order at seeded positions."""
    rows = np.sort(rng.choice(na, table.scenario.na, replace=False))
    cols = np.sort(rng.choice(nb, table.scenario.nb, replace=False))
    return embed(table, Scenario(na, nb), rows, cols)


def random_table(rng, na, nb, lo=-3, hi=3):
    return CgTable(
        Scenario(na, nb),
        d=rng.integers(lo, hi + 1, size=(na, nb)),
        c=rng.integers(lo, hi + 1, size=na),
        e=rng.integers(lo, hi + 1, size=nb),
        bound=0,
    )


class TestEnumerate:
    @pytest.mark.parametrize("na,nb,count", [(1, 1, 4), (2, 2, 16), (4, 4, 256)])
    def test_counts(self, na, nb, count):
        vertices = {(a, b) for a in map(tuple, _bit_rows(na)) for b in map(tuple, _bit_rows(nb))}
        assert len(vertices) == count
        assert all(set(bits) <= {0, 1} for vertex in vertices for bits in vertex)

    def test_lexicographic_order(self):
        # detection's tie rule takes the first maximal vertex in this order
        for n in range(1, 5):
            rows = [tuple(r) for r in _bit_rows(n).tolist()]
            assert rows == sorted(rows) == sorted(set(rows))
            assert rows[0] == (0,) * n and rows[-1] == (1,) * n

    def test_behavior(self, rng):
        # grid cell (i, j) is the functional on the deterministic behavior
        # whose bits are row i of Alice's and row j of Bob's enumeration
        for na, nb in [(1, 1), (2, 3), (3, 2)]:
            t = random_table(rng, na, nb)
            values = _vertex_values(t)
            for i, alpha in enumerate(_bit_rows(na).tolist()):
                for j, beta in enumerate(_bit_rows(nb).tolist()):
                    point = oracles.Behavior.deterministic(t.scenario, alpha, beta)
                    assert values[i, j] == oracles.evaluate(t, point)


class TestLocalBound:
    def test_fixture_bounds(self, fixtures):
        assert [local_bound(t) for t in fixtures] == [0, 0, 2, 1, 2]

    def test_matches_fixture_bound_fields(self, fixtures):
        for t in fixtures:
            assert local_bound(t) == t.bound

    @given(na=st.integers(1, 3), nb=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_against_bruteforce(self, na, nb, seed):
        table = random_table(np.random.default_rng(seed), na, nb)
        assert local_bound(table) == pytest.approx(oracles.local_bound_bruteforce(table))


class TestWhiteNoise:
    def test_fixture_values(self, fixtures):
        expected = [
            Fraction(-1, 2),
            Fraction(-1),
            Fraction(1, 2),
            Fraction(-1, 4),
            Fraction(1, 2),
        ]
        assert [white_noise_value(t) for t in fixtures] == expected

    def test_zero_table(self):
        t = CgTable(Scenario(2, 2), np.zeros((2, 2), int), [0, 0], [0, 0], 0)
        assert white_noise_value(t) == 0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_noise_below_local_bound(self, seed):
        # the white-noise behavior is a convex mixture of the vertices
        table = random_table(np.random.default_rng(seed), 2, 3)
        assert white_noise_value(table) <= local_bound(table)


class TestExactRank:
    # the Fraction elimination behind oracles.facet_check_fraction
    def test_empty_and_zero(self):
        assert oracles.exact_rank([]) == 0
        assert oracles.exact_rank([[0, 0], [0, 0]]) == 0

    def test_known(self):
        assert oracles.exact_rank([[1, 0], [0, 1]]) == 2
        assert oracles.exact_rank([[1, 1], [2, 2]]) == 1

    @given(rows=st.integers(1, 8), cols=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_against_float_rank(self, rows, cols, seed):
        m = np.random.default_rng(seed).integers(-1, 2, size=(rows, cols))
        assert oracles.exact_rank(m.tolist()) == oracles.float_rank(m)


class TestFacetCheck:
    def test_chsh(self, chsh_table):
        report = facet_check(chsh_table)
        assert report.is_valid and report.is_facet
        assert report.saturating_count == 8
        assert report.affine_dimension == 7

    def test_positivity_facet(self):
        # -p(00|00) <= 0 in the 2x2 scenario
        t = CgTable(Scenario(2, 2), [[-1, 0], [0, 0]], [0, 0], [0, 0], 0)
        report = facet_check(t)
        assert report.is_facet
        assert report.saturating_count == 12
        assert report.affine_dimension == 7

    def test_probability_cap_not_a_facet(self):
        # p(00|00) <= 1 is valid but far from a facet
        t = CgTable(Scenario(2, 2), [[1, 0], [0, 0]], [0, 0], [0, 0], 1)
        report = facet_check(t)
        assert report.is_valid and not report.is_facet
        assert report.affine_dimension == 3

    def test_all_fixtures_are_facets(self, fixtures):
        reports = [facet_check(t) for t in fixtures]
        assert all(r.is_facet for r in reports)
        assert [r.affine_dimension for r in reports] == [7, 14, 18, 18, 18]
        assert [r.saturating_count for r in reports] == [8, 20, 24, 26, 24]

    def test_invalid_bound(self, chsh_table):
        loose = CgTable(chsh_table.scenario, chsh_table.d, chsh_table.c, chsh_table.e, 1)
        report = facet_check(loose)
        assert not report.is_valid and not report.is_facet

    def test_empty_face(self, chsh_table):
        # no vertex reaches 5, and the empty set has affine dimension -1
        t = CgTable(chsh_table.scenario, chsh_table.d, chsh_table.c, chsh_table.e, 5)
        assert facet_check(t) == FacetReport(False, 0, -1, False)
        assert oracles.facet_check_fraction(t) == (False, 0, -1, False)

    def test_single_vertex_face(self):
        # only a = b = 1 reaches 3: one vertex, affine dimension 0
        t = CgTable(Scenario(1, 1), [[1]], [1], [1], 3)
        assert facet_check(t) == FacetReport(True, 1, 0, False)
        assert oracles.facet_check_fraction(t) == (True, 1, 0, False)

    def test_primes_certify_every_gram_matrix(self):
        # distinct primes below 2^31 whose product exceeds the Hadamard bound
        # (2^16)^81 of any principal minor of a Gram matrix up to 8x8
        divisors = np.arange(2, math.isqrt(2**31) + 1)
        assert len(set(_PRIMES)) == len(_PRIMES)
        for p in _PRIMES:
            assert p < 2**31 and (p % divisors).all()
        assert math.prod(_PRIMES) > 2 ** (16 * 81)

    @pytest.mark.parametrize(
        "primes", [(2, 3, 5, 7), (7, 2, 3, 5)], ids=["ascending", "7-first"]
    )
    def test_rank_is_the_largest_seen_past_h(self, primes, monkeypatch):
        # diag(6, 5, 0) has rank 2, but rank 1 modulo 2, 3 and 5, whose product
        # only reaches h = 30: the rank is the largest seen once it is passed
        monkeypatch.setattr("cgbell.localpoly._PRIMES", primes)
        assert _rational_rank(np.diag([6, 5, 0]), 3) == 2

    def test_full_polytope_is_not_a_facet(self):
        # the zero functional is saturated by every vertex: affine dim 8, not 7
        t = CgTable(Scenario(2, 2), np.zeros((2, 2), int), [0, 0], [0, 0], 0)
        report = facet_check(t)
        assert report.is_valid and not report.is_facet
        assert report.saturating_count == 16
        assert report.affine_dimension == 8


class TestLifting:
    def test_chsh_not_lifted(self, chsh_table):
        assert detect_lifting(chsh_table) is None

    def test_i3322_embedded_in_4x4(self, i3322_table):
        lifted = embed(i3322_table, Scenario(4, 4), rows=(0, 1, 2), cols=(0, 1, 2))
        result = detect_lifting(lifted)
        assert result is not None
        assert result == i3322_table

    def test_lifting_preserves_local_bound(self, fixtures):
        for t in fixtures:
            lifted = embed(
                t,
                Scenario(t.scenario.na + 1, t.scenario.nb + 1),
                rows=range(1, t.scenario.na + 1),
                cols=range(1, t.scenario.nb + 1),
            )
            result = detect_lifting(lifted)
            assert result is not None
            assert local_bound(lifted) == local_bound(result) == local_bound(t)

    def test_i3422_1_alice_row(self, fixtures):
        t = fixtures[2]
        lifted = embed(t, Scenario(4, 4), rows=(0, 1, 3), cols=(0, 1, 2, 3))
        result = detect_lifting(lifted)
        assert result is not None
        assert result == t
        assert local_bound(lifted) == local_bound(t)

    def test_zero_lifts_keep_validity_and_facet_status(self, fixtures):
        # analyze_table reports facet_check of the reduced table; facet_check
        # of the full table is the oracle
        rng = np.random.default_rng(2005)
        positivity = CgTable(Scenario(2, 2), [[-1, 0], [0, 0]], [0, 0], [0, 0], 0)
        tables = [*fixtures, positivity]
        for _ in range(300):
            t = random_table(rng, *rng.integers(1, 4, size=2).tolist(), lo=-1, hi=1)
            # a quarter of the bounds one below the local bound, so invalid
            bound = local_bound(t) - int(rng.random() < 0.25)
            tables.append(CgTable(t.scenario, t.d, t.c, t.e, bound))
        seen = set()
        for t in tables:
            na = int(rng.integers(t.scenario.na, 9))
            nb = int(rng.integers(t.scenario.nb + (na == t.scenario.na), 9))
            lift = random_embedding(t, rng, na, nb)
            full, reduced = facet_check(lift), facet_check(detect_lifting(lift))
            assert (reduced.is_valid, reduced.is_facet) == (full.is_valid, full.is_facet), lift
            seen.add((full.is_valid, full.is_facet))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_zero_table_keeps_one_setting(self):
        t = CgTable(Scenario(2, 2), np.zeros((2, 2), int), [0, 0], [0, 0], 0)
        result = detect_lifting(t)
        assert result is not None
        assert result.scenario == Scenario(1, 1)
