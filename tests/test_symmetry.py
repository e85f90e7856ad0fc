import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    CgTable,
    Scenario,
    canonical_form,
    correlation_form,
    local_bound,
    white_noise_value,
)
from cgbell.localpoly import _vertex_values
from cgbell.symmetry import _flipped, _least_row

import oracles
from oracles import Relabeling, apply_relabeling, evaluate, random_relabeling
from test_localpoly import embed, random_table

# the 128 elements of the 2x2 relabeling group, one per normal form
# (flips, permutations, swap)
GROUP_2X2 = [
    Relabeling(perm_a, perm_b, flip_a, flip_b, swap)
    for swap in (False, True)
    for perm_a, perm_b in itertools.product([(0, 1), (1, 0)], repeat=2)
    for flip_a, flip_b in itertools.product(itertools.product((0, 1), repeat=2), repeat=2)
]


def at_local_bound(d, c, e) -> CgTable:
    t = CgTable(Scenario(*np.shape(d)), d, c, e, 0)
    return CgTable(t.scenario, t.d, t.c, t.e, local_bound(t))


def circulant(rng, n) -> CgTable:
    """A +-1 circulant d, with random c and e in {-1, 0, 1}."""
    first = rng.choice([-1, 1], size=n)
    d = np.array([np.roll(first, k) for k in range(n)])
    return at_local_bound(d, rng.integers(-1, 2, size=n), rng.integers(-1, 2, size=n))


def constant_c(rng, n) -> CgTable:
    d = rng.integers(-1, 2, size=(n, n))
    return at_local_bound(d, np.full(n, int(rng.integers(-1, 2))), rng.integers(-1, 2, size=n))


def hadamard_8x8() -> CgTable:
    """The 8x8 Sylvester-Hadamard correlator table: d = 2H, c = -H 1, e = -H^T 1."""
    h = np.array([[1]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    return at_local_bound(2 * h, -h.sum(axis=1), -h.sum(axis=0))


def identity_8x8(sign) -> CgTable:
    return at_local_bound(sign * np.eye(8, dtype=int), np.zeros(8, int), np.zeros(8, int))


# 8x8 tables with many maximal vertices and many rows tied in c; the
# Hadamard and identity tables were the slowest known for the row-order search
WORST_8X8 = {
    "hadamard": hadamard_8x8,
    "plus_identity": lambda: identity_8x8(1),
    "minus_identity": lambda: identity_8x8(-1),
    "circulant": lambda: circulant(np.random.default_rng(8), 8),
}


def test_identity_fixes_table(chsh_table):
    r = Relabeling((0, 1), (0, 1), (0, 0), (0, 0))
    assert apply_relabeling(chsh_table, r) == chsh_table


def test_single_flip_is_involution(chsh_table):
    r = Relabeling((0, 1), (0, 1), (1, 0), (0, 0))
    flipped = apply_relabeling(chsh_table, r)
    assert flipped != chsh_table
    assert apply_relabeling(flipped, r) == chsh_table


def test_flip_coefficient_rules(chsh_table):
    # flip Alice's outcome at setting 0: d row negates, e absorbs the row,
    # c0 negates, the bound drops by c0
    r = Relabeling((0, 1), (0, 1), (1, 0), (0, 0))
    t = apply_relabeling(chsh_table, r)
    assert t.d.tolist() == [[-1, -1], [1, -1]]
    assert t.c.tolist() == [1, 0]
    assert t.e.tolist() == [0, 1]
    assert t.bound == 1
    # the package's batched rule, which canonical_form applies, agrees
    d, c, e = _flipped(chsh_table, np.array([[1, 0]]), np.array([[0, 0]]))
    assert (d[0].tolist(), c[0].tolist(), e[0].tolist()) == (t.d.tolist(), t.c.tolist(), t.e.tolist())


def test_group_size_2x2():
    # every vertex value but V(0, 0) is positive, so any flip moves the
    # bound, and distinct c, e and d rule out a permutation or the swap:
    # the 128 normal forms give 128 distinct tables
    table = CgTable(Scenario(2, 2), [[1, 2], [3, 5]], [7, 11], [13, 17], 0)
    assert len({apply_relabeling(table, r).key() for r in GROUP_2X2}) == 128


def test_chsh_all_relabelings_stay_tight(chsh_table):
    # CHSH is tight, so the transformed bound is the transformed local bound
    for r in GROUP_2X2:
        t = apply_relabeling(chsh_table, r)
        assert local_bound(t) == t.bound


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_functional_identity_on_behaviors(seed):
    # evaluating the relabeled table on the relabeled behavior shifts by the
    # bound shift: I'(B') - b' == I(B) - b
    rng = np.random.default_rng(seed)
    table = random_table(rng, 2, 3)
    r = random_relabeling(table.scenario, rng)
    relabeled = apply_relabeling(table, r)
    for _ in range(3):
        behavior = oracles.random_behavior(table.scenario, rng)
        transported = oracles.relabel_behavior(behavior, r)
        lhs = evaluate(relabeled, transported) - relabeled.bound
        rhs = evaluate(table, behavior) - table.bound
        assert abs(lhs - rhs) < 1e-12


def test_vertex_value_multiset_preserved(fixtures, rng):
    # relabelings permute the vertices, so the multiset of vertex values is
    # fixed up to the bound shift
    for t in fixtures:
        r = random_relabeling(t.scenario, rng)
        relabeled = apply_relabeling(t, r)
        base = sorted(v - t.bound for v in _vertex_values(t).ravel().tolist())
        moved = sorted(v - relabeled.bound for v in _vertex_values(relabeled).ravel().tolist())
        assert base == moved


def test_l_minus_n_preserved(fixtures, rng):
    for t in fixtures:
        r = random_relabeling(t.scenario, rng)
        relabeled = apply_relabeling(t, r)
        assert local_bound(t) - white_noise_value(t) == local_bound(relabeled) - white_noise_value(relabeled)


def least_row_input(kind, rng):
    """A seeded int64 array of one of the shapes that _least_row meets."""
    n, width = int(rng.integers(2, 40)), int(rng.integers(1, 17))
    if kind == "one row":
        return rng.integers(-5, 6, size=(1, width))
    if kind == "all rows equal":
        return np.repeat(rng.integers(-5, 6, size=(1, width)), n, axis=0)
    if kind == "ties on a prefix":
        # a shared prefix, then few values, so copies of the least row remain
        rows = rng.integers(0, 2, size=(n, width))
        prefix = int(rng.integers(1, width + 1))
        rows[:, :prefix] = rng.integers(-3, 4, size=prefix)
        return rows
    if kind == "negative entries":
        # the candidate filter's sorted c and e reach about -2^47
        return rng.choice([-(2**47), -(2**44) - 1, -3, -1, 0, 2], size=(n, width))
    # _least_rows' keys class * span + value + off reach about 2^48
    return 2**48 - rng.integers(0, 3, size=(n, width))


@pytest.mark.parametrize(
    "kind",
    ["one row", "all rows equal", "ties on a prefix", "negative entries", "near 2^48"],
)
def test_least_row_is_the_lexicographic_minimum(kind):
    rng = np.random.default_rng(1811)
    for _ in range(50):
        rows = least_row_input(kind, rng).astype(np.int64)
        least, mask = _least_row(rows)
        want = min(map(tuple, rows.tolist()))
        assert tuple(least.tolist()) == want
        assert mask.tolist() == [row == want for row in map(tuple, rows.tolist())]


class TestCanonicalForm:
    def test_setting_swap_same_orbit(self, chsh_table):
        swapped = apply_relabeling(
            chsh_table, Relabeling((1, 0), (0, 1), (0, 0), (0, 0))
        )
        assert canonical_form(chsh_table) == canonical_form(swapped)

    def test_idempotent(self, chsh_table):
        canon = canonical_form(chsh_table)
        assert canonical_form(canon) == canon

    def test_constant_on_orbit(self, chsh_table, rng):
        canon = canonical_form(chsh_table)
        for _ in range(10):
            r = random_relabeling(chsh_table.scenario, rng)
            assert canonical_form(apply_relabeling(chsh_table, r)) == canon

    def test_orbit_size_divides_group_order(self, chsh_table):
        orbit = {apply_relabeling(chsh_table, r).key() for r in GROUP_2X2}
        assert 128 % len(orbit) == 0

    def test_chsh_lifted_differs_from_i3322(self, chsh_table, i3322_table):
        lifted = embed(chsh_table, Scenario(3, 3), rows=(0, 1), cols=(0, 1))
        assert canonical_form(lifted) != canonical_form(i3322_table)

    def test_scale_normalisation(self, chsh_table):
        doubled = CgTable(
            chsh_table.scenario,
            2 * chsh_table.d,
            2 * chsh_table.c,
            2 * chsh_table.e,
            2 * chsh_table.bound,
        )
        assert canonical_form(doubled) == canonical_form(chsh_table)

    def test_drops_name(self, chsh_table):
        assert canonical_form(chsh_table).name is None

    @pytest.mark.parametrize(
        "na,nb,count",
        [(1, 1, 20), (1, 2, 30), (2, 1, 30), (2, 2, 60), (2, 3, 60), (3, 2, 60),
         (3, 3, 60), (1, 4, 30), (4, 2, 30), (3, 4, 20), (4, 4, 20)],
    )
    def test_matches_orbit_scan(self, na, nb, count):
        # coefficients in {-1, 0, 1} leave many ties in c, e and the bound
        rng = np.random.default_rng([na, nb])
        for _ in range(count):
            t = random_table(rng, na, nb, -1, 1)
            t = CgTable(t.scenario, t.d, t.c, t.e, int(rng.integers(-3, 4)))
            assert canonical_form(t) == oracles.canonical_form_scan(t)

    def test_relabeled_lifts_match_orbit_scan(self, fixtures, rng):
        for t in fixtures:
            lifted = embed(t, Scenario(4, 4), range(t.scenario.na), range(t.scenario.nb))
            for _ in range(2):
                relabeled = apply_relabeling(lifted, random_relabeling(lifted.scenario, rng))
                assert canonical_form(relabeled) == oracles.canonical_form_scan(relabeled)

    @pytest.mark.parametrize("n", [5, 6])
    def test_constant_on_orbit_beyond_the_scan(self, n, rng):
        for _ in range(5):
            t = random_table(rng, n, n, -1, 1)
            canon = canonical_form(t)
            for _ in range(3):
                r = random_relabeling(t.scenario, rng)
                assert canonical_form(apply_relabeling(t, r)) == canon

    def test_constant_on_orbit_at_8x8(self, i3322_table, rng):
        lifted = embed(i3322_table, Scenario(8, 8), (1, 4, 6), (0, 5, 7))
        canon = canonical_form(lifted)
        assert canon == canonical_form(embed(i3322_table, Scenario(8, 8), (0, 1, 2), (0, 1, 2)))
        for _ in range(3):
            r = random_relabeling(lifted.scenario, rng)
            assert canonical_form(apply_relabeling(lifted, r)) == canon

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_row_order_oracle(self, n):
        rng = np.random.default_rng([n, 13])
        for _ in range(3):
            t = random_table(rng, n, n, -1, 1)
            # entries near 2**37 need the int64 keys to stay exact
            big = at_local_bound(2**37 * t.d + t.d.T, 2**37 * t.c, t.e)
            small = at_local_bound(t.d, t.c, t.e)
            for table in (small, big, circulant(rng, n), constant_c(rng, n)):
                assert canonical_form(table) == oracles.canonical_form_orders(table)

    @pytest.mark.parametrize("name", sorted(WORST_8X8))
    def test_worst_cases_at_8x8(self, name, rng):
        # the oracle takes over a second on the Hadamard table, so it runs
        # once per table and the relabelings are compared with its answer
        t = WORST_8X8[name]()
        canon = oracles.canonical_form_orders(t)
        for _ in range(2):
            assert canonical_form(apply_relabeling(t, random_relabeling(t.scenario, rng))) == canon
        assert canonical_form(canon) == canon
        assert canonical_form(CgTable(t.scenario, 3 * t.d, 3 * t.c, 3 * t.e, 3 * t.bound)) == canon


class TestCorrelationForm:
    def test_chsh(self, chsh_table):
        g = correlation_form(chsh_table)
        assert g is not None
        quarter = Fraction(1, 4)
        assert g == ((quarter, quarter), (quarter, -quarter))
        assert -white_noise_value(chsh_table) == Fraction(1, 2)
        # E-form local bound: 4 * (bound - N) gives the familiar
        # E00+E01+E10-E11 <= 2
        assert 4 * (chsh_table.bound - white_noise_value(chsh_table)) == 2

    def test_i3322_has_none(self, i3322_table):
        assert correlation_form(i3322_table) is None

    def test_zero_table(self):
        t = CgTable(Scenario(2, 2), np.zeros((2, 2), int), [0, 0], [0, 0], 0)
        g = correlation_form(t)
        assert g is not None
        assert all(v == 0 for row in g for v in row)

    def test_invariant_under_relabeling(self, chsh_table, i3322_table, rng):
        for t, expected in ((chsh_table, True), (i3322_table, False)):
            for _ in range(8):
                r = random_relabeling(t.scenario, rng)
                assert (correlation_form(apply_relabeling(t, r)) is not None) is expected

    def test_reconstruction_identity(self, chsh_table, rng):
        # rebuilding a CG table from g gives the table's functional, and
        # N + sum g E equals it on every behavior
        g = np.array([[float(v) for v in row] for row in correlation_form(chsh_table)])
        rebuilt = CgTable(
            chsh_table.scenario,
            (4 * g).astype(int),
            (-2 * g.sum(axis=1)).astype(int),
            (-2 * g.sum(axis=0)).astype(int),
            chsh_table.bound,
        )
        assert rebuilt == chsh_table.with_name(None)
        for _ in range(5):
            b = oracles.random_behavior(chsh_table.scenario, rng)
            correlators = 4 * b.joint - 2 * b.marg_a[:, None] - 2 * b.marg_b[None, :] + 1
            e_value = float(np.sum(g * correlators)) + white_noise_value(chsh_table)
            assert abs(e_value - evaluate(chsh_table, b)) < 1e-12

    @pytest.mark.parametrize("na,nb", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4)])
    def test_matches_flip_search(self, na, nb, rng):
        # random tables mostly have no correlator form; tables built from a
        # random correlator matrix g, then relabeled, always have one
        for _ in range(15):
            t = random_table(rng, na, nb, -1, 1)
            g = rng.integers(-2, 3, size=(na, nb))
            built = CgTable(t.scenario, 4 * g, -2 * g.sum(axis=1), -2 * g.sum(axis=0), 0)
            built = apply_relabeling(built, random_relabeling(built.scenario, rng))
            for table in (t, built):
                g, found = correlation_form(table), oracles.correlation_form_search(table)
                assert (g is None) is (found is None)
                if found is not None:
                    assert (g, -white_noise_value(table)) == found[:2]
                    assert found[2] == Relabeling(
                        tuple(range(na)), tuple(range(nb)), (0,) * na, (0,) * nb
                    )
            assert correlation_form(built) is not None
