import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    Behavior,
    CgTable,
    ParseError,
    Scenario,
    ScenarioMismatchError,
    evaluate,
    local_bound,
    parse_file,
    serialize_file,
)
from cgbell.model import MAX_COEFFICIENT

import oracles

CHSH_BLOCK = """\
inequality CHSH
scenario 2 2
bound 0
c -1 0
e -1 0
d 1 1
  1 -1
end
"""


class TestScenario:
    def test_cg_dimension(self):
        assert Scenario(2, 2).cg_dimension() == 8
        assert Scenario(3, 3).cg_dimension() == 15
        assert Scenario(4, 4).cg_dimension() == 24

    @pytest.mark.parametrize("na,nb", [(0, 1), (1, 0), (9, 1), (1, 9), (-1, 2)])
    def test_size_limits(self, na, nb):
        with pytest.raises(ValueError):
            Scenario(na, nb)

    def test_str(self):
        assert str(Scenario(3, 4)) == "3x4"


class TestCgTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CgTable(Scenario(2, 2), d=[[1, 1]], c=[0, 0], e=[0, 0], bound=0)
        with pytest.raises(ValueError):
            CgTable(Scenario(2, 2), d=[[1, 1], [1, 1]], c=[0], e=[0, 0], bound=0)

    def test_integrality(self):
        with pytest.raises(ValueError):
            CgTable(Scenario(1, 1), d=[[0.5]], c=[0], e=[0], bound=0)
        # integral floats are accepted and coerced
        t = CgTable(Scenario(1, 1), d=[[2.0]], c=[1.0], e=[-1.0], bound=1)
        assert t.d.dtype == np.int64
        with pytest.raises(ValueError):
            CgTable(Scenario(1, 1), d=[[1]], c=[0], e=[0], bound=0.5)

    def test_coefficient_magnitude(self):
        # 2^62 in every d entry used to overflow int64 in the vertex grid
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(2, 2), d=[[2**62] * 2] * 2, c=[0, 0], e=[0, 0], bound=0)
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=[[0]], c=[-(MAX_COEFFICIENT + 1)], e=[0], bound=0)
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=[[0]], c=[0], e=[10**23], bound=0)
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=[[0]], c=[0], e=[0], bound=MAX_COEFFICIENT + 1)
        # values a cast to int64 would wrap, and the one whose abs() wraps
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=np.array([[2**64 - 1]], dtype=np.uint64), c=[0], e=[0], bound=0)
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=[[0]], c=[np.iinfo(np.int64).min], e=[0], bound=0)
        with pytest.raises(ValueError, match="2\\*\\*44"):
            CgTable(Scenario(1, 1), d=[[np.inf]], c=[0], e=[0], bound=0)

    def test_largest_coefficients_stay_exact(self):
        n = 8
        t = CgTable(
            Scenario(n, n),
            d=np.full((n, n), MAX_COEFFICIENT),
            c=np.full(n, MAX_COEFFICIENT),
            e=np.full(n, MAX_COEFFICIENT),
            bound=MAX_COEFFICIENT,
        )
        assert local_bound(t) == (n * n + 2 * n) * MAX_COEFFICIENT

    def test_name_validation(self):
        with pytest.raises(ValueError):
            CgTable(Scenario(1, 1), [[1]], [0], [0], 0, name="bad#name")
        with pytest.raises(ValueError):
            CgTable(Scenario(1, 1), [[1]], [0], [0], 0, name="")

    def test_immutability(self, chsh_table):
        with pytest.raises(ValueError):
            chsh_table.d[0, 0] = 5

    def test_equality_includes_name(self, chsh_table):
        assert chsh_table == chsh_table.with_name("CHSH")
        assert chsh_table != chsh_table.with_name("other")
        assert chsh_table.key() == chsh_table.with_name("other").key()


class TestBehavior:
    def test_joint_above_marginal_rejected(self):
        with pytest.raises(ValueError):
            Behavior(Scenario(1, 1), joint=[[0.8]], marg_a=[0.5], marg_b=[0.9])

    def test_negative_p11_rejected(self):
        with pytest.raises(ValueError):
            Behavior(Scenario(1, 1), joint=[[0.0]], marg_a=[0.7], marg_b=[0.7])

    def test_white_noise(self):
        b = Behavior.white_noise(Scenario(2, 3))
        assert np.all(b.joint == 0.25) and np.all(b.marg_a == 0.5)

    def test_mix_stays_valid(self, rng):
        s = Scenario(2, 2)
        b1 = oracles.random_behavior(s, rng)
        b2 = oracles.random_behavior(s, rng)
        mixed = b1.mix(b2, 0.3)
        assert mixed.joint.shape == (2, 2)


class TestEvaluate:
    def test_zero_behavior(self, chsh_table):
        zero = Behavior(Scenario(2, 2), np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        assert evaluate(chsh_table, zero) == 0.0

    def test_deterministic_point(self, chsh_table):
        # alpha=(1,1), beta=(1,0): d00 + d10 + c0 + c1 + e0 = 1+1-1+0-1 = 0
        b = Behavior.deterministic(Scenario(2, 2), (1, 1), (1, 0))
        assert evaluate(chsh_table, b) == 0.0

    def test_white_noise_value(self, chsh_table):
        assert evaluate(chsh_table, Behavior.white_noise(Scenario(2, 2))) == -0.5

    def test_scenario_mismatch(self, chsh_table):
        with pytest.raises(ScenarioMismatchError):
            evaluate(chsh_table, Behavior.white_noise(Scenario(3, 3)))

    @given(weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, weight, seed):
        rng = np.random.default_rng(seed)
        table = CgTable(
            Scenario(2, 3),
            d=rng.integers(-3, 4, size=(2, 3)),
            c=rng.integers(-3, 4, size=2),
            e=rng.integers(-3, 4, size=3),
            bound=0,
        )
        b1 = oracles.random_behavior(table.scenario, rng)
        b2 = oracles.random_behavior(table.scenario, rng)
        mixed = b1.mix(b2, weight)
        expected = weight * evaluate(table, b1) + (1 - weight) * evaluate(table, b2)
        assert abs(evaluate(table, mixed) - expected) < 1e-12


class TestParse:
    def test_chsh_block(self, chsh_table):
        tables = parse_file(CHSH_BLOCK)
        assert tables == [chsh_table]

    def test_empty_input(self):
        assert parse_file("") == []
        assert parse_file("# only comments\n\n") == []

    def test_comments_and_blanks(self):
        text = "# header\n\n" + CHSH_BLOCK.replace("bound 0", "bound 0  # the local bound")
        assert len(parse_file(text)) == 1

    def test_wrong_c_length_names_line(self):
        text = CHSH_BLOCK.replace("c -1 0", "c -1 0 7")
        with pytest.raises(ParseError) as err:
            parse_file(text)
        assert err.value.lineno == 4
        assert "c" in str(err.value)

    def test_non_integer_coefficient(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_file(CHSH_BLOCK.replace("d 1 1", "d 1 0.5"))

    def test_huge_coefficient(self):
        with pytest.raises(ParseError, match="2\\*\\*44") as err:
            parse_file(CHSH_BLOCK.replace("d 1 1", "d 1 12345678901234567890123"))
        assert err.value.lineno == 6

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_file(CHSH_BLOCK.replace("end", ""))

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="expected 'scenario'"):
            parse_file("inequality X\nbounds 0\n")

    def test_unnamed_inequality(self):
        tables = parse_file(CHSH_BLOCK.replace("inequality CHSH", "inequality"))
        assert tables[0].name is None

    def test_order_preserved(self, fixtures):
        parsed = parse_file(serialize_file(fixtures))
        assert [t.name for t in parsed] == [t.name for t in fixtures]


class TestSerialize:
    def test_empty(self):
        assert serialize_file([]) == ""

    def test_round_trip_fixtures(self, fixtures):
        assert parse_file(serialize_file(fixtures)) == fixtures

    @given(
        na=st.integers(1, 4),
        nb=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        name=st.one_of(
            st.none(),
            st.text(
                alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-"),
                min_size=1,
                max_size=12,
            ),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, na, nb, seed, name):
        rng = np.random.default_rng(seed)
        table = CgTable(
            Scenario(na, nb),
            d=rng.integers(-9, 10, size=(na, nb)),
            c=rng.integers(-9, 10, size=na),
            e=rng.integers(-9, 10, size=nb),
            bound=int(rng.integers(-9, 10)),
            name=name,
        )
        assert parse_file(serialize_file([table, table])) == [table, table]
