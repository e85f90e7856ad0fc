import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgbell import (
    CgTable,
    ParseError,
    Scenario,
    all_fixtures,
    correlation_form,
    detection_threshold,
    local_bound,
    parse_file,
    serialize_file,
    white_noise_value,
)
from cgbell.model import MAX_COEFFICIENT

import oracles
from oracles import Behavior, evaluate

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

# the characters other than \r and \n at which str.splitlines ends a line
LINE_BREAKS_OF_SPLITLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
FIXTURES_TEXT = serialize_file(all_fixtures())
# what a mutation of a file inserts most often: keywords, digits, signs,
# separators, comments and line breaks of every kind
MUTATION_PIECES = list("0123456789+-_ #\t\n\r") + LINE_BREAKS_OF_SPLITLINES + [
    "end", "inequality", "scenario 1 1", "bound", "c", "e", "d", "99999999999999"
]


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

    def test_values_near_the_cap_are_exact(self, rng):
        # odd coefficients near +-2^44 in 8x8 tables: N, M_A, M_B, X and the
        # correlator form are multiples of 1/4 up to about 2^50, which float64
        # holds exactly, as the Fraction references show
        n = 8
        checkerboard = 1 - 2 * (np.add.outer(np.arange(n), np.arange(n)) % 2)

        def near_cap(signs):
            return signs * (MAX_COEFFICIENT - 1 - 2 * rng.integers(0, 2**10, size=signs.shape))

        for signs in (np.ones((n, n), int), rng.choice([-1, 1], size=(n, n)), checkerboard):
            t = CgTable(Scenario(n, n), near_cap(signs), near_cap(signs[0]), near_cap(signs[1]), 0)
            assert white_noise_value(t) == oracles.white_noise_fraction(t)
            # no violation, and one far above every vertex value
            for q_me in (0.0, 2.0**52):
                got = detection_threshold(t, q_me)
                assignment = got.strategy.a_outputs, got.strategy.b_outputs
                assert (got.m_a, got.m_b, got.x) == oracles.assignment_values(t, *assignment)
            d = near_cap(checkerboard)  # rows and columns sum to little
            corr = CgTable(Scenario(n, n), d, -d.sum(axis=1) // 2, -d.sum(axis=0) // 2, 0)
            g = correlation_form(corr)
            assert (g, -white_noise_value(corr)) == oracles.correlation_form_search(corr)[:2]
            assert white_noise_value(corr) == -float(np.sum(g))

    def test_name_validation(self):
        with pytest.raises(ValueError):
            CgTable(Scenario(1, 1), [[1]], [0], [0], 0, name="bad#name")
        # each of these would not survive serialize_file and parse_file
        for name in ("", "a\nb", "a\rb", "a\x0cb", "a\x85b", "a\u2028b", " pad ", "pad\t"):
            with pytest.raises(ValueError):
                CgTable(Scenario(1, 1), [[1]], [0], [0], 0, name=name)
        assert CgTable(Scenario(1, 1), [[1]], [0], [0], 0, name="a b\tc").name == "a b\tc"

    @pytest.mark.parametrize(
        "values", [[[1 + 1j, 0], [0, 0]], [["1", "0"], ["0", "0"]], [[None, 0], [0, 0]]]
    )
    def test_non_real_coefficients(self, values):
        # numpy would drop the imaginary part with a ComplexWarning, and fail
        # on the str and None entries with its own TypeErrors
        with pytest.raises(ValueError, match="real numbers"):
            CgTable(Scenario(2, 2), d=values, c=[0, 0], e=[0, 0], bound=0)
        with pytest.raises(ValueError, match="real numbers"):
            CgTable(Scenario(1, 2), d=[[0, 0]], c=[0], e=values[0], bound=0)
        assert CgTable(Scenario(1, 1), d=[[True]], c=[0], e=[0], bound=0).d.tolist() == [[1]]

    def test_immutability(self, chsh_table):
        with pytest.raises(ValueError):
            chsh_table.d[0, 0] = 5

    def test_equality_includes_name(self, chsh_table):
        assert chsh_table == chsh_table.with_name("CHSH")
        assert chsh_table != chsh_table.with_name("other")
        assert chsh_table.key() == chsh_table.with_name("other").key()


class TestBehavior:
    """The reference behavior type of tests/oracles.py, which the package's
    vertex grid and see-saw values are checked against."""

    def test_joint_above_marginal_rejected(self):
        with pytest.raises(ValueError):
            Behavior(Scenario(1, 1), joint=[[0.8]], marg_a=[0.5], marg_b=[0.9])

    def test_negative_p11_rejected(self):
        with pytest.raises(ValueError):
            Behavior(Scenario(1, 1), joint=[[0.0]], marg_a=[0.7], marg_b=[0.7])

    def test_white_noise(self):
        b = Behavior.white_noise(Scenario(2, 3))
        assert np.all(b.joint == 0.25) and np.all(b.marg_a == 0.5)


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
        assert white_noise_value(chsh_table) == -0.5

    def test_scenario_mismatch(self, chsh_table):
        with pytest.raises(ValueError):
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
        mixed = Behavior(
            table.scenario,
            weight * b1.joint + (1 - weight) * b2.joint,
            weight * b1.marg_a + (1 - weight) * b2.marg_a,
            weight * b1.marg_b + (1 - weight) * b2.marg_b,
        )
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

    @pytest.mark.parametrize(
        "token,value",
        [("-1_0", None), ("\u0660", None), ("\uff11", None), ("+3", 3), ("-0", 0)],
    )
    def test_integer_spelling(self, token, value):
        # only the ASCII integers serialize_file writes: int() alone reads
        # -1_0 as -10 and an Arabic-Indic or fullwidth digit as its value
        text = CHSH_BLOCK.replace("e -1 0", f"e {token} 0")
        if value is None:
            with pytest.raises(ParseError, match="non-integer") as err:
                parse_file(text)
            assert err.value.lineno == 5
        else:
            assert parse_file(text)[0].e.tolist() == [value, 0]

    def test_huge_coefficient(self):
        with pytest.raises(ParseError, match="2\\*\\*44") as err:
            parse_file(CHSH_BLOCK.replace("d 1 1", "d 1 12345678901234567890123"))
        assert err.value.lineno == 6

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_file(CHSH_BLOCK.replace("end", ""))

    def test_missing_end_before_the_next_block(self):
        with pytest.raises(ParseError, match="expected 'end'") as err:
            parse_file(CHSH_BLOCK.replace("end\n", "") + CHSH_BLOCK)
        assert err.value.lineno == 8

    def test_block_must_open_with_inequality(self):
        with pytest.raises(ParseError, match="expected 'inequality'") as err:
            parse_file(CHSH_BLOCK.replace("inequality CHSH\n", ""))
        assert err.value.lineno == 1

    def test_empty_scenario_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_file(CHSH_BLOCK.replace("scenario 2 2", "scenario 0 2"))
        assert err.value.lineno == 2

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="expected 'scenario'"):
            parse_file("inequality X\nbounds 0\n")

    def test_unnamed_inequality(self):
        tables = parse_file(CHSH_BLOCK.replace("inequality CHSH", "inequality"))
        assert tables[0].name is None

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, chsh_table, end):
        text = CHSH_BLOCK.replace("\n", end)
        assert parse_file(text) == [chsh_table]
        with pytest.raises(ParseError, match="'zero'") as err:
            parse_file(text.replace("bound 0", "bound zero"))
        assert err.value.lineno == 3

    @pytest.mark.parametrize("char", LINE_BREAKS_OF_SPLITLINES)
    def test_only_cr_and_lf_end_a_line(self, fixtures, char):
        # a comment may hold any other character: it neither ends early nor
        # moves the line number of a later error
        lines = FIXTURES_TEXT.split("\n")
        assert lines[9:12] == ["inequality I3322", "scenario 3 3", "bound 0"]
        lines[9] += f"  # a note{char}more words"
        assert parse_file("\n".join(lines)) == fixtures
        lines[11] = "bound zero"
        with pytest.raises(ParseError, match="non-integer coefficient 'zero' in bound") as err:
            parse_file("\n".join(lines))
        assert err.value.lineno == 12

    @pytest.mark.parametrize("char", LINE_BREAKS_OF_SPLITLINES)
    def test_a_name_no_table_takes_fails_on_its_line(self, char):
        # CgTable refuses a name that str.splitlines would break
        text = "# first\n" + CHSH_BLOCK.replace("CHSH", f"CH{char}SH")
        with pytest.raises(ParseError, match="invalid inequality name") as err:
            parse_file(text)
        assert err.value.lineno == 2

    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, len(FIXTURES_TEXT)),
                st.integers(0, 4),
                st.lists(st.sampled_from(MUTATION_PIECES) | st.characters(), max_size=3).map("".join),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_raise_only_parse_errors(self, edits):
        text = FIXTURES_TEXT
        for at, cut, insert in edits:
            text = text[:at] + insert + text[at + cut :]
        try:
            parse_file(text)
        except ParseError:
            pass

    def test_order_preserved(self, fixtures):
        parsed = parse_file(serialize_file(fixtures))
        assert [t.name for t in parsed] == [t.name for t in fixtures]


class TestSerialize:
    def test_empty(self):
        assert serialize_file([]) == ""

    def test_round_trip_fixtures(self, fixtures):
        parsed = parse_file(serialize_file(fixtures))
        assert parsed == fixtures
        assert list(map(hash, parsed)) == list(map(hash, fixtures))
        # a parsed-back duplicate adds nothing to a set
        assert len({*fixtures, *parsed}) == len(fixtures)

    @given(
        na=st.integers(1, 4),
        nb=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        name=st.one_of(st.none(), st.text(max_size=12)),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, na, nb, seed, name):
        # a name is either refused or carried through unchanged
        rng = np.random.default_rng(seed)
        try:
            table = CgTable(
                Scenario(na, nb),
                d=rng.integers(-9, 10, size=(na, nb)),
                c=rng.integers(-9, 10, size=na),
                e=rng.integers(-9, 10, size=nb),
                bound=int(rng.integers(-9, 10)),
                name=name,
            )
        except ValueError:
            assert name is not None
            return
        assert parse_file(serialize_file([table, table])) == [table, table]
