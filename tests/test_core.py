import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ramkit.core import (
    CapExceededError,
    Instance,
    InvalidAssignmentError,
    SwapInfo,
    adjacent_swaps,
    apply_permutation,
    enumerate_preferences,
    enumerate_profiles,
    fosd,
    fosd_failure,
    parse_rational,
    prefers,
    relabeling_action,
    report_inverse,
    validate_assignment,
)
from ramkit.decomp import Decomposition
from ramkit.domain import DomainTable
from ramkit.interim import Prior
from ramkit.mechanisms import EatingSpeedSchedule, ProbabilisticSerial

A, B, C = 0, 1, 2
CAB = (C, A, B)
ABC = (A, B, C)
ACB = (A, C, B)

F = Fraction


def perms(n):
    return st.permutations(list(range(n))).map(tuple)


def share_vectors(n):
    def normalize(raw):
        total = sum(raw)
        return tuple(F(x, total) for x in raw)

    return st.lists(
        st.integers(min_value=0, max_value=20), min_size=n, max_size=n
    ).filter(lambda xs: sum(xs) > 0).map(normalize)


class TestInstance:
    def test_default_names(self):
        inst = Instance.default(3)
        assert inst.object_names == ("a", "b", "c")
        assert list(inst.agents) == [0, 1, 2]

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            Instance(2, ("x", "x"))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            Instance(2, ("x", ""))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            Instance(3, ("x", "y"))

    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError):
            Instance(0, ())

    def test_unknown_object_name(self):
        with pytest.raises(ValueError, match="unknown object"):
            Instance.default(2).object_index("z")


class TestContours:
    """The objects ranked above and below an object, through ``prefers``."""

    def test_upper_of_middle(self):
        assert {x for x in CAB if prefers(CAB, x, A)} == {C}

    def test_upper_of_top_is_empty(self):
        assert not any(prefers(CAB, x, C) for x in CAB)

    def test_lower_of_middle(self):
        assert {x for x in CAB if prefers(CAB, A, x)} == {B}

    def test_unknown_object(self):
        with pytest.raises(ValueError):
            prefers((0, 1), 5, 0)

    @given(perms(4), st.integers(min_value=0, max_value=3))
    def test_contours_partition(self, pref, a):
        up = {x for x in pref if prefers(pref, x, a)}
        down = {x for x in pref if prefers(pref, a, x)}
        assert up | down | {a} == set(range(4))
        assert not up & down and a not in up | down


class TestPermutations:
    def test_swap_a_c(self):
        assert apply_permutation(ACB, (C, B, A)) == CAB

    def test_identity(self):
        for pref in enumerate_preferences(Instance.default(3)):
            assert apply_permutation(pref, (A, B, C)) == pref

    def test_swap_endpoints(self):
        assert apply_permutation((C, B, A), (C, B, A)) == ABC

    @given(perms(4), perms(4))
    def test_inverse_round_trip(self, pref, sigma):
        inverse = tuple(sigma.index(y) for y in range(4))
        assert apply_permutation(apply_permutation(pref, sigma), inverse) == pref

    @pytest.mark.parametrize("n", range(1, 6))
    def test_relabeling_action_matches_apply_permutation(self, n):
        """For every relabeling and every report, the action on indices
        names the report that ``apply_permutation`` gives, and ``s_r`` takes
        report r to the identity order."""
        prefs = enumerate_preferences(Instance.default(n))
        images = relabeling_action(prefs)
        for sigma in prefs:
            expected = [apply_permutation(p, sigma) for p in prefs]
            assert [prefs[k] for k in images(sigma, range(len(prefs)))] == expected
        for r in prefs:
            assert apply_permutation(r, report_inverse(r)) == prefs[0]

    def test_relabeling_action_computes_the_indices_asked_for(self):
        prefs = enumerate_preferences(Instance.default(3))
        images = relabeling_action(prefs)
        assert images(CAB, ()) == []
        # CAB sends a to c, b to a, c to b
        assert images(CAB, (prefs.index(ACB), 0)) == [prefs.index((C, B, A)), prefs.index(CAB)]
        assert report_inverse(CAB) == (B, C, A)


class TestSwapRelation:
    """Whether one preference is an adjacent swap of another, read from
    ``adjacent_swaps``."""

    def test_table1_pair(self):
        assert dict(adjacent_swaps(CAB)).get(ACB) == SwapInfo(position=1, lowered=C, raised=A)

    def test_identical_preferences(self):
        assert dict(adjacent_swaps(CAB)).get(CAB) is None

    def test_non_adjacent(self):
        assert dict(adjacent_swaps(ABC)).get((C, B, A)) is None

    @given(perms(4), perms(4))
    def test_detection_is_symmetric(self, p, q):
        assert (q in dict(adjacent_swaps(p))) == (p in dict(adjacent_swaps(q)))

    @given(perms(5))
    def test_adjacent_swaps_differ_in_two_positions(self, pref):
        for swapped, info in adjacent_swaps(pref):
            diffs = [k for k in range(5) if pref[k] != swapped[k]]
            assert diffs == [info.position - 1, info.position]
            assert (info.lowered, info.raised) == (pref[info.position - 1], pref[info.position])


class TestFosd:
    def test_table1_rows_incomparable(self):
        pi = (F(1, 6), F(1, 3), F(1, 2))
        pi_prime = (F(1, 2), F(1, 4), F(1, 4))
        assert not fosd(pi, pi_prime, CAB)
        assert not fosd(pi_prime, pi, CAB)
        assert fosd_failure(pi, pi_prime, CAB) == (2, F(2, 3), F(3, 4))
        assert fosd_failure(pi_prime, pi, CAB) == (1, F(1, 4), F(1, 2))

    def test_reflexive_on_example(self):
        pi = (F(1, 6), F(1, 3), F(1, 2))
        assert fosd(pi, pi, CAB)

    def test_degenerate_top_dominates(self):
        assert fosd((F(1), F(0), F(0)), (F(1, 3), F(1, 3), F(1, 3)), ABC)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            fosd((F(1),), (F(1, 2), F(1, 2)), (0, 1))

    @given(share_vectors(3), perms(3))
    def test_reflexivity(self, pi, pref):
        assert fosd(pi, pi, pref)

    @given(share_vectors(3), share_vectors(3), perms(3))
    def test_antisymmetry_forces_equality(self, pi, rho, pref):
        if fosd(pi, rho, pref) and fosd(rho, pi, pref):
            assert pi == rho

    @given(share_vectors(3), share_vectors(3), share_vectors(3), perms(3))
    def test_transitivity(self, x, y, z, pref):
        if fosd(x, y, pref) and fosd(y, z, pref):
            assert fosd(x, z, pref)


class TestEnumeration:
    def test_two_objects(self):
        inst = Instance.default(2)
        assert enumerate_preferences(inst) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("n,count", [(3, 6), (4, 24)])
    def test_counts(self, n, count):
        assert len(enumerate_preferences(Instance.default(n))) == count

    def test_no_duplicates(self):
        prefs = enumerate_preferences(Instance.default(4))
        assert len(set(prefs)) == len(prefs)

    def test_lexicographic(self):
        prefs = enumerate_preferences(Instance.default(4))
        assert prefs == sorted(prefs)

    def test_cap(self):
        with pytest.raises(CapExceededError, match="n <= 6"):
            enumerate_preferences(Instance.default(7))

    def test_cap_override(self):
        assert len(enumerate_preferences(Instance.default(7), max_n=7)) == 5040

    @pytest.mark.parametrize("n,agent,count", [(3, 0, 36), (2, 1, 2), (4, 0, 13824)])
    def test_opponent_counts(self, n, agent, count):
        """A domain table has one cell per opponent profile of each agent."""
        inst = Instance.default(n)
        table = DomainTable(ProbabilisticSerial(inst), enumerate_preferences(inst))
        assert agent in table.agents and table.cells == count

    def test_opponent_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_profiles(Instance.default(5))


class TestValidateAssignment:
    def test_uniform_2x2(self):
        half = F(1, 2)
        out = validate_assignment([[half, half], [half, half]])
        assert out == ((half, half), (half, half))

    def test_column_violation_lists_both_columns(self):
        with pytest.raises(InvalidAssignmentError) as err:
            validate_assignment([[1, 0], [1, 0]])
        messages = err.value.violations
        assert any("column sum for object 0 is 2" in m for m in messages)
        assert any("column sum for object 1 is 0" in m for m in messages)

    def test_table1_left_output_is_valid(self):
        rows = [
            [F(1, 6), F(1, 3), F(1, 2)],
            [F(2, 3), F(1, 3), F(0)],
            [F(1, 6), F(1, 3), F(1, 2)],
        ]
        assert validate_assignment(rows)

    def test_entry_out_of_range(self):
        with pytest.raises(InvalidAssignmentError, match="outside"):
            validate_assignment([[F(3, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]])

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="float"):
            validate_assignment([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_assignment([[F(1)], [F(1)]][:1] + [[F(0), F(1)]])


@pytest.mark.parametrize("noun,build", (
    ("share", lambda: validate_assignment([[0.5, F(1, 2)], [F(1, 2), F(1, 2)]])),
    ("speed or time", lambda: EatingSpeedSchedule((((0, 0.5, 2), (F(1, 2), 1, 0)),))),
    ("probability", lambda: Prior(Instance.default(2), (0.5, F(1, 2)))),
    ("weight", lambda: Decomposition(((0.5, (0, 1)), (F(1, 2), (1, 0))))),
), ids=("share", "speed", "probability", "weight"))
def test_float_refused_by_name(noun, build):
    """Every exact-rational input refuses a float by one rule, naming it."""
    message = f"^floating point {noun} 0.5; it must be an exact rational$"
    with pytest.raises(ValueError, match=message):
        build()


class TestExactArithmetic:
    @given(st.fractions(), st.fractions())
    def test_add_then_subtract_is_identity(self, x, y):
        assert (x + y) - y == x

    def test_parse_rational(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-7") == F(-7)
        assert parse_rational(" 5/1 ") == F(5)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "a/b", "1/0", "", "1/2/3"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rendering(self):
        assert str(F(1, 3)) == "1/3"
        assert str(F(6, 2)) == "3"
