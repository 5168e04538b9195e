import random
from fractions import Fraction

import pytest

from helpers import TRUTH_PROFILE, random_bistochastic, random_prior, tabulate
from ramkit.core import Instance, enumerate_profiles
from ramkit.formats import (
    ParseError,
    assignment_records,
    assignment_table,
    decomposition_lines,
    outcome_lines,
    parse_prior_file,
    parse_profile_file,
    parse_speed_file,
    parse_table_file,
    render_prior_file,
    render_profile_file,
    render_speed_file,
    render_table_file,
)
from ramkit.interim import uniform_prior
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    TabulatedMechanism,
)

F = Fraction

PROFILE_TEXT = """\
# the manipulation example, truthful reports
objects: a b c
agent 1: c a b
agent 2: a b c
agent 3: c a b
"""


class TestProfileFiles:
    def test_parse_table1_profile(self):
        instance, profile = parse_profile_file(PROFILE_TEXT)
        assert instance.object_names == ("a", "b", "c")
        assert profile == TRUTH_PROFILE

    def test_round_trip(self, instance3):
        text = render_profile_file(instance3, TRUTH_PROFILE)
        parsed_instance, parsed = parse_profile_file(text)
        assert parsed == TRUTH_PROFILE
        assert parsed_instance == instance3
        assert render_profile_file(parsed_instance, parsed) == text

    def test_duplicate_object_in_ranking(self):
        text = "objects: a b c\nagent 1: a a b\nagent 2: a b c\nagent 3: a b c\n"
        with pytest.raises(ParseError, match="line 2.*twice"):
            parse_profile_file(text)

    def test_unknown_object(self):
        text = "objects: a b c\nagent 1: a b z\nagent 2: a b c\nagent 3: a b c\n"
        with pytest.raises(ParseError, match="line 2.*unknown"):
            parse_profile_file(text)

    def test_agent_count_mismatch(self):
        text = "objects: a b c\nagent 1: a b c\nagent 2: a b c\n"
        with pytest.raises(ParseError, match="expected 3 agent lines"):
            parse_profile_file(text)

    def test_wrong_agent_number(self):
        text = "objects: a b\nagent 1: a b\nagent 3: a b\n"
        with pytest.raises(ParseError, match="expected agent 2"):
            parse_profile_file(text)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="objects"):
            parse_profile_file("agent 1: a b\n")


class TestPriorFiles:
    def test_parse_uniform(self, instance3):
        lines = ["objects: a b c"]
        for pref, prob in uniform_prior(instance3).items():
            names = " ".join(instance3.object_names[x] for x in pref)
            lines.append(f"{names} : {prob}")
        instance, prior = parse_prior_file("\n".join(lines))
        assert prior == uniform_prior(instance3)

    def test_round_trip_random(self, instance3):
        rng = random.Random(13)
        prior = random_prior(rng, instance3)
        text = render_prior_file(prior)
        _, parsed = parse_prior_file(text)
        assert parsed == prior
        assert render_prior_file(parsed) == text

    def test_missing_preference_line(self):
        text = "objects: a b\na b : 1/2\n"
        with pytest.raises(ParseError, match="missing probability line.*'b a'"):
            parse_prior_file(text)

    def test_normalization_error_reports_residual(self):
        text = "objects: a b\na b : 1/2\nb a : 17/36\n"
        with pytest.raises(ParseError, match="off from 1 by 1/36"):
            parse_prior_file(text)

    def test_zero_entry_accepted(self):
        text = "objects: a b\na b : 1\nb a : 0\n"
        _, prior = parse_prior_file(text)
        assert prior.probs == (F(1), F(0))

    def test_negative_probability(self):
        text = "objects: a b\na b : 3/2\nb a : -1/2\n"
        with pytest.raises(ParseError, match="negative"):
            parse_prior_file(text)

    def test_bad_rational(self):
        text = "objects: a b\na b : 0.5\nb a : 1/2\n"
        with pytest.raises(ParseError, match="not an exact rational"):
            parse_prior_file(text)


class TestSpeedFiles:
    def test_parse_and_round_trip(self):
        text = "agent 1: [0,1/2):2 [1/2,1):0\nagent 2: [0,1):1\n"
        schedule = parse_speed_file(text)
        assert schedule.pieces[0] == ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0)))
        assert render_speed_file(schedule) == text
        assert parse_speed_file(render_speed_file(schedule)) == schedule

    def test_bad_piece_syntax(self):
        with pytest.raises(ParseError, match=r"expected '\[t0,t1\):speed'"):
            parse_speed_file("agent 1: 0..1:1\n")

    def test_bad_integral_rejected_with_line(self):
        with pytest.raises(ParseError, match="total consumption"):
            parse_speed_file("agent 1: [0,1):2\n")


class TestTableFiles:
    def test_round_trip_n2(self):
        inst = Instance.default(2)
        ps = ProbabilisticSerial(inst, cache=True)
        table = {p: ps.assignment(p) for p in enumerate_profiles(inst)}
        text = render_table_file(inst, table)
        parsed_instance, mech = parse_table_file(text)
        for profile in enumerate_profiles(inst):
            assert mech.assignment(profile) == ps.assignment(profile)
        assert render_table_file(
            parsed_instance,
            {p: mech.assignment(p) for p in enumerate_profiles(inst)},
        ) == text

    def test_round_trip_n3_ps(self, instance3, ps3):
        table = {p: ps3.assignment(p) for p in enumerate_profiles(instance3)}
        text = render_table_file(instance3, table)
        _, mech = parse_table_file(text)
        assert mech.assignment(TRUTH_PROFILE) == ps3.assignment(TRUTH_PROFILE)

    def test_missing_block_rejected(self):
        inst = Instance.default(2)
        ps = ProbabilisticSerial(inst, cache=True)
        table = {p: ps.assignment(p) for p in enumerate_profiles(inst)}
        del table[((0, 1), (0, 1))]
        text = render_table_file(inst, table)
        with pytest.raises(ParseError, match="missing profile"):
            parse_table_file(text)

    def test_invalid_assignment_rejected(self):
        text = (
            "objects: a b\nagents: 2\n"
            "profile: a b | a b\nagent 1: 1 0\nagent 2: 1 0\n"
        )
        with pytest.raises(ParseError, match="column sum"):
            parse_table_file(text)

    def test_agent_header_mismatch(self):
        with pytest.raises(ParseError, match="does not match"):
            parse_table_file("objects: a b\nagents: 3\n")


class TestRendering:
    def test_assignment_table_alignment(self, instance3, ps3):
        text = assignment_table(instance3, ps3.assignment(TRUTH_PROFILE))
        lines = text.splitlines()
        assert lines[0].split() == ["agent", "a", "b", "c"]
        assert lines[1].split() == ["1", "1/6", "1/3", "1/2"]

    def test_assignment_records(self, instance3, ps3):
        records = assignment_records(instance3, ps3.assignment(TRUTH_PROFILE))
        assert records[0] == "row agent=1 a=1/6 b=1/3 c=1/2"

    def test_decomposition_lines(self, instance3, ps3):
        from ramkit.decomp import birkhoff_decompose

        lines = decomposition_lines(
            instance3, birkhoff_decompose(ps3.assignment(TRUTH_PROFILE))
        )
        assert all(" : " in line and "↦" in line for line in lines)

    def test_outcome_lines_machine_vs_human(self, instance3, ps3):
        from ramkit.axioms import run_axiom_check

        outcome = run_axiom_check(ps3, "sp", mode="first")
        machine = outcome_lines(instance3, outcome, machine=True)
        human = outcome_lines(instance3, outcome, machine=False)
        assert machine[0].startswith("check axiom=sp verdict=violated")
        assert human[0].startswith("sp: VIOLATED")
        assert len(machine) == len(human) == 2

    def test_batch_render_matches_render(self, instance3, ps3):
        from ramkit.axioms import run_axiom_check, run_pair_sweep
        from ramkit.interim import check_obic
        from ramkit.reports import ViolationReport, render_reports

        reports = [
            v
            for outcome in run_pair_sweep(
                ps3, ("sp", "weak-sp", "em", "ui", "li"), mode="exhaustive"
            ).values()
            for v in outcome.violations
        ]
        rng = random.Random(5)
        table = TabulatedMechanism(instance3, {
            profile: random_bistochastic(rng, 3) for profile in enumerate_profiles(instance3)
        })
        reports += check_obic(table, uniform_prior(instance3)).violations[:1]
        reports += run_axiom_check(table, "neutral", mode="first").violations
        # equal values that are distinct objects, and every optional field
        reports.append(ViolationReport(
            axiom="x", agent=0, agent2=2, profile=TRUTH_PROFILE, truth=(0, 1, 2),
            deviation=(1, 0, 2), sigma=(1, 0, 2), objects=(0, 2), component=(2, 0),
            rank=2, lhs=Fraction(2, 4), rhs=Fraction(1, 2), relation="<", detail="d",
        ))
        assert len({v.axiom for v in reports}) >= 4
        assert render_reports(instance3, reports, "> ") == [
            "> " + v.render(instance3) for v in reports
        ]
