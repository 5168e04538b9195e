"""Pair-sweep violations as integer records: the tuple-like contract of
``Violations``, lines rendered from the records against per-report
``ViolationReport.render``, and replay of reports read back at n=4."""

import random
from fractions import Fraction

import pytest

from helpers import (
    MECHANISM_KINDS,
    build_mechanism,
    huge_denominator_table,
    pair_sweep_oracle,
    random_prior,
)
from ramkit.axioms import PAIR_AXIOMS, reverify_violation, run_pair_sweep
from ramkit.core import Instance
from ramkit.formats import outcome_lines
from ramkit.interim import (
    Prior,
    check_obic,
    obic_decomposition_report,
    run_interim_sweep,
    uniform_prior,
)
from ramkit.mechanisms import ProbabilisticSerial
from ramkit.reports import ViolationReport, Violations


@pytest.fixture(scope="module")
def sp_table3():
    """sp violations of a random table at n=3, from the sweep and from the
    Fraction oracle."""
    mech = build_mechanism("table", 3)
    got = run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive")["sp"].violations
    expected = pair_sweep_oracle(mech, ("sp",))["sp"].violations
    return got, expected


class TestContract:
    def test_len_and_batches(self, sp_table3):
        got, expected = sp_table3
        assert isinstance(got, Violations) and isinstance(expected, tuple)
        assert len(got) == len(expected) > 10
        assert {v.agent for v in got} == {0, 1, 2}  # one batch per agent

    def test_index(self, sp_table3):
        got, expected = sp_table3
        size = len(expected)
        for i in (0, 1, size // 2, size - 1):
            assert got[i] == expected[i]
            assert type(got[i]) is ViolationReport
        for i in (-1, -2, -size):
            assert got[i] == expected[i]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                got[i]

    def test_slice_is_a_tuple_of_reports(self, sp_table3):
        got, expected = sp_table3
        for cut in (slice(None, 1), slice(2, 7), slice(-5, None), slice(None, None, -3),
                    slice(5, 2), slice(None)):
            part = got[cut]
            assert type(part) is tuple and part == expected[cut]

    def test_iteration(self, sp_table3):
        got, expected = sp_table3
        assert list(got) == list(expected)
        assert list(reversed(got)) == list(reversed(expected))

    def test_equality_both_ways(self, sp_table3):
        got, expected = sp_table3
        assert got == expected and expected == got
        assert not (got != expected) and not (expected != got)
        shorter = expected[:-1]
        assert got != shorter and shorter != got
        changed = expected[:-1] + (ViolationReport(axiom="sp"),)
        assert got != changed and changed != got
        assert got != list(expected)  # a tuple is not equal to a list either

    def test_hash_is_the_tuple_hash(self, sp_table3):
        got, expected = sp_table3
        assert hash(got) == hash(expected)

    def test_two_sweeps_compare_equal(self, sp_table3):
        got, _ = sp_table3
        mech = build_mechanism("table", 3)
        again = run_pair_sweep(mech, ("sp",), mode="exhaustive", jobs=2)["sp"].violations
        assert again == got and hash(again) == hash(got)

    def test_first_mode_keeps_one(self, sp_table3):
        got, _ = sp_table3
        first = run_pair_sweep(build_mechanism("table", 3), ("sp",), mode="first")
        violations = first["sp"].violations
        assert len(violations) == 1 and violations == got[:1]

    def test_satisfied_outcome_is_empty(self):
        outcome = run_pair_sweep(build_mechanism("rp", 3), ("sp",))["sp"]
        assert outcome.satisfied and len(outcome.violations) == 0
        assert outcome.violations == () and list(outcome.violations) == []


def _assert_renders_per_report(instance, outcomes):
    """Lines from the records equal ``ViolationReport.render`` report by
    report, in both formats."""
    for outcome in outcomes:
        assert isinstance(outcome.violations, Violations)
        reports = list(outcome.violations)
        for machine, prefix in ((True, "violation "), (False, "  ")):
            lines = outcome_lines(instance, outcome, machine=machine)
            assert lines[1:] == [prefix + v.render(instance) for v in reports], (
                outcome.axiom, machine,
            )


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_ex_post_lines_match_report_render(kind, n, mode):
    mech = build_mechanism(kind, n)
    outcomes = run_pair_sweep(mech, PAIR_AXIOMS, mode=mode).values()
    _assert_renders_per_report(mech.instance, outcomes)


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_interim_lines_match_report_render(kind, n, mode):
    """Interim checks take no mode.  In "first" only the first violation is
    read, as ``ram lrobic`` prints it: it must be the first line that
    ``ram obic`` prints."""
    mech = build_mechanism(kind, n)
    instance = mech.instance
    for prior in (uniform_prior(instance), random_prior(random.Random(n), instance)):
        outcomes = [check_obic(mech, prior)]
        outcomes += run_interim_sweep(mech, prior).values()
        if mode == "exhaustive":
            _assert_renders_per_report(instance, outcomes)
            continue
        for outcome in outcomes:
            if outcome.violations:
                line = outcome_lines(instance, outcome, machine=True)[1]
                assert line == "violation " + outcome.violations[0].render(instance)


def test_ps_renders_interim_violations():
    """A prior where PS fails OBIC and interim li, so the interim records
    that render are not empty."""
    instance = Instance.default(3)
    mech = ProbabilisticSerial(instance)
    prior = random_prior(random.Random(1), instance)
    report = obic_decomposition_report(mech, prior)
    outcomes = (report.obic, report.interim_em, report.interim_ui, report.interim_li)
    assert sum(len(o.violations) for o in outcomes) > 0
    _assert_renders_per_report(instance, outcomes)


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_wide_ex_post_values_render(mode):
    instance = Instance.default(3)
    mech = huge_denominator_table(instance, seed=64)
    outcomes = run_pair_sweep(mech, PAIR_AXIOMS, mode=mode).values()
    assert any(v.lhs.denominator > 2 ** 64 for o in outcomes for v in o.violations)
    _assert_renders_per_report(instance, outcomes)


def test_wide_interim_values_render():
    """A prior over the Mersenne prime 2**61 - 1 puts the interim rows of
    n=3 over a denominator past 2**64."""
    instance = Instance.default(3)
    q = 2 ** 61 - 1
    rng = random.Random(61)
    weights = [rng.randrange(1, q // 8) for _ in range(5)]
    prior = Prior(instance, tuple(Fraction(w, q) for w in weights)
                  + (1 - Fraction(sum(weights), q),))
    mech = build_mechanism("table", 3)
    outcomes = [check_obic(mech, prior)] + list(run_interim_sweep(mech, prior).values())
    assert any(v.lhs.denominator > 2 ** 64 for o in outcomes for v in o.violations)
    _assert_renders_per_report(instance, outcomes)


@pytest.fixture(scope="module")
def ps4_swaps():
    mech = ProbabilisticSerial(Instance.default(4))
    return mech, run_pair_sweep(mech, ("em", "ui", "li"), mode="exhaustive", jobs=2)


def test_n4_reports_replay(ps4_swaps):
    mech, outcomes = ps4_swaps
    assert [len(o.violations) for o in outcomes.values()] == [0, 0, 457_632]
    li = outcomes["li"].violations
    assert len(li[:10] + li[-10:]) == 20
    for v in li[:10] + li[-10:]:
        assert v.axiom == "li" and reverify_violation(mech, v)
    assert li[-1].agent == 3 and li[0].agent == 0


def test_n4_render_matches_report_render(ps4_swaps):
    mech, outcomes = ps4_swaps
    instance = mech.instance
    li = outcomes["li"]
    lines = outcome_lines(instance, li, machine=True)
    assert len(lines) == 1 + len(li.violations)
    for i in (0, 1, 2, len(li.violations) // 2, -2, -1):
        assert lines[1:][i] == "violation " + li.violations[i].render(instance)
