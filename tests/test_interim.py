import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    MECHANISM_KINDS,
    AnonymousSD,
    CountingNonNeutralPS,
    CountingPS,
    CountingUndeclaredPS,
    UndeclaredEating,
    UndeclaredRP,
    build_mechanism,
    decomposition_verdicts,
    half_support_prior,
    interim_shares_oracle,
    interim_sweep_oracle,
    random_prior,
    two_point_prior,
    uniform_int,
)
from ramkit.core import (
    CapExceededError,
    Instance,
    adjacent_swaps,
    enumerate_preferences,
    insert_report,
)
from ramkit import interim
from ramkit.axioms import _replay_pair, run_axiom_check
from ramkit.interim import (
    INTERIM_AXIOMS,
    InternalConsistencyError,
    Prior,
    SamplingExhaustedError,
    check_obic,
    interim_share_vector,
    lrobic_search,
    obic_decomposition_report,
    _RowCells,
    _interim_rows,
    _prior_orbits,
    rank_vector_reports,
    reverify_interim_violation,
    run_interim_sweep,
    sample_prior_in_ball,
    uniform_prior,
)
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
)

F = Fraction
A, B, C = 0, 1, 2
EPSILON = F(1, 20)


@pytest.fixture(scope="module")
def uniform3(instance3):
    return uniform_prior(instance3)


@pytest.fixture(scope="module")
def violating_prior(ps3, uniform3):
    """A sampled prior near uniform where PS fails OBIC."""
    hit = lrobic_search(ps3, uniform3, EPSILON, 100, 7)
    assert hit is not None
    return hit[0].prior


class TestPrior:
    def test_uniform_n2(self):
        prior = uniform_prior(Instance.default(2))
        assert prior.probs == (F(1, 2), F(1, 2))

    def test_uniform_n3(self, uniform3):
        assert len(uniform3.probs) == 6
        assert all(p == F(1, 6) for p in uniform3.probs)

    def test_uniform_n4(self):
        prior = uniform_prior(Instance.default(4))
        assert len(prior.probs) == 24 and prior.probs[0] == F(1, 24)

    def test_must_sum_to_one(self, instance3):
        probs = [F(1, 6)] * 5 + [F(1, 7)]
        with pytest.raises(ValueError, match="sum to"):
            Prior(instance3, tuple(probs))

    def test_rejects_negative(self, instance3):
        probs = [F(1, 3), F(-1, 6)] + [F(1, 6)] * 5
        with pytest.raises(ValueError, match="negative"):
            Prior(instance3, tuple(probs[:6]))

    def test_zero_entries_allowed(self, instance3):
        probs = (F(1, 2), F(1, 2), F(0), F(0), F(0), F(0))
        prior = Prior(instance3, probs)
        assert dict(prior.items())[(0, 1, 2)] == F(1, 2)

    def test_from_mapping_requires_totality(self, instance3):
        with pytest.raises(ValueError, match="missing"):
            Prior.from_mapping(instance3, {(0, 1, 2): F(1)})

    def test_builds_past_the_preference_cap(self):
        """A prior lists all n! probabilities, so n=7 needs no ``max_n``;
        PS's rank vectors under a prior on two preferences, from one pass
        with ``max_n=7``, match the Fraction route on and off the support.
        Of the 17,640 identity multisets that weigh some report, the pass
        evaluates PS once at each of 17,637: the rows of earlier profiles
        give the other 3."""
        instance = Instance.default(7)
        assert len(uniform_prior(instance).probs) == 5040
        prior = two_point_prior(instance)
        prefs = enumerate_preferences(instance, max_n=7)
        counting = CountingPS(instance)
        (report,) = rank_vector_reports(counting, prior, (0,), max_n=7)
        expected = _greedy_evaluations(prior)
        assert len(expected) == 17_637
        assert set(counting.counts) == set(expected)
        assert set(counting.counts.values()) == {1}
        ps = ProbabilisticSerial(instance)
        for pref in (prefs[0], prefs[1], prefs[2], prefs[-1]):
            shares = interim_share_vector(ps, 0, pref, prior, max_n=7)
            assert report.vectors[pref] == tuple(shares[a] for a in pref)
        with pytest.raises(CapExceededError, match="full-domain"):
            check_obic(ps, prior)

    def test_interim_sweep_past_the_sweep_cap(self):
        """With ``max_n=7`` the interim sweep reads the preferences its rows
        were built over, not the capped default: PS under a prior on two
        preferences passes interim em and ui and fails li, and the first li
        witness matches the Fraction route."""
        instance = Instance.default(7)
        prior = two_point_prior(instance)
        ps = ProbabilisticSerial(instance)
        sweep = run_interim_sweep(ps, prior, max_n=7)
        assert sweep["interim-em"].satisfied and sweep["interim-ui"].satisfied
        li = sweep["interim-li"]
        assert not li.satisfied and len(li.violations) == 14_616
        v = li.violations[0]
        truth, deviation = (
            interim_share_vector(ps, v.agent, report, prior, max_n=7)
            for report in (v.truth, v.deviation)
        )
        assert _replay_pair("li", v.truth, truth, deviation, v)


class TestInterimShares:
    def test_two_agent_uniform_value(self):
        inst = Instance.default(2)
        ps = ProbabilisticSerial(inst, cache=True)
        vec = interim_share_vector(ps, 0, (A, B), uniform_prior(inst))
        assert vec == (F(3, 4), F(1, 4))

    def test_matches_bruteforce_oracle(self, ps3, uniform3):
        rng = random.Random(21)
        for _ in range(4):
            prior = random_prior(rng, ps3.instance)
            for agent in (0, 2):
                report = (C, B, A)
                fast = interim_share_vector(ps3, agent, report, prior)
                slow = interim_shares_oracle(ps3, agent, report, prior)
                assert fast == slow

    def test_degenerate_prior_reduces_to_expost_row(self, ps3, instance3):
        star = (B, C, A)
        probs = tuple(
            F(1) if p == star else F(0) for p in enumerate_preferences(instance3)
        )
        prior = Prior(instance3, probs)
        for agent in instance3.agents:
            for report in enumerate_preferences(instance3):
                opponents = tuple(star for _ in range(2))
                expected = ps3.assignment(insert_report(opponents, agent, report))[agent]
                assert interim_share_vector(ps3, agent, report, prior) == expected

    @pytest.mark.parametrize("agent", (-1, 3))
    def test_unknown_agent_rejected(self, instance3, uniform3, agent):
        """Index -1 would otherwise read agent 3's row, and index 3 raise
        an IndexError."""
        sd = SerialDictatorship(instance3, (0, 1, 2))
        with pytest.raises(ValueError, match=f"agent {agent + 1} is not one of agents 1..3"):
            interim_share_vector(sd, agent, (A, B, C), uniform3)

    @pytest.mark.parametrize("report", ((A, B), (A, A, B)))
    def test_report_not_a_preference_rejected(self, ps3, uniform3, report):
        with pytest.raises(ValueError, match="is not a preference over the 3 objects"):
            interim_share_vector(ps3, 0, report, uniform3)

    def test_rank_ordered_under_uniform(self, ps3, uniform3):
        vec = interim_share_vector(ps3, 0, (A, B, C), uniform3)
        assert sum(vec) == 1
        assert vec[A] >= vec[B] >= vec[C]

    def test_normalization_enforced(self, ps3, uniform3, monkeypatch):
        """Shares that do not sum to 1 can only come from a defect, and
        raise."""
        broken = ((F(1, 2), F(1, 4), F(1, 8)),) * 3
        monkeypatch.setattr(ps3, "assignment", lambda profile: broken)
        with pytest.raises(InternalConsistencyError, match="do not sum to 1"):
            interim_share_vector(ps3, 0, (A, B, C), uniform3)


class TestObic:
    def test_ps_uniform_satisfied(self, ps3, uniform3):
        assert check_obic(ps3, uniform3).satisfied

    def test_rp_uniform_satisfied(self, rp3, uniform3):
        assert check_obic(rp3, uniform3).satisfied

    def test_rp_satisfied_for_random_priors(self, rp3):
        rng = random.Random(17)
        for _ in range(5):
            assert check_obic(rp3, random_prior(rng, rp3.instance)).satisfied

    def test_sd_satisfied_for_random_priors(self, instance3):
        sd = SerialDictatorship(instance3, (2, 0, 1), cache=True)
        rng = random.Random(23)
        for _ in range(3):
            assert check_obic(sd, random_prior(rng, instance3)).satisfied

    def test_ps_fails_at_violating_prior(self, ps3, violating_prior):
        assert not check_obic(ps3, violating_prior).satisfied


class TestUniformPriorTheorem:
    def test_neutral_monotone_mechanisms_are_obic_under_uniform(self, instance3, uniform3):
        schedules = [
            EatingSpeedSchedule((
                ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
                ((F(0), F(1), F(1)),),
                ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))),
            )),
            EatingSpeedSchedule((
                ((F(0), F(1, 4), F(3)), (F(1, 4), F(1), F(1, 3))),
                ((F(0), F(3, 4), F(1)), (F(3, 4), F(1), F(1))),
                ((F(0), F(1), F(1)),),
            )),
        ]
        mechanisms = [
            ProbabilisticSerial(instance3, cache=True),
            RandomPriority(instance3, cache=True),
            SimultaneousEating(instance3, schedules[0], cache=True),
            SimultaneousEating(instance3, schedules[1], cache=True),
        ]
        for mech in mechanisms:
            assert run_axiom_check(mech, "neutral").satisfied
            assert run_axiom_check(mech, "em").satisfied
            assert check_obic(mech, uniform3).satisfied

    def test_rank_structure_for_sea(self, instance3, uniform3):
        sched = EatingSpeedSchedule((
            ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
            ((F(0), F(1), F(1)),),
            ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))),
        ))
        sea = SimultaneousEating(instance3, sched, cache=True)
        for agent in instance3.agents:
            report = rank_vector_reports(sea, uniform3, (agent,))[0]
            assert report.rank_invariant and report.rank_monotone
            assert sum(report.rank_vector) == 1


class TestRankVectors:
    def test_ps_uniform_flags(self, ps3, uniform3):
        report = rank_vector_reports(ps3, uniform3, (0,))[0]
        assert report.rank_invariant and report.rank_monotone
        assert sum(report.rank_vector) == 1

    def test_two_agent_rank_vector(self):
        inst = Instance.default(2)
        ps = ProbabilisticSerial(inst, cache=True)
        report = rank_vector_reports(ps, uniform_prior(inst), (0,))[0]
        assert report.rank_vector == (F(3, 4), F(1, 4))

    def test_invariance_breaks_off_uniform(self, ps3, violating_prior):
        report = rank_vector_reports(ps3, violating_prior, (0,))[0]
        assert not report.rank_invariant
        assert report.rank_vector is None


class TestInterimAxioms:
    def test_ps_uniform_all_three_hold(self, ps3, uniform3):
        assert run_interim_sweep(ps3, uniform3, ("interim-em",))["interim-em"].satisfied
        assert run_interim_sweep(ps3, uniform3, ("interim-ui",))["interim-ui"].satisfied
        assert run_interim_sweep(ps3, uniform3, ("interim-li",))["interim-li"].satisfied

    def test_strategy_proof_mechanism_any_prior(self, rp3):
        rng = random.Random(77)
        prior = random_prior(rng, rp3.instance)
        results = run_interim_sweep(rp3, prior)
        assert all(outcome.satisfied for outcome in results.values())

    def test_violating_prior_breaks_an_interim_axiom(self, ps3, violating_prior):
        results = run_interim_sweep(ps3, violating_prior)
        assert not all(outcome.satisfied for outcome in results.values())

    def test_obic_failure_at_swap_pair_has_matching_interim_witness(
        self, ps3, violating_prior
    ):
        obic = check_obic(ps3, violating_prior)
        results = run_interim_sweep(ps3, violating_prior)
        interim_pairs = {
            (v.agent, frozenset((v.truth, v.deviation)))
            for outcome in results.values()
            for v in outcome.violations
        }
        adjacent = [
            v for v in obic.violations
            if dict(adjacent_swaps(v.truth)).get(v.deviation) is not None
        ]
        assert adjacent, "expected at least one adjacent OBIC violation"
        for v in adjacent:
            assert (v.agent, frozenset((v.truth, v.deviation))) in interim_pairs


class TestObicDecomposition:
    def test_ps_uniform_all_satisfied(self, ps3, uniform3):
        report = obic_decomposition_report(ps3, uniform3)
        assert decomposition_verdicts(report) == ("satisfied",) * 4

    def test_rp_uniform_all_satisfied(self, rp3, uniform3):
        report = obic_decomposition_report(rp3, uniform3)
        assert decomposition_verdicts(report) == ("satisfied",) * 4

    def test_ps_violating_prior_consistent(self, ps3, violating_prior):
        report = obic_decomposition_report(ps3, violating_prior)
        assert report.obic.verdict == "violated"
        assert "violated" in decomposition_verdicts(report)[1:]

    def test_guard_rejects_inconsistent_reports(self, ps3, uniform3, violating_prior):
        from ramkit.interim import ObicDecompositionReport

        good = obic_decomposition_report(ps3, uniform3)
        bad = check_obic(ps3, violating_prior)
        with pytest.raises(InternalConsistencyError):
            ObicDecompositionReport(
                obic=bad, interim_em=good.interim_em,
                interim_ui=good.interim_ui, interim_li=good.interim_li,
            )


class TestSampler:
    def test_deterministic(self, uniform3):
        s1 = sample_prior_in_ball(uniform3, EPSILON, 42)
        s2 = sample_prior_in_ball(uniform3, EPSILON, 42)
        assert s1.prior == s2.prior and s1.attempts == s2.attempts

    def test_ball_membership(self, uniform3):
        for seed in range(20):
            sample = sample_prior_in_ball(uniform3, EPSILON, seed)
            for p in sample.prior.probs:
                assert abs(p - F(1, 6)) < EPSILON
            assert sum(sample.prior.probs) == 1

    def test_radius_one_accepts_anything(self):
        inst = Instance.default(2)
        sample = sample_prior_in_ball(uniform_prior(inst), F(1), 5)
        assert sum(sample.prior.probs) == 1

    def test_tiny_radius_exhausts(self, uniform3):
        # no grid point lies within 1/10**9 of 1/6 on the 1/10**6 grid
        with pytest.raises(SamplingExhaustedError):
            sample_prior_in_ball(uniform3, F(1, 10 ** 9), 1)

    def test_nonpositive_radius_rejected(self, uniform3):
        with pytest.raises(ValueError):
            sample_prior_in_ball(uniform3, F(0), 1)

    def test_ball_guard_in_dataclass(self, uniform3):
        from ramkit.interim import PriorBallSample

        far = sample_prior_in_ball(uniform3, F(1, 2), 11).prior
        with pytest.raises(InternalConsistencyError):
            PriorBallSample(center=uniform3, radius=F(1, 10 ** 7), seed=0,
                            prior=far, attempts=1)


class TestLrobicSearch:
    def test_ps_violating_prior_found_blind(self, ps3, uniform3):
        hit = lrobic_search(ps3, uniform3, EPSILON, 100, 7)
        assert hit is not None
        sample, witness = hit
        assert not check_obic(ps3, sample.prior).satisfied
        assert reverify_interim_violation(ps3, witness)

    def test_witness_reverifies_against_bruteforce(self, ps3, uniform3):
        sample, witness = lrobic_search(ps3, uniform3, EPSILON, 100, 7)
        truth = interim_shares_oracle(ps3, witness.agent, witness.truth, sample.prior)
        deviation = interim_shares_oracle(
            ps3, witness.agent, witness.deviation, sample.prior
        )
        lhs = sum(truth[a] for a in witness.truth[: witness.rank])
        rhs = sum(deviation[a] for a in witness.truth[: witness.rank])
        assert (lhs, rhs) == (witness.lhs, witness.rhs)
        assert lhs < rhs

    def test_rp_never_falsified(self, rp3, uniform3):
        assert lrobic_search(rp3, uniform3, EPSILON, 30, 7) is None

    def test_zero_samples_rejected(self, ps3, uniform3):
        with pytest.raises(ValueError, match="at least one"):
            lrobic_search(ps3, uniform3, EPSILON, 0, 7)


class TestExPostInvarianceAcrossSwaps:
    def test_rp_shares_of_bystander_objects_never_move(self, rp3, instance3):
        prefs = enumerate_preferences(instance3)
        for agent in instance3.agents:
            for opponents in itertools.product(prefs, repeat=2):
                for base in prefs:
                    old = rp3.assignment(insert_report(opponents, agent, base))[agent]
                    for swapped, info in adjacent_swaps(base):
                        if swapped < base:
                            continue
                        new = rp3.assignment(
                            insert_report(opponents, agent, swapped)
                        )[agent]
                        for x in range(3):
                            if x not in (info.lowered, info.raised):
                                assert old[x] == new[x]

    def test_ps_moves_a_bystander_share_at_table1(self, ps3):
        assert not run_axiom_check(ps3, "li").satisfied


class TestModeValidation:
    @pytest.mark.parametrize("check", (check_obic, run_interim_sweep))
    def test_unknown_mode_rejected(self, check):
        """Interim checks take no mode: they build every row in either
        mode, so stopping early would save no work."""
        ps = ProbabilisticSerial(Instance.default(2))
        with pytest.raises(TypeError, match="mode"):
            check(ps, uniform_prior(Instance.default(2)), mode="first")

    def test_default_mode_is_exhaustive_at_n4(self):
        instance = Instance.default(4)
        ps = ProbabilisticSerial(instance)
        # half on a>b>c>d, half on a>b>d>c: cheap, and PS fails OBIC there
        prior = Prior(instance, tuple(
            Fraction(1, 2) if k < 2 else Fraction(0) for k in range(24)
        ))
        obic = check_obic(ps, prior)
        assert len(obic.violations) > 1
        sweep = run_interim_sweep(ps, prior)
        assert len(sweep["interim-li"].violations) > 1


class TestPriorInstanceMismatch:
    @pytest.mark.parametrize("check", (
        check_obic, run_interim_sweep, obic_decomposition_report, rank_vector_reports,
    ))
    @pytest.mark.parametrize("mech_n,prior_n", ((3, 2), (2, 3)))
    def test_prior_of_another_size_rejected(self, check, mech_n, prior_n):
        ps = ProbabilisticSerial(Instance.default(mech_n))
        prior = uniform_prior(Instance.default(prior_n))
        with pytest.raises(ValueError, match=(
            f"prior is over n={prior_n} objects, the mechanism over n={mech_n}"
        )):
            check(ps, prior)

    def test_fraction_route_rejects_it_too(self):
        ps = ProbabilisticSerial(Instance.default(3))
        with pytest.raises(ValueError, match="prior is over n=2"):
            interim_share_vector(ps, 0, (0, 1, 2), uniform_prior(Instance.default(2)))


# ---------------------------------------------------------------------------
# the one-pass interim rows
# ---------------------------------------------------------------------------


def _coprime_prior(instance):
    """Full support over distinct Mersenne-prime denominators, so the
    integer weights and sums run far past 64 bits."""
    exponents = (89, 107, 127, 61, 31)
    m = len(enumerate_preferences(instance))
    probs = [F(1, 2 ** e - 1) for e in exponents[: m - 1]]
    return Prior(instance, tuple(probs) + (1 - sum(probs),))


def _priors(instance, seed):
    prefs = enumerate_preferences(instance)
    rng = random.Random(seed)
    return {
        "uniform": uniform_prior(instance),
        "random": random_prior(rng, instance),
        "half": half_support_prior(instance),
        "point": Prior(instance, tuple(
            F(1) if p == prefs[-1] else F(0) for p in prefs
        )),
        "coprime": _coprime_prior(instance),
    }


def _fraction_rows(mech, prior):
    """``_interim_rows`` as Fraction rows keyed by agent, then report."""
    prefs = enumerate_preferences(mech.instance)
    rows_by_agent, common = _interim_rows(mech, prior)
    return {
        agent: {
            report: tuple(F(x, common) for x in row) for report, row in zip(prefs, rows)
        }
        for agent, rows in rows_by_agent.items()
    }


def _greedy_evaluations(prior):
    """The profiles ``(id,) + M'`` at which the walk of an anonymous and
    neutral mechanism evaluates, computed apart from it: the multisets
    ``M'`` of n-1 report indices that weigh some report r (every report of
    ``M'``, its objects read through r, is on the support), in
    lexicographic order, skipping each one an earlier evaluated profile
    gives.  A profile gives each report r in it, against the others'
    multiset ``O``, the multiset ``s_r O``, where ``s_r`` maps ``r[k]`` to
    ``k``."""
    n = prior.instance.n
    prefs = enumerate_preferences(prior.instance, max_n=n)
    index = {p: k for k, p in enumerate(prefs)}
    on = [k for k, p in enumerate(prior.probs) if p]

    ranks = [[r.index(a) for a in range(n)] for r in prefs]

    def s(r, reports):  # s_r of each of reports, as report indices
        rank = ranks[r].__getitem__
        return [index[tuple(map(rank, prefs[q]))] for q in reports]

    weighing = set()
    for r in range(len(prefs)):  # the reports p with r o p on the support are s_r(on)
        reach = sorted(set(s(r, on)))
        weighing.update(itertools.combinations_with_replacement(reach, n - 1))
    given, evaluated = set(), []
    for members in sorted(weighing):
        if members in given:
            continue
        reports = (0,) + members
        evaluated.append(tuple(prefs[k] for k in reports))
        # the identity report, s_0 = id, gives members itself
        for i, r in enumerate(reports[1:], 1):
            if r != reports[i - 1]:
                given.add(tuple(sorted(s(r, reports[:i] + reports[i + 1:]))))
    return evaluated


class TestOnePassRows:
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("kind", MECHANISM_KINDS)
    def test_rows_match_oracle(self, kind, n):
        mech = build_mechanism(kind, n)
        instance = mech.instance
        for name, prior in _priors(instance, seed=31 + n).items():
            table = _fraction_rows(mech, prior)
            assert list(table) == list(instance.agents)
            for agent, rows in table.items():
                assert list(rows) == enumerate_preferences(instance)
                for report, shares in rows.items():
                    expected = interim_shares_oracle(mech, agent, report, prior)
                    assert shares == expected, (name, agent, report)

    def test_coprime_weights_exceed_64_bits(self, instance3):
        prior = _coprime_prior(instance3)
        assert math.lcm(*(p.denominator for p in prior.probs)).bit_length() > 64

    def test_seeded_reports_at_n4_half_support(self):
        instance = Instance.default(4)
        prior = half_support_prior(instance)
        prefs = enumerate_preferences(instance)
        table = _fraction_rows(ProbabilisticSerial(instance), prior)
        oracle_mech = ProbabilisticSerial(instance, cache=True)
        rng = random.Random(404)
        # two reports on the support and two off it
        picks = [(rng.randrange(4), prefs[rng.randrange(12)]) for _ in range(2)]
        picks += [(rng.randrange(4), prefs[12 + rng.randrange(12)]) for _ in range(2)]
        for agent, report in picks:
            expected = interim_shares_oracle(oracle_mech, agent, report, prior)
            assert table[agent][report] == expected, (agent, report)

    def test_agent_subset_matches_full_pass(self, ps3, violating_prior):
        full, common = _interim_rows(ps3, violating_prior)
        assert _interim_rows(ps3, violating_prior, agents=(2, 0)) == (
            {2: full[2], 0: full[0]}, common,
        )

    def test_unknown_agent_rejected(self, ps3, uniform3):
        with pytest.raises(ValueError, match="agent 4 is not one of agents 1..3"):
            _interim_rows(ps3, uniform3, agents=(3,))

    def test_each_support_profile_evaluated_once(self, instance3):
        """A mechanism not declared anonymous, or declared anonymous but not
        neutral, is evaluated once at every profile with at most one
        off-support report."""
        prior = half_support_prior(instance3)
        on = {p for p, w in prior.items() if w}
        expected = {
            profile for profile in itertools.product(enumerate_preferences(instance3), repeat=3)
            if sum(p not in on for p in profile) <= 1
        }
        for cls in (CountingUndeclaredPS, CountingNonNeutralPS):
            mech = cls(instance3, cache=True)
            assert not (mech.anonymous and mech.neutral)
            report = obic_decomposition_report(mech, prior)
            assert report.obic.profiles_checked == 3 * 6
            assert set(mech.counts) == expected, cls
            assert set(mech.counts.values()) == {1}, cls
            assert mech._cache == {}

    @pytest.mark.parametrize("n,support", ((3, "half"), (4, "half"), (4, "uniform")))
    def test_each_identity_multiset_evaluated_once(self, n, support):
        """An anonymous and neutral mechanism is evaluated at most once per
        multiset ``M'`` of opponent reports of the identity report that
        weighs some report, at its sorted profile ``(id,) + M'``; it skips
        every ``M'`` that an earlier evaluated profile gives through
        neutrality (:func:`_greedy_evaluations`)."""
        instance = Instance.default(n)
        prior = half_support_prior(instance) if support == "half" else uniform_prior(instance)
        prefs = enumerate_preferences(instance)
        mech = CountingPS(instance, cache=True)
        assert mech.anonymous and mech.neutral
        report = obic_decomposition_report(mech, prior)
        assert report.obic.profiles_checked == n * len(prefs)
        expected = _greedy_evaluations(prior)
        assert len(set(expected)) == len(expected)
        assert set(mech.counts) == set(expected)
        assert set(mech.counts.values()) == {1}
        assert len(expected) == {(3, "half"): 10, (4, "half"): 702,
                                 (4, "uniform"): 762}[n, support]
        assert mech._cache == {}

    @pytest.mark.parametrize("n,support", ((3, "half"), (4, "half"), (4, "uniform")))
    def test_no_pending_rows_evaluates_every_weighing_multiset(self, n, support, monkeypatch):
        """With no room for pending rows the walk evaluates each multiset
        ``M'`` that weighs some report, and gives the same rows."""
        instance = Instance.default(n)
        prior = half_support_prior(instance) if support == "half" else uniform_prior(instance)
        prefs = enumerate_preferences(instance)
        on = {p for p, w in prior.items() if w != 0}
        shared = _interim_rows(ProbabilisticSerial(instance), prior)
        monkeypatch.setattr(interim, "_PENDING_ROWS", 0)
        mech = CountingPS(instance)
        assert _interim_rows(mech, prior) == shared
        expected = {
            (prefs[0],) + others
            for others in itertools.combinations_with_replacement(prefs, n - 1)
            if any(all(tuple(r[a] for a in p) in on for p in others) for r in prefs)
        }
        assert set(mech.counts) == expected
        assert set(mech.counts.values()) == {1}
        assert len(expected) == {(3, "half"): 18, (4, "half"): 1_736,
                                 (4, "uniform"): 2_600}[n, support]

    @pytest.mark.parametrize("support,peak", (("half", 402), ("uniform", 1_104)))
    def test_pending_rows_stay_bounded_and_are_all_used(self, support, peak, monkeypatch):
        """The walk stashes a row only while the pending map holds fewer
        than ``_PENDING_ROWS`` rows, so a smaller bound costs evaluations,
        never a different row.  The evaluation counts pin the map's peak:
        a bound of ``peak`` costs nothing over the default, one row less
        costs one evaluation more.  A row left in the map when the walk
        ends would raise :class:`InternalConsistencyError`."""
        instance = Instance.default(4)
        prior = half_support_prior(instance) if support == "half" else uniform_prior(instance)
        mech = CountingPS(instance)
        rows = _interim_rows(mech, prior)
        counts = {
            "half": {peak: 702, peak - 1: 703, 50: 1_562, 1: 1_726, 0: 1_736},
            "uniform": {peak: 762, peak - 1: 763, 50: 2_413, 1: 2_590, 0: 2_600},
        }[support]
        assert len(mech.counts) == counts[peak]
        for bound, count in counts.items():
            monkeypatch.setattr(interim, "_PENDING_ROWS", bound)
            mech = CountingPS(instance)
            assert _interim_rows(mech, prior) == rows, bound
            assert set(mech.counts.values()) == {1}, bound
            assert len(mech.counts) == count, bound

    def test_pending_rows_only_for_multisets_the_walk_reaches(self, instance3, monkeypatch):
        """Under a prior on acb and bac some evaluated profiles give rows
        for multisets that weigh no report; the walk never reaches those,
        so it must not stash their rows, or it would raise
        :class:`InternalConsistencyError` with them left in its map.  The
        rows it does stash save 2 of the 12 evaluations."""
        assert enumerate_preferences(instance3)[1:3] == [(0, 2, 1), (1, 0, 2)]
        prior = Prior(instance3, tuple(F(int(k in (1, 2)), 2) for k in range(6)))
        mech = CountingPS(instance3)
        rows = _interim_rows(mech, prior)
        assert rows == _interim_rows(UndeclaredPS(instance3), prior)
        assert set(mech.counts) == set(_greedy_evaluations(prior))
        assert len(mech.counts) == 10
        monkeypatch.setattr(interim, "_PENDING_ROWS", 0)
        mech = CountingPS(instance3)
        assert _interim_rows(mech, prior) == rows
        assert len(mech.counts) == 12

    def test_rank_vector_reports_share_one_pass(self, instance3, violating_prior):
        mech = CountingPS(instance3)
        together = rank_vector_reports(mech, violating_prior)
        assert set(mech.counts.values()) == {1}
        assert [r.agent for r in together] == [0, 1, 2]
        for report in together:
            single = rank_vector_reports(
                ProbabilisticSerial(instance3), violating_prior, (report.agent,)
            )[0]
            assert report == single


class NonNeutralRP(RandomPriority):
    """Random priority declared anonymous but not neutral."""

    neutral = False


class NonNeutralEating(SimultaneousEating):
    """Simultaneous eating not declared neutral."""

    neutral = False


def _three_routes(kind, instance):
    """A neutral anonymous mechanism of ``kind``, the same mechanism not
    declared neutral, and not declared anonymous: the first's interim rows
    come from the identity-multiset walk, the other two's from the
    per-profile pass."""
    if kind == "ps":
        return (ProbabilisticSerial(instance), CountingNonNeutralPS(instance),
                CountingUndeclaredPS(instance))
    if kind == "rp":
        return RandomPriority(instance), NonNeutralRP(instance), UndeclaredRP(instance)
    unit = EatingSpeedSchedule.unit(instance.n)
    return (SimultaneousEating(instance, unit), NonNeutralEating(instance, unit),
            UndeclaredEating(instance, unit))


class TestMultisetPass:
    """The identity-multiset walk of an anonymous and neutral mechanism
    gives the per-profile pass's rows exactly, and the Fraction oracle's."""

    @pytest.mark.parametrize("kind", ("ps", "rp", "sea-unit"))
    def test_rows_match_per_profile_pass_and_oracle(self, kind, instance3, violating_prior):
        routes = _three_routes(kind, instance3)
        assert [(m.anonymous, m.neutral) for m in routes] == [
            (True, True), (True, False), (False, True)
        ]
        prefs = enumerate_preferences(instance3)
        rng = random.Random(1313)
        priors = {
            "uniform": uniform_prior(instance3),
            "violating": violating_prior,
            **{f"random{k}": random_prior(rng, instance3) for k in range(3)},
            "point": Prior(instance3, tuple(F(int(p == prefs[2])) for p in prefs)),
            "half": half_support_prior(instance3),
        }
        for name, prior in priors.items():
            rows = [_interim_rows(mech, prior) for mech in routes]
            assert rows[0] == rows[1] == rows[2], name
            for mech in routes[:2]:
                for agent, by_report in _fraction_rows(mech, prior).items():
                    for report, shares in by_report.items():
                        expected = interim_shares_oracle(mech, agent, report, prior)
                        assert shares == expected, (name, mech, agent, report)

    @pytest.mark.parametrize("kind", ("ps", "rp", "sea-unit"))
    def test_sweeps_match_undeclared_twin(self, kind, instance3):
        """An anonymous and neutral mechanism's agents share one set of
        interim rows, so the kernel sweeps agent 1 and relabels; its twins
        are swept agent by agent, and every outcome comes out the same."""
        mech, non_neutral, undeclared = _three_routes(kind, instance3)
        assert _RowCells(*_interim_rows(mech, uniform_prior(instance3))).anonymous
        assert not _RowCells(*_interim_rows(non_neutral, uniform_prior(instance3))).anonymous
        assert not _RowCells(*_interim_rows(undeclared, uniform_prior(instance3))).anonymous
        priors = (
            uniform_prior(instance3),
            half_support_prior(instance3),
            random_prior(random.Random(2718), instance3),
        )
        for prior in priors:
            slow = obic_decomposition_report(undeclared, prior)
            slow_sweep = run_interim_sweep(undeclared, prior)
            for twin in (mech, non_neutral):
                fast = obic_decomposition_report(twin, prior)
                outcomes = [(fast.obic, slow.obic), (fast.interim_em, slow.interim_em),
                            (fast.interim_ui, slow.interim_ui),
                            (fast.interim_li, slow.interim_li)]
                fast_sweep = run_interim_sweep(twin, prior)
                assert list(fast_sweep) == list(slow_sweep)
                outcomes += [(fast_sweep[ax], slow_sweep[ax]) for ax in fast_sweep]
                for a, b in outcomes:
                    assert (a.axiom, a.satisfied, a.profiles_checked, a.comparisons) == (
                        b.axiom, b.satisfied, b.profiles_checked, b.comparisons
                    )
                    assert tuple(a.violations) == tuple(b.violations), a.axiom

    def test_ps_n4_half_support_matches_per_profile_pass(self):
        instance = Instance.default(4)
        prior = half_support_prior(instance)
        fast, fast_common = _interim_rows(ProbabilisticSerial(instance), prior)
        slow, slow_common = _interim_rows(CountingUndeclaredPS(instance), prior)
        assert fast_common == slow_common
        assert list(fast) == list(slow) == [0, 1, 2, 3]
        for agent in instance.agents:
            assert fast[agent] == slow[agent], agent

    def test_false_anonymity_raises(self, instance3, uniform3):
        """The false declaration raises in the identity-multiset walk, which
        ``AnonymousSD`` takes with SD's neutrality.  Not declared neutral,
        it takes the per-profile pass, which never reads the declaration,
        and its outcome is plain SD's."""
        mech = AnonymousSD(instance3, (0, 1, 2))
        assert mech.neutral
        with pytest.raises(ValueError, match="declared anonymous"):
            check_obic(mech, uniform3)
        mech.neutral = False
        assert check_obic(mech, uniform3) == check_obic(
            SerialDictatorship(instance3, (0, 1, 2)), uniform3
        )


def _transposition_prior(instance, seed):
    """A random full-support prior that swapping the last two objects
    fixes: each preference and its image under that swap weigh alike."""
    prefs = enumerate_preferences(instance)
    swap = list(range(instance.n))
    swap[-2], swap[-1] = swap[-1], swap[-2]
    rng = random.Random(seed)
    raw = {}
    for p in prefs:
        twin = tuple(swap[a] for a in p)
        raw[p] = raw[twin] if twin in raw else uniform_int(rng, 1, 999)
    total = sum(raw.values())
    return Prior(instance, tuple(F(raw[p], total) for p in prefs))


def _symmetry_priors(instance):
    """Priors with every kind of symmetry group, by name, each with the
    number of reports the walk keeps sums for, where a test pins it."""
    rng = random.Random(4242)
    m = len(enumerate_preferences(instance))
    return {
        "uniform": (uniform_prior(instance), 1),
        "half": (half_support_prior(instance), None),
        "two-point": (two_point_prior(instance), None),
        # rows read off some evaluations belong to multisets that weigh
        # no report, so the walk must not stash them
        "sparse": (Prior(instance, (F(0), F(1, 2), F(1, 2)) + (F(0),) * (m - 3)), None),
        **{f"random{k}": (random_prior(rng, instance), m) for k in range(3)},
        "transposition": (_transposition_prior(instance, 17), m // 2),
    }


def _kept(prior):
    """The number of reports the walk keeps sums for under ``prior``."""
    q = math.lcm(*(p.denominator for p in prior.probs))
    weights = [p.numerator * (q // p.denominator) for p in prior.probs]
    on = [k for k, w in enumerate(weights) if w]
    rep = _prior_orbits(enumerate_preferences(prior.instance, max_n=prior.instance.n),
                        weights, on)
    return sum(r == k for k, r in enumerate(rep))


class UndeclaredPS(ProbabilisticSerial):
    """PS not declared anonymous, so its interim rows come from the
    per-profile pass."""

    anonymous = False


class TestPriorSymmetry:
    """The walk keeps sums for one report per orbit of the relabelings
    that fix the prior, and its rows match the per-profile pass and the
    Fraction oracle under priors with every kind of symmetry group."""

    def test_kept_reports(self):
        instance3, instance4 = Instance.default(3), Instance.default(4)
        for name, (prior, kept) in _symmetry_priors(instance3).items():
            if kept is not None:
                assert _kept(prior) == kept, name
        # two-point: abc and acb, which the swap of b and c exchanges
        assert _kept(two_point_prior(instance3)) == 3
        assert _kept(uniform_prior(instance4)) == 1
        assert _kept(half_support_prior(instance4)) == 6
        assert _kept(random_prior(random.Random(9), instance4)) == 24
        assert _kept(_transposition_prior(instance4, 23)) == 12
        assert _kept(uniform_prior(Instance.default(5))) == 1

    @pytest.mark.parametrize("kind", ("ps", "rp", "sea-unit"))
    def test_rows_match_undeclared_twin_and_oracle_n3(self, kind, instance3):
        mech, _, undeclared = _three_routes(kind, instance3)
        for name, (prior, _) in _symmetry_priors(instance3).items():
            rows = _interim_rows(mech, prior)
            assert rows == _interim_rows(undeclared, prior), name
            for agent, by_report in _fraction_rows(mech, prior).items():
                for report, shares in by_report.items():
                    expected = interim_shares_oracle(mech, agent, report, prior)
                    assert shares == expected, (name, agent, report)

    def test_ps_n4_uniform_matches_per_profile_pass(self):
        """Under the uniform prior the walk keeps one report's sums and
        reads the other 23 reports' rows from them."""
        instance = Instance.default(4)
        prior = uniform_prior(instance)
        assert _interim_rows(ProbabilisticSerial(instance), prior) == _interim_rows(
            UndeclaredPS(instance), prior
        )


def _oracle_agrees(mech, prior, reports):
    """Agent 1's rows from the walk, for each report index of ``reports``,
    equal the brute-force oracle's; returns the rows and their common
    denominator."""
    prefs = enumerate_preferences(mech.instance)
    rows, common = _interim_rows(mech, prior, agents=(0,))
    for k in reports:
        expected = interim_shares_oracle(mech, 0, prefs[k], prior)
        assert tuple(F(x, common) for x in rows[0][k]) == expected, prefs[k]
    return rows[0], common


class TestPackedRows:
    """The walk sums each row packed into one integer, a slot of
    ``(D * Q**(n-1)).bit_length() + 1`` bits per share; at the ends of that
    range its rows still match the brute-force oracle."""

    @pytest.mark.parametrize("n", (3, 4))
    @pytest.mark.parametrize("kind", ("ps", "rp"))
    def test_point_mass_fills_a_slot_to_the_bound(self, kind, n):
        """With every opponent reporting b>a>c(>d), Q = 1 and the slots are
        as narrow as they get.  The opponents never reach the last object,
        so a report ranking it first gets all of it, and its slot holds
        ``D * Q**(n-1)`` exactly.  (Report a>... does not: the opponents
        turn to a once b is gone.)"""
        instance = Instance.default(n)
        prefs = enumerate_preferences(instance)
        point = (1, 0) + tuple(range(2, n))
        prior = Prior(instance, tuple(F(int(p == point)) for p in prefs))
        mech = build_mechanism(kind, n)
        firsts = [k for k, p in enumerate(prefs) if p[0] in (0, n - 1)]
        rows, common = _oracle_agrees(mech, prior, firsts)
        assert common == mech.D
        for k, p in enumerate(prefs):
            if p[0] == n - 1:
                assert rows[k][n - 1] == common, p
            assert max(rows[k]) <= common

    @pytest.mark.parametrize("kind", ("ps", "rp"))
    def test_seeded_full_support_n3(self, kind):
        instance = Instance.default(3)
        mech = build_mechanism(kind, 3)
        rng = random.Random(2703)
        for _ in range(4):
            _oracle_agrees(mech, random_prior(rng, instance), range(6))

    @pytest.mark.parametrize("kind", ("ps", "rp"))
    def test_seeded_full_support_n4_wide_slots(self, kind):
        """A full-support prior on a coarse grid has Q up to about 24,000
        (11,489 here), so no relabeling fixes it, the walk keeps sums for
        all 24 reports, and its slots are 56 bits wide for PS (D = 12**4)
        and 47 for RP (D = 4!)."""
        instance = Instance.default(4)
        prior = random_prior(random.Random(27), instance)
        q = math.lcm(*(p.denominator for p in prior.probs))
        assert q == 11_489
        mech = build_mechanism(kind, 4)
        assert (mech.D * q ** 3).bit_length() + 1 == {"ps": 56, "rp": 47}[kind]
        _oracle_agrees(mech, prior, (random.Random(2704).randrange(24),))


class TestReplay:
    def test_every_n3_violation_reverifies(self, ps3, violating_prior):
        report = obic_decomposition_report(ps3, violating_prior)
        violations = [
            v for outcome in (report.obic, report.interim_em,
                              report.interim_ui, report.interim_li)
            for v in outcome.violations
        ]
        assert violations
        for v in violations:
            assert reverify_interim_violation(ps3, v), v

    def test_replay_does_not_read_the_one_pass(
        self, ps3, violating_prior, monkeypatch
    ):
        import ramkit.interim as interim

        witness = check_obic(ps3, violating_prior).violations[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("replay read the one-pass rows")

        monkeypatch.setattr(interim, "_interim_rows", forbidden)
        assert reverify_interim_violation(ps3, witness)

    def test_first_ten_n4_violations_reverify(self):
        instance = Instance.default(4)
        prior = half_support_prior(instance)
        report = obic_decomposition_report(ProbabilisticSerial(instance), prior)
        replay = ProbabilisticSerial(instance, cache=True)
        for outcome in (report.obic, report.interim_li):
            assert len(outcome.violations) >= 10
            for v in outcome.violations[:10]:
                assert reverify_interim_violation(replay, v), v

    def test_n5_witness_replays_with_max_n(self):
        """Past the preference cap a witness replays with the ``max_n`` its
        sweep was given, and without it is refused."""
        instance = Instance.default(5)
        prior = two_point_prior(instance)
        ps = ProbabilisticSerial(instance)
        li = run_interim_sweep(ps, prior, ("interim-li",), max_n=5)["interim-li"]
        assert len(li.violations) == 260
        witness = li.violations[0]
        assert reverify_interim_violation(ps, witness, max_n=5)
        with pytest.raises(CapExceededError):
            reverify_interim_violation(ps, witness)

    @pytest.mark.parametrize("kind", ("ps", "sea", "table"))
    def test_first_mode_returns_first_exhaustive_violation(self, kind):
        mech = build_mechanism(kind, 3)
        # at seed 0 one swap of the table mechanism both lowers the raised
        # object's interim share and raises the lowered one's
        for seed in (5, 0):
            prior = random_prior(random.Random(seed), mech.instance)
            # the first violation is the witness lrobic_search reports
            first = interim_sweep_oracle(mech, prior, ("obic",) + INTERIM_AXIOMS, mode="first")
            exhaustive = check_obic(mech, prior)
            assert len(exhaustive.violations) > 1
            assert first["obic"].violations == exhaustive.violations[:1]
            sweep = run_interim_sweep(mech, prior)
            for ax in INTERIM_AXIOMS:
                assert first[ax].violations == sweep[ax].violations[:1], (seed, ax)
            em = run_interim_sweep(mech, prior, ("interim-em",))["interim-em"]
            assert em.violations == sweep["interim-em"].violations, seed

    @pytest.fixture(scope="class")
    def table_witnesses(self):
        """First obic, interim-em and interim-li witnesses of the table
        mechanism at a random prior, and the mechanism."""
        mech = build_mechanism("table", 3)
        prior = random_prior(random.Random(0), mech.instance)
        report = obic_decomposition_report(mech, prior)
        return mech, {
            outcome.axiom: outcome.violations[0]
            for outcome in (report.obic, report.interim_em, report.interim_li)
        }

    @pytest.mark.parametrize("corruption", ("lhs", "object", "swap"))
    @pytest.mark.parametrize("axiom", ("obic", "interim-em", "interim-li"))
    def test_corrupted_witness_fails_replay(self, table_witnesses, axiom, corruption):
        mech, witnesses = table_witnesses
        v = witnesses[axiom]
        assert reverify_interim_violation(mech, v)
        if corruption == "lhs":
            bad = dataclasses.replace(v, lhs=v.lhs + F(1, 97))
        elif axiom == "obic":
            # no object or swap: a wrong prefix, and the reports exchanged
            bad = (dataclasses.replace(v, rank=v.rank + 1) if corruption == "object"
                   else dataclasses.replace(v, truth=v.deviation, deviation=v.truth))
        elif corruption == "object":
            # an object the axiom does not constrain, with its true values:
            # outside the pair for em, the raised one for li
            pair = (v.swap.raised, v.swap.lowered)
            wrong = (next(a for a in v.truth if a not in pair)
                     if axiom == "interim-em" else v.swap.raised)
            old, new = (
                interim_share_vector(mech, v.agent, report, v.prior)[wrong]
                for report in (v.truth, v.deviation)
            )
            assert new != old
            bad = dataclasses.replace(v, objects=(wrong,), lhs=new, rhs=old)
        else:
            bad = dataclasses.replace(v, swap=v.swap._replace(
                lowered=v.swap.raised, raised=v.swap.lowered,
            ))
        assert not reverify_interim_violation(mech, bad)

    def test_unknown_axiom_rejected(self, table_witnesses):
        mech, witnesses = table_witnesses
        bad = dataclasses.replace(witnesses["obic"], axiom="interim-xx")
        with pytest.raises(ValueError, match="cannot replay axiom 'interim-xx'"):
            reverify_interim_violation(mech, bad)


class TestKernelMatchesFractionOracle:
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("kind", MECHANISM_KINDS)
    def test_outcomes_match_oracle(self, kind, n):
        mech = build_mechanism(kind, n)
        for name, prior in _priors(mech.instance, seed=31 + n).items():
            expected = interim_sweep_oracle(mech, prior, ("obic",) + INTERIM_AXIOMS)
            assert check_obic(mech, prior) == expected["obic"], name
            swept = run_interim_sweep(mech, prior)
            for ax in INTERIM_AXIOMS:
                assert swept[ax] == expected[ax], (name, ax)
            report = obic_decomposition_report(mech, prior)
            assert report.obic == expected["obic"], name
            assert report.interim_em == expected["interim-em"], name
            assert report.interim_ui == expected["interim-ui"], name
            assert report.interim_li == expected["interim-li"], name
