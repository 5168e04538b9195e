import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    DEVIATION,
    DEVIATION_PROFILE,
    TRUTH_PROFILE,
    random_bistochastic,
    random_profile,
)
from ramkit.core import (
    CapExceededError,
    Instance,
    enumerate_preferences,
    enumerate_profiles,
    transposition,
)
from ramkit.axioms import (
    check_elementary_monotonicity,
    check_equal_treatment_of_equals,
    check_ex_post_efficiency,
    check_lower_invariance,
    check_mechanism_ex_post_efficiency,
    check_mechanism_ordinal_efficiency,
    check_neutrality,
    check_ordinal_efficiency,
    check_strategy_proofness,
    check_upper_invariance,
    check_weak_strategy_proofness,
    ex_post_inefficiency_witness,
    lp_dominance_oracle,
    reverify_violation,
    run_axiom_check,
    run_pair_sweep,
)
from ramkit.mechanisms import (
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    TabulatedMechanism,
    constant_mechanism,
)

F = Fraction
A, B, C = 0, 1, 2


def favorite_to_agent1(instance):
    """Agent 1 receives her reported top object outright; every other agent
    receives an equal share of each remaining object."""
    n = instance.n
    rest_share = F(1, n - 1)
    table = {}
    for profile in enumerate_profiles(instance):
        top = profile[0][0]
        rows = [[F(0)] * n for _ in range(n)]
        rows[0][top] = F(1)
        for i in range(1, n):
            for a in range(n):
                if a != top:
                    rows[i][a] = rest_share
        table[profile] = rows
    return TabulatedMechanism(instance, table)


class TestStrategyProofness:
    def test_ps_violated_with_known_witness(self, ps3):
        out = check_strategy_proofness(ps3)
        assert not out.satisfied
        hits = [
            v for v in out.violations
            if v.agent == 0 and v.profile == TRUTH_PROFILE and v.deviation == DEVIATION
        ]
        assert len(hits) == 1
        assert (hits[0].rank, hits[0].lhs, hits[0].rhs) == (2, F(2, 3), F(3, 4))

    def test_rp_satisfied(self, rp3):
        assert check_strategy_proofness(rp3).satisfied

    def test_sd_satisfied(self, instance3):
        sd = SerialDictatorship(instance3, (1, 2, 0), cache=True)
        assert check_strategy_proofness(sd).satisfied


class TestWeakStrategyProofness:
    def test_ps_satisfied(self, ps3):
        assert check_weak_strategy_proofness(ps3).satisfied

    def test_strategy_proof_mechanisms_satisfy_it(self, rp3, instance3):
        assert check_weak_strategy_proofness(rp3).satisfied
        sd = SerialDictatorship(instance3, (0, 1, 2), cache=True)
        assert check_weak_strategy_proofness(sd).satisfied

    def test_favorite_to_agent1_report(self, instance3):
        mech = favorite_to_agent1(instance3)
        outcome = check_weak_strategy_proofness(mech)
        # nobody can strictly gain: agent 1 controls only her top, others
        # have no influence on their own rows
        assert outcome.satisfied
        assert check_elementary_monotonicity(mech).satisfied


class TestElementaryMonotonicity:
    def test_ps_satisfied_exhaustively(self, ps3):
        assert check_elementary_monotonicity(ps3).satisfied

    def test_table1_swap_instance(self, ps3):
        old = ps3.assignment(TRUTH_PROFILE)[0]
        new = ps3.assignment(DEVIATION_PROFILE)[0]
        # raising a from rank 2 to rank 1: a rises 1/6 -> 1/2, c falls 1/2 -> 1/4
        assert (old[A], new[A]) == (F(1, 6), F(1, 2))
        assert (old[C], new[C]) == (F(1, 2), F(1, 4))

    def test_constant_mechanism_satisfied(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert check_elementary_monotonicity(mech).satisfied


class TestNeutrality:
    def test_ps_satisfied(self, ps3):
        assert check_neutrality(ps3).satisfied

    def test_rp_satisfied(self, rp3):
        assert check_neutrality(rp3).satisfied

    def test_identity_relabeling_trivially_holds(self, ps3):
        out = ps3.assignment(TRUTH_PROFILE)
        assert all(out[i][a] == out[i][a] for i in range(3) for a in range(3))

    def test_fixed_object_mechanism_violated(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        outcome = check_neutrality(mech)
        assert not outcome.satisfied
        swap_ab = transposition(3, A, B)
        assert any(v.sigma == swap_ab for v in outcome.violations)

    def test_violations_reverify(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        outcome = check_neutrality(mech, mode="first")
        assert reverify_violation(mech, outcome.violations[0])


class TestInvariances:
    def test_ps_upper_invariance_satisfied(self, ps3):
        assert check_upper_invariance(ps3).satisfied

    def test_ps_lower_invariance_violated_at_table1(self, ps3):
        outcome = check_lower_invariance(ps3)
        assert not outcome.satisfied
        # swap pairs are checked once per unordered pair, so the witness may
        # carry either direction of the c>a>b <-> a>c>b swap
        pair = {TRUTH_PROFILE[0], DEVIATION}
        hits = [
            v for v in outcome.violations
            if v.agent == 0
            and v.profile[1:] == TRUTH_PROFILE[1:]
            and {v.profile[0], v.deviation} == pair
        ]
        assert len(hits) == 1
        witness = hits[0]
        assert witness.objects == (B,)
        # the b-share moves between 1/3 (truthful report) and 1/4 (deviation)
        assert {witness.lhs, witness.rhs} == {F(1, 3), F(1, 4)}

    def test_strategy_proof_mechanisms_pass_both(self, rp3, instance3):
        assert check_upper_invariance(rp3).satisfied
        assert check_lower_invariance(rp3).satisfied
        sd = SerialDictatorship(instance3, (2, 1, 0), cache=True)
        assert check_upper_invariance(sd).satisfied
        assert check_lower_invariance(sd).satisfied


class TestEqualTreatmentOfEquals:
    def test_ps_satisfied_and_table1_rows_equal(self, ps3):
        assert check_equal_treatment_of_equals(ps3).satisfied
        out = ps3.assignment(TRUTH_PROFILE)
        assert out[0] == out[2]

    def test_rp_satisfied(self, rp3):
        assert check_equal_treatment_of_equals(rp3).satisfied

    def test_dictatorship_violated_at_unanimous_profile(self, instance3):
        sd = SerialDictatorship(instance3, (0, 1, 2), cache=True)
        outcome = check_equal_treatment_of_equals(sd)
        assert not outcome.satisfied
        unanimous = ((A, B, C),) * 3
        assert any(v.profile == unanimous for v in outcome.violations)


class TestManipulationComparisons:
    def test_incomparable_under_truth_one_sided_under_deviation(self, ps3):
        """Under the true ranking the two rows are FOSD-incomparable; under
        the misreport's ranking truth still fails to dominate the deviation,
        but there the deviation row does dominate (top-two prefix 3/4 > 2/3),
        so incomparability holds only under the true preference."""
        from ramkit.core import fosd

        truth_row = ps3.assignment(TRUTH_PROFILE)[0]
        dev_row = ps3.assignment(DEVIATION_PROFILE)[0]
        true_pref = TRUTH_PROFILE[0]
        assert not fosd(truth_row, dev_row, true_pref)
        assert not fosd(dev_row, truth_row, true_pref)
        assert not fosd(truth_row, dev_row, DEVIATION)
        assert fosd(dev_row, truth_row, DEVIATION)


class TestOrdinalEfficiency:
    def test_two_agent_swap_cycle(self):
        profile = ((A, B), (B, A))
        swapped = ((F(0), F(1)), (F(1), F(0)))
        efficient, cycle = check_ordinal_efficiency(swapped, profile)
        assert not efficient
        assert sorted(cycle) == [A, B]

    def test_ps_truth_profile_efficient(self, ps3):
        efficient, cycle = check_ordinal_efficiency(
            ps3.assignment(TRUTH_PROFILE), TRUTH_PROFILE
        )
        assert efficient and cycle is None

    def test_ps_mechanism_sweep(self, ps3):
        assert check_mechanism_ordinal_efficiency(ps3).satisfied

    def test_rp_inefficient_at_four_agent_profile(self):
        inst = Instance.default(4)
        d = 3
        profile = ((A, B, C, d), (A, B, C, d), (B, A, d, C), (B, A, d, C))
        rp = RandomPriority(inst)
        ps = ProbabilisticSerial(inst)
        rp_eff, _ = check_ordinal_efficiency(rp.assignment(profile), profile)
        ps_eff, _ = check_ordinal_efficiency(ps.assignment(profile), profile)
        assert not rp_eff and ps_eff
        assert lp_dominance_oracle(rp.assignment(profile), profile) is not None
        assert lp_dominance_oracle(ps.assignment(profile), profile) is None


class TestExPostEfficiency:
    def test_dictatorship_outcome_efficient(self, instance3):
        sd = SerialDictatorship(instance3, (0, 1, 2))
        out = sd.assignment(TRUTH_PROFILE)
        assert check_ex_post_efficiency(out, TRUTH_PROFILE)

    def test_two_agent_swap_inefficient(self):
        profile = ((A, B), (B, A))
        swapped = ((F(0), F(1)), (F(1), F(0)))
        assert not check_ex_post_efficiency(swapped, profile)
        weight, perm, cycle = ex_post_inefficiency_witness(swapped, profile)
        assert weight == 1 and perm == (B, A) and sorted(cycle) == [0, 1]

    def test_ps_sweep_satisfied(self, ps3):
        assert check_mechanism_ex_post_efficiency(ps3).satisfied

    def test_ordinal_implies_ex_post_on_random_matrices(self):
        rng = random.Random(55)
        for _ in range(40):
            matrix = random_bistochastic(rng, 3)
            profile = random_profile(rng, 3)
            efficient, _ = check_ordinal_efficiency(matrix, profile)
            if efficient:
                assert check_ex_post_efficiency(matrix, profile)


class TestImplicationStructure:
    def test_strategy_proofness_implies_the_swap_axioms(self, rp3, instance3):
        mechanisms = [rp3, SerialDictatorship(instance3, (0, 1, 2), cache=True)]
        for mech in mechanisms:
            results = run_pair_sweep(mech, ("sp", "weak-sp", "em", "ui", "li"))
            assert results["sp"].satisfied
            for ax in ("weak-sp", "em", "ui", "li"):
                assert results[ax].satisfied, ax

    def test_swap_axioms_jointly_equal_strategy_proofness(self, ps3, rp3, instance3):
        # mechanisms passing em+ui+li pass sp; PS fails li and indeed fails sp
        for mech in (rp3, SerialDictatorship(instance3, (1, 0, 2), cache=True)):
            results = run_pair_sweep(mech, ("sp", "em", "ui", "li"))
            if all(results[ax].satisfied for ax in ("em", "ui", "li")):
                assert results["sp"].satisfied
        ps_results = run_pair_sweep(ps3, ("sp", "em", "ui", "li"))
        assert not ps_results["li"].satisfied
        assert not ps_results["sp"].satisfied
        assert ps_results["em"].satisfied and ps_results["ui"].satisfied


class TestWitnessIntegrity:
    def test_all_ps_violations_reverify(self, ps3):
        results = run_pair_sweep(ps3, ("sp", "li"))
        for outcome in results.values():
            assert outcome.violations
            for violation in outcome.violations:
                assert reverify_violation(ps3, violation)

    def test_corrupted_witness_fails_reverification(self, ps3):
        violation = check_strategy_proofness(ps3).violations[0]
        corrupted = dataclasses.replace(violation, lhs=violation.lhs + F(1, 97))
        assert not reverify_violation(ps3, corrupted)

    def test_corrupted_swap_witness_fails_reverification(self, ps3):
        violation = check_lower_invariance(ps3).violations[0]
        swap, agent = violation.swap, violation.agent
        deviated = list(violation.profile)
        deviated[agent] = violation.deviation
        old = ps3.assignment(violation.profile)[agent][swap.raised]
        new = ps3.assignment(tuple(deviated))[agent][swap.raised]
        assert new != old
        for corrupted in (
            # the raised object is never below the pair, whatever its shares
            dataclasses.replace(violation, objects=(swap.raised,), lhs=new, rhs=old),
            dataclasses.replace(
                violation, swap=swap._replace(lowered=swap.raised, raised=swap.lowered)
            ),
        ):
            assert not reverify_violation(ps3, corrupted), corrupted

    def test_ete_and_expost_witnesses_reverify(self, instance3):
        sd = SerialDictatorship(instance3, (0, 1, 2), cache=True)
        ete = check_equal_treatment_of_equals(sd, mode="first")
        assert reverify_violation(sd, ete.violations[0])

    def test_oe_witness_reverifies(self):
        inst = Instance.default(4)
        rp = RandomPriority(inst, cache=True)
        d = 3
        profile = ((A, B, C, d), (A, B, C, d), (B, A, d, C), (B, A, d, C))
        table = {p: rp.assignment(p) for p in [profile]}

        class OneProfile:
            instance = inst

            def assignment(self, p):
                return table[p]

        from ramkit.axioms import trade_cycle
        from ramkit.reports import ViolationReport

        cycle = trade_cycle(rp.assignment(profile), profile)
        report = ViolationReport(axiom="oe", profile=profile, objects=cycle)
        assert reverify_violation(OneProfile(), report)


class TestSweepMechanics:
    def test_first_mode_returns_lexicographic_first(self, ps3):
        exhaustive = check_strategy_proofness(ps3, mode="exhaustive")
        first = check_strategy_proofness(ps3, mode="first")
        assert len(first.violations) == 1
        assert first.violations[0] == exhaustive.violations[0]

    def test_parallel_equals_sequential(self, ps3):
        seq = run_pair_sweep(ps3, ("sp", "li"), mode="exhaustive", jobs=1)
        par = run_pair_sweep(ps3, ("sp", "li"), mode="exhaustive", jobs=2)
        for ax in ("sp", "li"):
            assert seq[ax].violations == par[ax].violations
            assert seq[ax].profiles_checked == par[ax].profiles_checked
            assert seq[ax].comparisons == par[ax].comparisons

    def test_cap_errors(self):
        inst = Instance.default(5)
        ps = ProbabilisticSerial(inst)
        with pytest.raises(CapExceededError):
            check_strategy_proofness(ps)
        with pytest.raises(CapExceededError):
            check_neutrality(ps)

    def test_dispatch_names(self, ps3):
        for axiom, expected in [
            ("sp", False), ("weak-sp", True), ("em", True), ("ui", True),
            ("li", False), ("neutral", True), ("ete", True), ("oe", True),
            ("ex-post", True),
        ]:
            outcome = run_axiom_check(ps3, axiom)
            assert outcome.satisfied is expected, axiom
        with pytest.raises(ValueError, match="unknown axiom"):
            run_axiom_check(ps3, "bogus")

    def test_outcome_consistency_guard(self):
        from ramkit.reports import CheckOutcome, ViolationReport

        with pytest.raises(ValueError, match="inconsistent"):
            CheckOutcome(axiom="sp", satisfied=True,
                         violations=(ViolationReport(axiom="sp"),))
