import concurrent.futures
import dataclasses
import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from helpers import (
    DEVIATION,
    DEVIATION_PROFILE,
    MECHANISM_KINDS,
    TRUTH_PROFILE,
    CountingNonNeutralPS,
    CountingPS,
    CountingUndeclaredPS,
    FalselyNeutralPS,
    build_mechanism,
    profile_sweep_oracle,
    random_bistochastic,
    random_profile,
    random_table,
)
from ramkit.core import (
    CapExceededError,
    Instance,
    enumerate_preferences,
    enumerate_profiles,
)
import ramkit.axioms
from ramkit.axioms import (
    PAIR_AXIOMS,
    PROFILE_AXIOMS,
    check_mechanism_ordinal_efficiency,
    ex_post_inefficiency_witness,
    lp_dominance_oracle,
    reverify_violation,
    run_axiom_check,
    run_pair_sweep,
    trade_cycle,
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
        out = run_axiom_check(ps3, "sp")
        assert not out.satisfied
        hits = [
            v for v in out.violations
            if v.agent == 0 and v.profile == TRUTH_PROFILE and v.deviation == DEVIATION
        ]
        assert len(hits) == 1
        assert (hits[0].rank, hits[0].lhs, hits[0].rhs) == (2, F(2, 3), F(3, 4))

    def test_rp_satisfied(self, rp3):
        assert run_axiom_check(rp3, "sp").satisfied

    def test_sd_satisfied(self, instance3):
        sd = SerialDictatorship(instance3, (1, 2, 0), cache=True)
        assert run_axiom_check(sd, "sp").satisfied


class TestWeakStrategyProofness:
    def test_ps_satisfied(self, ps3):
        assert run_axiom_check(ps3, "weak-sp").satisfied

    def test_strategy_proof_mechanisms_satisfy_it(self, rp3, instance3):
        assert run_axiom_check(rp3, "weak-sp").satisfied
        sd = SerialDictatorship(instance3, (0, 1, 2), cache=True)
        assert run_axiom_check(sd, "weak-sp").satisfied

    def test_favorite_to_agent1_report(self, instance3):
        mech = favorite_to_agent1(instance3)
        outcome = run_axiom_check(mech, "weak-sp")
        # nobody can strictly gain: agent 1 controls only her top, others
        # have no influence on their own rows
        assert outcome.satisfied
        assert run_axiom_check(mech, "em").satisfied

    def test_witnesses_replay_exactly(self):
        """Every weak-sp witness of a random table replays; one with the
        next prefix, or with its two prefix sums swapped, does not."""
        mech = random_table(Instance.default(3), seed=1)
        violations = run_axiom_check(mech, "weak-sp", mode="exhaustive").violations
        assert len(violations) == 1139
        for v in violations:
            assert reverify_violation(mech, v)
            assert not reverify_violation(mech, dataclasses.replace(v, rank=v.rank + 1))
            assert not reverify_violation(mech, dataclasses.replace(v, lhs=v.rhs, rhs=v.lhs))


class TestElementaryMonotonicity:
    def test_ps_satisfied_exhaustively(self, ps3):
        assert run_axiom_check(ps3, "em").satisfied

    def test_table1_swap_instance(self, ps3):
        old = ps3.assignment(TRUTH_PROFILE)[0]
        new = ps3.assignment(DEVIATION_PROFILE)[0]
        # raising a from rank 2 to rank 1: a rises 1/6 -> 1/2, c falls 1/2 -> 1/4
        assert (old[A], new[A]) == (F(1, 6), F(1, 2))
        assert (old[C], new[C]) == (F(1, 2), F(1, 4))

    def test_constant_mechanism_satisfied(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert run_axiom_check(mech, "em").satisfied


class TestNeutrality:
    def test_ps_satisfied(self, ps3):
        assert run_axiom_check(ps3, "neutral").satisfied

    def test_rp_satisfied(self, rp3):
        assert run_axiom_check(rp3, "neutral").satisfied

    def test_identity_relabeling_trivially_holds(self, ps3):
        out = ps3.assignment(TRUTH_PROFILE)
        assert all(out[i][a] == out[i][a] for i in range(3) for a in range(3))

    def test_fixed_object_mechanism_violated(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        outcome = run_axiom_check(mech, "neutral")
        assert not outcome.satisfied
        swap_ab = (B, A, C)
        assert any(v.sigma == swap_ab for v in outcome.violations)

    def test_violations_reverify(self, instance3):
        mech = constant_mechanism(instance3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        outcome = run_axiom_check(mech, "neutral", mode="first")
        assert reverify_violation(mech, outcome.violations[0])


class TestInvariances:
    def test_ps_upper_invariance_satisfied(self, ps3):
        assert run_axiom_check(ps3, "ui").satisfied

    def test_ps_lower_invariance_violated_at_table1(self, ps3):
        outcome = run_axiom_check(ps3, "li")
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
        assert run_axiom_check(rp3, "ui").satisfied
        assert run_axiom_check(rp3, "li").satisfied
        sd = SerialDictatorship(instance3, (2, 1, 0), cache=True)
        assert run_axiom_check(sd, "ui").satisfied
        assert run_axiom_check(sd, "li").satisfied


class TestEqualTreatmentOfEquals:
    def test_ps_satisfied_and_table1_rows_equal(self, ps3):
        assert run_axiom_check(ps3, "ete").satisfied
        out = ps3.assignment(TRUTH_PROFILE)
        assert out[0] == out[2]

    def test_rp_satisfied(self, rp3):
        assert run_axiom_check(rp3, "ete").satisfied

    def test_dictatorship_violated_at_unanimous_profile(self, instance3):
        sd = SerialDictatorship(instance3, (0, 1, 2), cache=True)
        outcome = run_axiom_check(sd, "ete")
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
        cycle = trade_cycle(swapped, profile)
        assert cycle is not None
        assert sorted(cycle) == [A, B]

    def test_ps_truth_profile_efficient(self, ps3):
        assert trade_cycle(ps3.assignment(TRUTH_PROFILE), TRUTH_PROFILE) is None

    def test_ps_mechanism_sweep(self, ps3):
        assert check_mechanism_ordinal_efficiency(ps3).satisfied

    def test_rp_inefficient_at_four_agent_profile(self):
        inst = Instance.default(4)
        d = 3
        profile = ((A, B, C, d), (A, B, C, d), (B, A, d, C), (B, A, d, C))
        rp = RandomPriority(inst)
        ps = ProbabilisticSerial(inst)
        assert trade_cycle(rp.assignment(profile), profile) is not None
        assert trade_cycle(ps.assignment(profile), profile) is None
        assert lp_dominance_oracle(rp.assignment(profile), profile) is not None
        assert lp_dominance_oracle(ps.assignment(profile), profile) is None


class TestExPostEfficiency:
    def test_dictatorship_outcome_efficient(self, instance3):
        sd = SerialDictatorship(instance3, (0, 1, 2))
        out = sd.assignment(TRUTH_PROFILE)
        assert ex_post_inefficiency_witness(out, TRUTH_PROFILE) is None

    def test_two_agent_swap_inefficient(self):
        profile = ((A, B), (B, A))
        swapped = ((F(0), F(1)), (F(1), F(0)))
        witness = ex_post_inefficiency_witness(swapped, profile)
        assert witness is not None
        weight, perm, cycle = witness
        assert weight == 1 and perm == (B, A) and sorted(cycle) == [0, 1]

    def test_ps_sweep_satisfied(self, ps3):
        assert run_axiom_check(ps3, "ex-post").satisfied

    def test_ordinal_implies_ex_post_on_random_matrices(self):
        rng = random.Random(55)
        for _ in range(40):
            matrix = random_bistochastic(rng, 3)
            profile = random_profile(rng, 3)
            if trade_cycle(matrix, profile) is None:
                assert ex_post_inefficiency_witness(matrix, profile) is None


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
        violation = run_axiom_check(ps3, "sp").violations[0]
        corrupted = dataclasses.replace(violation, lhs=violation.lhs + F(1, 97))
        assert not reverify_violation(ps3, corrupted)

    def test_corrupted_swap_witness_fails_reverification(self, ps3):
        violation = run_axiom_check(ps3, "li").violations[0]
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
        ete = run_axiom_check(sd, "ete", mode="first")
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

        from ramkit.reports import ViolationReport

        cycle = trade_cycle(rp.assignment(profile), profile)
        report = ViolationReport(axiom="oe", profile=profile, objects=cycle)
        assert reverify_violation(OneProfile(), report)


class TestSweepMechanics:
    def test_first_mode_returns_lexicographic_first(self, ps3):
        exhaustive = run_axiom_check(ps3, "sp", mode="exhaustive")
        first = run_axiom_check(ps3, "sp", mode="first")
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
            run_axiom_check(ps, "sp")
        with pytest.raises(CapExceededError):
            run_axiom_check(ps, "neutral")

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


def _profile_sweep_mechanism(name, n):
    """The mechanisms the profile sweeps are checked on: each kind of
    ``helpers.build_mechanism``, more serial dictatorship orders and a
    constant mechanism."""
    instance = Instance.default(n)
    if name == "sd-identity":
        return SerialDictatorship(instance, range(n))
    if name == "sd-rotated":
        return SerialDictatorship(instance, [(i + 1) % n for i in range(n)])
    if name == "constant":
        return constant_mechanism(instance, [[int(i == a) for a in range(n)] for i in range(n)])
    return build_mechanism(name, n)


class TestProfileSweeps:
    """Neutrality, ETE, OE and ex-post read the integer domain table and
    must return what the Fraction loops of ``helpers.profile_sweep_oracle``
    return, outcome for outcome."""

    @pytest.mark.parametrize("mode", ("exhaustive", "first"))
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize(
        "name", MECHANISM_KINDS + ("sd-identity", "sd-rotated", "constant")
    )
    def test_matches_oracle(self, name, n, mode):
        mech = _profile_sweep_mechanism(name, n)
        for axiom in PROFILE_AXIOMS:
            expected = profile_sweep_oracle(mech, axiom, mode=mode)
            if axiom == "oe":  # the one profile sweep with its own public name
                assert check_mechanism_ordinal_efficiency(mech, mode=mode) == expected
            for jobs in (1, 2):
                got = run_axiom_check(mech, axiom, mode=mode, jobs=jobs)
                assert got == expected, (axiom, jobs)

    @pytest.mark.parametrize("mode", ("exhaustive", "first"))
    @pytest.mark.parametrize("n", (2, 3))
    def test_mixed_orbits_match_oracle(self, n, mode):
        """At n=3 some of FalselyNeutralPS's relabeling orbits pass
        neutrality and some fail, so its sweep both passes orbits whole and
        lists the violations of others.  OE and ex-post are left out: the
        identity fill reads their rows through the false declaration."""
        mech = FalselyNeutralPS(Instance.default(n))
        for axiom in ("neutral", "ete"):
            expected = profile_sweep_oracle(mech, axiom, mode=mode)
            for jobs in (1, 2):
                got = run_axiom_check(mech, axiom, mode=mode, jobs=jobs)
                assert got == expected, (axiom, jobs)
        if n == 3 and mode == "exhaustive":
            # an orbit's representative relabels agent 1's report to the identity
            failing = {
                tuple(tuple(map({x: k for k, x in enumerate(v.profile[0])}.get, p))
                      for p in v.profile)
                for v in profile_sweep_oracle(mech, "neutral", mode=mode).violations
            }
            assert 0 < len(failing) < 6 ** 2

    def test_oracle_finds_violations_of_every_axiom(self):
        """The oracle comparisons above cover failing sweeps too."""
        failing = {
            ax: [name for name in MECHANISM_KINDS + ("sd-identity", "constant")
                 if not profile_sweep_oracle(
                     _profile_sweep_mechanism(name, 3), ax, mode="first"
                 ).satisfied]
            for ax in PROFILE_AXIOMS
        }
        assert all(failing.values()), failing

    @pytest.mark.parametrize("axiom", PROFILE_AXIOMS)
    def test_jobs_do_not_change_the_outcome(self, axiom):
        mech = build_mechanism("table", 3)
        outcomes = [
            run_axiom_check(mech, axiom, mode="exhaustive", jobs=jobs)
            for jobs in (1, 2, 3)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("axiom", PROFILE_AXIOMS)
    def test_cap_raises_before_any_evaluation(self, axiom):
        mech = CountingPS(Instance.default(5))
        with pytest.raises(CapExceededError):
            run_axiom_check(mech, axiom)
        if axiom == "oe":
            with pytest.raises(CapExceededError):
                check_mechanism_ordinal_efficiency(mech)
        assert mech.counts == {} and mech.assignment_calls == 0

    def test_exhaustive_past_the_cap_raises_before_any_evaluation(self):
        """Past the sweep cap only first mode runs; an exhaustive sweep is
        refused before it evaluates anything, even with the cap raised."""
        mech = CountingPS(Instance.default(5))
        with pytest.raises(CapExceededError):
            run_pair_sweep(mech, ("em",), mode="exhaustive", max_n=5)
        with pytest.raises(CapExceededError):
            run_axiom_check(mech, "ete", mode="exhaustive", max_n=5)
        for axiom in PAIR_AXIOMS + PROFILE_AXIOMS:
            with pytest.raises(CapExceededError):
                run_axiom_check(mech, axiom, mode="exhaustive", max_n=5)
        assert mech.counts == {} and mech.assignment_calls == 0

    def test_first_mode_fills_once_per_multiset_at_n4(self):
        """Up to the sweep cap a first-mode profile sweep reads a filled
        table, so PS, anonymous and neutral, is evaluated once per multiset
        of the identity report's opponent reports, C(26, 3)."""
        mech = CountingPS(Instance.default(4))
        assert check_mechanism_ordinal_efficiency(mech, mode="first").satisfied
        assert len(mech.counts) == 2_600 and set(mech.counts.values()) == {1}

    def test_first_mode_fills_on_the_pool(self, monkeypatch):
        """A first-mode profile sweep of a mechanism that is not anonymous
        fills its table on ``jobs`` workers, and its outcome equals the
        serial one and the oracle's."""
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        workers = min(2, os.cpu_count() or 1)
        for name in ("sd", "table"):
            mech = build_mechanism(name, 3)
            assert not mech.anonymous
            for axiom in ("neutral", "oe", "ex-post"):
                expected = profile_sweep_oracle(mech, axiom, mode="first")
                assert run_axiom_check(mech, axiom, mode="first", jobs=1) == expected
                assert pools == []
                assert run_axiom_check(mech, axiom, mode="first", jobs=2) == expected
                assert pools == ([workers] if workers > 1 else []), (name, axiom)
                pools.clear()

    @pytest.mark.parametrize("mode", ("exhaustive", "first"))
    @pytest.mark.parametrize("axiom", PAIR_AXIOMS + PROFILE_AXIOMS)
    def test_each_profile_evaluated_at_most_once(self, axiom, mode):
        mech = CountingPS(Instance.default(3))
        run_axiom_check(mech, axiom, mode=mode, jobs=1)
        assert mech.assignment_calls == 0
        assert set(mech.counts.values()) == {1}
        if mode == "exhaustive":
            # ETE evaluates only the 96 profiles with two equal reports;
            # neutrality fills PS once per multiset of reports, C(8, 3); the
            # other sweeps once per multiset of the identity report's
            # opponent reports, C(7, 2)
            assert len(mech.counts) == {"ete": 96, "neutral": 56}.get(axiom, 21)

    @pytest.mark.parametrize("mode", ("exhaustive", "first"))
    @pytest.mark.parametrize("axiom", PAIR_AXIOMS + PROFILE_AXIOMS)
    def test_each_profile_evaluated_at_most_once_without_neutrality(self, axiom, mode):
        mech = CountingNonNeutralPS(Instance.default(3))
        run_axiom_check(mech, axiom, mode=mode, jobs=1)
        assert mech.assignment_calls == 0
        assert set(mech.counts.values()) == {1}
        if mode == "exhaustive":
            assert len(mech.counts) == (96 if axiom == "ete" else 56)

    @pytest.mark.parametrize("mode", ("exhaustive", "first"))
    @pytest.mark.parametrize("axiom", PAIR_AXIOMS + PROFILE_AXIOMS)
    def test_each_profile_evaluated_at_most_once_without_anonymity(self, axiom, mode):
        mech = CountingUndeclaredPS(Instance.default(3))
        run_axiom_check(mech, axiom, mode=mode, jobs=1)
        assert mech.assignment_calls == 0
        assert set(mech.counts.values()) == {1}
        if mode == "exhaustive":
            assert len(mech.counts) == (96 if axiom == "ete" else 6 ** 3)

    def test_ex_post_settles_ordinally_efficient_outcomes_without_decomposing(
        self, monkeypatch
    ):
        calls = []
        original = ramkit.axioms.birkhoff_decompose

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(ramkit.axioms, "birkhoff_decompose", counting)
        outcome = run_axiom_check(build_mechanism("ps", 3), "ex-post")
        assert outcome.satisfied and outcome.profiles_checked == 6 ** 3
        assert calls == []
        # an outcome with a trade cycle is still decomposed
        assert not run_axiom_check(build_mechanism("table", 3), "ex-post").satisfied
        assert calls
