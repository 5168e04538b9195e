"""End-to-end certification suite.

Each test is one exit criterion, checked at its stated tolerance (exact
rational equality throughout; the only tolerances are wall-clock limits).
One PASS/FAIL line per criterion is printed via the conftest hook.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    CountingPS,
    DEVIATION,
    DEVIATION_PROFILE,
    DEVIATION_ROW,
    TRUTH_PROFILE,
    TRUTH_ROW,
    build_mechanism,
    decomposition_verdicts,
    interim_shares_oracle,
    nonunit_schedule,
    random_bistochastic,
    random_profile,
    uniform_int,
)
from ramkit.core import (
    Instance,
    adjacent_swaps,
    enumerate_profiles,
    fosd,
)
from ramkit.axioms import (
    PAIR_AXIOMS,
    check_mechanism_ordinal_efficiency,
    lp_dominance_oracle,
    reverify_violation,
    run_axiom_check,
    run_pair_sweep,
    trade_cycle,
)
from ramkit.decomp import birkhoff_decompose, recombine, term_bound
from ramkit.interim import (
    check_obic,
    lrobic_search,
    obic_decomposition_report,
    rank_vector_reports,
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
A, B, C, D = 0, 1, 2, 3

EPSILON = F(1, 20)
SEED = 7
BLIND_BUDGET = 100

FOUR_AGENT_PROFILE = ((A, B, C, D), (A, B, C, D), (B, A, D, C), (B, A, D, C))


def non_uniform_sea(instance):
    schedule = EatingSpeedSchedule((
        ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
        ((F(0), F(1), F(1)),),
        ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))),
    ))
    return SimultaneousEating(instance, schedule, cache=True)


def test_manipulation_example_reproduction(ps3):
    start = time.perf_counter()
    truth_out = ps3.assignment(TRUTH_PROFILE)
    deviation_out = ps3.assignment(DEVIATION_PROFILE)
    assert truth_out[0] == TRUTH_ROW == (F(1, 6), F(1, 3), F(1, 2))
    assert deviation_out[0] == DEVIATION_ROW == (F(1, 2), F(1, 4), F(1, 4))
    true_pref = TRUTH_PROFILE[0]
    assert not fosd(truth_out[0], deviation_out[0], true_pref)
    assert not fosd(deviation_out[0], truth_out[0], true_pref)
    assert time.perf_counter() - start < 1.0


def test_ps_axiom_sweep_n3(ps3):
    start = time.perf_counter()
    pair = run_pair_sweep(ps3, ("sp", "weak-sp", "em", "ui", "li"))
    assert pair["em"].satisfied
    assert pair["weak-sp"].satisfied
    assert pair["ui"].satisfied
    assert run_axiom_check(ps3, "neutral").satisfied
    assert run_axiom_check(ps3, "ete").satisfied
    assert check_mechanism_ordinal_efficiency(ps3).satisfied
    assert not pair["sp"].satisfied
    assert not pair["li"].satisfied
    for axiom in ("sp", "li"):
        for violation in pair[axiom].violations:
            assert reverify_violation(ps3, violation)
    assert time.perf_counter() - start < 30.0


def test_uniform_prior_obic_certificate(instance3, ps3, rp3):
    start = time.perf_counter()
    uniform = uniform_prior(instance3)
    mechanisms = (ps3, rp3, non_uniform_sea(instance3))
    for mech in mechanisms:
        assert check_obic(mech, uniform).satisfied
        for agent in instance3.agents:
            report = rank_vector_reports(mech, uniform, (agent,))[0]
            assert report.rank_invariant
            assert report.rank_monotone
    assert time.perf_counter() - start < 60.0


def seeded_schedule(rng, n):
    """Agent-specific eating speeds in two pieces: each agent eats a seeded
    share of its unit (0, 1/4, ..., 1) before a seeded break time (1/4,
    1/2 or 3/4) and the rest after it."""
    pieces = []
    for _ in range(n):
        brk = F(uniform_int(rng, 1, 3), 4)
        early = F(uniform_int(rng, 0, 4), 4)
        pieces.append(((0, brk, early / brk), (brk, 1, (1 - early) / (1 - brk))))
    return EatingSpeedSchedule(tuple(pieces))


def test_uniform_prior_obic_of_neutral_em_mechanisms_n3(instance3, ps3, rp3):
    """The paper's uniform-prior result at n=3: a neutral mechanism that
    satisfies elementary monotonicity is OBIC under the uniform prior.
    PS and RP take the interim walk of anonymous and neutral mechanisms;
    the six serial dictatorships and the eating schedules with
    agent-specific speeds take the per-profile pass.  Every member here is
    neutral and satisfies em (none is left to pin as failing it), and the
    converse is not claimed."""
    rng = random.Random(2705)
    mechanisms = {
        "ps": ps3,
        "rp": rp3,
        **{f"sd:{order}": SerialDictatorship(instance3, order)
           for order in itertools.permutations(range(3))},
        "sea:nonunit": SimultaneousEating(instance3, nonunit_schedule(3)),
        **{f"sea:seeded{k}": SimultaneousEating(instance3, seeded_schedule(rng, 3))
           for k in range(2)},
    }
    walked = {name for name, mech in mechanisms.items() if mech.anonymous and mech.neutral}
    assert walked == {"ps", "rp"}
    uniform = uniform_prior(instance3)
    fails_em = set()
    for name, mech in mechanisms.items():
        assert run_axiom_check(mech, "neutral", mode="exhaustive").satisfied, name
        if run_axiom_check(mech, "em", mode="exhaustive").satisfied:
            assert check_obic(mech, uniform).satisfied, name
        else:
            fails_em.add(name)
    assert fails_em == set()


@pytest.mark.parametrize("kind", ("ps", "rp", "sea-unit", "sea-shared"))
def test_uniform_prior_obic_of_neutral_em_mechanisms_n4(kind):
    """The uniform-prior result at n=4, on the anonymous and neutral
    mechanisms that take the interim walk: PS, RP and eating at one speed
    for all, unit or fast-then-slow.  Each is OBIC at uniform, and its
    interim em, ui and li hold."""
    mech = build_mechanism(kind, 4)
    assert mech.anonymous and mech.neutral
    uniform = uniform_prior(mech.instance)
    assert check_obic(mech, uniform).satisfied
    assert decomposition_verdicts(obic_decomposition_report(mech, uniform)) == ("satisfied",) * 4


def test_uniform_prior_obic_of_serial_dictatorship_n4():
    """The uniform-prior result at n=4 on a mechanism that is neutral but
    not anonymous, so its interim rows come one evaluation per profile
    (``_profile_sums``), not from the walk: serial dictatorship in the
    order 4, 2, 1, 3 is OBIC at uniform, and its interim em, ui and li
    hold."""
    mech = SerialDictatorship(Instance.default(4), (3, 1, 0, 2))
    assert mech.descriptor() == "sd:4,2,1,3"
    assert mech.neutral and not mech.anonymous
    report = obic_decomposition_report(mech, uniform_prior(mech.instance))
    assert decomposition_verdicts(report) == ("satisfied",) * 4


def test_obic_decomposition_biconditional(instance3, ps3, rp3):
    uniform = uniform_prior(instance3)
    for mech in (ps3, rp3):
        report = obic_decomposition_report(mech, uniform)
        assert decomposition_verdicts(report) == ("satisfied",) * 4

    for k in range(BLIND_BUDGET):
        prior = sample_prior_in_ball(uniform, EPSILON, SEED + k).prior
        # the report constructor itself raises if the biconditional breaks
        report = obic_decomposition_report(ps3, prior)
        interim_ok = decomposition_verdicts(report)[1:] == ("satisfied",) * 3
        assert report.obic.satisfied == interim_ok
        if report.obic.satisfied:
            continue
        # matching witnesses: any OBIC failure at an adjacent pair must be
        # visible to one of the interim axioms at the same agent and swap
        interim_pairs = {
            (v.agent, frozenset((v.truth, v.deviation)))
            for outcome in (report.interim_em, report.interim_ui, report.interim_li)
            for v in outcome.violations
        }
        assert interim_pairs
        obic_agents = set()
        for v in report.obic.violations:
            obic_agents.add(v.agent)
            if dict(adjacent_swaps(v.truth)).get(v.deviation) is not None:
                assert (v.agent, frozenset((v.truth, v.deviation))) in interim_pairs
        assert {agent for agent, _ in interim_pairs} & obic_agents


def test_lrobic_falsification(instance3, ps3, rp3):
    uniform = uniform_prior(instance3)

    blind = lrobic_search(ps3, uniform, EPSILON, BLIND_BUDGET, SEED)
    assert blind is not None, "no violating prior within the blind budget"
    sample, witness = blind
    assert sample.seed - SEED < BLIND_BUDGET
    for p, q in zip(sample.prior.probs, uniform.probs):
        assert abs(p - q) < EPSILON

    # independent recomputation of the reported interim values
    truth = interim_shares_oracle(ps3, witness.agent, witness.truth, sample.prior)
    deviation = interim_shares_oracle(ps3, witness.agent, witness.deviation, sample.prior)
    prefix = witness.truth[: witness.rank]
    lhs = sum(truth[a] for a in prefix)
    rhs = sum(deviation[a] for a in prefix)
    assert (lhs, rhs) == (witness.lhs, witness.rhs)
    assert lhs < rhs

    assert lrobic_search(rp3, uniform, EPSILON, BLIND_BUDGET, SEED) is None


def test_strategy_proofness_equivalence(instance3, ps3, rp3):
    axioms = ("sp", "em", "ui", "li")
    for order in itertools.permutations(range(3)):
        sd = SerialDictatorship(instance3, order, cache=True)
        results = run_pair_sweep(sd, axioms)
        assert all(results[ax].satisfied for ax in axioms), order
    rp_results = run_pair_sweep(rp3, axioms)
    assert all(rp_results[ax].satisfied for ax in axioms)
    ps_results = run_pair_sweep(ps3, axioms)
    failed = {ax for ax in axioms if not ps_results[ax].satisfied}
    assert failed == {"sp", "li"}


def test_ordinal_efficiency_oracle_agreement(instance3, ps3, rp3):
    start = time.perf_counter()
    for mech in (ps3, rp3):
        for profile in enumerate_profiles(instance3):
            out = mech.assignment(profile)
            by_cycle = trade_cycle(out, profile) is None
            by_lp = lp_dominance_oracle(out, profile) is None
            assert by_cycle == by_lp

    rng = random.Random(2025)
    for k in range(1000):
        n = (2, 3, 4)[k % 3]
        matrix = random_bistochastic(rng, n)
        profile = random_profile(rng, n)
        by_cycle = trade_cycle(matrix, profile) is None
        by_lp = lp_dominance_oracle(matrix, profile) is None
        assert by_cycle == by_lp

    inst4 = Instance.default(4)
    rp4 = RandomPriority(inst4)
    ps4 = ProbabilisticSerial(inst4)
    rp_out = rp4.assignment(FOUR_AGENT_PROFILE)
    ps_out = ps4.assignment(FOUR_AGENT_PROFILE)
    assert trade_cycle(rp_out, FOUR_AGENT_PROFILE) is not None
    assert lp_dominance_oracle(rp_out, FOUR_AGENT_PROFILE) is not None
    assert trade_cycle(ps_out, FOUR_AGENT_PROFILE) is None
    assert lp_dominance_oracle(ps_out, FOUR_AGENT_PROFILE) is None
    assert time.perf_counter() - start < 300.0


def test_birkhoff_round_trip(instance3, ps3):
    for profile in enumerate_profiles(instance3):
        out = ps3.assignment(profile)
        decomposition = birkhoff_decompose(out)
        assert len(decomposition.terms) <= term_bound(3)
        assert recombine(decomposition) == out

    rng = random.Random(4096)
    for k in range(1000):
        n = (2, 3, 4)[k % 3]
        matrix = random_bistochastic(rng, n)
        decomposition = birkhoff_decompose(matrix)
        assert len(decomposition.terms) <= term_bound(n)
        assert recombine(decomposition) == matrix


def test_four_agent_monotonicity_and_upper_invariance(instance4):
    start = time.perf_counter()
    ps4 = ProbabilisticSerial(instance4)
    results = run_pair_sweep(ps4, ("em", "ui"), mode="exhaustive", jobs=2)
    assert results["em"].satisfied
    assert results["ui"].satisfied
    # 24 reports for each of the 4 * 24**3 (agent, opponents) cells
    assert results["em"].profiles_checked == 4 * 24 ** 3 * 24
    assert time.perf_counter() - start < 600.0


def test_four_agent_pair_axiom_profile(instance4):
    """Every pair axiom at n=4, exhaustively: PS fails sp and li and
    satisfies weak-sp, em and ui; RP satisfies all five.  Both are
    anonymous and neutral, so each is evaluated once per multiset of the
    identity report's opponent reports."""
    start = time.perf_counter()
    ps4 = CountingPS(instance4)
    ps = run_pair_sweep(ps4, PAIR_AXIOMS, mode="exhaustive")
    assert len(ps4.counts) == 2600 and set(ps4.counts.values()) == {1}
    assert {ax: len(outcome.violations) for ax, outcome in ps.items()} == {
        "sp": 1386432, "weak-sp": 0, "em": 0, "ui": 0, "li": 457632,
    }
    assert ps["sp"].profiles_checked == 4 * 24 ** 3 * 24
    rng = random.Random(SEED)
    for axiom in ("sp", "li"):
        violations = ps[axiom].violations
        for k in [0, len(violations) - 1] + rng.sample(range(len(violations)), 20):
            assert reverify_violation(ps4, violations[k])
    del ps
    rp = run_pair_sweep(RandomPriority(instance4), PAIR_AXIOMS, mode="exhaustive")
    assert all(outcome.satisfied for outcome in rp.values())
    assert time.perf_counter() - start < 120.0
