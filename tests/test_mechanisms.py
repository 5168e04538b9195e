import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    DEVIATION_PROFILE,
    DEVIATION_ROW,
    TRUTH_PROFILE,
    TRUTH_ROW,
    random_permutation,
    random_profile,
    uniform_int,
)
from ramkit.core import (
    Instance,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
    validate_assignment,
)
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
    constant_mechanism,
    dictatorship_outcome,
    eat,
    tabulate,
)

F = Fraction
A, B, C = 0, 1, 2


class TestSerialDictatorship:
    def test_both_want_a(self):
        inst = Instance.default(2)
        sd = SerialDictatorship(inst, (0, 1))
        out = sd.assignment(((0, 1), (0, 1)))
        assert out == ((F(1), F(0)), (F(0), F(1)))

    def test_three_agent_hand_run(self):
        inst = Instance.default(3)
        sd = SerialDictatorship(inst, (0, 1, 2))
        out = sd.assignment(TRUTH_PROFILE)
        assert out[0][C] == 1 and out[1][A] == 1 and out[2][B] == 1

    def test_distinct_tops_everyone_wins(self):
        inst = Instance.default(3)
        profile = ((A, B, C), (B, A, C), (C, A, B))
        for order in itertools.permutations(range(3)):
            pick = dictatorship_outcome(profile, order)
            assert pick == (A, B, C)

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            SerialDictatorship(Instance.default(3), (0, 0, 1))

    def test_descriptor(self):
        sd = SerialDictatorship(Instance.default(3), (2, 0, 1))
        assert sd.descriptor() == "sd:3,1,2"


class TestRandomPriority:
    def test_symmetric_contention(self):
        rp = RandomPriority(Instance.default(2))
        out = rp.assignment(((0, 1), (0, 1)))
        assert out == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_no_contention(self):
        rp = RandomPriority(Instance.default(2))
        out = rp.assignment(((0, 1), (1, 0)))
        assert out == ((F(1), F(0)), (F(0), F(1)))

    def test_equal_preferences_get_equal_rows(self, rp3):
        out = rp3.assignment(TRUTH_PROFILE)
        assert out[0] == out[2]

    def test_matches_explicit_average(self, instance3, rp3):
        # independent oracle: average the six dictatorship outcomes directly
        rng = random.Random(11)
        for _ in range(10):
            profile = random_profile(rng, 3)
            acc = [[F(0)] * 3 for _ in range(3)]
            for order in itertools.permutations(range(3)):
                pick = dictatorship_outcome(profile, order)
                for i in range(3):
                    acc[i][pick[i]] += F(1, 6)
            assert rp3.assignment(profile) == tuple(tuple(r) for r in acc)

    def test_cap(self):
        from ramkit.core import CapExceededError

        with pytest.raises(CapExceededError):
            RandomPriority(Instance.default(7))


class TestProbabilisticSerial:
    def test_truth_profile_rows(self, ps3):
        out = ps3.assignment(TRUTH_PROFILE)
        assert out[0] == TRUTH_ROW
        assert out[1] == (F(2, 3), F(1, 3), F(0))
        assert out[2] == TRUTH_ROW

    def test_deviation_profile_rows(self, ps3):
        out = ps3.assignment(DEVIATION_PROFILE)
        assert out[0] == DEVIATION_ROW

    def test_identical_preferences_split_evenly(self):
        for n in (2, 3, 4):
            ps = ProbabilisticSerial(Instance.default(n))
            profile = tuple(tuple(range(n)) for _ in range(n))
            out = ps.assignment(profile)
            assert all(x == F(1, n) for row in out for x in row)

    def test_contested_pairs_then_uncontested(self):
        ps = ProbabilisticSerial(Instance.default(4))
        d = 3
        profile = ((A, B, C, d), (A, B, C, d), (B, A, d, C), (B, A, d, C))
        out = ps.assignment(profile)
        half = F(1, 2)
        assert out[0] == (half, F(0), half, F(0)) == out[1]
        assert out[2] == (F(0), half, F(0), half) == out[3]

    def test_purity(self, ps3):
        profile = TRUTH_PROFILE
        assert ps3.assignment(profile) == ps3.assignment(profile)

    def test_cache_transparency(self, instance3):
        cached = ProbabilisticSerial(instance3, cache=True)
        plain = ProbabilisticSerial(instance3, cache=False)
        for profile in enumerate_profiles(instance3):
            assert cached.assignment(profile) == plain.assignment(profile)
        assert cached.assignment(TRUTH_PROFILE) is cached.assignment(TRUTH_PROFILE)

    def test_all_outputs_bistochastic(self, ps3):
        for profile in enumerate_profiles(ps3.instance):
            validate_assignment(ps3.assignment(profile))

    def test_anonymity(self, ps3):
        # permuting who holds which preference permutes the rows accordingly
        rng = random.Random(5)
        for profile in enumerate_profiles(ps3.instance):
            tau = random_permutation(rng, 3)
            permuted = tuple(profile[tau[i]] for i in range(3))
            out = ps3.assignment(profile)
            out_permuted = ps3.assignment(permuted)
            assert all(out_permuted[i] == out[tau[i]] for i in range(3))

    def test_neutrality_sampled_n4(self):
        ps = ProbabilisticSerial(Instance.default(4))
        rng = random.Random(7)
        for _ in range(25):
            profile = random_profile(rng, 4)
            sigma = random_permutation(rng, 4)
            out = ps.assignment(profile)
            relabeled = ps.assignment(apply_permutation_profile(profile, sigma))
            for i in range(4):
                for a in range(4):
                    assert out[i][a] == relabeled[i][sigma[a]]

    def test_wrong_profile_size(self, ps3):
        with pytest.raises(ValueError, match="expected 3"):
            ps3.assignment(((0, 1), (1, 0)))


class TestSpeedSchedules:
    def test_unit_schedule(self):
        sched = EatingSpeedSchedule.unit(3)
        assert sched.n == 3
        assert sched.rate_at(0, F(1, 2)) == 1
        assert sched.breakpoints() == (F(1),)

    def test_integral_must_be_one(self):
        with pytest.raises(ValueError, match="total consumption"):
            EatingSpeedSchedule((((F(0), F(1), F(2)),),))

    def test_pieces_must_chain(self):
        with pytest.raises(ValueError, match="expected 1/2"):
            EatingSpeedSchedule(
                (((F(0), F(1, 2), F(1)), (F(3, 4), F(1), F(2))),)
            )

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EatingSpeedSchedule(
                (((F(0), F(1, 2), F(3)), (F(1, 2), F(1), F(-1))),)
            )

    def test_must_end_at_one(self):
        with pytest.raises(ValueError, match="ends at"):
            EatingSpeedSchedule((((F(0), F(1, 2), F(2)),),))

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="exact"):
            EatingSpeedSchedule((((0.0, 1.0, 1.0),),))


def two_speed_schedule():
    """Agent 1 eats at speed 2 then stops; agent 2 eats at speed 1."""
    return EatingSpeedSchedule((
        ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
        ((F(0), F(1), F(1)),),
    ))


class TestSimultaneousEating:
    def test_unit_speeds_match_fast_path_everywhere(self, instance3, ps3):
        sched = EatingSpeedSchedule.unit(3)
        for profile in enumerate_profiles(instance3):
            assert eat(profile, sched) == ps3.assignment(profile)

    def test_fast_path_matches_general_engine_n4_sampled(self):
        inst = Instance.default(4)
        ps = ProbabilisticSerial(inst)
        sched = EatingSpeedSchedule.unit(4)
        rng = random.Random(3)
        for _ in range(50):
            profile = random_profile(rng, 4)
            assert eat(profile, sched) == ps.assignment(profile)

    @pytest.mark.parametrize("n", [5, 6])
    def test_fast_path_matches_general_engine_larger_n_sampled(self, n):
        # up to n events, each dividing by an eater count: the fast path's
        # fixed denominator lcm(1..n)**n must still hold every quantity
        ps = ProbabilisticSerial(Instance.default(n))
        sched = EatingSpeedSchedule.unit(n)
        rng = random.Random(n)
        for _ in range(40):
            profile = random_profile(rng, n)
            assert eat(profile, sched) == ps.assignment(profile)
        crowded = tuple(tuple(range(n)) for _ in range(n))  # everyone shares every object
        assert eat(crowded, sched) == ps.assignment(crowded)

    def test_breakpoint_hand_run(self):
        inst = Instance.default(2)
        sea = SimultaneousEating(inst, two_speed_schedule())
        out = sea.assignment(((0, 1), (0, 1)))
        assert out == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))

    def test_conservation_at_every_event(self):
        sched = two_speed_schedule()
        trace = []
        eat(((0, 1), (0, 1)), sched, trace=trace)

        def integral_to(t):
            total = F(0)
            for pieces in sched.pieces:
                for start, end, rate in pieces:
                    total += rate * (min(t, end) - min(t, start))
            return total

        for t, supplies, eaten in trace:
            assert eaten == integral_to(t)
        final_t, final_supplies, _ = trace[-1]
        assert final_t == 1 and all(s == 0 for s in final_supplies)

    def test_conservation_unit_speeds_n3(self, instance3):
        sched = EatingSpeedSchedule.unit(3)
        rng = random.Random(9)
        for _ in range(20):
            profile = random_profile(rng, 3)
            trace = []
            eat(profile, sched, trace=trace)
            for t, supplies, eaten in trace:
                assert eaten == 3 * t
            assert all(s == 0 for s in trace[-1][1])

    def test_outputs_bistochastic(self, instance3):
        speeds = EatingSpeedSchedule((
            ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
            ((F(0), F(1), F(1)),),
            ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))),
        ))
        sea = SimultaneousEating(instance3, speeds)
        for profile in enumerate_profiles(instance3):
            validate_assignment(sea.assignment(profile))

    def test_schedule_size_mismatch(self, instance3):
        with pytest.raises(ValueError, match="covers 2 agents"):
            SimultaneousEating(instance3, EatingSpeedSchedule.unit(2))


class TestTabulatedMechanism:
    def test_round_trip_of_ps(self, instance3, ps3):
        table = tabulate(ps3)
        for profile in enumerate_profiles(instance3):
            assert table.assignment(profile) == ps3.assignment(profile)

    def test_broken_row_rejected_with_profile(self, instance3, ps3):
        table = {p: ps3.assignment(p) for p in enumerate_profiles(instance3)}
        bad_profile = next(iter(table))
        bad = [list(row) for row in table[bad_profile]]
        bad[0][0] += F(1, 7)
        table[bad_profile] = bad
        with pytest.raises(ValueError, match="invalid assignment for profile"):
            TabulatedMechanism(instance3, table)

    def test_missing_profile_named(self, instance3, ps3):
        table = {p: ps3.assignment(p) for p in enumerate_profiles(instance3)}
        missing = sorted(table)[17]
        del table[missing]
        with pytest.raises(ValueError, match="missing profile"):
            TabulatedMechanism(instance3, table)

    def test_constant_identity_n2_accepted(self):
        inst = Instance.default(2)
        mech = constant_mechanism(inst, [[1, 0], [0, 1]])
        for profile in enumerate_profiles(inst):
            assert mech.assignment(profile) == ((F(1), F(0)), (F(0), F(1)))

    def test_unknown_profile_lookup(self, instance3, ps3):
        table = tabulate(ps3)
        with pytest.raises(ValueError, match="expected 3"):
            table.assignment(((0, 1), (1, 0)))
