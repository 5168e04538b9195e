import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    DEVIATION_PROFILE,
    DEVIATION_ROW,
    HALF,
    TRUTH_PROFILE,
    TRUTH_ROW,
    build_mechanism,
    constant_mechanism,
    eat,
    pair_sweep_oracle,
    random_bistochastic,
    random_permutation,
    random_profile,
    tabulate,
    uniform_int,
)
import ramkit.mechanisms
from ramkit.axioms import PAIR_AXIOMS, run_pair_sweep
from ramkit.core import (
    Instance,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
    validate_assignment,
)
from ramkit.domain import DomainTable
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
    _eat,
    dictatorship_outcome,
)

F = Fraction
A, B, C = 0, 1, 2


# ---------------------------------------------------------------------------
# the denominator contract: one D per mechanism, fixed when it is built
# ---------------------------------------------------------------------------

#: (kind, n) pairs; a random table at n=4 takes a minute to build, so the
#: tabulated mechanism at n=4 is the constant one.
D_CONTRACT_CASES = [
    (kind, n)
    for kind in ("ps", "rp", "sd", "sea", "sea-shared", "table", "constant")
    for n in (2, 3, 4)
    if (kind, n) != ("table", 4)
]


@pytest.mark.parametrize("kind, n", D_CONTRACT_CASES)
def test_shares_are_integers_over_one_denominator(kind, n):
    instance = Instance.default(n)
    if kind == "constant":
        matrix = random_bistochastic(random.Random(n), n)
        mech = constant_mechanism(instance, matrix)
    else:
        mech = build_mechanism(kind, n)
    profiles = list(enumerate_profiles(instance))
    if n == 4:
        profiles = random.Random(404).sample(profiles, 60)
    for profile in profiles:
        scaled = mech.scaled_assignment(profile)
        assert all(type(x) is int for row in scaled for x in row)
        assert tuple(tuple(F(x, mech.D) for x in row) for row in scaled) == (
            mech.assignment(profile)
        )
    if kind == "sd":
        assert mech.D == 1
    elif kind == "rp":
        assert mech.D == math.factorial(n)
    elif kind in ("table", "constant"):
        tables = [matrix] if kind == "constant" else map(mech.assignment, profiles)
        dens = {F(x).denominator for m in tables for row in m for x in row}
        assert mech.D == math.lcm(*dens)
        if kind == "table":
            assert len(dens) > 1


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

    def test_pickle_leaves_the_memo_behind(self, instance3):
        """A worker gets a mechanism with an empty memo, the original keeps
        its own, and a table filled on two workers equals one filled in
        this process."""
        sd = SerialDictatorship(instance3, (2, 0, 1), cache=True)
        out = sd.assignment(TRUTH_PROFILE)
        copy = pickle.loads(pickle.dumps(sd))
        assert copy._cache == {}
        assert sd._cache == {TRUTH_PROFILE: out}
        assert copy.assignment(TRUTH_PROFILE) == out
        here, pooled = (DomainTable(sd, enumerate_preferences(instance3)) for _ in range(2))
        here.fill(1)
        pooled.fill(2)
        assert pooled.nums == here.nums


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
        # up to n events, each dividing by an eater count: PS's fixed
        # denominator lcm(1..n)**n must still hold every quantity
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


def random_schedule(rng, n):
    """Seeded admissible schedule: each agent has up to three pieces cut
    at breakpoints with denominators 2 to 6, raw rates 0 to 3 (so some
    pieces eat nothing), scaled to total consumption 1."""
    grid = sorted({F(k, d) for d in range(2, 7) for k in range(1, d)})
    agents = []
    for _ in range(n):
        cuts = sorted(rng.sample(grid, rng.randrange(3)))
        bounds = [F(0)] + cuts + [F(1)]
        raw = [rng.randrange(4) for _ in range(len(bounds) - 1)]
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        integral = sum(r * (e - s) for r, s, e in zip(raw, bounds, bounds[1:]))
        agents.append(tuple(
            (s, e, r / integral) for r, s, e in zip(raw, bounds, bounds[1:])
        ))
    return EatingSpeedSchedule(tuple(agents))


def documented_denominator(schedule):
    """``Lr * Lb * G**n`` straight from the definition: ``G`` is the lcm of
    the nonzero sums of every subset of agents' integer rates, segment by
    segment."""
    n = schedule.n
    ends = schedule.breakpoints()
    rates = [[schedule.rate_at(i, t) for i in range(n)] for t in (F(0),) + ends[:-1]]
    lr = math.lcm(*(r.denominator for seg in rates for r in seg))
    lb = math.lcm(*(b.denominator for b in ends))
    sums = {
        sum(seg[i] * lr for i in agents)
        for seg in rates
        for k in range(1, n + 1)
        for agents in itertools.combinations(range(n), k)
    } - {0}
    return lr * lb * math.lcm(*(int(x) for x in sums)) ** n


class TestIntegerEngine:
    """The one integer eating engine against the Fraction oracle ``eat``."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_schedules_match_oracle(self, n):
        rng = random.Random(100 + n)
        zero_rate = mixed = False
        for _ in range(8):
            sched = random_schedule(rng, n)
            zero_rate |= any(r == 0 for ap in sched.pieces for _, _, r in ap)
            mixed |= len({b.denominator for b in sched.breakpoints()}) > 1
            sea = SimultaneousEating(Instance.default(n), sched)
            profiles = list(enumerate_profiles(sea.instance))
            if n == 4:
                profiles = rng.sample(profiles, 40)
            for profile in profiles:
                numerators = sea.scaled_assignment(profile)
                assert sea.D == documented_denominator(sched)
                expected = eat(profile, sched)
                assert [[F(x, sea.D) for x in row] for row in numerators] == [
                    list(row) for row in expected
                ]
                assert sea.assignment(profile) == expected
        assert zero_rate and mixed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unit_denominator_is_lcm_power(self, n):
        ps = ProbabilisticSerial(Instance.default(n))
        assert ps.D == math.lcm(*range(1, n + 1)) ** n
        assert ps.D == documented_denominator(EatingSpeedSchedule.unit(n))

    def test_two_speed_denominator(self):
        # rates 2, 0 | 1: Lr = 1, Lb = 2, subset sums {1, 2, 3} then {1}
        sea = SimultaneousEating(Instance.default(2), two_speed_schedule())
        assert sea.D == 1 * 2 * 6 ** 2 == documented_denominator(two_speed_schedule())

    def test_too_coarse_denominator_raises_instead_of_stalling(self):
        # three eaters share object a, whose supply of 2 ticks they cannot
        # split into whole ticks
        unit3 = ((2, ((0, 1), (1, 1), (2, 1))),)
        with pytest.raises(AssertionError, match="between two ticks"):
            _eat(((A, B, C),) * 3, unit3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ps_is_unit_speed_eating(self, n):
        instance = Instance.default(n)
        ps = ProbabilisticSerial(instance)
        sea = SimultaneousEating(instance, EatingSpeedSchedule.unit(n))
        rng = random.Random(n)
        profiles = [random_profile(rng, n) for _ in range(30)]
        profiles.append(tuple(tuple(range(n)) for _ in range(n)))
        for profile in profiles:
            assert ps.scaled_assignment(profile) == sea.scaled_assignment(profile)

    @pytest.mark.parametrize("shared", [True, False])
    def test_denominator_above_64_bits_stays_exact(self, shared):
        instance = Instance.default(3)
        wide = ((0, HALF, F(1009, 1000)), (HALF, 1, F(991, 1000)))
        others = wide if shared else ((0, 1, 1),)
        sched = EatingSpeedSchedule((wide,) + (others,) * 2)
        sea = SimultaneousEating(instance, sched)
        assert sea.anonymous == shared and sea.D > 2 ** 64
        table = DomainTable(sea, enumerate_preferences(instance))
        table.fill(1)  # by multiset when shared, dense otherwise
        assert table.anonymous == shared and table.D == sea.D
        if not shared:
            assert isinstance(table.nums, list)
        for index, profile in enumerate(enumerate_profiles(instance)):
            flat = table.entry(index)
            expected = [x for row in eat(profile, sched) for x in row]
            assert [F(x, sea.D) for x in flat] == expected
        # the sweeps read the same wide values through report columns
        expected = pair_sweep_oracle(sea, PAIR_AXIOMS)
        assert run_pair_sweep(sea, PAIR_AXIOMS, mode="exhaustive") == expected


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

    def test_tabulate_validates_each_distinct_matrix_once(self, instance3, monkeypatch):
        """``tabulate`` hands equal matrices over as one object, and the
        table validates each matrix object once."""
        calls = []
        original = ramkit.mechanisms.validate_assignment

        def counting(matrix, instance=None):
            calls.append(matrix)
            return original(matrix, instance)

        monkeypatch.setattr(ramkit.mechanisms, "validate_assignment", counting)
        for mech in (SerialDictatorship(instance3, (2, 0, 1)), ProbabilisticSerial(instance3)):
            calls.clear()
            table = tabulate(mech)
            distinct = {mech.assignment(p) for p in enumerate_profiles(instance3)}
            assert len(calls) == len(distinct)
            for profile in enumerate_profiles(instance3):
                assert table.assignment(profile) == mech.assignment(profile)
        assert len(distinct) < 6 ** 3

    @pytest.mark.parametrize("entry", (F(1, 7), 1.0))
    def test_invalid_later_matrix_named(self, instance3, entry):
        """A matrix given at one later profile is validated even when it
        equals the one object given everywhere else: an off entry, or a
        float that compares equal to the exact share, raises and names
        that profile."""
        identity = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
        profiles = list(enumerate_profiles(instance3))
        table = dict.fromkeys(profiles, identity)
        bad = [list(row) for row in identity]
        bad[0][0] = entry
        table[profiles[100]] = bad
        message = re.escape(f"invalid assignment for profile {profiles[100]}")
        with pytest.raises(ValueError, match=message):
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
