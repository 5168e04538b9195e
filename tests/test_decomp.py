import itertools
import random
from fractions import Fraction

import pytest

from helpers import TRUTH_PROFILE, random_bistochastic, random_profile
from ramkit.core import Instance, enumerate_profiles
from ramkit.decomp import (
    Decomposition,
    _improvement_cycle,
    birkhoff_decompose,
    recombine,
    term_bound,
)
from ramkit.mechanisms import ProbabilisticSerial, dictatorship_outcome

F = Fraction
A, B, C = 0, 1, 2


class TestDecompose:
    def test_uniform_2x2(self):
        half = F(1, 2)
        d = birkhoff_decompose(((half, half), (half, half)))
        assert sorted(d.terms) == [(half, (0, 1)), (half, (1, 0))]

    def test_identity_single_term(self):
        d = birkhoff_decompose(((F(1), F(0)), (F(0), F(1))))
        assert d.terms == ((F(1), (0, 1)),)

    def test_ps_truth_profile_output(self, ps3):
        out = ps3.assignment(TRUTH_PROFILE)
        d = birkhoff_decompose(out)
        assert len(d.terms) <= term_bound(3)
        assert sum(w for w, _ in d.terms) == 1
        assert recombine(d) == out

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for n in (2, 3, 4):
            for _ in range(60):
                matrix = random_bistochastic(rng, n)
                d = birkhoff_decompose(matrix)
                assert len(d.terms) <= term_bound(n)
                assert recombine(d) == matrix

    def test_deterministic_term_sequence(self):
        rng = random.Random(8)
        matrix = random_bistochastic(rng, 4)
        assert birkhoff_decompose(matrix).terms == birkhoff_decompose(matrix).terms

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            birkhoff_decompose(((F(1), F(0)), (F(1), F(0))))


class TestDecompositionInvariants:
    def test_duplicate_components_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Decomposition(((F(1, 2), (0, 1)), (F(1, 2), (0, 1))))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to"):
            Decomposition(((F(1, 2), (0, 1)), (F(1, 4), (1, 0))))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Decomposition(((F(0), (0, 1)), (F(1), (1, 0))))

    def test_components_must_be_bijections(self):
        with pytest.raises(ValueError, match="bijection"):
            Decomposition(((F(1), (0, 0)),))

    def test_recombine_single_term(self):
        d = Decomposition(((F(1), (1, 0)),))
        assert recombine(d) == ((F(0), F(1)), (F(1), F(0)))


class TestParetoEfficiency:
    def test_everyone_top_is_efficient(self):
        profile = ((A, B, C), (B, A, C), (C, A, B))
        assert _improvement_cycle((A, B, C), profile) is None

    def test_two_cycle_is_inefficient(self):
        assert _improvement_cycle((B, A), ((A, B), (B, A))) is not None

    def test_dictatorship_outcomes_always_efficient(self, instance3):
        for profile in enumerate_profiles(instance3):
            for order in itertools.permutations(range(3)):
                pick = dictatorship_outcome(profile, order)
                assert _improvement_cycle(pick, profile) is None

    def test_matches_brute_force_on_random_instances(self):
        # oracle: a deterministic assignment is Pareto-dominated iff some
        # permutation weakly improves every agent and strictly improves one
        rng = random.Random(31)
        for _ in range(60):
            n = 3
            profile = random_profile(rng, n)
            perm = tuple(rng_sample_perm(rng, n))
            dominated = False
            for other in itertools.permutations(range(n)):
                if other == perm:
                    continue
                ranks_old = [profile[i].index(perm[i]) for i in range(n)]
                ranks_new = [profile[i].index(other[i]) for i in range(n)]
                if all(rn <= ro for rn, ro in zip(ranks_new, ranks_old)) and ranks_new != ranks_old:
                    dominated = True
                    break
            assert (_improvement_cycle(perm, profile) is None) == (not dominated)


def rng_sample_perm(rng, n):
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.getrandbits(8) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items
