"""The integer domain table and the pair sweep built on it, checked against
the Fraction cell oracle in ``helpers.pair_sweep_oracle``."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    MECHANISM_KINDS,
    CountingPS,
    build_mechanism,
    pair_sweep_oracle,
    random_bistochastic,
    random_profile,
)
from ramkit.axioms import PAIR_AXIOMS, run_pair_sweep
from ramkit.core import Instance, enumerate_preferences, enumerate_profiles
from ramkit.domain import DomainTable
from ramkit.mechanisms import ProbabilisticSerial, TabulatedMechanism

AXIOM_SETS = [PAIR_AXIOMS] + [(ax,) for ax in PAIR_AXIOMS]


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_exhaustive_matches_oracle_for_every_jobs(kind, n):
    mech = build_mechanism(kind, n)
    expected = pair_sweep_oracle(mech, PAIR_AXIOMS, mode="exhaustive")
    for jobs in (1, 2, 3):
        got = run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive", jobs=jobs)
        assert got == expected, jobs


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_every_axiom_set_matches_oracle(kind, n, mode):
    mech = build_mechanism(kind, n)
    for axioms in AXIOM_SETS:
        expected = pair_sweep_oracle(mech, axioms, mode=mode)
        assert run_pair_sweep(mech, axioms, mode=mode) == expected, axioms


def test_first_mode_ignores_jobs():
    mech = build_mechanism("table", 3)
    expected = pair_sweep_oracle(mech, PAIR_AXIOMS, mode="first")
    for jobs in (2, 3):
        assert run_pair_sweep(mech, PAIR_AXIOMS, mode="first", jobs=jobs) == expected


def _rows_at(table, index):
    """Every agent's row at profile ``index``, read through ``table.cell``."""
    out = []
    for agent in range(table.n):
        stride = table.stride(agent)
        r = index // stride % table.m
        rows, common = table.cell(agent, index - r * stride)
        out.append(tuple(Fraction(x, common) for x in rows[r]))
    return tuple(out)


@pytest.mark.parametrize("kind", ("ps", "rp"))
def test_n4_rows_match_assignment(kind):
    mech = build_mechanism(kind, 4)
    prefs = enumerate_preferences(mech.instance)
    table = DomainTable(mech, prefs)
    rng = random.Random(4)
    for _ in range(40):
        index = rng.randrange(table.size)
        profile = table.profile(index)
        assert profile == next(itertools.islice(
            itertools.product(prefs, repeat=4), index, None
        ))
        assert _rows_at(table, index) == mech.assignment(profile)


def test_cell_walks_one_agent_report():
    mech = build_mechanism("sea", 3)
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    position = {p: k for k, p in enumerate(table.prefs)}
    rng = random.Random(7)
    for _ in range(20):
        base = random_profile(rng, 3)
        for agent in range(3):
            start = sum(
                position[p] * table.stride(j)
                for j, p in enumerate(base) if j != agent
            )
            rows, common = table.cell(agent, start)
            for r, pref in enumerate(table.prefs):
                profile = base[:agent] + (pref,) + base[agent + 1:]
                expected = mech.assignment(profile)[agent]
                assert tuple(Fraction(x, common) for x in rows[r]) == expected


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_each_profile_evaluated_once(mode):
    mech = CountingPS(Instance.default(3))
    run_pair_sweep(mech, ("sp", "em", "ui"), mode=mode, jobs=1)
    assert max(mech.counts.values()) == 1
    if mode == "exhaustive":
        assert len(mech.counts) == 6 ** 3


def test_first_sweep_at_n5_stops_early():
    mech = CountingPS(Instance.default(5))
    out = run_pair_sweep(mech, ("li",), mode="first", max_n=5)["li"]
    assert not out.satisfied
    # li fails within agent 1's first two cells of 120 reports each
    assert len(mech.counts) <= 2 * 120
    assert set(mech.counts.values()) == {1}


def test_satisfied_first_sweep_scans_domain_once():
    mech = CountingPS(Instance.default(3))
    out = run_pair_sweep(mech, ("em",), mode="first")["em"]
    assert out.satisfied
    assert out.profiles_checked == 3 * 6 ** 3  # rows read: 3 agents, every cell
    assert len(mech.counts) == 6 ** 3
    assert set(mech.counts.values()) == {1}


class PickleCountingPS(ProbabilisticSerial):
    """PS that counts how often it is pickled in this process."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__.copy()


@pytest.mark.parametrize("jobs", (2, 3))
def test_pool_pickles_mechanism_once_per_worker(jobs):
    PickleCountingPS.pickles = 0
    mech = PickleCountingPS(Instance.default(3))
    out = run_pair_sweep(mech, ("li",), mode="exhaustive", jobs=jobs)
    assert out == pair_sweep_oracle(mech, ("li",))
    # at most one pickle per started worker (none where workers fork),
    # never one per index-range task
    assert PickleCountingPS.pickles <= jobs


def _huge_denominator_table(instance, seed, every=True):
    """Random bistochastic tables; with ``every`` each matrix, otherwise only
    the first profile's, is mixed with a weight whose denominator exceeds
    2**64, so shares and numerators do not fit in 64 bits."""
    rng = random.Random(seed)
    n = instance.n
    table = {}
    for k, profile in enumerate(enumerate_profiles(instance)):
        matrix = random_bistochastic(rng, n)
        if every or k == 0:
            w = Fraction(rng.randrange(1, 2 ** 70), 2 ** 70 + rng.randrange(1, 2 ** 40))
            other = random_bistochastic(rng, n)
            matrix = tuple(
                tuple(w * x + (1 - w) * y for x, y in zip(row, orow))
                for row, orow in zip(matrix, other)
            )
        table[profile] = matrix
    return TabulatedMechanism(instance, table)


def test_huge_denominators_stay_exact():
    instance = Instance.default(3)
    mech = _huge_denominator_table(instance, seed=64)
    shares = [x for m in mech._table.values() for row in m for x in row]
    assert max(x.denominator for x in shares) > 2 ** 64
    expected = pair_sweep_oracle(mech, PAIR_AXIOMS)
    assert any(v.lhs.denominator > 2 ** 64 for o in expected.values() for v in o.violations)
    for jobs in (1, 2):
        assert run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive", jobs=jobs) == expected
    for ax in PAIR_AXIOMS:
        expected = pair_sweep_oracle(mech, (ax,), mode="first")
        assert run_pair_sweep(mech, (ax,), mode="first") == expected


@pytest.mark.parametrize("jobs", (1, 3))
def test_one_wide_profile_widens_the_whole_table(jobs):
    instance = Instance.default(3)
    mech = _huge_denominator_table(instance, seed=65, every=False)
    table = DomainTable(mech, enumerate_preferences(instance))
    table.fill(jobs)
    assert isinstance(table.nums, list) and isinstance(table.dens, list)
    for index, profile in enumerate(enumerate_profiles(instance)):
        assert _rows_at(table, index) == mech.assignment(profile)
    assert run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive", jobs=jobs) == (
        pair_sweep_oracle(mech, PAIR_AXIOMS)
    )


def test_lazy_cells_keep_wide_values_exact():
    instance = Instance.default(3)
    mech = _huge_denominator_table(instance, seed=66, every=False)
    table = DomainTable(mech, enumerate_preferences(instance))
    rng = random.Random(66)
    indices = [rng.randrange(1, table.size) for _ in range(20)]
    for index in indices[:10] + [0] + indices[10:]:  # 0 is the wide profile
        assert _rows_at(table, index) == mech.assignment(table.profile(index))
    assert table.nums is None  # nothing dense was allocated
    assert max(d for _, d in table._lazy.values()) > 2 ** 64


def test_pair_report_is_the_frozen_dataclass_report():
    import dataclasses

    from ramkit.core import SwapInfo
    from ramkit.reports import ViolationReport, pair_report

    profile = ((0, 1, 2), (1, 0, 2), (2, 1, 0))
    swap = SwapInfo(1, 0, 1)
    fast = pair_report("li", 1, profile, None, (1, 0, 2), swap, (2,), None,
                       Fraction(1, 3), Fraction(1, 6), "!=", None, "moved")
    slow = ViolationReport(axiom="li", agent=1, profile=profile, deviation=(1, 0, 2),
                           swap=swap, objects=(2,), lhs=Fraction(1, 3),
                           rhs=Fraction(1, 6), relation="!=", detail="moved")
    assert type(fast) is ViolationReport
    assert fast == slow and hash(fast) == hash(slow)
    assert [getattr(fast, f.name) for f in dataclasses.fields(ViolationReport)] == [
        getattr(slow, f.name) for f in dataclasses.fields(ViolationReport)
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.axiom = "em"
