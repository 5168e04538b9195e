"""The integer domain table and the pair sweep built on it, checked against
the Fraction cell oracle in ``helpers.pair_sweep_oracle``."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from ramkit.mechanisms import (
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    TabulatedMechanism,
)

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
    """Every agent's row at profile ``index``, read as one-cell columns."""
    out = []
    for agent in range(table.n):
        stride = table.stride(agent)
        high, rest = divmod(index, table.m * stride)
        r, low = divmod(rest, stride)
        cols, common = table.columns(agent, high * stride + low, 1)
        out.append(tuple(Fraction(col[0], common) for col in cols[r]))
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
            opponents = base[:agent] + base[agent + 1:]
            cell = sum(position[p] * 6 ** (1 - j) for j, p in enumerate(opponents))
            assert table.opponents(cell) == opponents
            cols, common = table.columns(agent, cell, 1)
            for r, pref in enumerate(table.prefs):
                profile = base[:agent] + (pref,) + base[agent + 1:]
                expected = mech.assignment(profile)[agent]
                assert tuple(Fraction(col[0], common) for col in cols[r]) == expected


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
    assert isinstance(table.nums, list) and table.D > 2 ** 64
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


# ---------------------------------------------------------------------------
# report columns cut from the table
# ---------------------------------------------------------------------------


class CodedShares(Mechanism):
    """Not an assignment: each numerator encodes (profile index, agent,
    object), so a value read from the wrong place cannot match.  Profiles
    in the upper half of the index range come over denominator 2, the rest
    over 1, so a fill must rescale what it has stored to one D."""

    def __init__(self, instance):
        super().__init__(instance)
        prefs = enumerate_preferences(instance)
        self._digit = {p: k for k, p in enumerate(prefs)}
        self._half = len(prefs) ** instance.n // 2

    def scaled_assignment(self, profile):
        self._check_length(profile)
        n = self.instance.n
        code = 0
        for pref in profile:
            code = code * len(self._digit) + self._digit[pref]
        d = 1 + (code >= self._half)
        base = code * n * n * d
        return [[base + (i * n + x) * d for x in range(n)] for i in range(n)], d


def _check_columns(table, agent, start, count):
    """``table.columns`` over cells ``[start, start + count)`` against the
    agent's row read profile by profile through ``scaled_assignment``."""
    n = table.n
    opponents = list(itertools.product(table.prefs, repeat=n - 1))
    cols, common = table.columns(agent, start, count)
    assert len(cols) == table.m and all(len(c) == n for c in cols)
    for k in range(count):
        opp = opponents[start + k]
        assert table.opponents(start + k) == opp
        for r, pref in enumerate(table.prefs):
            rows, d = table.mech.scaled_assignment(opp[:agent] + (pref,) + opp[agent:])
            assert [col[k] * d for col in cols[r]] == [x * common for x in rows[agent]]


@pytest.mark.parametrize("dense", (True, False))
@pytest.mark.parametrize("kind", ("coded", "ps", "sea", "table"))
def test_columns_match_scaled_assignment_at_n3(kind, dense):
    instance = Instance.default(3)
    mech = CodedShares(instance) if kind == "coded" else build_mechanism(kind, 3)
    table = DomainTable(mech, enumerate_preferences(instance))
    if dense:
        table.fill(1)
    for agent in range(3):
        _check_columns(table, agent, 0, table.cells)
        # windows that start and end inside a run of cells sharing the
        # agents before (runs of 6 for agent 1)
        for start, count in ((0, 1), (5, 2), (4, 9), (13, 23), (35, 1)):
            _check_columns(table, agent, start, count)


def test_columns_match_scaled_assignment_at_n4():
    instance = Instance.default(4)
    table = DomainTable(CodedShares(instance), enumerate_preferences(instance))
    table.fill(2)
    assert table.D == 2
    rng = random.Random(44)
    for agent in range(4):
        stride = table.stride(agent)
        for _ in range(4):
            start = rng.randrange(table.cells - 60)
            _check_columns(table, agent, start, rng.randrange(1, 60))
        # across a boundary between runs of ``stride`` cells
        if 1 < stride < table.cells:
            _check_columns(table, agent, 3 * stride - 5, stride + 10)


# ---------------------------------------------------------------------------
# mode="first": growing batches, refined cell by cell where an axiom falls
# ---------------------------------------------------------------------------


def _perturbed_ps(changes):
    """PS at n=3 with agents 1 and 2 trading 1/1000 of two objects at some
    profiles: ``(r, cell, to, frm)`` moves agent 1's share from the object
    ``prefs[r]`` ranks ``frm``-th to the one it ranks ``to``-th (0-based),
    where agent 1 reports ``prefs[r]`` and the others as in ``cell``."""
    instance = Instance.default(3)
    ps = ProbabilisticSerial(instance)
    prefs = enumerate_preferences(instance)
    table = {p: [list(row) for row in ps.assignment(p)] for p in enumerate_profiles(instance)}
    eps = Fraction(1, 1000)
    for r, cell, to, frm in changes:
        a, b = prefs[r][to], prefs[r][frm]
        m = table[(prefs[r], prefs[cell // 6], prefs[cell % 6])]
        m[0][a] += eps
        m[0][b] -= eps
        m[1][a] -= eps
        m[1][b] += eps
    return TabulatedMechanism(instance, {p: tuple(map(tuple, m)) for p, m in table.items()})


def _first_batch(mech, axiom):
    """(agent, batch) of ``axiom``'s first violation, with agent 1's cells
    in batches 0 | 1 | 2-3 | 4-7 | 8-15 | ..."""
    prefs = enumerate_preferences(mech.instance)
    first = pair_sweep_oracle(mech, (axiom,), mode="first")[axiom].violations[0]
    opp = first.profile[:first.agent] + first.profile[first.agent + 1:]
    cell = prefs.index(opp[0]) * 6 + prefs.index(opp[1])
    return first.agent, cell.bit_length()


@pytest.mark.parametrize("changes,same_batch", (
    ([(5, 9, 2, 0)], True),  # em and ui both fail in cell 9
    ([(0, 9, 0, 1), (5, 14, 2, 0)], True),  # ui in cell 9, em in cell 14
    ([(0, 2, 0, 1), (5, 20, 2, 0)], False),  # ui in cell 2, em in cell 20
))
def test_first_mode_refines_the_batch_an_axiom_falls_in(changes, same_batch):
    mech = _perturbed_ps(changes)
    em, ui = _first_batch(mech, "em"), _first_batch(mech, "ui")
    assert em[0] == ui[0] == 0
    assert (em == ui) == same_batch
    for axioms in (("em", "ui"), PAIR_AXIOMS):
        expected = pair_sweep_oracle(mech, axioms, mode="first")
        assert run_pair_sweep(mech, axioms, mode="first") == expected


# ---------------------------------------------------------------------------
# property: random tables with mixed and wide denominators
# ---------------------------------------------------------------------------


@st.composite
def perturbed_tables(draw):
    """PS or RP tabulated at n=2 or 3, with a few profiles mixed with a
    random bistochastic matrix; the mixing weight's denominator is small or
    above 2**64."""
    n = draw(st.sampled_from((2, 3)))
    base = draw(st.sampled_from((ProbabilisticSerial, RandomPriority)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    instance = Instance.default(n)
    mech = base(instance)
    table = {p: mech.assignment(p) for p in enumerate_profiles(instance)}
    profiles = list(table)
    for _ in range(draw(st.integers(0, 4))):
        profile = rng.choice(profiles)
        if draw(st.booleans()):
            w = Fraction(rng.randrange(1, 2 ** 70), 2 ** 70 + rng.randrange(1, 2 ** 40))
        else:
            w = Fraction(rng.randrange(1, 7), 7)
        other = random_bistochastic(rng, n)
        table[profile] = tuple(
            tuple(w * x + (1 - w) * y for x, y in zip(row, orow))
            for row, orow in zip(table[profile], other)
        )
    return TabulatedMechanism(instance, table)


@settings(max_examples=12, deadline=None)
@given(
    mech=perturbed_tables(),
    axioms=st.sampled_from(AXIOM_SETS),
    mode=st.sampled_from(("exhaustive", "first")),
    jobs=st.sampled_from((1, 2)),
)
def test_random_tables_match_oracle(mech, axioms, mode, jobs):
    expected = pair_sweep_oracle(mech, axioms, mode=mode)
    assert run_pair_sweep(mech, axioms, mode=mode, jobs=jobs) == expected
