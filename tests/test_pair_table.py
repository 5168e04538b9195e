"""The integer domain table and the pair sweep built on it, checked against
the Fraction cell oracle in ``helpers.pair_sweep_oracle``."""

import copy
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    MECHANISM_KINDS,
    AnonymousSD,
    CountingDensePS,
    CountingNonNeutralPS,
    CountingPS,
    CountingUndeclaredPS,
    FalselyNeutralPS,
    HiddenTradePS,
    UndeclaredEating,
    UndeclaredRP,
    build_mechanism,
    huge_denominator_table,
    nonunit_schedule,
    pair_sweep_oracle,
    profile_sweep_oracle,
    random_bistochastic,
    random_profile,
    uniform_int,
)
from ramkit.axioms import PAIR_AXIOMS, run_axiom_check, run_pair_sweep
from ramkit.core import (
    Instance,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
)
from ramkit.domain import DomainTable, _append, reports_at
from ramkit.formats import outcome_lines
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
)

A, B, C = 0, 1, 2

AXIOM_SETS = [PAIR_AXIOMS] + [(ax,) for ax in PAIR_AXIOMS]


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", MECHANISM_KINDS + ("sea-shared",))
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
    """A first-mode sweep accepts ``jobs`` and ignores it: its outcome
    does not depend on it."""
    for kind in MECHANISM_KINDS:
        mech = build_mechanism(kind, 3)
        expected = pair_sweep_oracle(mech, PAIR_AXIOMS, mode="first")
        for jobs in (1, 2):
            got = run_pair_sweep(mech, PAIR_AXIOMS, mode="first", jobs=jobs)
            assert got == expected, (kind, jobs)


def _rows_at(table, index):
    """Every agent's row at profile ``index``, read as one-cell columns."""
    out = []
    for agent in range(table.n):
        stride = table.stride(agent)
        high, rest = divmod(index, table.m * stride)
        r, low = divmod(rest, stride)
        cols = table.columns(agent, high * stride + low, 1)
        out.append(tuple(Fraction(col[0], table.D) for col in cols[r]))
    return tuple(out)


@pytest.mark.parametrize("kind", ("ps", "rp"))
def test_n4_rows_match_assignment(kind):
    mech = build_mechanism(kind, 4)
    prefs = enumerate_preferences(mech.instance)
    lazy, filled = DomainTable(mech, prefs), DomainTable(mech, prefs)
    filled.fill()  # by multiset
    assert filled.anonymous and not lazy.anonymous
    rng = random.Random(4)
    for _ in range(40):
        index = rng.randrange(lazy.size)
        profile = lazy.profile(index)
        assert profile == next(itertools.islice(
            itertools.product(prefs, repeat=4), index, None
        ))
        expected = mech.assignment(profile)
        for table in (lazy, filled):
            assert _rows_at(table, index) == expected
            flat = table.entry(index)
            rows = (flat[i * 4:(i + 1) * 4] for i in range(4))
            assert tuple(tuple(Fraction(x, table.D) for x in row) for row in rows) == expected


@pytest.mark.parametrize("dense", (True, False))
@pytest.mark.parametrize("kind", MECHANISM_KINDS + ("sea-shared",))
def test_entry_reads_one_profile(kind, dense):
    mech = build_mechanism(kind, 3)
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    if dense:
        table.fill()
    for index, profile in enumerate(enumerate_profiles(mech.instance)):
        flat = table.entry(index)
        rows = tuple(
            tuple(Fraction(x, table.D) for x in flat[i * 3:(i + 1) * 3]) for i in range(3)
        )
        assert rows == mech.assignment(profile)


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
            assert reports_at(table.prefs, table.n - 1, cell) == opponents
            cols = table.columns(agent, cell, 1)
            for r, pref in enumerate(table.prefs):
                profile = base[:agent] + (pref,) + base[agent + 1:]
                expected = mech.assignment(profile)[agent]
                assert tuple(Fraction(col[0], table.D) for col in cols[r]) == expected


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_each_profile_evaluated_once(mode):
    mech = CountingPS(Instance.default(3))
    run_pair_sweep(mech, ("sp", "em", "ui"), mode=mode, jobs=1)
    assert max(mech.counts.values()) == 1
    # one per multiset of the identity report's opponent reports
    assert len(mech.counts) == math.comb(6 + 3 - 2, 3 - 1) == 21


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_each_profile_evaluated_once_without_neutrality(mode):
    mech = CountingNonNeutralPS(Instance.default(3))
    run_pair_sweep(mech, ("sp", "em", "ui"), mode=mode, jobs=1)
    assert max(mech.counts.values()) == 1
    assert len(mech.counts) == math.comb(6 + 3 - 1, 3)  # one per report multiset


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_each_profile_evaluated_once_without_anonymity(mode):
    """Declared neither anonymous nor neutral: the dense fill evaluates
    every profile once."""
    mech = CountingDensePS(Instance.default(3))
    run_pair_sweep(mech, ("sp", "em", "ui"), mode=mode, jobs=1)
    assert max(mech.counts.values()) == 1
    assert len(mech.counts) == 6 ** 3


def test_first_sweep_at_n4_fills_once_per_multiset():
    """Up to the sweep cap a first-mode sweep reads a filled table, so PS is
    evaluated once per multiset of the identity report's opponent reports
    even though li fails early."""
    mech = CountingPS(Instance.default(4))
    assert not run_pair_sweep(mech, ("li",), mode="first")["li"].satisfied
    assert len(mech.counts) == math.comb(24 + 4 - 2, 4 - 1) == 2_600
    assert set(mech.counts.values()) == {1}


def test_first_sweep_at_n4_fills_once_per_multiset_without_neutrality():
    mech = CountingNonNeutralPS(Instance.default(4))
    assert not run_pair_sweep(mech, ("li",), mode="first")["li"].satisfied
    assert len(mech.counts) == math.comb(24 + 4 - 1, 4) == 17_550
    assert set(mech.counts.values()) == {1}


def test_first_sweep_at_n5_stops_early():
    mech = CountingPS(Instance.default(5))
    out = run_pair_sweep(mech, ("li",), mode="first", max_n=5)["li"]
    assert not out.satisfied
    # li fails within agent 1's first two cells of 120 reports each
    assert len(mech.counts) <= 2 * 120
    # past the cap every read evaluates, and every batch is read once
    assert set(mech.counts.values()) == {1}


class LateEmPS(CountingPS):
    """Counting PS with objects d and e exchanged in every row at one
    profile: agent 1 reports abced against abcde, abcde, abcde, abedc.
    Moving her report there from abcde raises e, and she then gets none of
    e, where abcde got 1/20, so em first fails in her cell 5."""

    def _shares(self, profile):
        rows = super()._shares(profile)
        prefs = enumerate_preferences(self.instance, max_n=5)
        if profile == (prefs[1], prefs[0], prefs[0], prefs[0], prefs[5]):
            rows = [[row[0], row[1], row[2], row[4], row[3]] for row in rows]
        return rows


def test_first_sweep_past_the_cap_reads_a_failed_batch_once():
    """Past the cap every read evaluates.  em first fails in cell 5, inside
    the batch of cells [4, 8), and each profile of that batch is evaluated
    once: the batch is not swept again cell by cell."""
    mech = LateEmPS(Instance.default(5))
    out = run_pair_sweep(mech, ("em",), mode="first", max_n=5)["em"]
    prefs = enumerate_preferences(mech.instance, max_n=5)
    first = out.violations[0]
    assert (first.agent, first.profile, first.deviation) == (
        0, (prefs[0], prefs[0], prefs[0], prefs[0], prefs[5]), prefs[1],
    )
    assert out.profiles_checked == 6 * 120  # rows read by a cell-by-cell sweep
    assert len(mech.counts) == 8 * 120  # batches 1, 1, 2, 4 cells
    assert set(mech.counts.values()) == {1}


@pytest.mark.parametrize("axioms", (("em", "weak-sp"), ("em", "li")))
def test_first_sweep_of_anonymous_table_reads_agent_1_only(axioms, monkeypatch):
    """em (and weak-sp) hold for PS, so a first-mode sweep runs to the end;
    every agent of a table filled by multiset has the same columns, so it
    reads agent 1's alone, and its outcomes equal those of a sweep that
    reads every agent's."""
    read = []
    columns = DomainTable.columns

    def recording(table, agent, start, count):
        read.append(agent)
        return columns(table, agent, start, count)

    expected = run_pair_sweep(CountingUndeclaredPS(Instance.default(3)), axioms, mode="first")
    monkeypatch.setattr(DomainTable, "columns", recording)
    got = run_pair_sweep(CountingPS(Instance.default(3)), axioms, mode="first")
    assert set(read) == {0}
    assert got == expected
    assert expected["em"].satisfied and expected["em"].profiles_checked == 3 * 6 ** 3


def _cell_route_twins(kind, instance):
    """A mechanism of ``kind`` declared anonymous and neutral, and its twin
    not declared anonymous, whose table is filled into dense storage from
    its orbit representatives and read by cell columns."""
    if kind == "ps":
        return CountingPS(instance), CountingUndeclaredPS(instance)
    if kind == "rp":
        return RandomPriority(instance), UndeclaredRP(instance)
    unit = EatingSpeedSchedule.unit(instance.n)
    return SimultaneousEating(instance, unit), UndeclaredEating(instance, unit)


@pytest.mark.parametrize("kind", ("ps", "rp", "sea-unit"))
@pytest.mark.parametrize("axioms", AXIOM_SETS)
def test_exhaustive_sweep_of_anonymous_table_compares_multiset_ids(kind, axioms, monkeypatch):
    """An exhaustive sweep of a table filled by multiset reads agent 1's
    columns over the 21 opponent multisets of n=3 once, gathers no cell
    column, and gives the outcomes of its twin's cell-column sweep."""
    mech, twin = _cell_route_twins(kind, Instance.default(3))
    assert mech.anonymous and not twin.anonymous
    expected = run_pair_sweep(twin, axioms, mode="exhaustive")
    gathered, reads = [], []
    columns, read = DomainTable.columns, DomainTable.read

    def recording_columns(table, *args):
        gathered.append(args)
        return columns(table, *args)

    def recording_read(table, *args):
        cols, to_cells = read(table, *args)
        reads.append((args, len(cols[0][0]), to_cells))
        return cols, to_cells

    monkeypatch.setattr(DomainTable, "columns", recording_columns)
    monkeypatch.setattr(DomainTable, "read", recording_read)
    got = run_pair_sweep(mech, axioms, mode="exhaustive")
    assert gathered == []
    [(args, entries, to_cells)] = reads
    assert args == (0, 0, 36) and entries == 21
    ids = to_cells(range(entries))  # each cell's multiset id
    assert len(ids) == 36 and set(ids) == set(range(21))
    assert got == expected
    if kind == "ps" and axioms == PAIR_AXIOMS:  # failing ids are spread to cells
        assert not got["sp"].satisfied and not got["li"].satisfied


class RowSwapPS(ProbabilisticSerial):
    """PS, declared neither anonymous nor neutral, with agents 2 and 3
    trading rows at one profile: agent 1's columns are PS's, so em first
    fails in a later agent than sp and li."""

    anonymous = False
    neutral = False

    def _shares(self, profile):
        rows = super()._shares(profile)
        prefs = enumerate_preferences(self.instance)
        if profile == (prefs[0], prefs[1], prefs[5]):
            rows = [rows[0], rows[2], rows[1]]
        return rows


@pytest.mark.parametrize("axioms", (("sp", "em"), ("em", "li"), PAIR_AXIOMS))
def test_first_sweep_when_axioms_fall_in_different_agents(axioms):
    mech = RowSwapPS(Instance.default(3))
    got = run_pair_sweep(mech, axioms, mode="first")
    assert got == pair_sweep_oracle(mech, axioms, mode="first")
    agents = {ax: got[ax].violations[0].agent for ax in axioms}
    assert agents["em"] > min(agents.values()) == 0


def test_satisfied_first_sweep_scans_domain_once():
    mech = CountingPS(Instance.default(3))
    out = run_pair_sweep(mech, ("em",), mode="first")["em"]
    assert out.satisfied
    assert out.profiles_checked == 3 * 6 ** 3  # rows read: 3 agents, every cell
    # one per multiset of the identity report's opponent reports
    assert len(mech.counts) == math.comb(6 + 3 - 2, 3 - 1) == 21
    assert set(mech.counts.values()) == {1}


def test_satisfied_first_sweep_scans_domain_once_without_neutrality():
    mech = CountingNonNeutralPS(Instance.default(3))
    out = run_pair_sweep(mech, ("em",), mode="first")["em"]
    assert out.satisfied
    assert out.profiles_checked == 3 * 6 ** 3
    assert len(mech.counts) == math.comb(6 + 3 - 1, 3)  # one per report multiset
    assert set(mech.counts.values()) == {1}


def test_import_loads_no_process_pool():
    """Importing the library, and a dense n=3 sweep asked for two jobs,
    load neither ``concurrent.futures`` nor ``multiprocessing``: no sweep
    starts a worker process."""
    code = (
        "import sys, ramkit; "
        "loaded = lambda: sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules); "
        "print(loaded()); "
        "from ramkit.axioms import run_axiom_check, run_pair_sweep; "
        "from ramkit.core import Instance; "
        "from ramkit.mechanisms import SerialDictatorship; "
        "sd = SerialDictatorship(Instance.default(3), (2, 0, 1)); "
        "sd.neutral = False; "
        "run_pair_sweep(sd, ('li',), mode='exhaustive', jobs=2); "
        "run_axiom_check(sd, 'oe', mode='exhaustive', jobs=2); "
        "print(loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_one_agent_table_sweeps():
    """A random table at n=1 is the one 1x1 matrix, drawn without touching
    the generator, and every pair axiom holds for it."""
    out = run_pair_sweep(build_mechanism("table", 1), PAIR_AXIOMS)
    assert all(outcome.satisfied for outcome in out.values())
    with pytest.raises(ValueError, match="empty range"):
        uniform_int(random.Random(0), 2, 1)


def test_huge_denominators_stay_exact():
    instance = Instance.default(3)
    mech = huge_denominator_table(instance, seed=64)
    shares = [
        x for p in enumerate_profiles(instance) for row in mech.assignment(p) for x in row
    ]
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
    mech = huge_denominator_table(instance, seed=65, every=False)
    table = DomainTable(mech, enumerate_preferences(instance))
    table.fill()
    assert isinstance(table.nums, list) and table.D > 2 ** 64
    for index, profile in enumerate(enumerate_profiles(instance)):
        assert _rows_at(table, index) == mech.assignment(profile)
    assert run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive", jobs=jobs) == (
        pair_sweep_oracle(mech, PAIR_AXIOMS)
    )


def test_append_widens_at_the_first_wide_part():
    """Parts that fit extend the signed 64-bit array, and the first part
    past 64 bits turns the whole store, and all later parts, into Python
    ints."""
    wide = 2 ** 70
    store = _append(_append(array("q"), array("q", [1, 2])), [3, 4])
    assert isinstance(store, array) and store.tolist() == [1, 2, 3, 4]
    store = _append(store, [5, wide])
    assert store == [1, 2, 3, 4, 5, wide]
    assert _append(store, array("q", [6])) == [1, 2, 3, 4, 5, wide, 6]


def test_lazy_cells_keep_wide_values_exact():
    """An unfilled table reads values past 64 bits exactly and keeps
    nothing it read."""
    instance = Instance.default(3)
    mech = huge_denominator_table(instance, seed=66, every=False)
    table = DomainTable(mech, enumerate_preferences(instance))
    state = dict(vars(table))
    rng = random.Random(66)
    indices = [rng.randrange(1, table.size) for _ in range(20)]
    for index in indices[:10] + [0] + indices[10:]:  # 0 is the wide profile
        assert _rows_at(table, index) == mech.assignment(table.profile(index))
    assert max(abs(x) for col in table.columns(0, 0, 1)[0] for x in col) > 2 ** 64
    assert vars(table) == state and table.nums is None  # nothing was kept


def test_violations_build_the_frozen_dataclass_report():
    import dataclasses

    from ramkit.core import SwapInfo
    from ramkit.reports import ViolationReport, Violations

    mech = build_mechanism("ps", 3)
    violations = run_pair_sweep(mech, ("li",), mode="exhaustive")["li"].violations
    assert isinstance(violations, Violations)
    read = violations[0]
    built = ViolationReport(
        axiom="li", agent=0, profile=((0, 1, 2), (0, 1, 2), (0, 2, 1)),
        deviation=(1, 0, 2), swap=SwapInfo(1, 0, 1), objects=(2,),
        lhs=Fraction(1, 4), rhs=Fraction(1, 6), relation="!=",
        detail="share below the swapped pair moved",
    )
    assert type(read) is ViolationReport
    assert read == built and hash(read) == hash(built)
    assert [getattr(read, f.name) for f in dataclasses.fields(ViolationReport)] == [
        getattr(built, f.name) for f in dataclasses.fields(ViolationReport)
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.axiom = "em"


# ---------------------------------------------------------------------------
# report columns cut from the table
# ---------------------------------------------------------------------------


class CodedShares(Mechanism):
    """Not an assignment: each numerator encodes (profile index, agent,
    object), so a value read from the wrong place cannot match.  The
    numerators are over a fixed ``D = 2``."""

    D = 2

    def __init__(self, instance):
        super().__init__(instance)
        prefs = enumerate_preferences(instance)
        self._digit = {p: k for k, p in enumerate(prefs)}

    def _shares(self, profile):
        n = self.instance.n
        code = 0
        for pref in profile:
            code = code * len(self._digit) + self._digit[pref]
        base = code * n * n
        return [[base + i * n + x for x in range(n)] for i in range(n)]


def _check_columns(table, agent, start, count):
    """``table.columns`` over cells ``[start, start + count)`` against the
    agent's row read profile by profile through ``scaled_assignment``."""
    n = table.n
    opponents = list(itertools.product(table.prefs, repeat=n - 1))
    cols = table.columns(agent, start, count)
    assert len(cols) == table.m and all(len(c) == n for c in cols)
    for k in range(count):
        opp = opponents[start + k]
        assert reports_at(table.prefs, table.n - 1, start + k) == opp
        for r, pref in enumerate(table.prefs):
            rows = table.mech.scaled_assignment(opp[:agent] + (pref,) + opp[agent:])
            assert [col[k] for col in cols[r]] == list(rows[agent])


@pytest.mark.parametrize("dense", (True, False))
@pytest.mark.parametrize("kind", ("coded", "ps", "rp", "sea", "sea-shared", "table"))
def test_columns_match_scaled_assignment_at_n3(kind, dense):
    instance = Instance.default(3)
    mech = CodedShares(instance) if kind == "coded" else build_mechanism(kind, 3)
    table = DomainTable(mech, enumerate_preferences(instance))
    if dense:
        table.fill()
    # ps, rp and sea-shared fill by multiset
    assert table.anonymous == (dense and kind in ("ps", "rp", "sea-shared"))
    assert table.D == mech.D
    for agent in range(3):
        _check_columns(table, agent, 0, table.cells)
        # windows that start and end inside a run of cells sharing the
        # agents before (runs of 6 for agent 1)
        for start, count in ((0, 1), (5, 2), (4, 9), (13, 23), (35, 1)):
            _check_columns(table, agent, start, count)


def test_columns_match_scaled_assignment_at_n4():
    instance = Instance.default(4)
    table = DomainTable(CodedShares(instance), enumerate_preferences(instance))
    table.fill()
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
# anonymous mechanisms: the declared fact, and tables filled by multiset
# ---------------------------------------------------------------------------


ANONYMOUS_KINDS = ("ps", "rp", "sea-unit", "sea-shared", "sea-split")


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", ANONYMOUS_KINDS)
def test_declared_anonymous_mechanisms_permute_rows_with_agents(kind, n):
    mech = build_mechanism(kind, n)
    assert mech.anonymous
    sigmas = list(itertools.permutations(range(n)))
    for profile in enumerate_profiles(mech.instance):
        out = mech.assignment(profile)
        for sigma in sigmas:
            # agent i of the permuted profile reports what agent sigma[i] did
            permuted = tuple(profile[j] for j in sigma)
            assert mech.assignment(permuted) == tuple(out[j] for j in sigma)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", ("sd", "sea", "table"))
def test_other_mechanisms_declare_not_anonymous(kind, n):
    assert not build_mechanism(kind, n).anonymous


def test_false_anonymity_makes_the_fill_raise():
    mech = AnonymousSD(Instance.default(3), (0, 1, 2))
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    with pytest.raises(ValueError, match="declared anonymous"):
        table.fill()
    with pytest.raises(ValueError, match="declared anonymous"):
        run_pair_sweep(mech, ("em",), mode="exhaustive")


def test_ete_stays_a_real_check_for_declared_anonymous_mechanisms():
    """ETE reads profiles one by one, with no fill, so a false declaration
    does not turn it into a consequence of the fact."""
    mech = AnonymousSD(Instance.default(3), (0, 1, 2))
    honest = SerialDictatorship(Instance.default(3), (0, 1, 2))
    got = run_axiom_check(mech, "ete", mode="exhaustive")
    assert not got.satisfied
    assert got == run_axiom_check(honest, "ete", mode="exhaustive")


# ---------------------------------------------------------------------------
# neutral mechanisms: the declared fact, and a check it does not replace
# ---------------------------------------------------------------------------


NEUTRAL_KINDS = ("ps", "rp", "sd", "sea", "sea-unit", "sea-shared", "sea-split")


def _assert_relabels_rows(mech, profile, sigmas):
    """Relabeling the objects of every report by ``sigma`` relabels the
    columns of ``mech``'s assignment the same way."""
    out = mech.assignment(profile)
    for sigma in sigmas:
        relabeled = mech.assignment(apply_permutation_profile(profile, sigma))
        assert relabeled == tuple(
            tuple(row[sigma.index(a)] for a in range(len(row))) for row in out
        ), (profile, sigma)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", NEUTRAL_KINDS)
def test_declared_neutral_mechanisms_permute_rows_with_objects(kind, n):
    mech = build_mechanism(kind, n)
    assert mech.neutral
    sigmas = list(itertools.permutations(range(n)))
    for profile in enumerate_profiles(mech.instance):
        _assert_relabels_rows(mech, profile, sigmas)


@pytest.mark.parametrize("kind", NEUTRAL_KINDS)
def test_declared_neutral_mechanisms_permute_rows_with_objects_n4(kind):
    mech = build_mechanism(kind, 4)
    assert mech.neutral
    sigmas = list(itertools.permutations(range(4)))
    rng = random.Random(17)
    for _ in range(12):
        _assert_relabels_rows(mech, random_profile(rng, 4), sigmas)


@pytest.mark.parametrize("n", (2, 3))
def test_tables_declare_not_neutral(n):
    assert not build_mechanism("table", n).neutral
    assert not TabulatedMechanism.neutral
    assert not Mechanism.neutral


class _UndeclaredFalselyNeutralPS(FalselyNeutralPS):
    neutral = False


def test_neutrality_stays_a_real_check_for_declared_neutral_mechanisms():
    """The neutrality sweep reads a table filled by multiset, never the
    declaration, so a false one does not turn the check into a consequence
    of the fact."""
    mech = FalselyNeutralPS(Instance.default(3))
    assert mech.anonymous and mech.neutral
    got = run_axiom_check(mech, "neutral", mode="exhaustive")
    assert not got.satisfied
    twin = _UndeclaredFalselyNeutralPS(Instance.default(3))
    assert got == run_axiom_check(twin, "neutral", mode="exhaustive")


def _undeclared_neutral(mech):
    """``mech``, declared not neutral: its table is filled once per
    multiset of reports."""
    twin = copy.copy(mech)
    twin.neutral = False
    return twin


@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in ("ps", "rp", "sea-unit", "sea-shared") for n in (2, 3)
] + [("ps", 4), ("rp", 4)])
def test_identity_fill_matches_the_multiset_fill(kind, n):
    """Rows read through neutrality from the identity report's rows equal
    the rows of one evaluation per multiset of reports."""
    mech = build_mechanism(kind, n)
    assert mech.anonymous and mech.neutral
    prefs = enumerate_preferences(mech.instance)
    relabeled, plain = DomainTable(mech, prefs), DomainTable(_undeclared_neutral(mech), prefs)
    relabeled.fill()
    plain.fill()
    assert relabeled.anonymous and plain.anonymous
    assert relabeled._cols == plain._cols
    assert relabeled._multiset == plain._multiset


class DeclaredSymmetricTable(TabulatedMechanism):
    """A table declared anonymous and neutral."""

    anonymous = True
    neutral = True


def _trading_ps():
    """PS at n=3, declared anonymous and neutral, with agents 2 and 3
    (reports bac and cab) trading 1/1000 of objects b and c at one profile
    where agent 1 reports the identity order; and that profile."""
    instance = Instance.default(3)
    ps = ProbabilisticSerial(instance)
    prefs = enumerate_preferences(instance)
    traded = (prefs[0], prefs[2], prefs[4])
    table = {p: [list(row) for row in ps.assignment(p)] for p in enumerate_profiles(instance)}
    eps = Fraction(1, 1000)
    m = table[traded]
    m[1][1] -= eps
    m[1][2] += eps
    m[2][1] += eps
    m[2][2] -= eps
    return DeclaredSymmetricTable(
        instance, {p: tuple(map(tuple, m)) for p, m in table.items()}
    ), traded


def test_false_neutrality_makes_the_identity_fill_raise():
    mech, traded = _trading_ps()
    assert mech.assignment(traded)[1] == (0, Fraction(999, 1000), Fraction(1, 1000))
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    with pytest.raises(ValueError, match="declared neutral"):
        table.fill()
    with pytest.raises(ValueError, match="declared neutral"):
        run_pair_sweep(mech, ("em",), mode="exhaustive")
    # the neutrality sweep fills once per multiset of reports, without the guard
    assert not run_axiom_check(mech, "neutral", mode="exhaustive").satisfied


def test_neutrality_reads_every_agents_row():
    """A table, PS but for agents 2 and 3 trading at one orbit's
    representative, fails neutrality only in their rows: agent 1's row
    follows every relabeling there, so the check must read every row."""
    traded_ps, traded = _trading_ps()
    instance = traded_ps.instance
    mech = TabulatedMechanism(
        instance, {p: traded_ps.assignment(p) for p in enumerate_profiles(instance)}
    )
    assert not mech.anonymous and not mech.neutral
    got = run_axiom_check(mech, "neutral", mode="exhaustive")
    assert got == profile_sweep_oracle(mech, "neutral", mode="exhaustive")
    assert {v.agent for v in got.violations} == {1, 2}
    assert traded in {v.profile for v in got.violations}


def test_falsely_neutral_ps_passes_the_guard():
    """FalselyNeutralPS gives every profile read by the identity fill the
    rows neutrality predicts from the identity report's, so the fill's
    guard lets it through with rows that are not its own; only the
    neutrality sweep, which never fills through neutrality, catches it."""
    mech = FalselyNeutralPS(Instance.default(3))
    prefs = enumerate_preferences(mech.instance)
    relabeled, plain = DomainTable(mech, prefs), DomainTable(_undeclared_neutral(mech), prefs)
    relabeled.fill()
    plain.fill()
    assert relabeled._cols != plain._cols
    assert not run_axiom_check(mech, "neutral", mode="exhaustive").satisfied


def test_falsely_neutral_ps_first_neutrality_violation_at_n4():
    """First-mode neutrality of FalselyNeutralPS at n=4 passes the first
    orbit and stops in the second: both orbits' 24 members are read, and
    the comparisons are those of the all-pairs comparison up to the first
    failing one.  Recorded while every member of an orbit was compared
    with every relabeling of it."""
    mech = FalselyNeutralPS(Instance.default(4))
    got = run_axiom_check(mech, "neutral", mode="first")
    assert not got.satisfied
    assert (len(got.violations), got.profiles_checked, got.comparisons) == (1, 48, 9_315)
    lines = outcome_lines(mech.instance, got, machine=True)
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == (
        "59cb096686a71763701e42977101394ccb6d83edcfac6dabd7dcf07873736459"
    )


def test_falsely_neutral_ps_neutrality_listing_at_n4():
    """Exhaustive neutrality of FalselyNeutralPS at n=4, the only failing
    neutrality listing at n=4: every failing orbit compares each member
    with each relabeling.  Recorded while the neutrality sweep built its
    own map of relabeled report indices."""
    mech = FalselyNeutralPS(Instance.default(4))
    got = run_axiom_check(mech, "neutral", mode="exhaustive")
    assert not got.satisfied
    assert (len(got.violations), got.profiles_checked, got.comparisons) == (
        482_112, 331_776, 127_401_984
    )
    lines = outcome_lines(mech.instance, got, machine=True)
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == (
        "0d4d34180803c97fc59f40977553c88a2405aba49d796e96d771735b2be1e19c"
    )


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_neutrality_sees_a_trade_in_a_multiset_without_the_identity(mode):
    """HiddenTradePS trades columns only at a report multiset that holds no
    identity report: the identity fill never evaluates it, and report 0's
    columns are PS's.  Only a check of every report's columns at every
    multiset, one that never reads the declaration, finds the trade."""
    mech = HiddenTradePS(Instance.default(3))
    assert mech.anonymous and mech.neutral
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    table.fill()  # the guard cannot see the trade
    expected = profile_sweep_oracle(mech, "neutral", mode=mode)
    assert not expected.satisfied
    for jobs in (1, 2):
        assert run_axiom_check(mech, "neutral", mode=mode, jobs=jobs) == expected, jobs
    assert run_axiom_check(_undeclared_neutral(mech), "neutral", mode=mode) == expected


# ---------------------------------------------------------------------------
# neutral mechanisms that are not anonymous: dense storage from the orbit
# representatives
# ---------------------------------------------------------------------------


#: The declared-neutral mechanisms that are not anonymous, at n=3: every
#: serial dictatorship order, eating on a non-unit schedule, and PS and RP
#: not declared anonymous; and one serial dictatorship at n=4.
ORBIT_FILLED = [
    (SerialDictatorship, order) for order in itertools.permutations(range(3))
] + [(SimultaneousEating, nonunit_schedule(3)), (CountingUndeclaredPS,), (UndeclaredRP,)]


def _filled(mech, relabel=True):
    table = DomainTable(mech, enumerate_preferences(mech.instance))
    table.fill(relabel=relabel)
    return table


@pytest.mark.parametrize("n, kind", [(3, kind) for kind in ORBIT_FILLED]
                         + [(4, (SerialDictatorship, (3, 1, 0, 2)))])
def test_orbit_fill_equals_the_dense_fill(n, kind):
    cls, *args = kind
    mech = cls(Instance.default(n), *args)
    assert mech.neutral and not mech.anonymous
    # without relabel the same mechanism is evaluated at every profile
    assert _filled(mech).nums == _filled(mech, relabel=False).nums


@pytest.mark.parametrize("n, evaluations", ((3, 66), (4, 27_072)))
def test_orbit_fill_evaluates_two_cross_sections_once(n, evaluations):
    """The fill evaluates the profiles where agent 1 reports the identity
    (36 and 13,824), and for its guard those where agent 2 does and agent
    1 does not (30 and 13,248), each once."""
    mech = CountingUndeclaredPS(Instance.default(n))
    _filled(mech)
    identity = tuple(range(n))
    assert len(mech.counts) == evaluations
    assert set(mech.counts.values()) == {1}
    assert all(identity in profile[:2] for profile in mech.counts)


class DeclaredNeutralRowSwapPS(RowSwapPS):
    """RowSwapPS declared neutral, which it is not."""

    neutral = True


def test_false_neutrality_makes_the_orbit_fill_raise():
    """The rows traded at (abc, acb, cba) are relabeled into the rest of
    its orbit, and the guard evaluates the member where agent 2 reports
    the identity."""
    mech = DeclaredNeutralRowSwapPS(Instance.default(3))
    with pytest.raises(ValueError, match=re.escape(
        "is declared neutral, but its rows at profile ((0, 2, 1), (0, 1, 2), (1, 2, 0))"
    )):
        _filled(mech)
    with pytest.raises(ValueError, match="declared neutral"):
        run_pair_sweep(mech, ("em",), mode="exhaustive")


class OffSectionTradePS(ProbabilisticSerial):
    """PS, not declared anonymous and declared neutral, with objects a and c
    traded in every row at (acb, bac, bca), where neither agent 1 nor agent
    2 reports the identity: neither the orbit fill nor its guard evaluates
    the profile."""

    anonymous = False
    PROFILE = ((A, C, B), (B, A, C), (B, C, A))

    def _shares(self, profile):
        rows = super()._shares(profile)
        if profile == self.PROFILE:
            rows = [[row[C], row[B], row[A]] for row in rows]
        return rows


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_neutrality_sees_a_trade_the_orbit_fill_does_not_evaluate(mode):
    mech = OffSectionTradePS(Instance.default(3))
    assert mech.neutral and not mech.anonymous
    assert _filled(mech).nums == _filled(CountingUndeclaredPS(mech.instance), relabel=False).nums
    got = run_axiom_check(mech, "neutral", mode=mode)
    assert got == profile_sweep_oracle(mech, "neutral", mode=mode)
    assert not got.satisfied
    if mode == "exhaustive":
        assert mech.PROFILE in {v.profile for v in got.violations}


def test_neutrality_of_a_neutral_mechanism_evaluates_each_profile_once(monkeypatch):
    """The neutrality sweep of a mechanism that is not anonymous reads its
    table unfilled, so it never fills through neutrality."""
    mech = CountingUndeclaredPS(Instance.default(3))
    filled = []
    monkeypatch.setattr(DomainTable, "fill", lambda table, **kwargs: filled.append(kwargs))
    assert run_axiom_check(mech, "neutral", mode="exhaustive").satisfied
    assert filled == []
    assert len(mech.counts) == 6 ** 3 and set(mech.counts.values()) == {1}


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
@pytest.mark.parametrize("kind", ("ps", "rp"))
def test_passing_neutrality_reads_no_row(kind, mode, monkeypatch):
    """A neutral table filled by multiset passes on its columns alone, and
    reports the orbit sweep's counters by arithmetic."""
    mech = build_mechanism(kind, 3)
    expected = profile_sweep_oracle(mech, "neutral", mode=mode)
    assert expected.satisfied

    def entry(self, index):
        raise AssertionError(f"row {index} read")

    monkeypatch.setattr(DomainTable, "entry", entry)
    got = run_axiom_check(mech, "neutral", mode=mode)
    assert got == expected
    assert (got.profiles_checked, got.comparisons) == (6 ** 3, 6 ** 3 * 6 * 3 ** 2)


# ---------------------------------------------------------------------------
# mode="first": growing batches, each read once; an axiom is dropped after
# the batch in which it first fails
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
