"""The integer domain table and the pair sweep built on it, checked against
the Fraction cell oracle in ``helpers.pair_sweep_oracle``."""

import itertools
import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    MECHANISM_KINDS,
    AnonymousSD,
    CountingPS,
    CountingUndeclaredPS,
    build_mechanism,
    huge_denominator_table,
    pair_sweep_oracle,
    random_bistochastic,
    random_profile,
)
from ramkit.axioms import PAIR_AXIOMS, check_equal_treatment_of_equals, run_pair_sweep
from ramkit.core import Instance, enumerate_preferences, enumerate_profiles
from ramkit.domain import DomainTable, _append, reports_at
from ramkit.mechanisms import (
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    TabulatedMechanism,
)

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
    """A first-mode sweep fills its table on ``jobs`` workers, and its
    outcome does not depend on them."""
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
    assert len(mech.counts) == math.comb(6 + 3 - 1, 3)  # one per report multiset


@pytest.mark.parametrize("mode", ("exhaustive", "first"))
def test_each_profile_evaluated_once_without_anonymity(mode):
    mech = CountingUndeclaredPS(Instance.default(3))
    run_pair_sweep(mech, ("sp", "em", "ui"), mode=mode, jobs=1)
    assert max(mech.counts.values()) == 1
    assert len(mech.counts) == 6 ** 3


def test_first_sweep_at_n4_fills_once_per_multiset():
    """Up to the sweep cap a first-mode sweep reads a filled table, so PS is
    evaluated once per report multiset even though li fails early."""
    mech = CountingPS(Instance.default(4))
    assert not run_pair_sweep(mech, ("li",), mode="first")["li"].satisfied
    assert len(mech.counts) == math.comb(24 + 4 - 1, 4) == 17_550
    assert set(mech.counts.values()) == {1}


def test_first_sweep_at_n5_stops_early():
    mech = CountingPS(Instance.default(5))
    out = run_pair_sweep(mech, ("li",), mode="first", max_n=5)["li"]
    assert not out.satisfied
    # li fails within agent 1's first two cells of 120 reports each
    assert len(mech.counts) <= 2 * 120
    # past the cap every read evaluates; each profile is read once here only
    # because those two cells are one-cell batches, never swept again
    assert set(mech.counts.values()) == {1}


def test_satisfied_first_sweep_scans_domain_once():
    mech = CountingPS(Instance.default(3))
    out = run_pair_sweep(mech, ("em",), mode="first")["em"]
    assert out.satisfied
    assert out.profiles_checked == 3 * 6 ** 3  # rows read: 3 agents, every cell
    assert len(mech.counts) == math.comb(6 + 3 - 1, 3)  # one per report multiset
    assert set(mech.counts.values()) == {1}


class PickleCountingSD(SerialDictatorship):
    """Serial dictatorship (not anonymous, so filled on the pool) that
    counts how often it is pickled in this process."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__.copy()


@pytest.mark.parametrize("jobs", (2, 3))
def test_pool_pickles_mechanism_once_per_worker(jobs):
    PickleCountingSD.pickles = 0
    mech = PickleCountingSD(Instance.default(3), (2, 0, 1))
    assert not mech.anonymous
    out = run_pair_sweep(mech, ("li",), mode="exhaustive", jobs=jobs)
    assert out == pair_sweep_oracle(mech, ("li",))
    # at most one pickle per started worker (none where workers fork),
    # never one per index-range task
    assert PickleCountingSD.pickles <= jobs


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
    table.fill(jobs)
    assert isinstance(table.nums, list) and table.D > 2 ** 64
    for index, profile in enumerate(enumerate_profiles(instance)):
        assert _rows_at(table, index) == mech.assignment(profile)
    assert run_pair_sweep(mech, PAIR_AXIOMS, mode="exhaustive", jobs=jobs) == (
        pair_sweep_oracle(mech, PAIR_AXIOMS)
    )


def test_append_widens_at_the_first_wide_part():
    """A pool fill appends each range's part in index order: parts that fit
    extend the signed 64-bit array, and the first part past 64 bits turns
    the whole store, and all later parts, into Python ints."""
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
        table.fill(1)
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
    got = check_equal_treatment_of_equals(mech, mode="exhaustive")
    assert not got.satisfied
    assert got == check_equal_treatment_of_equals(honest, mode="exhaustive")


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
