"""Ex-post axiom verification engine.

Exhaustive sweeps over the full preference domain for strategy-proofness,
weak strategy-proofness, elementary monotonicity, upper/lower invariance,
neutrality, equal treatment of equals and ordinal and ex-post efficiency,
plus pointwise efficiency checks with the exact LP oracle as an
independent second route.

Sweeps enumerate lexicographically, so the first violation is the same on
every run and platform.  ``mode`` selects between collecting every
violation ("exhaustive", the default for n <= 3) and stopping at the
first one ("first", the default for larger n).

Every sweep reads the mechanism through an integer domain table
(:mod:`ramkit.domain`) over the mechanism's one denominator ``D`` and
compares shares as integers.  :func:`_domain_table` decides, from n alone,
whether a sweep's table is filled.  Up to :data:`~ramkit.core.SWEEP_CAP`
it is filled in either mode: an anonymous mechanism once per multiset of
reports, in this process, and any other at every profile, by index range
on up to ``jobs`` worker processes.  The comparisons then run in this
process, so the violation list is identical for every parallelism degree.
Equal treatment of equals never fills, so it stays a real check for a
mechanism declared anonymous.  Past the cap only first mode runs: it
evaluates each profile as it reads it and keeps nothing, and an
exhaustive sweep is refused before anything is evaluated.

The report-pair axioms share one column kernel, :class:`_PairSweep`,
with the interim checks of :mod:`ramkit.interim` (where strategy-proofness
is OBIC), and keep their violations as integer records: a
:class:`~ramkit.reports.Violations` builds a ViolationReport only when one
is read.  :func:`_replay_pair` is the one replay comparison for both
families.  Neutrality, equal treatment of equals and ordinal and ex-post
efficiency share one driver, :func:`_profile_sweep`, which runs one test
on the integer rows of each profile in turn; only ex-post efficiency
builds Fractions, for the outcomes it decomposes.  Neutrality reads one
representative per relabeling orbit, the profile in which agent 1 reports
the identity order, so it visits (n!)**(n-1) profiles, not (n!)**n.
"""

from __future__ import annotations

import itertools
from array import array
from fractions import Fraction
from operator import add, ge, gt, lt, mul, ne
from typing import Iterable, Optional

from .core import (
    SWEEP_CAP,
    ZERO,
    AssignmentMatrix,
    CapExceededError,
    Instance,
    Preference,
    Profile,
    SwapInfo,
    _check_pref_cap,
    _check_sweep_cap,
    adjacent_swaps,
    apply_permutation,
    apply_permutation_profile,
    enumerate_preferences,
    fosd,
    fosd_failure,
    insert_report,
    prefers,
    validate_assignment,
)
from .decomp import _improvement_cycle, birkhoff_decompose, find_cycle
from .domain import DomainTable, _pack
from .mechanisms import Mechanism
from .reports import CheckOutcome, PairBatch, ViolationReport, Violations
from .simplex import solve_max

PAIR_AXIOMS = ("sp", "weak-sp", "em", "ui", "li")
PROFILE_AXIOMS = ("neutral", "ete", "oe", "ex-post")


def _resolve_mode(mode: Optional[str], n: int) -> str:
    if mode is None:
        return "exhaustive" if n <= 3 else "first"
    if mode not in ("exhaustive", "first"):
        raise ValueError(f"mode must be 'exhaustive' or 'first', got {mode!r}")
    return mode


def _domain_table(mech: Mechanism, mode, max_n, jobs, fill=True) -> tuple[DomainTable, str]:
    """The sweep's table and resolved mode, after the cap checks.  Up to
    :data:`~ramkit.core.SWEEP_CAP` the table is filled on up to ``jobs``
    workers when ``fill`` is set; past it the table is read unfilled, and an
    exhaustive sweep, which would read the whole domain, is refused."""
    instance = mech.instance
    n = instance.n
    _check_sweep_cap(n, max_n)
    mode = _resolve_mode(mode, n)
    if n > SWEEP_CAP and mode == "exhaustive":
        raise CapExceededError("exhaustive sweep", n, SWEEP_CAP, "mode='first'")
    table = DomainTable(mech, enumerate_preferences(instance, max_n=max_n))
    if n <= SWEEP_CAP and fill:
        table.fill(jobs)
    return table, mode


# ---------------------------------------------------------------------------
# report-pair sweeps: one agent varies her report against fixed opponents
# ---------------------------------------------------------------------------


def _swap_pairs(prefs: list[Preference]) -> list[tuple]:
    """Each unordered adjacent-swap pair of reports once, in sweep order.

    Entries are ``(r, s, swap, above, below)``: ``prefs[s]`` is
    ``prefs[r]`` with the pair ``swap`` exchanged, ``prefs[r] < prefs[s]``,
    and ``above`` and ``below`` are the objects ``prefs[r]`` ranks above
    and below the pair.  The swap conditions are symmetric, so one order
    suffices.
    """
    index = {p: k for k, p in enumerate(prefs)}
    pairs = []
    for r, base in enumerate(prefs):
        for swapped, info in adjacent_swaps(base):
            if swapped > base:
                above = base[: info.position - 1]
                below = base[info.position + 1:]
                pairs.append((r, index[swapped], info, above, below))
    return pairs


def _prefix_columns(cols: list, pref: Preference, floor: Optional[list] = None) -> list:
    """Columns of the running sums of ``cols[a]`` over the objects ``a`` of
    ``pref`` in order: entry ``j`` is the top-``j+1`` prefix.

    With ``floor`` (prefix columns of another row), stop after the first
    prefix at which no cell reaches ``floor``: from there on no cell can
    weakly dominate it, which is all a weak-sp check asks.
    """
    out = []
    for a in pref:
        acc = cols[a] if not out else list(map(add, out[-1], cols[a]))
        out.append(acc)
        if floor is not None and not any(map(ge, acc, floor[len(out) - 1])):
            break
    return out


#: Per pair axiom, the axiom name its reports and outcome carry, then the
#: detail string of its reports (for em: raised object, then lowered one).
#: Ex-post sweeps use these; interim checks pass their own.
_EX_POST_LABELS = {
    "sp": ("sp", "truthful prefix falls below deviation prefix"),
    "weak-sp": ("weak-sp", "deviation strictly dominates truth-telling"),
    "em": ("em", "share of the raised object decreased",
           "share of the lowered object increased"),
    "ui": ("ui", "share above the swapped pair moved"),
    "li": ("li", "share below the swapped pair moved"),
}

_FOSD_AXIOMS = ("sp", "weak-sp")

#: Most cells in one batch of a ``mode="first"`` sweep.
_FIRST_BATCH_CAP = 256


class _PairSweep:
    """The pair axioms over report columns, one batch of cells at a time.

    A source gives, per agent, ``cells`` cells (an opponent profile, or for
    interim rows a single cell) and cuts batches of consecutive cells as
    columns: ``columns(agent, start, count)`` returns ``cols`` with
    ``cols[r][x][k]`` the agent's numerator of object ``x`` under report
    ``prefs[r]`` in cell ``start + k``, over the source's one denominator
    ``source.D``.  Cells are numbered as in
    :class:`~ramkit.domain.DomainTable`.  Without a ``prior`` the reports
    name a cell's profile (``profile=``); with one, the source is interim
    rows and the reports carry ``truth=`` and ``prior=``.  ``labels`` (see
    :data:`_EX_POST_LABELS`) names the axioms and details.  A source whose
    ``anonymous`` is true gives every agent the same columns: a table filled
    by multiset, or the interim rows of an anonymous mechanism.

    Each comparison slot (em raised or lowered, ui above or li below the
    pair, for each swap pair; sp and weak-sp per prefix, for each ordered
    report pair) first compares two whole columns; only columns that
    differ are scanned for the cells that fail.  The failing cells of a
    slot form one group.  At the end of the batch each axiom's groups
    become one :class:`~ramkit.reports.PairBatch` of integer arrays (cells,
    numerators, ranks), with an ``order`` sorted by an integer key that
    orders like (cell, report pair, slot): the order in which a
    cell-by-cell sweep finds them.  No ViolationReport is built; each
    outcome's ``violations`` is a :class:`~ramkit.reports.Violations` over
    its batches, which builds a report only when one is read.

    Exhaustive sweeps take one batch per agent.  On an anonymous source
    they sweep agent 0 only: every other agent fails the same slots in the
    same cells, so its batches are agent 0's under its own number, and the
    rows read and comparisons count n times over.  With ``first_only`` the
    batches grow (1, 1, 2, 4, ... cells, up to :data:`_FIRST_BATCH_CAP`); a
    batch in which a live axiom fails is swept again cell by cell, where
    an axiom stops being checked right after the comparison block that
    found its first violation.  The sweep ends after the cell in which the
    last axiom fell, and each outcome keeps its first violation, so
    counters equal those of a cell-by-cell sweep.
    """

    def __init__(
        self, prefs: list[Preference], axioms: tuple[str, ...], first_only: bool,
        labels: dict = _EX_POST_LABELS, prior=None,
    ):
        self.prefs = prefs
        self.m = len(prefs)
        self.n = n = len(prefs[0])
        self.first_only = first_only
        self.labels = labels
        self.prior = prior
        self.found: dict[str, list[PairBatch]] = {ax: [] for ax in axioms}
        self.live = set(axioms)  # axioms still being checked
        self.rows_read = 0
        self.comparisons = 0
        self._pairs = _swap_pairs(prefs)
        self._singles = tuple((x,) for x in range(n))  # objects=(x,)

    def run(self, source) -> dict[str, CheckOutcome]:
        """Sweep the agents of ``source`` in order and return each axiom's
        outcome under its label."""
        if source.anonymous and not self.first_only:
            self._batch(source, 0, 0, source.cells)
            for ax, batches in self.found.items():
                self.found[ax] = [
                    batch._replace(agent=agent) for agent in source.agents for batch in batches
                ]
            self.rows_read *= len(source.agents)
            self.comparisons *= len(source.agents)
        else:
            for agent in source.agents:
                if self.first_only:
                    self._first_batches(source, agent)
                else:
                    self._batch(source, agent, 0, source.cells)
                if not self.live:
                    break
        outcomes = {}
        for ax, batches in self.found.items():
            if self.first_only and batches:  # keep the first violation
                batches = [batches[0]._replace(order=batches[0].order[:1])]
            name = self.labels[ax][0]
            outcomes[name] = CheckOutcome(
                axiom=name,
                satisfied=not batches,
                violations=Violations(name, self.prefs, batches, source.D, self.prior),
                profiles_checked=self.rows_read,
                comparisons=self.comparisons,
            )
        return outcomes

    def _first_batches(self, source, agent: int) -> None:
        """``agent``'s cells in batches as large as all cells before them
        (1, 1, 2, 4, ..., up to the cap); a batch in which a live axiom
        fails is swept again cell by cell."""
        start = 0
        while start < source.cells and self.live:
            count = min(max(start, 1), _FIRST_BATCH_CAP, source.cells - start)
            if not self._batch(source, agent, start, count):
                for cell in range(start, start + count):
                    self._batch(source, agent, cell, 1)
                    if not self.live:
                        return
            start += count

    def _batch(self, source, agent: int, start: int, count: int) -> bool:
        """Compare the columns of cells ``[start, start + count)`` and record
        their violations.  With ``first_only`` and more than one cell, stop
        at the first violation of a live axiom and return False, recording
        and counting nothing."""
        cols = source.columns(agent, start, count)
        # per axiom, groups of failing cells sharing a slot; see _record
        groups: dict[str, list] = {ax: [] for ax in self.live}
        comparisons = 0
        for compare in (self._compare_fosd, self._compare_swaps):
            made = compare(cols, start, count, groups)
            if made is None:
                return False
            comparisons += made
        del cols  # the groups hold their values; free the batch before recording
        self.comparisons += comparisons
        self.rows_read += count * self.m
        for ax, found in groups.items():
            if found:
                modulus = self.m ** 2 if ax in _FOSD_AXIOMS else len(self._pairs) * self.n
                self._record(ax, found, modulus, agent)
        return True

    def _settle(self, groups: dict, axioms: tuple[str, ...], K: int) -> bool:
        """After a comparison block under ``first_only``: stop checking each
        of ``axioms`` that has a violation, or, probing a batch of ``K > 1``
        cells, return False at the first such axiom."""
        for ax in axioms:
            if groups.get(ax):
                if K > 1:
                    return False
                self.live.discard(ax)
        return True

    def _compare_fosd(self, cols, start: int, K: int, groups: dict) -> Optional[int]:
        """sp and weak-sp, per ordered report pair (truth ``t``, deviation
        ``v``), on prefix columns along the truth's order, over cells
        ``[start, start + K)``; the number of comparisons, or None when a
        probe found a violation."""
        live, labels = self.live, self.labels
        if "sp" not in live and "weak-sp" not in live:
            return 0
        m, n = self.m, self.n
        cells = range(K)
        comparisons = 0
        for t, truth in enumerate(self.prefs):
            mine = _prefix_columns(cols[t], truth)
            for v in range(m):
                sp, weak = "sp" in live, "weak-sp" in live
                if v == t or not (sp or weak):
                    continue
                comparisons += K * (sp + weak)
                theirs = _prefix_columns(cols[v], truth, None if sp else mine)
                if len(theirs) < n:
                    continue  # only weak-sp is live, and no cell can fail it
                ranks: dict[int, int] = {}  # cell -> first prefix it fails
                for j in range(n):
                    if mine[j] != theirs[j]:
                        for k in itertools.compress(cells, map(lt, mine[j], theirs[j])):
                            ranks.setdefault(k, j)
                if not ranks:
                    continue
                failing = [(k, j + 1, mine[j][k], theirs[j][k]) for k, j in ranks.items()]
                if sp:
                    groups["sp"].append(_fosd_group(
                        t, v, m, "<", labels["sp"][1], start, failing,
                    ))
                if weak:
                    dominated = [
                        (k, rank, rhs, lhs) for k, rank, lhs, rhs in failing
                        if all(mine[i][k] <= theirs[i][k] for i in range(n))
                    ]
                    if dominated:
                        groups["weak-sp"].append(_fosd_group(
                            t, v, m, ">", labels["weak-sp"][1], start, dominated,
                        ))
                if self.first_only and not self._settle(groups, _FOSD_AXIOMS, K):
                    return None
        return comparisons

    def _compare_swaps(self, cols, start: int, K: int, groups: dict) -> Optional[int]:
        """em, ui and li, per adjacent-swap pair of reports, over cells
        ``[start, start + K)``; the number of comparisons, or None when a
        probe found a violation."""
        live, labels = self.live, self.labels
        em, ui, li = "em" in live, "ui" in live, "li" in live
        cells = range(start, start + K)
        comparisons = 0
        for p, (r, s, info, above, below) in enumerate(self._pairs):
            if not (em or ui or li):
                break
            old, new = cols[r], cols[s]
            for ax, on in (("em", em), ("ui", ui), ("li", li)):
                if not on:
                    continue
                if ax == "em":
                    slots = (
                        (0, info.raised, lt, "<", labels["em"][1]),
                        (1, info.lowered, gt, ">", labels["em"][2]),
                    )
                else:
                    slots = [
                        (slot, x, ne, "!=", labels[ax][1])
                        for slot, x in enumerate(above if ax == "ui" else below)
                    ]
                comparisons += len(slots) * K
                for slot, x, op, relation, detail in slots:
                    if new[x] == old[x]:
                        continue
                    mask = list(map(op, new[x], old[x]))
                    failing = array("q", itertools.compress(cells, mask))
                    if failing:
                        groups[ax].append((
                            p * self.n + slot, r, s, info, self._singles[x], relation,
                            detail, failing, None,
                            _pack(list(itertools.compress(new[x], mask))),
                            _pack(list(itertools.compress(old[x], mask))),
                        ))
            if self.first_only:
                if not self._settle(groups, ("em", "ui", "li"), K):
                    return None
                em, ui, li = "em" in live, "ui" in live, "li" in live
        return comparisons

    def _record(self, ax, groups, modulus, agent) -> None:
        """Append a batch's violation groups of ``ax`` as one record.

        A group is ``(offset, r, s, swap, objects, relation, detail, cells,
        ranks, lhs, rhs)``: the cells failing the slot ``offset`` of the
        move from report ``prefs[r]`` to ``prefs[s]``, with per-cell arrays
        of rank (or None) and numerators.  An entry's key ``cell * modulus
        + offset`` orders like (cell, report pair, slot), the order in
        which a cell-by-cell sweep finds them.
        """
        repeat = itertools.repeat
        keys: list[int] = []
        starts = [0]
        for offset, *_, cells, _ranks, _lhs, _rhs in groups:
            keys.extend(map(add, map(mul, cells, repeat(modulus)), repeat(offset)))
            starts.append(len(keys))
        order = array("q", sorted(range(len(keys)), key=keys.__getitem__))
        records = [group[1:] for group in groups]
        self.found[ax].append(PairBatch(agent, records, starts, order))


def _fosd_group(
    t: int, v: int, m: int, relation: str, detail: str, start: int, failing
) -> tuple:
    """A :meth:`_PairSweep._record` group of sp or weak-sp violations of the
    move from report ``t`` to ``v``, from ``(cell, rank, lhs, rhs)`` rows
    with cells relative to ``start``."""
    cells, ranks, lhs, rhs = zip(*failing)
    return (
        t * m + v, t, v, None, (), relation, detail,
        array("q", [start + k for k in cells]), array("q", ranks),
        _pack(list(lhs)), _pack(list(rhs)),
    )


def run_pair_sweep(
    mech: Mechanism,
    axioms: Iterable[str],
    *,
    mode: Optional[str] = None,
    jobs: int = 1,
    max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Sweep several report-pair axioms in one pass over the domain.

    Every bundled axiom reads the table of :func:`_domain_table`, which
    decides whether it is filled, as report columns: one batch per agent in
    exhaustive mode (agent 0's only on an anonymous mechanism's table), and
    in first mode growing batches of cells until every axiom has a
    violation.  The table is dropped when the sweep returns.

    ``profiles_checked`` counts rows read (the agent's report varies over
    all n! preferences in each cell), not distinct evaluations.
    """
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in PAIR_AXIOMS:
            raise ValueError(f"unknown pair axiom {ax!r}")
    table, mode = _domain_table(mech, mode, max_n, jobs)
    sweep = _PairSweep(table.prefs, axioms, first_only=mode == "first")
    return sweep.run(table)


def _single(mech, axiom, mode, jobs, max_n) -> CheckOutcome:
    return run_pair_sweep(mech, (axiom,), mode=mode, jobs=jobs, max_n=max_n)[axiom]


def check_strategy_proofness(mech: Mechanism, *, mode=None, jobs=1, max_n=None):
    """Truth-telling must FOSD every deviation, for every opponent profile."""
    return _single(mech, "sp", mode, jobs, max_n)


def check_weak_strategy_proofness(mech: Mechanism, *, mode=None, jobs=1, max_n=None):
    """No deviation may strictly FOSD truth-telling."""
    return _single(mech, "weak-sp", mode, jobs, max_n)


def check_elementary_monotonicity(mech: Mechanism, *, mode=None, jobs=1, max_n=None):
    """Raising an object one rank weakly raises its share and weakly lowers
    the displaced object's share."""
    return _single(mech, "em", mode, jobs, max_n)


def check_upper_invariance(mech: Mechanism, *, mode=None, jobs=1, max_n=None):
    """An adjacent swap leaves shares of objects above the pair unchanged."""
    return _single(mech, "ui", mode, jobs, max_n)


def check_lower_invariance(mech: Mechanism, *, mode=None, jobs=1, max_n=None):
    """An adjacent swap leaves shares of objects below the pair unchanged."""
    return _single(mech, "li", mode, jobs, max_n)


# ---------------------------------------------------------------------------
# efficiency: pointwise operations
# ---------------------------------------------------------------------------


def trade_cycle(assignment: AssignmentMatrix, profile: Profile) -> Optional[tuple[int, ...]]:
    """Cycle of the object relation "some agent prefers x to y while holding
    a positive share of y", or None when the relation is acyclic.

    Acyclicity of this relation characterizes ordinal efficiency, giving a
    cheap production check; the LP oracle stays available as an independent
    second route.  Only the signs of the shares are read, so integer
    numerators work as well as Fractions.
    """
    n = len(profile)
    edge = [[False] * n for _ in range(n)]
    for pref, row in zip(profile, assignment):
        for k, b in enumerate(pref):
            if row[b] > 0:
                for a in pref[:k]:
                    edge[a][b] = True
    cycle = find_cycle([[y for y in range(n) if edge[x][y]] for x in range(n)])
    return None if cycle is None else tuple(cycle)


def check_ordinal_efficiency(
    assignment: AssignmentMatrix, profile: Profile
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(efficient?, witness object cycle when not)."""
    cycle = trade_cycle(assignment, profile)
    return cycle is None, cycle


def lp_dominance_oracle(
    assignment: AssignmentMatrix, profile: Profile, *, max_n: Optional[int] = None
) -> Optional[AssignmentMatrix]:
    """Exact-LP search for an assignment dominating ``assignment``.

    Variables are candidate shares M[i][a] >= 0 with all row and column
    sums fixed to 1 and, for every agent and every prefix of her ranking,
    the candidate's cumulative share at least the given assignment's.  The
    objective maximizes the total cumulative surplus, so the optimum is
    zero exactly when no agent's prefix can be improved without hurting
    another's, i.e. when the assignment is ordinally efficient; otherwise
    the optimal matrix is returned as a dominating witness.
    """
    checked = validate_assignment(assignment)
    n = len(profile)
    _check_pref_cap(n, max_n)

    def var(i: int, a: int) -> int:
        return i * n + a

    objective = [ZERO] * (n * n)
    for i in range(n):
        for rank, a in enumerate(profile[i], start=1):
            objective[var(i, a)] = Fraction(n - rank)
    base_value = sum(
        objective[var(i, a)] * checked[i][a] for i in range(n) for a in range(n)
    )

    eq = []
    for i in range(n):
        row = [ZERO] * (n * n)
        for a in range(n):
            row[var(i, a)] = Fraction(1)
        eq.append((row, Fraction(1)))
    for a in range(n):
        row = [ZERO] * (n * n)
        for i in range(n):
            row[var(i, a)] = Fraction(1)
        eq.append((row, Fraction(1)))

    ge = []
    for i in range(n):
        cum = ZERO
        row = [ZERO] * (n * n)
        for a in profile[i][: n - 1]:
            row = row[:]
            row[var(i, a)] = Fraction(1)
            cum += checked[i][a]
            ge.append((row, cum))

    result = solve_max(objective, eq, ge)
    if result.status != "optimal":
        raise AssertionError(f"dominance program reported {result.status}")
    if result.value < base_value:
        raise AssertionError("dominance program lost the feasible base point")
    if result.value == base_value:
        return None
    witness = validate_assignment(
        [[result.solution[var(i, a)] for a in range(n)] for i in range(n)]
    )
    if witness == checked:
        raise AssertionError("positive surplus but unchanged assignment")
    return witness


def check_ex_post_efficiency(assignment: AssignmentMatrix, profile: Profile) -> bool:
    """All deterministic components of a decomposition are Pareto efficient."""
    return ex_post_inefficiency_witness(assignment, profile) is None


def ex_post_inefficiency_witness(
    assignment: AssignmentMatrix, profile: Profile
) -> Optional[tuple[Fraction, tuple[int, ...], tuple[int, ...]]]:
    """(weight, component, agent cycle) for the first Pareto-inefficient
    component, or None."""
    for weight, perm in birkhoff_decompose(assignment).terms:
        cycle = _improvement_cycle(perm, profile)
        if cycle is not None:
            return weight, perm, tuple(cycle)
    return None


# ---------------------------------------------------------------------------
# whole-profile sweeps: one driver, one integer test per profile
# ---------------------------------------------------------------------------


def _profile_sweep(mech, axiom, mode, jobs, max_n) -> CheckOutcome:
    """Sweep ``axiom``, one of :data:`PROFILE_AXIOMS`, over the profiles in
    lexicographic order.  Its test returns a profile's violations, the
    profiles it read and the comparisons it made; with ``first`` it stops
    at its first violation, and so does the sweep.  Neutrality is handed
    only the first ``(n!)**(n-1)`` profiles, those in which agent 1 reports
    the identity order: each relabeling orbit has exactly one of them."""
    # ETE reads only the profiles with two equal reports (a quarter of
    # them at n=4), so it evaluates those as it reads them, with no fill
    table, mode = _domain_table(mech, mode, max_n, jobs, fill=axiom != "ete")
    test = _PROFILE_TESTS[axiom](table)
    first = mode == "first"
    violations: list[ViolationReport] = []
    read = comparisons = 0
    profiles = itertools.product(table.prefs, repeat=table.n)
    if axiom == "neutral":
        profiles = itertools.islice(profiles, table.m ** (table.n - 1))
    for index, profile in enumerate(profiles):
        found, r, c = test(index, profile, first)
        violations += found
        read += r
        comparisons += c
        if first and violations:
            break
    return CheckOutcome(
        axiom=axiom, satisfied=not violations, violations=tuple(violations),
        profiles_checked=read, comparisons=comparisons,
    )


def _neutrality_test(table: DomainTable):
    """Neutrality at the representative of each relabeling orbit, the
    profile in which agent 1 reports the identity order: each member's
    rows against those of each of its relabelings, found by report index.
    No relabeling but the identity fixes agent 1's report, so the orbit has
    n! distinct members, and each is read once."""
    n, prefs, D = table.n, table.prefs, table.D
    position = {p: k for k, p in enumerate(prefs)}
    sigmas = list(itertools.permutations(range(n)))
    which = {s: k for k, s in enumerate(sigmas)}
    weights = [table.stride(j) for j in range(n)]
    # relabel[s][d]: the index of prefs[d] relabeled by sigmas[s];
    # compose[s][t]: sigmas[t], then sigmas[s];
    # moved[s][i*n + a]: the flat position of agent i's share of sigmas[s][a]
    relabel = [[position[apply_permutation(p, s)] for p in prefs] for s in sigmas]
    compose = [[which[tuple(s[x] for x in t)] for t in sigmas] for s in sigmas]
    moved = [[i * n + s[a] for i in range(n) for a in range(n)] for s in sigmas]

    def test(index, profile, first):
        digits = [position[p] for p in profile]
        images = [[r[d] for d in digits] for r in relabel]
        at = [sum(map(mul, image, weights)) for image in images]
        members = {k: t for t, k in enumerate(at)}  # image index -> a relabeling to it
        rows = {k: list(table.entry(k)) for k in sorted(members)}
        found = []
        for b, (base, out) in enumerate(rows.items()):
            t = members[base]
            for s, sigma in enumerate(sigmas):
                relabeled = rows[at[compose[s][t]]]
                if list(map(relabeled.__getitem__, moved[s])) == out:
                    continue
                for k, place in enumerate(moved[s]):
                    if out[k] != relabeled[place]:
                        found.append(ViolationReport(
                            axiom="neutral", agent=k // n,
                            profile=tuple(prefs[d] for d in images[t]), sigma=sigma,
                            objects=(k % n,), lhs=Fraction(out[k], D),
                            rhs=Fraction(relabeled[place], D), relation="!=",
                            detail="share does not follow the relabeling",
                        ))
                        if first:  # the comparisons made up to this one
                            return found, len(rows), (b * len(sigmas) + s) * n * n + k + 1
        return found, len(rows), len(rows) * len(sigmas) * n * n

    return test


def _ete_test(table: DomainTable):
    """Equal treatment of equals on the row slices of agents with equal
    reports; a profile whose reports all differ is not evaluated."""
    n, d = table.n, table.D

    def test(index, profile, first):
        found, made, flat = [], 0, None
        for i, j in itertools.combinations(range(n), 2):
            if profile[i] != profile[j]:
                continue
            made += 1
            if flat is None:
                flat = table.entry(index)
            mine, theirs = flat[i * n:(i + 1) * n], flat[j * n:(j + 1) * n]
            if mine != theirs:
                a = next(x for x in range(n) if mine[x] != theirs[x])
                found.append(ViolationReport(
                    axiom="ete", agent=i, agent2=j, profile=profile, objects=(a,),
                    lhs=Fraction(mine[a], d), rhs=Fraction(theirs[a], d),
                    relation="!=", detail="equal reports received unequal rows",
                ))
                if first:
                    break
        return found, 1, made

    return test


def _efficiency_test(table: DomainTable, ex_post: bool):
    """Ordinal efficiency, by :func:`trade_cycle` on the integer rows; or
    ex-post efficiency, which decomposes, in Fractions, only the outcomes
    with a trade cycle."""
    n, d = table.n, table.D

    def test(index, profile, first):
        flat = table.entry(index)
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        cycle = trade_cycle(rows, profile)
        # OE implies ex-post: a dominated component, swapped for its improvement, would dominate
        if cycle is None:
            return (), 1, 1
        if not ex_post:
            return [ViolationReport(
                axiom="oe", profile=profile, objects=cycle,
                detail="objects trade along the cycle",
            )], 1, 1
        matrix = tuple(tuple(Fraction(x, d) for x in row) for row in rows)
        witness = ex_post_inefficiency_witness(matrix, profile)
        if witness is None:
            return (), 1, 1
        weight, perm, cycle = witness
        return [ViolationReport(
            axiom="ex-post", profile=profile, component=perm,
            objects=tuple(perm[i] for i in cycle),
            lhs=weight, rhs=ZERO, relation=">",
            detail="component with positive weight admits a trading cycle "
                   f"among agents {','.join(str(i + 1) for i in cycle)}",
        )], 1, 1

    return test


_PROFILE_TESTS = {
    "neutral": _neutrality_test,
    "ete": _ete_test,
    "oe": lambda table: _efficiency_test(table, ex_post=False),
    "ex-post": lambda table: _efficiency_test(table, ex_post=True),
}


def check_neutrality(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Relabeling objects must relabel output shares: for every profile and
    every object permutation, the share of ``a`` at the original profile
    equals the share of the image of ``a`` at the relabeled profile.  Each
    assignment is read once, with its relabeling orbit.
    """
    return _profile_sweep(mech, "neutral", mode, 1, max_n)


def check_equal_treatment_of_equals(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Agents reporting identical preferences receive identical rows."""
    return _profile_sweep(mech, "ete", mode, 1, max_n)


def check_mechanism_ordinal_efficiency(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ordinal efficiency of every output over the full profile domain."""
    return _profile_sweep(mech, "oe", mode, 1, max_n)


def check_mechanism_ex_post_efficiency(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ex-post efficiency of every output over the full profile domain."""
    return _profile_sweep(mech, "ex-post", mode, 1, max_n)


def run_axiom_check(
    mech: Mechanism,
    axiom: str,
    *,
    mode: Optional[str] = None,
    jobs: int = 1,
    max_n: Optional[int] = None,
) -> CheckOutcome:
    """Dispatch one named axiom sweep (the CLI surface)."""
    if axiom in PAIR_AXIOMS:
        return _single(mech, axiom, mode, jobs, max_n)
    if axiom in PROFILE_AXIOMS:
        return _profile_sweep(mech, axiom, mode, jobs, max_n)
    raise ValueError(f"unknown axiom {axiom!r}")


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------


def _replay_pair(
    axiom: str, truth: Preference, old, new, report: ViolationReport
) -> bool:
    """Whether rows ``old`` (under report ``truth``) and ``new`` (under
    ``report.deviation``) reproduce the recorded witness of pair axiom
    ``axiom`` (one of :data:`PAIR_AXIOMS`) exactly.

    Ex-post and interim replay both end here; they differ only in where the
    two rows come from.  A swap witness must also name the adjacent swap
    from ``truth`` to the deviation and an object the axiom constrains.
    """
    if axiom == "sp":
        return fosd_failure(old, new, truth) == (report.rank, report.lhs, report.rhs)
    if axiom == "weak-sp":
        if new == old or not fosd(new, old, truth):
            return False
        rank, lhs, rhs = fosd_failure(old, new, truth)
        return (rank, rhs, lhs) == (report.rank, report.lhs, report.rhs)
    swap = report.swap
    swaps = dict(adjacent_swaps(truth))
    if swap is None or swaps.get(report.deviation) != swap or len(report.objects) != 1:
        return False
    x = report.objects[0]
    if (new[x], old[x]) != (report.lhs, report.rhs):
        return False
    if axiom == "em":
        if x == swap.raised:
            return new[x] < old[x]
        return x == swap.lowered and new[x] > old[x]
    region = truth[: swap.position - 1] if axiom == "ui" else truth[swap.position + 1:]
    return x in region and new[x] != old[x]


def reverify_violation(mech: Mechanism, report: ViolationReport) -> bool:
    """Recompute a report's values from the mechanism and confirm they
    reproduce the recorded witness exactly."""
    ax = report.axiom
    if ax in PAIR_AXIOMS:
        agent = report.agent
        old = mech.assignment(report.profile)[agent]
        dev_profile = insert_report(
            report.profile[:agent] + report.profile[agent + 1:], agent, report.deviation
        )
        new = mech.assignment(dev_profile)[agent]
        return _replay_pair(ax, report.profile[agent], old, new, report)
    if ax == "neutral":
        out = mech.assignment(report.profile)
        relabeled = mech.assignment(
            apply_permutation_profile(report.profile, report.sigma)
        )
        i, a = report.agent, report.objects[0]
        lhs = out[i][a]
        rhs = relabeled[i][report.sigma[a]]
        return (lhs, rhs) == (report.lhs, report.rhs) and lhs != rhs
    if ax == "ete":
        out = mech.assignment(report.profile)
        i, j, a = report.agent, report.agent2, report.objects[0]
        if report.profile[i] != report.profile[j]:
            return False
        return (out[i][a], out[j][a]) == (report.lhs, report.rhs) and out[i][a] != out[j][a]
    if ax == "oe":
        out = mech.assignment(report.profile)
        cyc = report.objects
        n = len(report.profile)
        for idx, a in enumerate(cyc):
            b = cyc[(idx + 1) % len(cyc)]
            if not any(
                prefers(report.profile[i], a, b) and out[i][b] > 0 for i in range(n)
            ):
                return False
        return True
    if ax == "ex-post":
        out = mech.assignment(report.profile)
        terms = dict((perm, w) for w, perm in birkhoff_decompose(out).terms)
        if terms.get(report.component) != report.lhs:
            return False
        return _improvement_cycle(report.component, report.profile) is not None
    raise ValueError(f"cannot replay axiom {ax!r}")
