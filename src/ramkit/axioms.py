"""Ex-post axiom verification engine.

Exhaustive sweeps over the full preference domain for strategy-proofness,
weak strategy-proofness, elementary monotonicity, neutrality, upper/lower
invariance and equal treatment of equals, plus pointwise ordinal- and
ex-post-efficiency checks with the exact LP oracle as an independent
second route.

Sweeps enumerate lexicographically, so the first violation is the same on
every run and platform.  ``mode`` selects between collecting every
violation ("exhaustive", the default for n <= 3) and stopping at the
first one ("first", the default for larger n; always sequential).

The report-pair sweep evaluates the mechanism once per profile into a
dense integer domain table (:mod:`ramkit.domain`) over one table-wide
denominator, and compares shares as integers.  In exhaustive mode the
table is built once, by index range on up to ``jobs`` worker processes,
and the comparisons then run in this process, so the violation list is
identical for every parallelism degree.

One kernel, :class:`_PairSweep`, makes the pair comparisons for this
sweep and for the interim checks of :mod:`ramkit.interim` (where
strategy-proofness is OBIC).  It compares **columns**: a batch holds one
agent's numerators ``cols[r][x]`` of object ``x`` under report ``r`` for
K consecutive cells, all over one denominator, and each comparison slot
compares two whole columns before looking at single cells.  The
exhaustive sweep feeds one batch per agent with all ``(n!)**(n-1)``
opponent profiles, and interim checks one batch per agent with a single
cell of interim rows.  ``mode="first"`` feeds batches of growing size and
sweeps the batch in which an axiom first fails again cell by cell, so
its early exit and counters are those of a cell-by-cell sweep.
:func:`_replay_pair` is the one replay comparison for both families;
interim replay feeds it Fraction rows only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, ge, gt, lt, mul, ne
from typing import Iterable, Optional

from .core import (
    ZERO,
    AssignmentMatrix,
    Instance,
    Preference,
    Profile,
    SwapInfo,
    _check_sweep_cap,
    adjacent_swaps,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
    fosd,
    fosd_failure,
    insert_report,
    prefers,
    validate_assignment,
)
from .decomp import _improvement_cycle, birkhoff_decompose
from .domain import DomainTable
from .mechanisms import Mechanism
from .reports import CheckOutcome, ViolationReport, pair_report
from .simplex import solve_max

PAIR_AXIOMS = ("sp", "weak-sp", "em", "ui", "li")
PROFILE_AXIOMS = ("neutral", "ete", "oe", "ex-post")


def _resolve_mode(mode: Optional[str], n: int) -> str:
    if mode is None:
        return "exhaustive" if n <= 3 else "first"
    if mode not in ("exhaustive", "first"):
        raise ValueError(f"mode must be 'exhaustive' or 'first', got {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# report-pair sweeps: one agent varies her report against fixed opponents
# ---------------------------------------------------------------------------


def _strict_dominance_rank(
    winner, loser, pref: Preference
) -> Optional[tuple[int, Fraction, Fraction]]:
    """First prefix where ``winner`` strictly exceeds ``loser`` (both known
    to satisfy weak dominance of winner over loser)."""
    lhs = rhs = 0
    for rank, a in enumerate(pref, start=1):
        lhs += winner[a]
        rhs += loser[a]
        if lhs > rhs:
            return rank, lhs, rhs
    return None


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
    columns: ``columns(agent, start, count)`` returns ``(cols, common)``
    with ``cols[r][x][k]`` the agent's numerator of object ``x`` under
    report ``prefs[r]`` in cell ``start + k``, all over ``common``.  Its
    ``opponents(cell)`` gives the cell's opponent reports; a source whose
    ``opponents`` is None (interim rows) makes reports with ``truth=`` and
    ``prior=`` instead of ``profile=``.  ``labels`` (see
    :data:`_EX_POST_LABELS`) names the axioms and details.

    Each comparison slot (em raised or lowered, ui above or li below the
    pair, for each swap pair; sp and weak-sp per prefix, for each ordered
    report pair) first compares two whole columns; only columns that
    differ are scanned for the cells that fail.  The failing cells of a
    slot form one group.  At the end of the batch the groups become
    reports, with interned Fractions and one profile per (cell, report),
    ordered by an integer key that orders like (cell, report pair, slot):
    the order in which a cell-by-cell sweep records them.

    Exhaustive sweeps take one batch per agent.  With ``first_only`` the
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
        self.found: dict[str, list[ViolationReport]] = {ax: [] for ax in axioms}
        self.live = set(axioms)  # axioms still being checked
        self.rows_read = 0
        self.comparisons = 0
        self._pairs = _swap_pairs(prefs)
        self._values: dict[int, _Fractions] = {}  # by denominator
        self._singles = tuple((x,) for x in range(n))  # objects=(x,)

    def run(self, source) -> dict[str, CheckOutcome]:
        """Sweep the agents of ``source`` in order and return each axiom's
        outcome under its label."""
        for agent in source.agents:
            if self.first_only:
                self._first_batches(source, agent)
            else:
                self._batch(source, agent, 0, source.cells)
            if not self.live:
                break
        return {
            self.labels[ax][0]: CheckOutcome(
                axiom=self.labels[ax][0],
                satisfied=not found,
                violations=tuple(found[:1] if self.first_only else found),
                profiles_checked=self.rows_read,
                comparisons=self.comparisons,
            )
            for ax, found in self.found.items()
        }

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
        cols, common = source.columns(agent, start, count)
        # per axiom, groups of failing cells sharing a slot; see _record
        groups: dict[str, list] = {ax: [] for ax in self.live}
        comparisons = 0
        for compare in (self._compare_fosd, self._compare_swaps):
            made = compare(cols, count, groups)
            if made is None:
                return False
            comparisons += made
        del cols  # the groups hold their values; free the batch before reporting
        self.comparisons += comparisons
        self.rows_read += count * self.m
        shared: list[dict[int, Profile]] = [{} for _ in range(self.m)]  # by report
        for ax, found in groups.items():
            if found:
                modulus = self.m ** 2 if ax in _FOSD_AXIOMS else len(self._pairs) * self.n
                self._record(ax, found, modulus, source, agent, start, common, shared)
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

    def _compare_fosd(self, cols, K: int, groups: dict) -> Optional[int]:
        """sp and weak-sp, per ordered report pair (truth ``t``, deviation
        ``v``), on prefix columns along the truth's order; the number of
        comparisons, or None when a probe found a violation."""
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
                    groups["sp"].append(_fosd_group(t, v, m, "<", labels["sp"][1], failing))
                if weak:
                    dominated = [
                        (k, rank, rhs, lhs) for k, rank, lhs, rhs in failing
                        if all(mine[i][k] <= theirs[i][k] for i in range(n))
                    ]
                    if dominated:
                        groups["weak-sp"].append(_fosd_group(
                            t, v, m, ">", labels["weak-sp"][1], dominated,
                        ))
                if self.first_only and not self._settle(groups, _FOSD_AXIOMS, K):
                    return None
        return comparisons

    def _compare_swaps(self, cols, K: int, groups: dict) -> Optional[int]:
        """em, ui and li, per adjacent-swap pair of reports; the number of
        comparisons, or None when a probe found a violation."""
        live, labels = self.live, self.labels
        em, ui, li = "em" in live, "ui" in live, "li" in live
        cells = range(K)
        none = itertools.repeat(None)
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
                    failing = list(itertools.compress(cells, map(op, new[x], old[x])))
                    if failing:
                        groups[ax].append((
                            p * self.n + slot, r, s, info, self._singles[x], relation,
                            detail, failing, none,
                            list(map(new[x].__getitem__, failing)),
                            list(map(old[x].__getitem__, failing)),
                        ))
            if self.first_only:
                if not self._settle(groups, ("em", "ui", "li"), K):
                    return None
                em, ui, li = "em" in live, "ui" in live, "li" in live
        return comparisons

    def _record(
        self, ax, groups, modulus, source, agent, start, common, shared
    ) -> None:
        """Append the reports of a batch's violation groups of ``ax``.

        A group is ``(offset, r, s, swap, objects, relation, detail, cells,
        ranks, lhs, rhs)``: cells (relative to ``start``) failing the slot
        ``offset`` of the move from report ``prefs[r]`` to ``prefs[s]``,
        with per-cell iterables of rank and numerators.  A report's key
        ``cell * modulus + offset`` orders like (cell, report pair, slot),
        so the reports are appended in key order.  Ex-post reports of one
        cell and report share one profile, through ``shared``.
        """
        prefs, prior = self.prefs, self.prior
        name = self.labels[ax][0]
        values = self._values.get(common)
        if values is None:
            values = self._values[common] = _Fractions(common)
        opponents = source.opponents
        repeat = itertools.repeat
        keys: list[int] = []
        reports: list[ViolationReport] = []
        for offset, r, s, info, objects, relation, detail, cells, ranks, lhs, rhs in groups:
            keys.extend(map(add, map(mul, cells, repeat(modulus)), repeat(offset)))
            if opponents is None:
                profiles, truths = repeat(None), repeat(prefs[r])
            else:
                have = shared[r]
                for k in cells:
                    if k not in have:
                        opp = opponents(start + k)
                        have[k] = opp[:agent] + (prefs[r],) + opp[agent:]
                profiles, truths = map(have.__getitem__, cells), repeat(None)
            reports.extend(map(
                pair_report, repeat(name), repeat(agent), profiles, truths,
                repeat(prefs[s]), repeat(info), repeat(objects), ranks,
                map(values.__getitem__, lhs), map(values.__getitem__, rhs),
                repeat(relation), repeat(prior), repeat(detail),
            ))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.found[ax].extend(map(reports.__getitem__, order))


def _fosd_group(t: int, v: int, m: int, relation: str, detail: str, failing) -> tuple:
    """A :meth:`_PairSweep._record` group of sp or weak-sp violations of the
    move from report ``t`` to ``v``, from ``(cell, rank, lhs, rhs)`` rows."""
    cells, ranks, lhs, rhs = zip(*failing)
    return (t * m + v, t, v, None, (), relation, detail, cells, ranks, lhs, rhs)


class _Fractions(dict):
    """Interned ``Fraction(v, d)`` by numerator ``v`` over one ``d``."""

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, v: int) -> Fraction:
        f = self[v] = Fraction(v, self.d)
        return f


def run_pair_sweep(
    mech: Mechanism,
    axioms: Iterable[str],
    *,
    mode: Optional[str] = None,
    jobs: int = 1,
    max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Sweep several report-pair axioms in one pass over the domain.

    The mechanism is evaluated once per profile into a dense integer
    :class:`~ramkit.domain.DomainTable`, which every bundled axiom then
    reads as report columns.  In exhaustive mode the table is built first,
    by index range on up to ``jobs`` worker processes, and then swept in
    this process, one batch of columns per agent.  ``mode="first"`` is
    always serial: it fills the table lazily as growing batches of cells
    are read and stops once every axiom has a violation.  The table is
    dropped when the sweep returns.

    ``profiles_checked`` counts rows read (the agent's report varies over
    all n! preferences in each cell), not distinct evaluations.
    """
    instance = mech.instance
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in PAIR_AXIOMS:
            raise ValueError(f"unknown pair axiom {ax!r}")
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    table = DomainTable(mech, enumerate_preferences(instance, max_n=max_n))
    if mode == "exhaustive":
        table.fill(jobs)
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
# whole-profile sweeps
# ---------------------------------------------------------------------------


def check_neutrality(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Relabeling objects must relabel output shares: for every profile and
    every object permutation, the share of ``a`` at the original profile
    equals the share of the image of ``a`` at the relabeled profile.

    Profiles are grouped into relabeling orbits so each assignment is
    evaluated once.
    """
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    mode = _resolve_mode(mode, n)
    sigmas = [tuple(s) for s in itertools.permutations(range(n))]
    violations: list[ViolationReport] = []
    evaluations = 0
    comparisons = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        images = {
            sigma: apply_permutation_profile(profile, sigma) for sigma in sigmas
        }
        if min(images.values()) < profile:
            continue  # handled at the orbit's lexicographic minimum
        table = {}
        for image in images.values():
            if image not in table:
                table[image] = mech.assignment(image)
                evaluations += 1
        members = sorted(table)
        for base in members:
            out = table[base]
            for sigma in sigmas:
                relabeled = table[apply_permutation_profile(base, sigma)]
                for i in range(n):
                    for a in range(n):
                        comparisons += 1
                        if out[i][a] != relabeled[i][sigma[a]]:
                            violations.append(ViolationReport(
                                axiom="neutral", agent=i, profile=base,
                                sigma=sigma, objects=(a,),
                                lhs=out[i][a], rhs=relabeled[i][sigma[a]],
                                relation="!=",
                                detail="share does not follow the relabeling",
                            ))
                            if mode == "first":
                                return CheckOutcome(
                                    axiom="neutral", satisfied=False,
                                    violations=tuple(violations),
                                    profiles_checked=evaluations,
                                    comparisons=comparisons,
                                )
    return CheckOutcome(
        axiom="neutral", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=comparisons,
    )


def check_equal_treatment_of_equals(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Agents reporting identical preferences receive identical rows."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    comparisons = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        for i in range(instance.n):
            for j in range(i + 1, instance.n):
                if profile[i] != profile[j]:
                    continue
                comparisons += 1
                if out[i] != out[j]:
                    a = next(x for x in range(instance.n) if out[i][x] != out[j][x])
                    violations.append(ViolationReport(
                        axiom="ete", agent=i, agent2=j, profile=profile,
                        objects=(a,), lhs=out[i][a], rhs=out[j][a], relation="!=",
                        detail="equal reports received unequal rows",
                    ))
                    if mode == "first":
                        return CheckOutcome(
                            axiom="ete", satisfied=False,
                            violations=tuple(violations),
                            profiles_checked=evaluations, comparisons=comparisons,
                        )
    return CheckOutcome(
        axiom="ete", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# efficiency: pointwise operations and their mechanism sweeps
# ---------------------------------------------------------------------------


def trade_cycle(assignment: AssignmentMatrix, profile: Profile) -> Optional[tuple[int, ...]]:
    """Cycle of the object relation "some agent prefers x to y while holding
    a positive share of y", or None when the relation is acyclic.

    Acyclicity of this relation characterizes ordinal efficiency, giving a
    cheap production check; the LP oracle stays available as an independent
    second route.
    """
    n = len(profile)
    edge = [[False] * n for _ in range(n)]
    for i in range(n):
        pref = profile[i]
        holds = [a for a in range(n) if assignment[i][a] > 0]
        for b in holds:
            for a in pref[: pref.index(b)]:
                edge[a][b] = True
    color = [0] * n
    stack: list[int] = []

    def dfs(x: int) -> Optional[tuple[int, ...]]:
        color[x] = 1
        stack.append(x)
        for y in range(n):
            if edge[x][y]:
                if color[y] == 1:
                    return tuple(stack[stack.index(y):])
                if color[y] == 0:
                    found = dfs(y)
                    if found is not None:
                        return found
        stack.pop()
        color[x] = 2
        return None

    for x in range(n):
        if color[x] == 0:
            cycle = dfs(x)
            if cycle is not None:
                return cycle
    return None


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
    _check_sweep_cap(n, max_n if max_n is not None else 6)

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


def check_mechanism_ordinal_efficiency(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ordinal efficiency of every output over the full profile domain."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        cycle = trade_cycle(out, profile)
        if cycle is not None:
            violations.append(ViolationReport(
                axiom="oe", profile=profile, objects=cycle,
                detail="objects trade along the cycle",
            ))
            if mode == "first":
                break
    return CheckOutcome(
        axiom="oe", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=evaluations,
    )


def check_mechanism_ex_post_efficiency(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ex-post efficiency of every output over the full profile domain."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        witness = ex_post_inefficiency_witness(out, profile)
        if witness is not None:
            weight, perm, cycle = witness
            violations.append(ViolationReport(
                axiom="ex-post", profile=profile, component=perm,
                objects=tuple(perm[i] for i in cycle),
                lhs=weight, rhs=ZERO, relation=">",
                detail="component with positive weight admits a trading cycle "
                       f"among agents {','.join(str(i + 1) for i in cycle)}",
            ))
            if mode == "first":
                break
    return CheckOutcome(
        axiom="ex-post", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=evaluations,
    )


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
    if axiom == "neutral":
        return check_neutrality(mech, mode=mode, max_n=max_n)
    if axiom == "ete":
        return check_equal_treatment_of_equals(mech, mode=mode, max_n=max_n)
    if axiom == "oe":
        return check_mechanism_ordinal_efficiency(mech, mode=mode, max_n=max_n)
    if axiom == "ex-post":
        return check_mechanism_ex_post_efficiency(mech, mode=mode, max_n=max_n)
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
        return _strict_dominance_rank(new, old, truth) == (
            report.rank, report.lhs, report.rhs
        )
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
