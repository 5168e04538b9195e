"""Ex-post axiom verification engine.

Exhaustive sweeps over the full preference domain for strategy-proofness,
weak strategy-proofness, elementary monotonicity, upper/lower invariance,
neutrality, equal treatment of equals and ordinal and ex-post efficiency,
each named by one string and run by :func:`run_axiom_check` (or, several
pair axioms in one pass, :func:`run_pair_sweep`), plus pointwise
efficiency checks (:func:`trade_cycle`, :func:`ex_post_inefficiency_witness`)
with the exact LP oracle as an independent second route.

Sweeps enumerate lexicographically, so the first violation is the same on
every run and platform.  ``mode`` selects between collecting every
violation ("exhaustive", the default for n <= 3) and stopping at the
first one ("first", the default for larger n).

Every sweep reads the mechanism through an integer domain table
(:mod:`ramkit.domain`) over the mechanism's one denominator ``D`` and
compares shares as integers.  :func:`_domain_table` decides, from n alone,
whether a sweep's table is filled.  Up to :data:`~ramkit.core.SWEEP_CAP`
it is filled in either mode: an anonymous and neutral mechanism once per
multiset of the identity report's opponent reports, any other anonymous
one once per multiset of reports, both in this process, and any other at
every profile, by index range on up to ``jobs`` worker processes.  The
comparisons then run in this process, so the violation list is identical
for every parallelism degree.  A sweep never fills through the fact it
checks: equal treatment of equals never fills, so it stays a real check
for a mechanism declared anonymous, and neutrality fills an anonymous
mechanism once per multiset of reports, so it stays a real check for one
declared neutral.  Past the cap only first mode runs: it
evaluates each profile as it reads it and keeps nothing, and an
exhaustive sweep is refused before anything is evaluated.

The report-pair axioms share one column kernel, :class:`_PairSweep`,
with the interim checks of :mod:`ramkit.interim` (where strategy-proofness
is OBIC).  It reads each batch of cells once and compares every axiom
still checked over all of it; in first mode the batches grow, an axiom
stops being checked after the batch of its first violation, and the
counters of a cell-by-cell sweep follow from the cell and comparison
block where each axiom fell.  Violations are kept as integer records in
sweep order: a :class:`~ramkit.reports.Violations` builds a ViolationReport only when one
is read.  :func:`_replay_pair` is the one replay comparison for both
families.  Neutrality, equal treatment of equals and ordinal and ex-post
efficiency share one driver, :func:`_profile_sweep`, which runs one test
on the integer rows of each profile in turn; only ex-post efficiency
builds Fractions, for the outcomes it decomposes.  Neutrality of a table
filled by multiset (every anonymous mechanism) is first checked on its
columns, with :meth:`~ramkit.domain.DomainTable.follows_relabeling`: each
report's columns must be the identity report's relabeled, one comparison
per report (24 at n=4), evaluating nothing beyond the fill.  A table that
passes reports the verdict and counters of the orbit sweep by
arithmetic.  The orbit sweep runs on a table that fails, so its
violations are listed as before, and on every other table.  It reads one
representative per relabeling orbit, the profile in which agent 1
reports the identity order, so it visits (n!)**(n-1) profiles, not
(n!)**n.  It compares each member of the orbit, relabeled, with the
representative: as relabelings compose, that implies that every member
agrees with every relabeling of it, and its comparisons are counted as
that check's.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from fractions import Fraction
from operator import add, ge, gt, itemgetter, lt, ne
from typing import Iterable, Optional

from .core import (
    SWEEP_CAP,
    ZERO,
    AssignmentMatrix,
    CapExceededError,
    Preference,
    Profile,
    _check_pref_cap,
    _check_sweep_cap,
    adjacent_swaps,
    apply_permutation_profile,
    enumerate_preferences,
    fosd,
    fosd_failure,
    insert_report,
    prefers,
    relabeling_action,
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


def _domain_table(
    mech: Mechanism, mode, max_n, jobs, fill=True, relabel=True
) -> tuple[DomainTable, str]:
    """The sweep's table and resolved mode, after the cap checks.  Up to
    :data:`~ramkit.core.SWEEP_CAP` the table is filled on up to ``jobs``
    workers when ``fill`` is set, through neutrality when ``relabel`` is
    set (:meth:`DomainTable.fill`); past it the table is read unfilled, and
    an exhaustive sweep, which would read the whole domain, is refused."""
    instance = mech.instance
    n = instance.n
    _check_sweep_cap(n, max_n)
    mode = _resolve_mode(mode, n)
    if n > SWEEP_CAP and mode == "exhaustive":
        raise CapExceededError("exhaustive sweep", n, SWEEP_CAP, "mode='first'")
    table = DomainTable(mech, enumerate_preferences(instance, max_n=max_n))
    if n <= SWEEP_CAP and fill:
        table.fill(jobs, relabel=relabel)
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

#: Most cells in one batch of a ``mode="first"`` sweep.
_FIRST_BATCH_CAP = 256


class _PairSweep:
    """The pair axioms over report columns, one batch of cells at a time.

    A source gives, per agent, ``cells`` cells (an opponent profile, or for
    interim rows a single cell) and reads batches of consecutive cells as
    columns: ``read(agent, start, count)`` returns ``(cols, to_cells)``.
    With ``to_cells`` None, ``cols[r][x][k]`` is the agent's numerator of
    object ``x`` under report ``prefs[r]`` in cell ``start + k``, over the
    source's one denominator ``source.D``.  A table filled by multiset and
    read whole gives instead one entry per multiset id of the opponents'
    reports (2,600 at n=4, against 13,824 cells), and ``to_cells``, which
    gathers a list over the ids to the cells: every cell of an id compares
    alike, so the kernel compares ids and expands each failing id to its
    cells, its values repeated (:meth:`_record`).  The source decides
    which columns it gives; dense tables, interim rows and first-mode
    batches give cell columns.  Cells are numbered as in
    :class:`~ramkit.domain.DomainTable`.  Without a ``prior`` the reports
    name a cell's profile (``profile=``); with one, the source is interim
    rows and the reports carry ``truth=`` and ``prior=``.  ``labels`` (see
    :data:`_EX_POST_LABELS`) names the axioms and details.  A source whose
    ``anonymous`` is true gives every agent the same columns: a table
    filled by multiset, or the interim rows of an anonymous and neutral
    mechanism.

    Each batch is read once and every live axiom is compared over all of
    it.  A comparison slot (em raised or lowered, ui above or li below the
    pair, for each swap pair; sp and weak-sp per prefix, for each ordered
    report pair) compares two whole columns and scans only columns that
    differ.  Each axiom's failing cells become one
    :class:`~ramkit.reports.PairBatch` of integer arrays, in the order of
    (cell, report pair, slot): the order in which a cell-by-cell sweep
    finds them.  No ViolationReport is built.

    :meth:`run` alone knows the mode.  Exhaustive sweeps take one batch per
    agent; first mode takes batches of 1, 1, 2, 4, ... cells, up to
    :data:`_FIRST_BATCH_CAP`, drops an axiom after the batch in which it
    first fails, and keeps only its first violation.  On an anonymous
    source only agent 1 is swept: every other agent fails the same slots in
    the same cells.  The counters are those of a cell-by-cell sweep that
    stops checking an axiom right after the comparison block of its first
    violation, and stops after the cell in which the last axiom fell; they
    are computed from where each axiom fell, not tallied.
    """

    def __init__(
        self, prefs: list[Preference], axioms: tuple[str, ...], first_only: bool,
        labels: dict = _EX_POST_LABELS, prior=None, pairs: Optional[list] = None,
    ):
        self.prefs = prefs
        self.m = m = len(prefs)
        self.n = n = len(prefs[0])
        self.first_only = first_only
        self.labels = labels
        self.prior = prior
        self.found: dict[str, list[PairBatch]] = {ax: [] for ax in axioms}
        self.live = set(axioms)  # axioms still being checked
        self._pairs = pairs = _swap_pairs(prefs) if pairs is None else pairs
        self._singles = tuple((x,) for x in range(n))  # objects=(x,)
        # Per axiom: the modulus of its violation keys (see _record), the
        # key offsets in one comparison block, and the comparisons one cell
        # makes before each block and, last, in all.  sp and weak-sp have
        # one block per ordered report pair, of one comparison (none for
        # t == v); the swap axioms one per swap pair p.
        fosd_blocks = (m * m, 1, [t != v for t in range(m) for v in range(m)])
        units = {
            "sp": fosd_blocks, "weak-sp": fosd_blocks,
            "em": (len(pairs) * n, n, [2] * len(pairs)),
            "ui": (len(pairs) * n, n, [len(above) for *_, above, _ in pairs]),
            "li": (len(pairs) * n, n, [len(below) for *_, below in pairs]),
        }
        self._blocks = {
            ax: (modulus, width, list(itertools.accumulate(per_block, initial=0)))
            for ax, (modulus, width, per_block) in units.items() if ax in axioms
        }

    def run(self, source) -> dict[str, CheckOutcome]:
        """Sweep the agents of ``source`` in order and return each axiom's
        outcome under its label."""
        first_only, cells, agents = self.first_only, source.cells, source.agents
        fell: dict[str, tuple[int, int]] = {}  # axiom -> cells before its first violation, block
        for a, agent in enumerate(agents[:1] if source.anonymous else agents):
            start = 0
            while start < cells and self.live:
                count = min(max(start, 1), _FIRST_BATCH_CAP, cells - start) if first_only else cells
                failed = self._batch(*source.read(agent, start, count), agent, start)
                if first_only:
                    for ax, (cell, block) in failed.items():
                        fell[ax] = (a * cells + cell, block)
                        self.live.discard(ax)
                start += count
        if source.anonymous and not first_only:
            for ax, batches in self.found.items():  # copies sharing the records
                self.found[ax] = [
                    batch._replace(agent=agent) for agent in agents for batch in batches
                ]
        visited = len(agents) * cells
        if fell and not self.live:
            visited = 1 + max(c for c, _ in fell.values())
        comparisons = 0
        for ax, (_, _, through) in self._blocks.items():
            c, b = fell.get(ax, (visited, -1))  # an axiom that never fell: every visited cell
            comparisons += through[-1] * c + through[b + 1]
        outcomes = {}
        for ax, batches in self.found.items():
            if first_only and batches:  # keep the first violation
                batches = [batches[0].first()]
            name = self.labels[ax][0]
            outcomes[name] = CheckOutcome(
                axiom=name,
                satisfied=not batches,
                violations=Violations(name, self.prefs, batches, source.D, self.prior),
                profiles_checked=visited * self.m,
                comparisons=comparisons,
            )
        return outcomes

    def _batch(self, cols, to_cells, agent: int, start: int) -> dict[str, tuple[int, int]]:
        """Compare every live axiom over ``cols``, read from cells ``start``
        on, and record their violations; for each axiom that failed, the
        cell and comparison block of its first violation.

        Cell columns (``to_cells`` None) have one entry per cell.
        Multiset-id columns have one per id, and ``to_cells`` gathers a
        list over the ids to the cells: :meth:`_record` expands each
        failing id to its cells."""
        K = len(cols[0][0])
        # per axiom, groups of failing column entries sharing a slot; see _record
        groups: dict[str, list] = {ax: [] for ax in self.live}
        self._compare_fosd(cols, groups)
        self._compare_swaps(cols, groups)
        del cols  # the groups hold their values; free the batch before recording
        failed = {}
        for ax, found in groups.items():
            if found:
                cell, offset = self._record(ax, found, K, to_cells, agent, start)
                failed[ax] = (cell, offset // self._blocks[ax][1])
        return failed

    def _compare_fosd(self, cols, groups: dict) -> None:
        """sp and weak-sp, per ordered report pair (truth ``t``, deviation
        ``v``), on prefix columns along the truth's order."""
        live, labels = self.live, self.labels
        sp, weak = "sp" in live, "weak-sp" in live
        if not (sp or weak):
            return
        m, n = self.m, self.n
        entries = range(len(cols[0][0]))
        for t, truth in enumerate(self.prefs):
            mine = _prefix_columns(cols[t], truth)
            for v in range(m):
                if v == t:
                    continue
                theirs = _prefix_columns(cols[v], truth, None if sp else mine)
                if len(theirs) < n:
                    continue  # only weak-sp is live, and no entry can fail it
                ranks: dict[int, int] = {}  # entry -> first prefix it fails
                for j in range(n):
                    if mine[j] != theirs[j]:
                        for k in itertools.compress(entries, map(lt, mine[j], theirs[j])):
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

    def _compare_swaps(self, cols, groups: dict) -> None:
        """em, ui and li, per adjacent-swap pair of reports."""
        live, labels = self.live, self.labels
        swap_axioms = [ax for ax in ("em", "ui", "li") if ax in live]
        if not swap_axioms:
            return
        entries = range(len(cols[0][0]))
        for p, (r, s, info, above, below) in enumerate(self._pairs):
            old, new = cols[r], cols[s]
            for ax in swap_axioms:
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
                for slot, x, op, relation, detail in slots:
                    if new[x] == old[x]:
                        continue
                    mask = list(map(op, new[x], old[x]))
                    failing = list(itertools.compress(entries, mask))
                    if failing:
                        groups[ax].append((
                            p * self.n + slot, r, s, info, self._singles[x], relation,
                            detail, failing, None,
                            list(itertools.compress(new[x], mask)),
                            list(itertools.compress(old[x], mask)),
                        ))

    def _record(self, ax, groups, K, to_cells, agent, start) -> tuple[int, int]:
        """Append a batch's violation groups of ``ax`` as one
        :class:`~ramkit.reports.PairBatch` in sweep order, and return the
        cell and slot offset of its first entry.

        A group is ``(offset, r, s, swap, objects, relation, detail,
        entries, ranks, lhs, rhs)``: the column entries, among ``K``,
        failing the slot ``offset`` of the move from report ``prefs[r]``
        to ``prefs[s]``, with per-entry lists of rank (or None) and
        numerators.  The groups' entries go into one bucket per column
        entry, in order of offset; the buckets, gathered to the cells by
        ``to_cells`` over multiset ids, read in cell order (from ``start``)
        give the order of (cell, report pair, slot) in which a
        cell-by-cell sweep finds them.
        """
        chain, repeat = itertools.chain.from_iterable, itertools.repeat
        groups.sort(key=itemgetter(0))
        sizes = [len(group[7]) for group in groups]
        buckets: list[list[int]] = [[] for _ in range(K)]
        flat = 0  # the entries, numbered across the groups
        for group, size in zip(groups, sizes):
            # deque(..., 0) runs the appends and keeps nothing
            deque(map(list.append, map(buckets.__getitem__, group[7]),
                      range(flat, flat + size)), 0)
            flat += size
        per_cell = buckets if to_cells is None else to_cells(buckets)
        picks = list(chain(per_cell))  # the flat entry numbers, in sweep order

        def gather(values) -> list:
            values = list(values)
            return list(map(values.__getitem__, picks))

        batch = PairBatch(
            agent, [group[1:7] for group in groups],
            array("q", gather(chain(map(repeat, range(len(groups)), sizes)))),
            array("q", chain(map(repeat, range(start, start + len(per_cell)), map(len, per_cell)))),
            None if groups[0][8] is None else array("q", gather(chain(g[8] for g in groups))),
            _pack(gather(chain(g[9] for g in groups))),
            _pack(gather(chain(g[10] for g in groups))),
        )
        self.found[ax].append(batch)
        return batch.cells[0], groups[batch.group[0]][0]


def _fosd_group(t: int, v: int, m: int, relation: str, detail: str, failing) -> tuple:
    """A :meth:`_PairSweep._record` group of sp or weak-sp violations of the
    move from report ``t`` to ``v``, from ``(entry, rank, lhs, rhs)``
    rows."""
    entries, ranks, lhs, rhs = zip(*failing)
    return (t * m + v, t, v, None, (), relation, detail, entries, ranks, lhs, rhs)


def run_pair_sweep(
    mech: Mechanism,
    axioms: Iterable[str],
    *,
    mode: Optional[str] = None,
    jobs: int = 1,
    max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Sweep several report-pair axioms in one pass over the domain.

    The bundled axioms read the table of :func:`_domain_table`, which
    decides whether it is filled, as report columns through one
    :class:`_PairSweep`: one batch per agent in exhaustive mode, and in
    first mode growing batches of cells until every axiom has a violation.
    A table filled by multiset gives every agent the same columns, so only
    agent 1's are read; in exhaustive mode they are read over the multiset
    ids of the opponents' reports, and only failing ids are expanded to
    their cells.  The table is dropped when the sweep returns.

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


def ex_post_inefficiency_witness(
    assignment: AssignmentMatrix, profile: Profile
) -> Optional[tuple[Fraction, tuple[int, ...], tuple[int, ...]]]:
    """(weight, component, agent cycle) for the first Pareto-inefficient
    component of the Birkhoff decomposition, or None when every component
    is Pareto efficient (the pointwise ex-post check)."""
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
    at its first violation, and so does the sweep.  Neutrality of a table
    filled by multiset whose columns follow the relabeling returns at once,
    with the counters the sweep would report: every profile read, each
    compared with every relabeling.  Otherwise neutrality is handed only
    the first ``(n!)**(n-1)`` profiles, those in which agent 1 reports the
    identity order: each relabeling orbit has exactly one of them."""
    # ETE reads only the profiles with two equal reports (a quarter of
    # them at n=4), so it evaluates those as it reads them, with no fill;
    # neutrality fills without reading rows through neutrality
    table, mode = _domain_table(
        mech, mode, max_n, jobs, fill=axiom != "ete", relabel=axiom != "neutral"
    )
    profiles = itertools.product(table.prefs, repeat=table.n)
    if axiom == "neutral":
        if table.anonymous and table.follows_relabeling():
            # the counters of the orbit sweep, which would read every profile
            return CheckOutcome(axiom, True, profiles_checked=table.size,
                                comparisons=table.size * table.m * table.n ** 2)
        profiles = itertools.islice(profiles, table.m ** (table.n - 1))
    test = _PROFILE_TESTS[axiom](table)
    first = mode == "first"
    violations: list[ViolationReport] = []
    read = comparisons = 0
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
    profile in which agent 1 reports the identity order: no other
    relabeling fixes agent 1's report, so the orbit's n! members are
    distinct, and each is read once.  An orbit passes when each member,
    relabeled, agrees with the representative; only a failing one compares
    each member, by index, with each relabeling, to list its violations.
    A table filled by multiset reaches this test only when its columns do
    not follow the relabeling, so that at least one orbit fails.  The
    relabelings are the reports themselves, in order, acting on report
    indices as in :mod:`ramkit.core`."""
    n, prefs, D = table.n, table.prefs, table.D
    sigmas, act = prefs, relabeling_action(prefs)
    # relabel[p][s]: the index of report p relabeled by sigmas[s];
    # steps[j][d]: the part of a profile's index that agent j's report prefs[d]
    # makes, and shifts[j][p][s] that of report p relabeled by sigmas[s];
    # moved[s]: a row's shares of sigmas[s][a], agent by agent, object by object
    relabel = dict(zip(prefs, zip(*(act(sigma, range(table.m)) for sigma in sigmas))))
    steps = [[d * table.stride(j) for d in range(table.m)] for j in range(n)]
    shifts = [{p: list(map(step.__getitem__, r)) for p, r in relabel.items()} for step in steps]
    moved = [itemgetter(*(i * n + s[a] for i in range(n) for a in range(n))) for s in sigmas]

    def images(profile):  # the index of the profile relabeled by each of sigmas
        return list(map(sum, zip(*map(dict.__getitem__, shifts, profile))))

    def test(index, profile, first):
        at = images(profile)  # the identity's image first
        rows = {k: table.entry(k) for k in sorted(at)}
        rep = moved[0](rows[index])
        if all(moved[t](rows[k]) == rep for t, k in enumerate(at)):
            return (), len(rows), len(rows) * len(sigmas) * n * n
        found = []
        for b, (base, row) in enumerate(rows.items()):
            member, out = table.profile(base), moved[0](row)
            for s, (sigma, partner) in enumerate(zip(sigmas, images(member))):
                relabeled = moved[s](rows[partner])
                if relabeled == out:
                    continue
                for k in itertools.compress(range(n * n), map(ne, out, relabeled)):
                    found.append(ViolationReport(
                        axiom="neutral", agent=k // n, profile=member, sigma=sigma,
                        objects=(k % n,), lhs=Fraction(out[k], D), rhs=Fraction(relabeled[k], D),
                        relation="!=", detail="share does not follow the relabeling",
                    ))
                    if first:  # the comparisons made up to this one
                        return found, len(rows), (b * len(sigmas) + s) * n * n + k + 1
        return found, len(rows), len(rows) * len(sigmas) * n * n

    return test


def _ete_test(table: DomainTable):
    """Equal treatment of equals on the rows of agents with equal reports;
    a profile whose reports all differ is not evaluated."""
    n, d, evaluate = table.n, table.D, table.mech.scaled_assignment

    def test(index, profile, first):
        found, made, rows = [], 0, None
        for i, j in itertools.combinations(range(n), 2):
            if profile[i] != profile[j]:
                continue
            made += 1
            if rows is None:
                rows = evaluate(profile)
            mine, theirs = rows[i], rows[j]
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


def check_mechanism_ordinal_efficiency(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ordinal efficiency of every output over the full profile domain."""
    return _profile_sweep(mech, "oe", mode, 1, max_n)


def run_axiom_check(
    mech: Mechanism,
    axiom: str,
    *,
    mode: Optional[str] = None,
    jobs: int = 1,
    max_n: Optional[int] = None,
) -> CheckOutcome:
    """Sweep one named axiom over the profile domain (the CLI surface).

    Pair axioms, one agent varying her report against fixed opponents
    (several run in one pass by :func:`run_pair_sweep`): ``sp``,
    truth-telling FOSDs every deviation; ``weak-sp``, no deviation strictly
    FOSDs it; ``em``, raising an object one rank weakly raises its share and
    weakly lowers the displaced object's; ``ui`` / ``li``, an adjacent swap
    leaves the shares of the objects above / below the pair unchanged.

    Profile axioms, one test per profile: ``neutral``, relabeling the
    objects relabels the shares (the share of ``a`` at a profile equals that
    of the image of ``a`` at the relabeled profile); ``ete``, equal reports
    get equal rows; ``oe`` / ``ex-post``, every output is ordinally /
    ex-post efficient.
    """
    if axiom in PAIR_AXIOMS:
        return run_pair_sweep(mech, (axiom,), mode=mode, jobs=jobs, max_n=max_n)[axiom]
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
