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
dense integer domain table (:mod:`ramkit.domain`) and compares shares as
integers.  In exhaustive mode the table is built once, by index range on
up to ``jobs`` worker processes, and then swept serially, so the
violation list is identical for every parallelism degree.

One kernel, :class:`_PairSweep`, makes the pair comparisons both for this
sweep (a cell of integer rows per agent and opponents) and for the interim
checks of :mod:`ramkit.interim` (a cell of interim rows per agent, where
strategy-proofness is OBIC).  :func:`_replay_pair` is the one replay
comparison for both; interim replay feeds it Fraction rows only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from operator import itemgetter
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

    Entries are ``(r, s, swap, above, below, pick_above, pick_below)``:
    ``prefs[s]`` is ``prefs[r]`` with the pair ``swap`` exchanged,
    ``prefs[r] < prefs[s]``, ``above`` and ``below`` are the objects
    ``prefs[r]`` ranks above and below the pair, and ``pick_*`` reads those
    shares from a row in one call (None when there are none).  The swap
    conditions are symmetric, so one order suffices.
    """
    index = {p: k for k, p in enumerate(prefs)}
    pairs = []
    for r, base in enumerate(prefs):
        for swapped, info in adjacent_swaps(base):
            if swapped > base:
                above = base[: info.position - 1]
                below = base[info.position + 1:]
                pairs.append((
                    r, index[swapped], info, above, below,
                    itemgetter(*above) if above else None,
                    itemgetter(*below) if below else None,
                ))
    return pairs


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


class _PairSweep:
    """The pair axioms over a sequence of cells, one cell at a time.

    A cell is one agent's rows under each report of ``prefs``, as integers
    over one common denominator, so every comparison is an integer
    comparison: per (agent, opponents) from a :class:`DomainTable`, or an
    agent's interim rows.  Fractions are built only for recorded
    violations, and interned.  ``labels`` (see :data:`_EX_POST_LABELS`)
    names the axioms and details; a cell with a profile (ex-post) records
    ``profile=``, one without (interim) ``truth=`` and ``prior=``.

    Comparisons inside a cell run in a fixed order, so violation lists and
    counters do not depend on how the rows were produced.  With
    ``first_only`` an axiom stops being checked right after the comparison
    block that found its first violation, the sweep ends after the cell in
    which the last axiom fell, and each outcome keeps its first violation.
    """

    def __init__(
        self, prefs: list[Preference], axioms: tuple[str, ...], first_only: bool,
        labels: dict = _EX_POST_LABELS, prior=None,
    ):
        self.prefs = prefs
        self.first_only = first_only
        self.labels = labels
        self.prior = prior
        self.found: dict[str, list[ViolationReport]] = {ax: [] for ax in axioms}
        self.live = set(axioms)  # axioms still being checked
        self.rows_read = 0
        self.comparisons = 0
        self._pairs = _swap_pairs(prefs)
        self._values: dict[int, dict[int, Fraction]] = {}  # D -> {v: v/D}
        self._singles = tuple((x,) for x in range(len(prefs[0])))  # objects=(x,)

    def run(self, cells: Iterable[tuple]) -> dict[str, CheckOutcome]:
        """Sweep ``(agent, rows, common, profile_at)`` cells in order, where
        ``profile_at`` is None or returns a profile of the cell, and return
        each axiom's outcome under its label."""
        for agent, rows, common, profile_at in cells:
            self._cell(agent, rows, common, profile_at)
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

    def _cell(self, agent: int, rows: list, common: int, profile_at) -> None:
        prefs = self.prefs
        self.rows_read += len(rows)
        live = self.live
        found = self.found
        first_only = self.first_only
        labels = self.labels
        prior = self.prior
        singles = self._singles
        values = self._values.setdefault(common, {})
        profiles: list[Optional[Profile]] = [None] * len(prefs)  # by report index
        around: list[tuple] = []  # reports of the agents before and after

        def frac(value: int) -> Fraction:
            f = values.get(value)
            if f is None:
                f = values[value] = Fraction(value, common)
            return f

        def profile_of(r: int) -> Profile:
            profile = profiles[r]
            if profile is None:
                if not around:
                    at = profile_at()
                    around.extend((at[:agent], at[agent + 1:]))
                profile = profiles[r] = around[0] + (prefs[r],) + around[1]
            return profile

        def record(ax, r, v, swap, objects, rank, lhs, rhs, relation, detail=1):
            """Report that moving from report ``r`` to ``v`` violates ``ax``;
            ``detail`` indexes the detail string in the axiom's label."""
            label = labels[ax]
            if profile_at is None:
                profile, truth = None, prefs[r]
            else:
                profile, truth = profile_of(r), None
            found[ax].append(pair_report(
                label[0], agent, profile, truth, prefs[v], swap, objects, rank,
                frac(lhs), frac(rhs), relation, prior, label[detail],
            ))
            if first_only:
                live.discard(ax)

        comparisons = 0
        if "sp" in live or "weak-sp" in live:
            for t, truth in enumerate(prefs):
                for v in range(len(prefs)):
                    if v == t:
                        continue
                    if "sp" in live:
                        comparisons += 1
                        fail = fosd_failure(rows[t], rows[v], truth)
                        if fail is not None:
                            record("sp", t, v, None, (), *fail, "<")
                    if "weak-sp" in live:
                        comparisons += 1
                        if rows[v] != rows[t] and fosd(rows[v], rows[t], truth):
                            record(
                                "weak-sp", t, v, None, (),
                                *_strict_dominance_rank(rows[v], rows[t], truth), ">",
                            )

        em, ui, li = "em" in live, "ui" in live, "li" in live
        if em or ui or li:
            for r, s, info, above, below, pick_above, pick_below in self._pairs:
                old = rows[r]
                new = rows[s]
                if em:
                    comparisons += 2
                    x = info.raised
                    if new[x] < old[x]:
                        record("em", r, s, info, singles[x], None, new[x], old[x], "<")
                    x = info.lowered
                    if new[x] > old[x]:
                        record(
                            "em", r, s, info, singles[x], None, new[x], old[x], ">", 2,
                        )
                    em = "em" in live
                if ui:
                    comparisons += len(above)
                    if above and pick_above(new) != pick_above(old):
                        for x in above:
                            if new[x] != old[x]:
                                record(
                                    "ui", r, s, info, singles[x], None,
                                    new[x], old[x], "!=",
                                )
                    ui = "ui" in live
                if li:
                    comparisons += len(below)
                    if below and pick_below(new) != pick_below(old):
                        for x in below:
                            if new[x] != old[x]:
                                record(
                                    "li", r, s, info, singles[x], None,
                                    new[x], old[x], "!=",
                                )
                    li = "li" in live
        self.comparisons += comparisons


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
    reads.  In exhaustive mode the table is built first, by index range on
    up to ``jobs`` worker processes, and then swept serially in this
    process.  ``mode="first"`` is always serial: it fills the table lazily
    as the sweep reaches each cell and stops once every axiom has a
    violation.  The table is dropped when the sweep returns.

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
    return sweep.run(
        (agent, *table.cell(agent, base), partial(table.profile, base))
        for agent in range(instance.n)
        for base in table.cell_bases(agent)
    )


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
