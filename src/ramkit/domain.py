"""Domain table: each profile's assignment, evaluated once, as integers,
read back as report columns.

Profiles are numbered in the order of :func:`ramkit.core.enumerate_profiles`.
With ``m = n!`` preferences, the profile whose agent ``j`` reports the
``d_j``-th preference of :func:`ramkit.core.enumerate_preferences` has the
mixed-radix index ``sum_j d_j * m**(n-1-j)`` in ``[0, m**n)``.  Varying one
agent's report therefore walks the index in steps of
``s = m**(n-1-agent)``.

The pair sweep reads the table by **column**.  A cell of an agent is one
opponent profile; the ``K = m**(n-1)`` cells of an agent are numbered in
lexicographic order of the opponents' reports, so cell ``c`` has the
agents before ``agent`` at ``c // s`` and those after at ``c % s``.
:meth:`DomainTable.columns` returns, for a run of consecutive cells,
``cols[r][x]``: the agent's numerators of object ``x`` under report
``prefs[r]``, one per cell.  Every value read is a numerator over the
mechanism's one denominator ``D = mech.D``; nothing is rescaled.

Under neutrality (``Mechanism.neutral``) the relabeling ``s_r`` of
:mod:`ramkit.core` turns report ``r`` into the identity order ``prefs[0]``.

:meth:`DomainTable.fill` evaluates the whole domain by one of three
routes.  The two anonymous routes are one loop over the multisets of
``n`` reports in lexicographic order, each evaluated once, in this
process, at its sorted profile; the first route cuts it short.

- An **anonymous and neutral** mechanism (PS, RP, and eating at one speed
  for all) is evaluated at the multisets that hold the identity report,
  which come first: the sorted profiles ``(id,) + M'`` of the multisets
  ``M'`` of ``n-1`` reports, ``C(m+n-2, n-1)`` evaluations, 2,600 at n=4
  and 21 at n=3.  Every other report's row is read through neutrality,
  ``row(r, M)[x] = row(id, s_r M)[k]`` with ``r[k] = x``, by one
  routine (:meth:`DomainTable._relabeled`, on the relabeling of report
  indices of :mod:`ramkit.core`) from the identity report's columns to
  every report's.  The rows the evaluations give the other reports of each
  profile are checked against the rows read that way, so a false
  neutrality declaration raises, as a false anonymity declaration does.
  Every sweep that fills takes this route except the neutrality sweep,
  which never fills through the fact it checks (equal treatment of
  equals takes no fill).
- An **anonymous** mechanism (``Mechanism.anonymous``), and the neutrality
  sweep's anonymous and neutral one, gives an agent a row that depends
  only on her report and the multiset of the others' reports.  The loop
  runs to the end: ``C(m+n-1, n)`` evaluations, 17,550 at n=4 instead of
  331,776.  Two agents with equal reports must get equal rows, or the
  fill raises.  :meth:`DomainTable.follows_relabeling` compares such a
  table's columns with the relabeling routine's output from its identity
  report's columns: the neutrality sweep's whole check of an anonymous
  mechanism, with nothing evaluated beyond the fill.

  Both anonymous routes keep one column per report and object, over the
  multisets of ``n-1`` opponent reports (24 x 4 columns of 2,600 at n=4),
  as Python ints.  Every cell has a multiset id, and columns are the same
  for every agent.  :meth:`DomainTable.columns` gathers a column through
  the ids of its cells; :meth:`DomainTable.read` of a whole agent gives
  the columns over the ids themselves, with the gather from ids to cells,
  so the pair sweep compares 2,600 entries per column at n=4 instead of
  13,824.
- Any other mechanism is evaluated at every profile into **dense
  storage**: the ``n*n`` numerators of every profile.  Values live in a
  signed 64-bit array, and the table falls back to a list of Python ints
  as soon as one value does not fit, so storage never truncates or
  wraps.  A column is cut by strided
  slices: one slice for agent 0 (its cells are contiguous profiles), one
  slice with step ``m`` profiles for the last agent, and for the agents in
  between one slice per run of ``s`` consecutive cells that share the
  agents before.  The fill evaluates the profiles in index order and
  appends their values to storage: in this process, or on a process pool
  of at most :func:`available_cpus` workers by index range, appending
  each range's part in index order.

No Fractions are stored.  An unfilled table is a stateless reader:
:meth:`DomainTable.columns` and :meth:`DomainTable.entry` evaluate each
profile they read and keep nothing, so a read never allocates more than
it returns.  Sweeps fill up to the sweep cap, except equal treatment of
equals; past it, where the domain is too large to fill, only first-mode
sweeps run, reading unfilled.  A table is meant to live for one sweep;
nothing is cached at module level.
"""

from __future__ import annotations

import itertools
import os
from array import array
from operator import add
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import Preference, Profile, gather, relabeling_action, report_inverse
from .mechanisms import Mechanism

Store = Union[array, list]

#: Index ranges per worker in a pool fill, so a slow range does not hold
#: the pool back.
_TASKS_PER_WORKER = 4


def _pack(values: list[int]) -> Store:
    """Signed 64-bit array of ``values``, or the list itself when one does
    not fit."""
    try:
        return array("q", values)
    except OverflowError:
        return values


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reports_at(prefs: Sequence[Preference], count: int, index: int) -> Profile:
    """The ``count`` reports whose mixed-radix index over ``prefs`` is
    ``index``, the first report most significant: a profile for ``count =
    n``, a cell's opponents for ``count = n - 1``."""
    digits = []
    for _ in range(count):
        index, d = divmod(index, len(prefs))
        digits.append(prefs[d])
    return tuple(reversed(digits))


def _flat(mech: Mechanism, profile: Profile) -> list[int]:
    """The profile's share numerators over ``mech.D``, agent by agent."""
    return [x for row in mech.scaled_assignment(profile) for x in row]


def _append(store: Store, values: Store) -> Store:
    """``store`` with ``values`` appended: a signed 64-bit array until one
    value does not fit, a list of Python ints from then on."""
    if isinstance(store, array):
        try:
            if isinstance(values, array):
                store.extend(values)  # same type code: every value fits
            else:
                store.fromlist(values)  # all or nothing
            return store
        except OverflowError:
            store = store.tolist()
    store += values
    return store


def _evaluate_range(
    mech: Mechanism, prefs: Sequence[Preference], lo: int, hi: int
) -> Store:
    """Packed numerators of the profiles with index in ``[lo, hi)``.  Each
    profile is packed as it is evaluated, so a range is never held as
    Python ints unless a value needs them."""
    nums: Store = array("q")
    profiles = itertools.product(prefs, repeat=len(prefs[0]))
    for profile in itertools.islice(profiles, lo, hi):
        nums = _append(nums, _flat(mech, profile))
    return nums


def sorted_rows(
    mech: Mechanism, prefs: Sequence[Preference], reports: tuple[int, ...]
) -> list:
    """Evaluate an anonymous mechanism once at the profile of the sorted
    report indices ``reports`` into ``prefs`` and return its rows, agent by
    agent, as numerators over ``mech.D``.

    Raises ValueError if two agents with equal reports get different rows:
    the mechanism is then not anonymous."""
    # from a list: a tuple grown from a generator is resized, and each one
    # freed then piles up on the interpreter's tuple free list
    profile = tuple([prefs[r] for r in reports])
    out = mech.scaled_assignment(profile)
    for i in range(1, len(reports)):
        if reports[i] == reports[i - 1] and out[i] != out[i - 1]:
            raise ValueError(
                f"{mech.descriptor()} is declared anonymous, but agents "
                f"{i} and {i + 1} report alike and get different rows at "
                f"profile {profile}"
            )
    return out


def multiset_rows(
    mech: Mechanism, prefs: Sequence[Preference], multisets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...], Sequence[int]]]:
    """Evaluate an anonymous mechanism once per multiset of report indices
    into ``prefs``, each given sorted, by :func:`sorted_rows`, and yield
    ``(r, others, row)`` for each distinct report ``r`` in it: ``others``
    are the other reports' indices, sorted, and ``row`` the numerators over
    ``mech.D`` of any agent reporting ``prefs[r]``."""
    for reports in multisets:
        out = sorted_rows(mech, prefs, reports)
        for i, r in enumerate(reports):
            if not i or r != reports[i - 1]:
                yield r, reports[:i] + reports[i + 1:], out[i]


# Set once per pool worker by the initializer, so the mechanism is pickled
# once per worker rather than once per task.
_worker_job: Optional[tuple[Mechanism, list[Preference]]] = None


def _init_worker(mech: Mechanism, prefs: list[Preference]) -> None:
    global _worker_job
    _worker_job = (mech, prefs)


def _fill_task(bounds: tuple[int, int]) -> Store:
    mech, prefs = _worker_job
    return _evaluate_range(mech, prefs, *bounds)


class DomainTable:
    """Integer shares of ``mech`` at every profile of the domain over
    ``prefs``, indexed by mixed-radix profile index, all over ``D =
    mech.D``."""

    def __init__(self, mech: Mechanism, prefs: list[Preference]):
        self.mech = mech
        self.prefs = prefs
        self.n = n = mech.instance.n
        self.m = m = len(prefs)
        self.size = m ** n
        self.agents = range(n)
        self.cells = m ** (n - 1)  # cells (opponent profiles) per agent
        self._nn = n * n
        self.D = mech.D
        # Dense storage, allocated by fill(); until then every read
        # evaluates the profiles it reads.
        self.nums: Optional[Store] = None
        # Filled by multiset (anonymous mechanisms): _cols[r][x][k] is the
        # numerator of object x for report prefs[r] against the opponent
        # multiset k, and _multiset[c] is the id of cell c's multiset.
        self._cols: Optional[list[list[list[int]]]] = None
        self._multiset: Optional[array] = None
        # (s, m * s) of each agent, for reading a profile's rows by multiset
        self._steps = [(m ** (n - 1 - i), m ** (n - i)) for i in range(n)]

    @property
    def anonymous(self) -> bool:
        """Filled by multiset: :meth:`columns` is then the same for every
        agent."""
        return self._cols is not None

    # -- indexing ----------------------------------------------------------

    def stride(self, agent: int) -> int:
        """Index step between consecutive reports of ``agent``."""
        return self.m ** (self.n - 1 - agent)

    def profile(self, index: int) -> Profile:
        return reports_at(self.prefs, self.n, index)

    # -- filling -----------------------------------------------------------

    def fill(self, jobs: int = 1, *, relabel: bool = True) -> None:
        """Evaluate the whole domain.  An anonymous mechanism is evaluated
        in this process: once per multiset of the identity report's
        opponent reports when it is also neutral and ``relabel`` is set,
        once per multiset of reports otherwise.  Any other is evaluated at
        every profile into dense storage, by index range on up to ``jobs``
        worker processes, never more than :func:`available_cpus`; in this
        process when ``jobs <= 1``.  The neutrality sweep clears
        ``relabel``, so it does not fill through the fact it checks."""
        self.nums = self._cols = None
        if self.mech.anonymous:
            self._fill_by_multiset(relabel and self.mech.neutral)
            return
        jobs = min(jobs, available_cpus())
        if jobs <= 1:
            self.nums = _evaluate_range(self.mech, self.prefs, 0, self.size)
            return
        # imported here, so that importing the library does not load
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        step = -(-self.size // (jobs * _TASKS_PER_WORKER))
        bounds = [(lo, min(lo + step, self.size)) for lo in range(0, self.size, step)]
        nums: Store = array("q")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(bounds)),
            initializer=_init_worker,
            initargs=(self.mech, self.prefs),
        ) as pool:
            for part in pool.map(_fill_task, bounds):  # in index order
                nums = _append(nums, part)
        self.nums = nums

    def _fill_by_multiset(self, relabel: bool) -> None:
        """Keep each report's columns over the multisets of the others'
        reports, from one evaluation per multiset of reports, at its sorted
        profile.  With ``relabel`` only the multisets that hold the
        identity report are evaluated: they come first, as ``(id,) + M'``
        in the order of ``M'``.  Every report's columns are then the
        identity report's relabeled (:meth:`_relabeled`), and
        :meth:`_check_relabeled` checks the rows evaluated for the other
        reports against them.

        Raises ValueError if two agents with equal reports get different
        rows: the mechanism is then not anonymous; or, with ``relabel``, as
        :meth:`_check_relabeled`."""
        m, n = self.m, self.n
        multisets = list(itertools.combinations_with_replacement(range(m), n - 1))
        ids = {ms: k for k, ms in enumerate(multisets)}
        cells = itertools.product(range(m), repeat=n - 1)
        self._multiset = array("l", [ids[tuple(sorted(cell))] for cell in cells])
        everyone = itertools.combinations_with_replacement(range(m), n)
        evaluated = itertools.islice(everyone, len(ids) if relabel else None)
        rows: list[list] = [[None] * len(ids) for _ in range(m)]
        for r, others, row in multiset_rows(self.mech, self.prefs, evaluated):
            rows[r][ids[others]] = row
        if relabel:
            self._cols = self._relabeled(list(map(list, zip(*rows[0]))))
            self._check_relabeled(rows, multisets)
        else:
            self._cols = [list(map(list, zip(*by_r))) for by_r in rows]

    def _relabeled(self, base: list[list[int]]) -> list[list]:
        """Every report's columns as neutrality reads them from report 0's
        columns ``base``: the row of report r against M is the identity
        report's row against ``s_r M``, its objects read through r, so r's
        column of object x is ``base[s_r(x)]`` gathered through the ids of
        the ``s_r M``.  ``s_r M`` is found without sorting, as the multiset
        id of the cell whose digits are M's reports relabeled (``s_r`` and
        the relabeling of report indices as in :mod:`ramkit.core`)."""
        m, n, images = self.m, self.n, relabeling_action(self.prefs)
        # digits[j]: the j-th report of every multiset, in multiset order
        digits = list(zip(*itertools.combinations_with_replacement(range(m), n - 1)))
        weights = [m ** (n - 2 - j) for j in range(n - 1)]
        cols = [base]
        for s in map(report_inverse, self.prefs[1:]):
            to = images(s, range(m))  # s_r on report indices
            cells = [0] * len(base[0])  # the cell of each s_r M
            for d, w in zip(digits, weights):
                place = [t * w for t in to]
                cells = list(map(add, cells, map(place.__getitem__, d)))
            at = list(map(self._multiset.__getitem__, cells))
            cols.append([list(map(base[y].__getitem__, at)) for y in s])
        return cols

    def _check_relabeled(self, rows: list[list], multisets: list[tuple[int, ...]]) -> None:
        """Raise ValueError if a row evaluated for a report other than the
        identity, ``rows[r][k]`` against the opponent multiset ``k``,
        differs from its row read through neutrality: the mechanism is
        then not neutral."""
        for r in range(1, self.m):
            for k, row in enumerate(rows[r]):
                if row is not None and [col[k] for col in self._cols[r]] != list(row):
                    profile = tuple(self.prefs[j] for j in sorted(multisets[k] + (r,)))
                    raise ValueError(
                        f"{self.mech.descriptor()} is declared neutral, but report "
                        f"{self.prefs[r]} gets a row at profile {profile} that is not "
                        "the identity report's row relabeled"
                    )

    def follows_relabeling(self) -> bool:
        """Whether the columns of a table filled by multiset are neutral:
        each report's columns equal the identity report's relabeled
        (:meth:`_relabeled`).  The table's rows depend only on an agent's
        report and the multiset of the others', so this holds exactly when
        relabeling the objects of every report relabels every row.  Nothing
        is evaluated, and the declaration ``mech.neutral`` is not read."""
        return self._cols == self._relabeled(self._cols[0])

    # -- reading -----------------------------------------------------------

    def read(self, agent: int, start: int, count: int) -> tuple[list, Optional[Callable]]:
        """The pair kernel's read of ``agent``'s cells ``[start, start +
        count)``: ``(cols, to_cells)``.  A table filled by multiset, read
        whole, gives its own columns over the multiset ids, not copies, so
        the reader must not change them: ``cols[r][x][k]`` under the
        opponent multiset ``k``, and ``to_cells``, which takes a list
        over the ids to the tuple of its items at every cell's id, in cell
        order; any other read gives :meth:`columns` and None."""
        if self._cols is None or count < self.cells:
            return self.columns(agent, start, count), None
        return self._cols, gather(self._multiset)

    def columns(self, agent: int, start: int, count: int) -> list:
        """``agent``'s report columns over cells ``[start, start + count)``:
        ``cols[r][x][k]`` is the numerator over ``D`` of the agent's share
        of object ``x`` when she reports ``prefs[r]`` against the opponents
        of cell ``start + k``.  Before
        :meth:`fill`, each profile read is evaluated here and nothing is
        kept.
        """
        if self._cols is not None:
            # each report's columns, gathered through the cells' multiset ids
            pick = gather(self._multiset[start:start + count])
            return [[list(pick(col)) for col in by_r] for by_r in self._cols]
        if self.nums is None:
            return self._evaluate_columns(agent, start, count)
        n, nn, s = self.n, self._nn, self.stride(agent)
        span = self.m * s * nn  # flat step from one run of cells to the next
        cols = []
        for r in range(self.m):
            first = r * s * nn + agent * n
            cols.append([
                self._cut(first + x, s, span, start, count) for x in range(n)
            ])
        return cols

    def _cut(self, first: int, s: int, span: int, start: int, count: int) -> Store:
        """Values at flat offset ``first`` of cells ``[start, start+count)``:
        cell ``c`` sits at ``first + (c // s) * span + (c % s) * n*n``."""
        nums = self.nums
        if s == 1:
            a = first + start * span
            return nums[a: a + count * span: span]
        nn = self._nn
        out = None
        c, end = start, start + count
        while c < end:
            high, low = divmod(c, s)
            run = min(end - c, s - low)
            a = first + high * span + low * nn
            piece = nums[a: a + run * nn: nn]
            if out is None:
                out = piece
            else:
                out += piece
            c += run
        return out

    def entry(self, index: int) -> Sequence[int]:
        """Profile ``index``'s numerators over ``D``, agent by agent.
        Before :meth:`fill` the profile is evaluated here and nothing is
        kept."""
        if self._cols is not None:
            flat: list[int] = []
            cols, multiset = self._cols, self._multiset
            for s, span in self._steps:
                high, rest = divmod(index, span)
                r, low = divmod(rest, s)
                k = multiset[high * s + low]
                flat += [col[k] for col in cols[r]]
            return flat
        if self.nums is None:
            return _flat(self.mech, self.profile(index))
        return self.nums[index * self._nn: (index + 1) * self._nn]

    def _evaluate_columns(self, agent: int, start: int, count: int) -> list:
        """:meth:`columns` before :meth:`fill`: every profile read is
        evaluated, and nothing is kept."""
        m, s, read = self.m, self.stride(agent), self.mech.scaled_assignment
        bases = [c // s * m * s + c % s for c in range(start, start + count)]
        return [
            [list(col) for col in zip(*(read(self.profile(b + r * s))[agent] for b in bases))]
            for r in range(m)
        ]
