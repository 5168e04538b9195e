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

:meth:`DomainTable.fill` evaluates the whole domain, in one of two ways.

- An **anonymous** mechanism (``Mechanism.anonymous``; PS, RP, and eating
  at one speed for all) gives an agent a row that depends only on her
  report and the multiset of the others' reports.  Each multiset of ``n``
  reports is evaluated once, in this process, at its sorted profile:
  ``C(m+n-1, n)`` evaluations, 17,550 at n=4 instead of 331,776.  The table
  keeps one row per report and multiset of ``n-1`` opponent reports
  (24 x 2,600 at n=4), as Python ints, and raises if two agents with
  equal reports get different rows.  Every cell has a multiset id, so a
  column is gathered through the ids of its cells and is the same for
  every agent.
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
  by index range, appending each range's part in index order.

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
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import Preference, Profile
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


def multiset_rows(
    mech: Mechanism, prefs: Sequence[Preference], multisets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...], Sequence[int]]]:
    """Evaluate an anonymous mechanism once per multiset of report indices
    into ``prefs``, each given sorted, at its sorted profile, and yield
    ``(r, others, row)`` for each distinct report ``r`` in it: ``others``
    are the other reports' indices, sorted, and ``row`` the numerators over
    ``mech.D`` of any agent reporting ``prefs[r]``.

    Raises ValueError if two agents with equal reports get different rows:
    the mechanism is then not anonymous."""
    for reports in multisets:
        # from a list: a tuple grown from a generator is resized, and each
        # one freed then piles up on the interpreter's tuple free list
        profile = tuple([prefs[r] for r in reports])
        out = mech.scaled_assignment(profile)
        for i, r in enumerate(reports):
            if i and r == reports[i - 1]:
                if out[i] != out[i - 1]:
                    raise ValueError(
                        f"{mech.descriptor()} is declared anonymous, but agents "
                        f"{i} and {i + 1} report alike and get different rows at "
                        f"profile {profile}"
                    )
                continue
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
        # Filled by multiset (anonymous mechanisms): _rows[r][k] is the row
        # of numerators for report prefs[r] against the opponent multiset
        # k, and _multiset[c] is the id of cell c's multiset.
        self._rows: Optional[list[list[tuple[int, ...]]]] = None
        self._multiset: Optional[array] = None

    @property
    def anonymous(self) -> bool:
        """Filled by multiset: :meth:`columns` is then the same for every
        agent."""
        return self._rows is not None

    # -- indexing ----------------------------------------------------------

    def stride(self, agent: int) -> int:
        """Index step between consecutive reports of ``agent``."""
        return self.m ** (self.n - 1 - agent)

    def profile(self, index: int) -> Profile:
        return reports_at(self.prefs, self.n, index)

    # -- filling -----------------------------------------------------------

    def fill(self, jobs: int = 1) -> None:
        """Evaluate the whole domain.  An anonymous mechanism is evaluated
        once per multiset of reports, in this process.  Any other is
        evaluated at every profile into dense storage, by index range on up
        to ``jobs`` worker processes, never more than the CPU count; in this
        process when ``jobs <= 1``."""
        self.nums = self._rows = None
        if self.mech.anonymous:
            self._fill_by_multiset()
            return
        jobs = min(jobs, os.cpu_count() or 1)
        if jobs <= 1:
            self.nums = _evaluate_range(self.mech, self.prefs, 0, self.size)
            return
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

    def _fill_by_multiset(self) -> None:
        """Evaluate each multiset of reports once, at its sorted profile, and
        keep each distinct report's row under (report, multiset of the
        others' reports).

        Raises ValueError if two agents with equal reports get different
        rows: the mechanism is then not anonymous."""
        m, n = self.m, self.n
        ids = {
            ms: k for k, ms in enumerate(itertools.combinations_with_replacement(range(m), n - 1))
        }
        rows: list[list] = [[None] * len(ids) for _ in range(m)]
        multisets = itertools.combinations_with_replacement(range(m), n)
        for r, others, row in multiset_rows(self.mech, self.prefs, multisets):
            rows[r][ids[others]] = tuple(row)
        self._rows = rows
        self._multiset = array("l", [
            ids[tuple(sorted(cell))]
            for cell in itertools.product(range(m), repeat=n - 1)
        ])

    # -- reading -----------------------------------------------------------

    def columns(self, agent: int, start: int, count: int) -> list:
        """``agent``'s report columns over cells ``[start, start + count)``:
        ``cols[r][x][k]`` is the numerator over ``D`` of the agent's share
        of object ``x`` when she reports ``prefs[r]`` against the opponents
        of cell ``start + k``.  Before
        :meth:`fill`, each profile read is evaluated here and nothing is
        kept.
        """
        if self._rows is not None:
            at = self._multiset[start:start + count]
            return [
                [list(col) for col in zip(*map(by_r.__getitem__, at))]
                for by_r in self._rows
            ]
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
        if self._rows is not None:
            flat: tuple[int, ...] = ()
            for agent in self.agents:
                s = self.stride(agent)
                high, rest = divmod(index, self.m * s)
                r, low = divmod(rest, s)
                flat += self._rows[r][self._multiset[high * s + low]]
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
