"""Dense domain table: each profile's assignment, evaluated once, as integers,
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
``prefs[r]``, one per cell, all over one denominator.  In dense storage a
column is cut by strided slices: one slice for agent 0 (its cells are
contiguous profiles), one slice with step ``m`` profiles for the last
agent, and for the agents in between one slice per run of ``s``
consecutive cells that share the agents before.

Dense storage keeps the ``n*n`` numerators of every profile over **one
denominator for the whole table**, ``D``: PS gives the fixed
``lcm(1..n)**n`` and RP ``n!`` for every profile; for other mechanisms
each filled index range is brought to the lcm of the denominators seen so
far, rescaling what is already stored when that lcm grows.  Values live in
a signed 64-bit array, and the table falls back to a list of Python ints
as soon as one value does not fit, so storage never truncates or wraps.
No Fractions are stored.

A table is filled either all at once into dense storage
(:meth:`DomainTable.fill`, optionally by index range on a process pool) or
lazily, as :meth:`DomainTable.columns` reads cells; lazy entries live in a
dict keyed by index, each in least terms, and a lazy batch of columns is
brought to the lcm of its entries' denominators, so an early exit
allocates only what it read.  Either way each profile is evaluated at
most once.  A table is meant to live for one sweep; nothing is cached at
module level.
"""

from __future__ import annotations

import itertools
import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Union

from .core import Preference, Profile
from .mechanisms import Mechanism

Store = Union[array, list]

#: Index ranges per worker in a fill: a slow range does not hold a pool
#: back, and a serial fill keeps a quarter of the domain in transit.
_TASKS_PER_WORKER = 4


def _pack(values: list[int]) -> Store:
    """Signed 64-bit array of ``values``, or the list itself when one does
    not fit."""
    try:
        return array("q", values)
    except OverflowError:
        return values


def _evaluate(mech: Mechanism, profile: Profile) -> tuple[tuple[int, ...], int]:
    """Flat share numerators over the profile's least common denominator.

    Lazy entries are reduced because a lazy table may hold every profile,
    and in least terms the numerators are mostly Python's shared small
    ints; over a fixed D such as PS's each would be a separate object.
    """
    rows, d = mech.scaled_assignment(profile)
    flat = [x for row in rows for x in row]
    g = math.gcd(d, *flat)
    if g != 1:
        d //= g
        flat = [x // g for x in flat]
    return tuple(flat), d


def _evaluate_range(
    mech: Mechanism, prefs: Sequence[Preference], lo: int, hi: int
) -> tuple[Store, int]:
    """Packed numerators of the profiles with index in ``[lo, hi)``, all
    over one denominator, and that denominator."""
    nums: list[int] = []
    dens: list[int] = []
    profiles = itertools.product(prefs, repeat=len(prefs[0]))
    for profile in itertools.islice(profiles, lo, hi):
        rows, d = mech.scaled_assignment(profile)
        for row in rows:
            nums.extend(row)
        dens.append(d)
    common = math.lcm(*set(dens))
    if any(d != common for d in dens):
        nn = len(nums) // len(dens)
        nums = [x * (common // dens[i // nn]) for i, x in enumerate(nums)]
    return _pack(nums), common


# Set once per pool worker by the initializer, so the mechanism is pickled
# once per worker rather than once per task.
_worker_job: Optional[tuple[Mechanism, list[Preference]]] = None


def _init_worker(mech: Mechanism, prefs: list[Preference]) -> None:
    global _worker_job
    _worker_job = (mech, prefs)


def _fill_task(bounds: tuple[int, int]) -> tuple[int, int, Store, int]:
    lo, hi = bounds
    mech, prefs = _worker_job
    return (lo, hi, *_evaluate_range(mech, prefs, lo, hi))


class DomainTable:
    """Integer shares of ``mech`` at every profile of the domain over
    ``prefs``, indexed by mixed-radix profile index."""

    def __init__(self, mech: Mechanism, prefs: list[Preference]):
        self.mech = mech
        self.prefs = prefs
        self.n = n = mech.instance.n
        self.m = m = len(prefs)
        self.size = m ** n
        self.agents = range(n)
        self.cells = m ** (n - 1)  # cells (opponent profiles) per agent
        self._nn = n * n
        # Dense storage over the one denominator D, allocated by fill();
        # until then profiles are evaluated as columns read them and kept
        # in _lazy by index.
        self.nums: Optional[Store] = None
        self.D: Optional[int] = None
        self._lazy: dict[int, tuple[tuple[int, ...], int]] = {}
        self._opponents: Optional[list[Profile]] = None

    # -- indexing ----------------------------------------------------------

    def stride(self, agent: int) -> int:
        """Index step between consecutive reports of ``agent``."""
        return self.m ** (self.n - 1 - agent)

    def profile(self, index: int) -> Profile:
        digits = []
        for _ in range(self.n):
            index, d = divmod(index, self.m)
            digits.append(self.prefs[d])
        return tuple(reversed(digits))

    def opponents(self, cell: int) -> Profile:
        """The opponents' reports of cell ``cell``, in agent order."""
        if self._opponents is not None:
            return self._opponents[cell]
        return self.profile(cell)[1:]

    # -- filling -----------------------------------------------------------

    def _put(self, lo: int, hi: int, nums: Store, d: int) -> None:
        """Store the numerators of profiles ``[lo, hi)``, given over ``d``,
        over the table's denominator, which grows to ``lcm(D, d)``."""
        if self.D is None:
            self.D = d
        common = math.lcm(self.D, d)
        if common != self.D:
            f = common // self.D
            self.nums = _pack([x * f for x in self.nums])
            self.D = common
        if d != common:
            f = common // d
            nums = _pack([x * f for x in nums])
        if isinstance(self.nums, array) and not isinstance(nums, array):
            # a value exceeds 64 bits: keep everything as Python ints
            self.nums = self.nums.tolist()
        self.nums[lo * self._nn: hi * self._nn] = nums

    def fill(self, jobs: int = 1) -> None:
        """Evaluate every profile into dense storage, by index range on up to
        ``jobs`` worker processes; in this process when ``jobs <= 1``."""
        self.nums = array("q", [0]) * (self.size * self._nn)
        self.D = None
        self._lazy.clear()
        self._opponents = list(itertools.product(self.prefs, repeat=self.n - 1))
        tasks = min(self.size, max(jobs, 1) * _TASKS_PER_WORKER)
        step = -(-self.size // tasks)
        bounds = [(lo, min(lo + step, self.size)) for lo in range(0, self.size, step)]
        if jobs <= 1:
            for lo, hi in bounds:
                self._put(lo, hi, *_evaluate_range(self.mech, self.prefs, lo, hi))
            return
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(bounds)),
            initializer=_init_worker,
            initargs=(self.mech, self.prefs),
        ) as pool:
            for lo, hi, nums, d in pool.map(_fill_task, bounds):
                self._put(lo, hi, nums, d)

    # -- reading -----------------------------------------------------------

    def columns(self, agent: int, start: int, count: int) -> tuple[list, int]:
        """``agent``'s report columns over cells ``[start, start + count)``.

        Returns ``(cols, common)``: ``cols[r][x][k]`` is the numerator over
        ``common`` of the agent's share of object ``x`` when she reports
        ``prefs[r]`` against the opponents of cell ``start + k``.  Before
        :meth:`fill`, profiles not yet evaluated are evaluated here, once
        each.
        """
        if self.nums is None:
            return self._lazy_columns(agent, start, count)
        n, nn, s = self.n, self._nn, self.stride(agent)
        span = self.m * s * nn  # flat step from one run of cells to the next
        cols = []
        for r in range(self.m):
            first = r * s * nn + agent * n
            cols.append([
                self._cut(first + x, s, span, start, count) for x in range(n)
            ])
        return cols, self.D

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

    def _lazy_entry(self, index: int) -> tuple[tuple[int, ...], int]:
        entry = self._lazy.get(index)
        if entry is None:
            entry = self._lazy[index] = _evaluate(self.mech, self.profile(index))
        return entry

    def _lazy_columns(self, agent: int, start: int, count: int) -> tuple[list, int]:
        n, m, s = self.n, self.m, self.stride(agent)
        bases = [
            c // s * m * s + c % s for c in range(start, start + count)
        ]
        entries = [
            [self._lazy_entry(base + r * s) for base in bases] for r in range(m)
        ]
        common = math.lcm(*{d for col in entries for _, d in col})
        lo = agent * n
        cols = []
        for col in entries:
            factors = [common // d for _, d in col]
            cols.append([
                [flat[lo + x] * f for (flat, _), f in zip(col, factors)]
                for x in range(n)
            ])
        return cols, common
