"""Dense domain table: each profile's assignment, evaluated once, as integers.

Profiles are numbered in the order of :func:`ramkit.core.enumerate_profiles`.
With ``m = n!`` preferences, the profile whose agent ``j`` reports the
``d_j``-th preference of :func:`ramkit.core.enumerate_preferences` has the
mixed-radix index ``sum_j d_j * m**(n-1-j)`` in ``[0, m**n)``.  Varying one
agent's report therefore walks the index in steps of ``m**(n-1-agent)``.

For every profile the table holds the ``n*n`` share numerators over one
common denominator ``D``: in dense storage the D that
:meth:`Mechanism.scaled_assignment` gave (for PS one fixed D, so a cell's
rows need no rescaling), in lazy entries the profile's least one.  No
Fractions are stored.  Dense
values live in signed 64-bit arrays, and the table falls back to Python int
lists as soon as one value does not fit, so storage never truncates or
wraps.

A table is filled either all at once into dense arrays
(:meth:`DomainTable.fill`, optionally by index range on a process pool) or
lazily, profile by profile, as :meth:`DomainTable.cell` reads rows; lazy
entries live in a dict keyed by index, so an early exit allocates only what
it read.  Either way each profile is evaluated at most once.  A table is
meant to live for one sweep; nothing is cached at module level.
"""

from __future__ import annotations

import itertools
import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Optional, Sequence, Union

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
) -> tuple[Store, Store]:
    """Packed numerators and denominators of the profiles with index in
    ``[lo, hi)``."""
    nums: list[int] = []
    dens: list[int] = []
    profiles = itertools.product(prefs, repeat=len(prefs[0]))
    for profile in itertools.islice(profiles, lo, hi):
        rows, d = mech.scaled_assignment(profile)
        for row in rows:
            nums.extend(row)
        dens.append(d)
    return _pack(nums), _pack(dens)


# Set once per pool worker by the initializer, so the mechanism is pickled
# once per worker rather than once per task.
_worker_job: Optional[tuple[Mechanism, list[Preference]]] = None


def _init_worker(mech: Mechanism, prefs: list[Preference]) -> None:
    global _worker_job
    _worker_job = (mech, prefs)


def _fill_task(bounds: tuple[int, int]) -> tuple[int, int, Store, Store]:
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
        self._nn = n * n
        # Dense storage, allocated by fill(); until then profiles are
        # evaluated as cells read them and kept in _lazy by index.
        self.nums: Optional[Store] = None
        self.dens: Optional[Store] = None
        self._lazy: dict[int, tuple[tuple[int, ...], int]] = {}

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

    def cell_bases(self, agent: int) -> Iterator[int]:
        """Indices of the profiles where ``agent`` reports ``prefs[0]``, in
        lexicographic order of the opponents' reports."""
        stride = self.stride(agent)
        span = self.m * stride
        return (
            high + low
            for high in range(0, self.size, span)
            for low in range(stride)
        )

    # -- filling -----------------------------------------------------------

    def _put(self, lo: int, hi: int, nums: Store, dens: Store) -> None:
        if isinstance(self.nums, array) and not (
            isinstance(nums, array) and isinstance(dens, array)
        ):
            # a value exceeds 64 bits: keep everything as Python ints
            self.nums = self.nums.tolist()
            self.dens = self.dens.tolist()
        self.nums[lo * self._nn: hi * self._nn] = nums
        self.dens[lo:hi] = dens

    def fill(self, jobs: int = 1) -> None:
        """Evaluate every profile into dense storage, by index range on up to
        ``jobs`` worker processes; in this process when ``jobs <= 1``."""
        self.nums = array("q", [0]) * (self.size * self._nn)
        self.dens = array("q", [0]) * self.size
        self._lazy.clear()
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
            for lo, hi, nums, dens in pool.map(_fill_task, bounds):
                self._put(lo, hi, nums, dens)

    # -- reading -----------------------------------------------------------

    def _lazy_entry(self, index: int) -> tuple[tuple[int, ...], int]:
        entry = self._lazy.get(index)
        if entry is None:
            entry = self._lazy[index] = _evaluate(self.mech, self.profile(index))
        return entry

    def cell(self, agent: int, base: int) -> tuple[list, int]:
        """``agent``'s rows at the ``m`` profiles ``base + r*stride``, one per
        report ``prefs[r]``, scaled to one common denominator ``L``.

        Returns ``(rows, L)``.  Before :meth:`fill`, profiles not yet
        evaluated are evaluated here, once each.
        """
        n, nn = self.n, self._nn
        stride = self.stride(agent)
        stop = base + self.m * stride
        if self.dens is None:
            entries = [self._lazy_entry(i) for i in range(base, stop, stride)]
            dens = [d for _, d in entries]
            nums = [x for flat, _ in entries for x in flat[agent * n: agent * n + n]]
            start, step = 0, n
        else:
            dens = self.dens[base:stop:stride]
            nums = self.nums
            start, step = base * nn + agent * n, stride * nn
        common = math.lcm(*dens)
        rows = []
        for o, d in zip(range(start, start + self.m * step, step), dens):
            if d == common:
                rows.append(list(nums[o: o + n]))
            else:
                f = common // d
                rows.append([x * f for x in nums[o: o + n]])
        return rows, common
