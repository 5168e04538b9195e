"""Random assignment mechanisms.

Built-ins: fixed-order serial dictatorship, random priority (the exact
uniform average of all n! dictatorships), the simultaneous-eating family
with piecewise-constant rational speed schedules, and probabilistic serial
(its unit-speed member).  Arbitrary externally supplied mechanisms are
wrapped as tabulated lookup mechanisms.

Every mechanism is defined by its integer shares over one denominator
``Mechanism.D``, fixed when it is built (1, ``n!``, the schedule's
:func:`_compile`, ``lcm(1, ..., n)**n`` for PS, a table's lcm):
``Mechanism._shares`` returns numerators over ``D``, and the Fraction
:meth:`Mechanism.assignment` is read from them.

A mechanism is a pure map from profiles to bistochastic matrices; the same
profile always evaluates to the identical assignment.  Evaluation can be
memoized per profile (``cache=True``); caching never changes results.

A mechanism is **anonymous** when permuting the agents permutes its rows
the same way, so an agent's row depends only on her report and the
multiset of the others' reports.  PS and RP are; an eating mechanism is
when every agent eats at the same speed at every time.
``Mechanism.anonymous`` states this as a fact of the mechanism, not an
option, and lets a domain table evaluate each multiset of reports once
(:mod:`ramkit.domain`).

A mechanism is **neutral** when relabeling the objects in every report
(a relabeling as defined in :mod:`ramkit.core`) relabels the columns of
its assignment the same way.  SD, RP and every eating mechanism are,
whatever the speeds, because speeds belong to agents, not to objects; a
table is not assumed to be.  ``Mechanism.neutral`` states this fact.  An
anonymous and neutral mechanism is evaluated once per multiset of
opponent reports of the identity report, and every other report's row is
read from those through ``s_r``, the inverse of the report: for its
interim rows, at any n (:mod:`ramkit.interim`), and for the domain table
of every ex-post sweep but neutrality's (:mod:`ramkit.domain`), which
checks the rows of the other reports it evaluates against the relabeled
ones.  A neutral mechanism that is not anonymous is evaluated for the
domain table only where agent 1 reports the identity order, and where
agent 2 does as a check.  The ex-post neutrality sweep never reads the
declaration, so it stays a real check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    ONE,
    ZERO,
    AssignmentMatrix,
    CapExceededError,
    Instance,
    PREFERENCE_ENUM_CAP,
    Profile,
    _as_exact,
    enumerate_profiles,
    validate_assignment,
)

SpeedPiece = tuple[Fraction, Fraction, Fraction]  # (start, end, rate)
# (end tick, (agent, integer rate) for every agent eating in the segment)
Segments = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class EatingSpeedSchedule:
    """Per-agent piecewise-constant eating speeds on the time interval [0,1].

    ``pieces[i]`` is agent i's ordered list of (start, end, rate) with
    breakpoints chaining from 0 to 1 and nonnegative rational rates.  Each
    agent's speed must integrate to exactly 1 over [0,1], so every agent
    consumes one unit of probability share in total.
    """

    pieces: tuple[tuple[SpeedPiece, ...], ...]

    def __post_init__(self):
        cleaned = []
        for i, agent_pieces in enumerate(self.pieces):
            if not agent_pieces:
                raise ValueError(f"agent {i + 1}: empty speed schedule")
            chain = []
            cursor = ZERO
            integral = ZERO
            for start, end, rate in agent_pieces:
                start, end, rate = (_as_exact(x, "speed or time") for x in (start, end, rate))
                if start != cursor:
                    raise ValueError(
                        f"agent {i + 1}: piece starts at {start}, expected {cursor}"
                    )
                if not start < end:
                    raise ValueError(f"agent {i + 1}: empty piece [{start},{end})")
                if rate < 0:
                    raise ValueError(f"agent {i + 1}: negative speed {rate}")
                chain.append((start, end, rate))
                integral += rate * (end - start)
                cursor = end
            if cursor != ONE:
                raise ValueError(f"agent {i + 1}: schedule ends at {cursor}, expected 1")
            if integral != ONE:
                raise ValueError(
                    f"agent {i + 1}: total consumption is {integral}, expected exactly 1"
                )
            cleaned.append(tuple(chain))
        object.__setattr__(self, "pieces", tuple(cleaned))

    @classmethod
    def unit(cls, n: int) -> "EatingSpeedSchedule":
        """Constant speed 1 for every agent (the probabilistic serial speeds)."""
        return cls(tuple(((ZERO, ONE, ONE),) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.pieces)

    def rate_at(self, agent: int, t: Fraction) -> Fraction:
        for start, end, rate in self.pieces[agent]:
            if start <= t < end:
                return rate
        raise ValueError(f"time {t} outside [0,1)")

    def breakpoints(self) -> tuple[Fraction, ...]:
        """Ascending piece boundaries in (0, 1], shared by all agents."""
        return tuple(sorted({end for ap in self.pieces for (_, end, _) in ap}))


def _compile(schedule: EatingSpeedSchedule) -> tuple[Segments, int]:
    """The schedule as integer segments over its fixed denominator ``D``.

    Rates are scaled to integers by ``Lr``, the lcm of the rate
    denominators.  The clock runs in ticks of ``1/(Lb * G**n)``, where
    ``Lb`` is the lcm of the breakpoint denominators and ``G`` the lcm of
    every nonzero subset sum of each segment's integer rates.  Returns the
    segments as ``(end tick, ((agent, integer rate), ...))``, listing the
    agents with a nonzero rate, and ``D = Lr * Lb * G**n``; for unit speeds
    ``D = lcm(1, ..., n)**n``.
    """
    n = schedule.n
    ends = schedule.breakpoints()
    rates = [
        tuple(schedule.rate_at(i, start) for i in range(n))
        for start in (ZERO,) + ends[:-1]
    ]
    lr = math.lcm(*(r.denominator for seg in rates for r in seg))
    int_rates = [tuple(int(r * lr) for r in seg) for seg in rates]
    sums: set[int] = set()
    for seg in int_rates:
        reach = {0}
        for r in seg:
            reach |= {s + r for s in reach}
        sums |= reach
    sums.discard(0)
    ticks = math.lcm(*(b.denominator for b in ends)) * math.lcm(*sums) ** n
    return tuple(
        (int(b * ticks), tuple((i, r) for i, r in enumerate(seg) if r))
        for b, seg in zip(ends, int_rates)
    ), lr * ticks


def _eat(profile: Profile, segments: Segments, D: int) -> list[list[int]]:
    """Simultaneous eating over the fixed denominator ``D`` of
    :func:`_compile`.

    Every agent eats her best object with remaining supply at her integer
    rate; time, supplies and shares are integer multiples of one tick, so
    the loop never rescales.  Each event ends at the earliest of an
    object's exhaustion and the segment's end.  Breakpoints are multiples
    of ``G**n`` ticks, and each of the at most n exhaustion events divides
    a supply by a subset sum of the rates, a divisor of ``G``; so before
    the k-th exhaustion every quantity is a multiple of ``G**(n-k)`` and
    every event is integral.  Returns the share numerators over ``D``.
    """
    n = len(profile)
    T = 0
    supply = [D] * n
    shares = [[0] * n for _ in range(n)]
    pos = [0] * n
    alive = [True] * n
    for end, eating in segments:
        while T < end:
            eaters = [0] * n
            target = [0] * n
            for i, r in eating:
                ranking = profile[i]
                p = pos[i]
                while not alive[ranking[p]]:
                    p += 1
                pos[i] = p
                a = target[i] = ranking[p]
                eaters[a] += r
            # ties resolve to the earlier candidate, which is safe because
            # the subtraction below still zeroes tied objects; an exhaustion
            # between ticks would mean D is too coarse, and would stall the
            # clock, so it raises
            dt = end - T
            for a in range(n):
                e = eaters[a]
                if e and supply[a] < dt * e:
                    dt, rest = divmod(supply[a], e)
                    if rest:
                        raise AssertionError("an object runs out between two ticks of D")
            T += dt
            for a in range(n):
                e = eaters[a]
                if e:
                    left = supply[a] - e * dt
                    supply[a] = left
                    if not left:
                        alive[a] = False
            for i, r in eating:
                shares[i][target[i]] += r * dt
    if any(supply):
        raise AssertionError("eating simulation failed to consume all supply by time 1")
    return shares


class Mechanism:
    """Pure deterministic map from profiles to assignments.

    A subclass sets the denominator :attr:`D` when it is built and
    implements one hook, :meth:`_shares`, which returns the assignment as
    integer numerators over ``D``; both :meth:`scaled_assignment` and the
    Fraction :meth:`assignment` are built from it.
    """

    kind = "mechanism"
    #: Permuting the agents permutes the rows (see the module docstring).
    #: False unless the mechanism is anonymous by construction.
    anonymous = False
    #: Relabeling the objects relabels the shares (see the module
    #: docstring).  False unless the mechanism is neutral by construction.
    neutral = False
    #: The one denominator of every share the mechanism returns.
    D: int

    def __init__(self, instance: Instance, *, cache: bool = False):
        self.instance = instance
        self._cache: Optional[dict[Profile, AssignmentMatrix]] = {} if cache else None

    def _check_length(self, profile: Profile) -> None:
        if len(profile) != self.instance.n:
            raise ValueError(
                f"profile has {len(profile)} preferences, expected {self.instance.n}"
            )

    def _shares(self, profile: Profile) -> Sequence[Sequence[int]]:
        """Numerators over ``D`` of a profile of the right length."""
        raise NotImplementedError

    def scaled_assignment(self, profile: Profile) -> Sequence[Sequence[int]]:
        """The assignment as integer numerators over :attr:`D`, the same at
        every profile and not necessarily the least denominator of any."""
        self._check_length(profile)
        return self._shares(profile)

    def assignment(self, profile: Profile) -> AssignmentMatrix:
        self._check_length(profile)
        if self._cache is not None:
            hit = self._cache.get(profile)
            if hit is not None:
                return hit
        D = self.D
        out = tuple(tuple(Fraction(x, D) for x in row) for row in self._shares(profile))
        if self._cache is not None:
            self._cache[profile] = out
        return out

    def descriptor(self) -> str:
        return self.kind

    def __getstate__(self):
        # memo contents are never shipped across process boundaries
        state = self.__dict__.copy()
        if state.get("_cache") is not None:
            state["_cache"] = {}
        return state


def dictatorship_outcome(profile: Profile, order: tuple[int, ...]) -> tuple[int, ...]:
    """Objects picked greedily in priority order; returns agent -> object."""
    n = len(profile)
    taken = [False] * n
    pick = [0] * n
    for i in order:
        for a in profile[i]:
            if not taken[a]:
                taken[a] = True
                pick[i] = a
                break
    return tuple(pick)


class SerialDictatorship(Mechanism):
    """Agents pick their best remaining object in a fixed priority order."""

    kind = "sd"
    neutral = True
    D = 1

    def __init__(self, instance: Instance, order, *, cache: bool = False):
        super().__init__(instance, cache=cache)
        order = tuple(order)
        if sorted(order) != list(instance.agents):
            raise ValueError(f"order must be a permutation of agents, got {order}")
        self.order = order
        # the unit row of each object, shared by every matrix returned
        n = instance.n
        self._units = tuple(tuple(int(a == x) for a in range(n)) for x in range(n))

    def _shares(self, profile: Profile) -> list[tuple[int, ...]]:
        """The permutation matrix of the picks, one unit row per agent."""
        return list(map(self._units.__getitem__, dictatorship_outcome(profile, self.order)))

    def descriptor(self) -> str:
        return "sd:" + ",".join(str(i + 1) for i in self.order)


class RandomPriority(Mechanism):
    """Exact average of serial dictatorship over all n! priority orders.

    Every order carries weight 1/n!; no sampling.  Enumerating the orders
    is subject to the preference enumeration cap.
    """

    kind = "rp"
    anonymous = True
    neutral = True

    def __init__(self, instance: Instance, *, cache: bool = False,
                 max_n: Optional[int] = None):
        super().__init__(instance, cache=cache)
        cap = PREFERENCE_ENUM_CAP if max_n is None else max_n
        if instance.n > cap:
            raise CapExceededError("priority-order enumeration", instance.n, cap, "max_n")
        self._orders = list(itertools.permutations(instance.agents))
        self.D = len(self._orders)

    def _shares(self, profile: Profile) -> list[list[int]]:
        """Order counts over n!: ``counts[i][a]`` orders give agent i object a."""
        n = self.instance.n
        counts = [[0] * n for _ in range(n)]
        for order in self._orders:
            pick = dictatorship_outcome(profile, order)
            for i in range(n):
                counts[i][pick[i]] += 1
        return counts


class SimultaneousEating(Mechanism):
    """Eating mechanism for an arbitrary admissible speed schedule, run in
    integers over the schedule's fixed denominator ``D`` (:func:`_compile`)."""

    kind = "sea"
    neutral = True

    def __init__(self, instance: Instance, schedule: EatingSpeedSchedule, *,
                 cache: bool = False):
        super().__init__(instance, cache=cache)
        if schedule.n != instance.n:
            raise ValueError(
                f"schedule covers {schedule.n} agents, instance has {instance.n}"
            )
        self.schedule = schedule
        self._segments, self.D = _compile(schedule)

    @property
    def anonymous(self) -> bool:
        """Every agent eats at the same rate in every segment."""
        n = self.instance.n
        return all(
            not eating or (len(eating) == n and len({r for _, r in eating}) == 1)
            for _, eating in self._segments
        )

    def _shares(self, profile: Profile) -> list[list[int]]:
        return _eat(profile, self._segments, self.D)


class ProbabilisticSerial(SimultaneousEating):
    """Unit-speed simultaneous eating (every agent eats at speed 1), over
    ``D = lcm(1, ..., n)**n``."""

    kind = "ps"

    def __init__(self, instance: Instance, *, cache: bool = False):
        super().__init__(instance, EatingSpeedSchedule.unit(instance.n), cache=cache)


class TabulatedMechanism(Mechanism):
    """Mechanism backed by an explicit profile -> assignment table.

    The table must be total over all (n!)**n profiles, and every value must
    be a valid assignment; both are checked up front so axiom sweeps can
    trust lookups blindly.  It keeps integer rows over ``D``, the lcm of
    every share's denominator, one row tuple per distinct matrix.
    """

    kind = "table"

    def __init__(self, instance: Instance, table, *, max_n: Optional[int] = None):
        super().__init__(instance, cache=False)
        # profile -> number of its matrix among the distinct ones; each
        # matrix object is validated once, by id, and kept in ``held`` so
        # that no other object can take its id
        checked: dict[Profile, int] = {}
        distinct: dict[AssignmentMatrix, int] = {}
        numbers: dict[int, int] = {}  # id of a matrix object -> its number
        held = []
        for profile, matrix in table.items():
            key = tuple(map(tuple, profile))
            number = numbers.get(id(matrix))
            if number is None:
                try:
                    fixed = validate_assignment(matrix, instance)
                except ValueError as exc:
                    raise ValueError(
                        f"invalid assignment for profile {key}: {exc}"
                    ) from exc
                number = numbers[id(matrix)] = distinct.setdefault(fixed, len(distinct))
                held.append(matrix)
            checked[key] = number
        for profile in enumerate_profiles(instance, max_n=max_n):
            if profile not in checked:
                raise ValueError(f"table is missing profile {profile}")
        self.D = D = math.lcm(*{x.denominator for m in distinct for row in m for x in row})
        rows = [
            tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in m)
            for m in distinct
        ]
        self._table = {profile: rows[k] for profile, k in checked.items()}

    def _shares(self, profile: Profile) -> tuple[tuple[int, ...], ...]:
        try:
            return self._table[profile]
        except KeyError:
            raise ValueError(f"unknown profile {profile}") from None
