"""Random assignment mechanisms.

Built-ins: fixed-order serial dictatorship, random priority (the exact
uniform average of all n! dictatorships), the simultaneous-eating family
with piecewise-constant rational speed schedules, and probabilistic serial
(the unit-speed member, with a fast integer-arithmetic evaluator).
Arbitrary externally supplied mechanisms are wrapped as tabulated lookup
mechanisms.

A mechanism is a pure map from profiles to bistochastic matrices; the same
profile always evaluates to the identical assignment.  Evaluation can be
memoized per profile (``cache=True``); caching never changes results.

A mechanism is **anonymous** when permuting the agents permutes its rows
the same way, so an agent's row depends only on her report and the
multiset of the others' reports.  PS and RP are; an eating mechanism is
when every agent eats on the same schedule.  ``Mechanism.anonymous`` states
this as a fact of the mechanism, not an option, and lets a domain table
evaluate each multiset of reports once (:mod:`ramkit.domain`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    ONE,
    ZERO,
    AssignmentMatrix,
    CapExceededError,
    Instance,
    PREFERENCE_ENUM_CAP,
    Preference,
    Profile,
    enumerate_profiles,
    validate_assignment,
)

SpeedPiece = tuple[Fraction, Fraction, Fraction]  # (start, end, rate)


def _exact(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError(f"floating point value {x!r}; speeds and times must be exact")
    return Fraction(x)


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
                start, end, rate = _exact(start), _exact(end), _exact(rate)
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


def eat(
    profile: Profile,
    schedule: EatingSpeedSchedule,
    trace: Optional[list] = None,
) -> AssignmentMatrix:
    """Run the simultaneous eating simulation, exactly.

    Every agent continuously consumes her best object with remaining
    supply, at her scheduled speed.  The simulation advances event by
    event to the earliest of (a) an object's supply hitting zero and
    (b) a speed breakpoint; event times solve single linear equations, so
    all quantities stay rational.  With equal agent and object counts and
    unit total consumption per agent, the run ends at time 1 with every
    supply exactly zero.

    ``trace``, when given, collects one entry per event:
    ``(time_after, supplies_after, total_eaten_after)``.
    """
    n = len(profile)
    if schedule.n != n:
        raise ValueError(f"schedule covers {schedule.n} agents, profile has {n}")
    supply = [ONE] * n
    shares = [[ZERO] * n for _ in range(n)]
    pos = [0] * n
    alive = [True] * n
    breaks = schedule.breakpoints()
    bi = 0
    t = ZERO
    while t < ONE:
        while breaks[bi] <= t:
            bi += 1
        rates = [schedule.rate_at(i, t) for i in range(n)]
        eaters = [ZERO] * n
        target = [-1] * n
        for i in range(n):
            if rates[i] == 0:
                continue
            ranking = profile[i]
            p = pos[i]
            while not alive[ranking[p]]:
                p += 1
            pos[i] = p
            a = ranking[p]
            target[i] = a
            eaters[a] += rates[i]
        dt = breaks[bi] - t
        for a in range(n):
            if eaters[a] != 0:
                cand = supply[a] / eaters[a]
                if cand < dt:
                    dt = cand
        for i in range(n):
            a = target[i]
            if a >= 0:
                shares[i][a] += rates[i] * dt
        for a in range(n):
            if eaters[a] != 0:
                supply[a] -= eaters[a] * dt
                if supply[a] == 0:
                    alive[a] = False
        t += dt
        if trace is not None:
            trace.append(
                (t, tuple(supply), sum(sum(row) for row in shares))
            )
    if t != ONE or any(s != 0 for s in supply):
        raise AssertionError("eating simulation failed to consume all supply by time 1")
    return tuple(tuple(row) for row in shares)


def _eat_unit_scaled(profile: Profile, n: int) -> tuple[list[list[int]], int]:
    """Unit-speed eating over the fixed common denominator ``D = L**n``,
    ``L = lcm(1, ..., n)``.

    Time, supplies and accumulated shares are kept as integer multiples of
    1/D, so the inner loop runs entirely on integers and never rescales.
    D suffices: each of the at most n events divides a supply by an eater
    count in 1..n, so before the k-th event every quantity is a multiple of
    ``L**(n-k)``.  Returns the share numerators and D.
    """
    D = math.lcm(*range(1, n + 1)) ** n
    T = 0
    supply = [D] * n
    shares = [[0] * n for _ in range(n)]
    pos = [0] * n
    alive = [True] * n
    while T < D:
        eaters = [0] * n
        target = [0] * n
        for i in range(n):
            ranking = profile[i]
            p = pos[i]
            while not alive[ranking[p]]:
                p += 1
            pos[i] = p
            a = ranking[p]
            target[i] = a
            eaters[a] += 1
        # earliest event: object exhaustion at supply[a]/eaters[a], or the
        # horizon D-T; ties resolve to the earlier candidate, which is safe
        # because the subtraction below still zeroes tied objects.
        dt = D - T
        for a in range(n):
            e = eaters[a]
            if e and supply[a] < dt * e:
                dt = supply[a] // e
        T += dt
        for a in range(n):
            e = eaters[a]
            if e:
                left = supply[a] - e * dt
                supply[a] = left
                if not left:
                    alive[a] = False
        for i in range(n):
            shares[i][target[i]] += dt
    return shares, D


class Mechanism:
    """Pure deterministic map from profiles to assignments."""

    kind = "mechanism"
    #: Permuting the agents permutes the rows (see the module docstring).
    #: False unless the mechanism is anonymous by construction.
    anonymous = False

    def __init__(self, instance: Instance, *, cache: bool = False):
        self.instance = instance
        self._cache: Optional[dict[Profile, AssignmentMatrix]] = {} if cache else None

    def _check_length(self, profile: Profile) -> None:
        if len(profile) != self.instance.n:
            raise ValueError(
                f"profile has {len(profile)} preferences, expected {self.instance.n}"
            )

    def assignment(self, profile: Profile) -> AssignmentMatrix:
        self._check_length(profile)
        if self._cache is not None:
            hit = self._cache.get(profile)
            if hit is not None:
                return hit
        out = self._compute(profile)
        if self._cache is not None:
            self._cache[profile] = out
        return out

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        raise NotImplementedError

    def scaled_assignment(self, profile: Profile) -> tuple[list[list[int]], int]:
        """The assignment as integer numerators over one common denominator.

        Returns ``(numerators, D)`` with ``numerators[i][a] / D`` equal to
        ``assignment(profile)[i][a]``.  D is some common denominator of the
        profile's shares, not necessarily the least one.
        """
        matrix = self.assignment(profile)
        d = math.lcm(*(x.denominator for row in matrix for x in row))
        return [[x.numerator * (d // x.denominator) for x in row] for row in matrix], d

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


def _perm_matrix(perm: tuple[int, ...], n: int) -> AssignmentMatrix:
    return tuple(
        tuple(ONE if a == perm[i] else ZERO for a in range(n)) for i in range(n)
    )


class SerialDictatorship(Mechanism):
    """Agents pick their best remaining object in a fixed priority order."""

    kind = "sd"

    def __init__(self, instance: Instance, order, *, cache: bool = False):
        super().__init__(instance, cache=cache)
        order = tuple(order)
        if sorted(order) != list(instance.agents):
            raise ValueError(f"order must be a permutation of agents, got {order}")
        self.order = order

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        return _perm_matrix(dictatorship_outcome(profile, self.order), self.instance.n)

    def descriptor(self) -> str:
        return "sd:" + ",".join(str(i + 1) for i in self.order)


class RandomPriority(Mechanism):
    """Exact average of serial dictatorship over all n! priority orders.

    Every order carries weight 1/n!; no sampling.  Enumerating the orders
    is subject to the preference enumeration cap.
    """

    kind = "rp"
    anonymous = True

    def __init__(self, instance: Instance, *, cache: bool = False,
                 max_n: Optional[int] = None):
        super().__init__(instance, cache=cache)
        cap = PREFERENCE_ENUM_CAP if max_n is None else max_n
        if instance.n > cap:
            raise CapExceededError("priority-order enumeration", instance.n, cap, "max_n")
        self._orders = list(itertools.permutations(instance.agents))

    def scaled_assignment(self, profile: Profile) -> tuple[list[list[int]], int]:
        """Order counts over n!: ``counts[i][a]`` orders give agent i object a."""
        self._check_length(profile)
        return self._order_counts(profile)

    def _order_counts(self, profile: Profile) -> tuple[list[list[int]], int]:
        n = self.instance.n
        counts = [[0] * n for _ in range(n)]
        for order in self._orders:
            pick = dictatorship_outcome(profile, order)
            for i in range(n):
                counts[i][pick[i]] += 1
        return counts, len(self._orders)

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        counts, total = self._order_counts(profile)
        return tuple(tuple(Fraction(c, total) for c in row) for row in counts)


class SimultaneousEating(Mechanism):
    """Eating mechanism for an arbitrary admissible speed schedule."""

    kind = "sea"

    def __init__(self, instance: Instance, schedule: EatingSpeedSchedule, *,
                 cache: bool = False):
        super().__init__(instance, cache=cache)
        if schedule.n != instance.n:
            raise ValueError(
                f"schedule covers {schedule.n} agents, instance has {instance.n}"
            )
        self.schedule = schedule

    @property
    def anonymous(self) -> bool:
        """Every agent eats on the same schedule."""
        return len(set(self.schedule.pieces)) == 1

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        return eat(profile, self.schedule)


class ProbabilisticSerial(Mechanism):
    """Unit-speed simultaneous eating (every agent eats at speed 1)."""

    kind = "ps"
    anonymous = True

    def scaled_assignment(self, profile: Profile) -> tuple[list[list[int]], int]:
        """The integer eating run itself; no Fractions are built."""
        self._check_length(profile)
        return _eat_unit_scaled(profile, self.instance.n)

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        shares, d = _eat_unit_scaled(profile, self.instance.n)
        return tuple(tuple(Fraction(x, d) for x in row) for row in shares)


class TabulatedMechanism(Mechanism):
    """Mechanism backed by an explicit profile -> assignment table.

    The table must be total over all (n!)**n profiles, and every value must
    be a valid assignment; both are checked up front so axiom sweeps can
    trust lookups blindly.
    """

    kind = "table"

    def __init__(self, instance: Instance, table, *, max_n: Optional[int] = None):
        super().__init__(instance, cache=False)
        checked: dict[Profile, AssignmentMatrix] = {}
        for profile, matrix in table.items():
            key = tuple(tuple(p) for p in profile)
            try:
                checked[key] = validate_assignment(matrix, instance)
            except ValueError as exc:
                raise ValueError(
                    f"invalid assignment for profile {key}: {exc}"
                ) from exc
        for profile in enumerate_profiles(instance, max_n=max_n):
            if profile not in checked:
                raise ValueError(f"table is missing profile {profile}")
        self._table = checked

    def _compute(self, profile: Profile) -> AssignmentMatrix:
        try:
            return self._table[profile]
        except KeyError:
            raise ValueError(f"unknown profile {profile}") from None


def tabulate(mechanism: Mechanism, *, max_n: Optional[int] = None) -> TabulatedMechanism:
    """Snapshot a mechanism into a lookup table over the full domain."""
    table = {
        profile: mechanism.assignment(profile)
        for profile in enumerate_profiles(mechanism.instance, max_n=max_n)
    }
    return TabulatedMechanism(mechanism.instance, table, max_n=max_n)


def constant_mechanism(instance: Instance, matrix) -> TabulatedMechanism:
    """Mechanism returning the same assignment at every profile."""
    fixed = validate_assignment(matrix, instance)
    table = {profile: fixed for profile in enumerate_profiles(instance)}
    return TabulatedMechanism(instance, table)
