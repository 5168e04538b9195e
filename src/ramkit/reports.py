"""Structured verdicts and violation witnesses for axiom checks.

A ViolationReport carries every input needed to replay the failed
comparison (agent, profile or report pair, swap, permutation, prior) plus
the exact left/right values observed, so any report can be re-verified
against the mechanism from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Instance,
    ObjectPermutation,
    Preference,
    Profile,
    SwapInfo,
)


class _Names:
    """Display strings of one instance, each built once while a batch of
    reports renders: a pair sweep's reports share a few preferences, swaps
    and values among hundreds of thousands of violations."""

    def __init__(self, instance: Instance):
        self.objects = instance.object_names
        self._prefs: dict[Preference, str] = {}
        self._profiles: dict[Profile, str] = {}
        # keyed by id(), since hashing a Fraction is slow; each entry holds
        # its value, so an id is not reused while the memo lives
        self._values: dict[int, tuple[Fraction, str]] = {}
        self._swaps: dict[SwapInfo, str] = {}
        self._lists: dict[tuple[int, ...], str] = {}

    def pref(self, pref: Preference) -> str:
        s = self._prefs.get(pref)
        if s is None:
            s = self._prefs[pref] = ">".join(self.objects[x] for x in pref)
        return s

    def profile(self, profile: Profile) -> str:
        s = self._profiles.get(profile)
        if s is None:
            s = self._profiles[profile] = "|".join(self.pref(p) for p in profile)
        return s

    def value(self, value: Fraction) -> str:
        hit = self._values.get(id(value))
        if hit is None:
            hit = self._values[id(value)] = (value, str(value))
        return hit[1]

    def object_list(self, objects: tuple[int, ...]) -> str:
        s = self._lists.get(objects)
        if s is None:
            s = self._lists[objects] = ",".join(self.objects[x] for x in objects)
        return s

    def swap(self, swap: SwapInfo) -> str:
        s = self._swaps.get(swap)
        if s is None:
            names = self.objects
            s = self._swaps[swap] = (
                f"swap=rank{swap.position}:{names[swap.lowered]}<->{names[swap.raised]}"
            )
        return s


@dataclass(frozen=True, slots=True)
class ViolationReport:
    """Self-certifying witness of one axiom failure."""

    axiom: str
    agent: Optional[int] = None          # 0-based; rendered 1-based
    agent2: Optional[int] = None
    profile: Optional[Profile] = None
    truth: Optional[Preference] = None   # interim checks: the true preference
    deviation: Optional[Preference] = None
    swap: Optional[SwapInfo] = None
    sigma: Optional[ObjectPermutation] = None
    objects: tuple[int, ...] = ()
    component: Optional[tuple[int, ...]] = None
    rank: Optional[int] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    relation: str = ""
    prior: object = None                 # interim checks attach the Prior used
    detail: str = ""

    def render(self, instance: Instance) -> str:
        return self._render(_Names(instance))

    def _render(self, names: _Names) -> str:
        bits = [self.axiom]
        if self.agent is not None:
            bits.append(f"agent={self.agent + 1}")
        if self.agent2 is not None:
            bits.append(f"other_agent={self.agent2 + 1}")
        if self.profile is not None:
            bits.append("profile=" + names.profile(self.profile))
        if self.truth is not None:
            bits.append("truth=" + names.pref(self.truth))
        if self.deviation is not None:
            bits.append("deviation=" + names.pref(self.deviation))
        if self.swap is not None:
            bits.append(names.swap(self.swap))
        objects = names.objects
        if self.sigma is not None:
            bits.append(
                "sigma=" + ",".join(
                    f"{objects[x]}->{objects[y]}"
                    for x, y in enumerate(self.sigma) if x != y
                )
            )
        if self.objects:
            bits.append("objects=" + names.object_list(self.objects))
        if self.component is not None:
            bits.append(
                "component=" + ",".join(
                    f"{i + 1}:{objects[a]}" for i, a in enumerate(self.component)
                )
            )
        if self.rank is not None:
            bits.append(f"prefix={self.rank}")
        if self.lhs is not None and self.rhs is not None:
            bits.append(
                "violated=" + names.value(self.lhs) + self.relation + names.value(self.rhs)
            )
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


class _Unfrozen:
    """ViolationReport's slots without its frozen ``__setattr__``."""

    __slots__ = ViolationReport.__slots__


def pair_report(
    axiom: str, agent: int, profile: Optional[Profile], truth: Optional[Preference],
    deviation: Preference, swap: Optional[SwapInfo], objects: tuple[int, ...],
    rank: Optional[int], lhs: Fraction, rhs: Fraction, relation: str,
    prior: object, detail: str,
) -> ViolationReport:
    """The report ``ViolationReport(axiom=axiom, agent=agent, ...)`` of a
    report-pair violation, ex-post (``profile``) or interim (``truth`` and
    ``prior``); the other fields keep their defaults.

    A pair sweep can record hundreds of thousands of these, and the frozen
    dataclass ``__init__`` makes one ``object.__setattr__`` call per field,
    about six times the cost of plain slot stores.  So the fields are
    stored on an instance with the same slots, which then becomes a
    ViolationReport.
    """
    r = _Unfrozen()
    r.axiom = axiom
    r.agent = agent
    r.agent2 = None
    r.profile = profile
    r.truth = truth
    r.deviation = deviation
    r.swap = swap
    r.sigma = None
    r.objects = objects
    r.component = None
    r.rank = rank
    r.lhs = lhs
    r.rhs = rhs
    r.relation = relation
    r.prior = prior
    r.detail = detail
    r.__class__ = ViolationReport
    return r


def render_reports(instance: Instance, reports, prefix: str = "") -> list[str]:
    """``prefix + report.render(instance)`` for each report, with the
    display strings the reports share built once."""
    names = _Names(instance)
    return [prefix + report._render(names) for report in reports]


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one axiom sweep.

    ``profiles_checked`` counts assignment rows read by the sweep, not
    distinct mechanism evaluations: a pair sweep reads each profile once per
    agent but evaluates it once.  ``comparisons`` counts the exact
    comparisons made.  Both are deterministic for a given mode, independent
    of parallelism degree.
    """

    axiom: str
    satisfied: bool
    violations: tuple[ViolationReport, ...] = field(default_factory=tuple)
    profiles_checked: int = 0
    comparisons: int = 0

    def __post_init__(self):
        if self.satisfied != (len(self.violations) == 0):
            raise ValueError("verdict inconsistent with the violation list")

    @property
    def verdict(self) -> str:
        return "satisfied" if self.satisfied else "violated"
