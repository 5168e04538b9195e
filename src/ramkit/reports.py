"""Structured verdicts and violation witnesses for axiom checks.

A ViolationReport carries every input needed to replay the failed
comparison (agent, profile or report pair, swap, permutation, prior) plus
the exact left/right values observed, so any report can be re-verified
against the mechanism from scratch.

A pair sweep can find hundreds of thousands of violations, so it keeps
them as packed integer records instead: a :class:`Violations` sequence,
of numerators over the one denominator of the rows swept, which builds a
ViolationReport only when one is read and renders its lines straight
from the records.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .core import (
    Instance,
    ObjectPermutation,
    Preference,
    Profile,
    SwapInfo,
    insert_report,
)
from .domain import reports_at


class _Strings(dict):
    """``make(key)`` by ``key``, each built on its first read."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key) -> str:
        s = self[key] = self.make(key)
        return s


class _Names:
    """Display strings of one instance, each built once while a batch of
    reports renders."""

    def __init__(self, instance: Instance):
        self.objects = names = instance.object_names
        self.pref = _Strings(lambda pref: ">".join(names[x] for x in pref)).__getitem__
        self.profile = _Strings(lambda profile: "|".join(map(self.pref, profile))).__getitem__
        self.object_list = _Strings(lambda xs: ",".join(names[x] for x in xs)).__getitem__
        self.swap = _Strings(
            lambda swap: f"swap=rank{swap.position}:{names[swap.lowered]}<->{names[swap.raised]}"
        ).__getitem__


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
            bits.append(f"violated={self.lhs}{self.relation}{self.rhs}")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


def render_reports(instance: Instance, reports, prefix: str = "") -> list[str]:
    """``prefix + report.render(instance)`` for each report, with the
    display strings the reports share built once."""
    names = _Names(instance)
    return [prefix + report._render(names) for report in reports]


class PairBatch(NamedTuple):
    """The violations of one pair axiom in one batch of the pair kernel.

    A group is ``(r, s, swap, objects, relation, detail, cells, ranks, lhs,
    rhs)``: the move from report ``prefs[r]`` to ``prefs[s]`` failed one
    comparison slot in each of ``cells``, with ``lhs`` and ``rhs`` the
    numerators over ``Violations.D`` and, for sp and weak-sp, ``ranks``
    the prefix of each failure (None otherwise).  The per-cell fields are
    integer arrays, or lists of Python ints where a value exceeds 64 bits.
    Entry ``k`` of the batch is entry ``k - starts[g]`` of the group ``g``
    with ``starts[g] <= k < starts[g + 1]``; ``order`` lists the entries in
    sweep order.
    """

    agent: int
    groups: list
    starts: list
    order: Sequence


#: Most lines in one list given out by :meth:`Violations.render`.
_CHUNK_LINES = 8192


class Violations(Sequence):
    """The violations of one pair axiom, held as :class:`PairBatch` records
    of numerators over ``D``.

    It behaves like the tuple of its reports: ``len``, iteration, an index
    (a ViolationReport built on the spot), a slice (a tuple of reports),
    ``==`` against such a tuple and its hash.  Without a ``prior`` the
    records are ex-post: they name a cell of :mod:`ramkit.domain`, numbered
    in lexicographic order of its opponents' reports, and their reports
    carry ``profile=``.  With one they are interim, and their reports carry
    ``truth=`` and ``prior=`` instead.
    """

    __slots__ = ("axiom", "prefs", "D", "prior", "_batches", "_ends")

    def __init__(self, axiom: str, prefs: list[Preference], batches: list[PairBatch],
                 D: int, prior: object = None):
        self.axiom = axiom
        self.prefs = prefs
        self.D = D
        self.prior = prior
        self._batches = batches
        self._ends = list(itertools.accumulate(len(b.order) for b in batches))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        size = len(self)
        i = operator.index(index)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("violation index out of range")
        b = bisect_right(self._ends, i)
        batch = self._batches[b]
        return self._report(batch, batch.order[i - (self._ends[b - 1] if b else 0)])

    def __iter__(self) -> Iterator[ViolationReport]:
        for batch in self._batches:
            for k in batch.order:
                yield self._report(batch, k)

    def __eq__(self, other) -> bool:
        if isinstance(other, Violations):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return len(other) == len(self) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<Violations axiom={self.axiom} reports={len(self)}>"

    def _report(self, batch: PairBatch, k: int) -> ViolationReport:
        g = bisect_right(batch.starts, k) - 1
        r, s, swap, objects, relation, detail, cells, ranks, lhs, rhs = batch.groups[g]
        at = k - batch.starts[g]
        prefs, agent = self.prefs, batch.agent
        profile = truth = None
        if self.prior is None:
            opponents = reports_at(prefs, len(prefs[0]) - 1, cells[at])
            profile = insert_report(opponents, agent, prefs[r])
        else:
            truth = prefs[r]
        return ViolationReport(
            axiom=self.axiom, agent=agent, profile=profile, truth=truth,
            deviation=prefs[s], swap=swap, objects=objects,
            rank=None if ranks is None else ranks[at],
            lhs=Fraction(lhs[at], self.D), rhs=Fraction(rhs[at], self.D),
            relation=relation, prior=self.prior, detail=detail,
        )

    def render(self, instance: Instance, prefix: str = "") -> Iterator[list[str]]:
        """``prefix + report.render(instance)`` for each report, built from
        the records a batch at a time and given out in lists of at most
        :data:`_CHUNK_LINES` lines, so a writer joins only that many.

        A value string is built once per numerator.  The profile of an
        ex-post cell is the string of the agents before the reporting one,
        then her report, then the agents after.  The strings of j such
        agents are built as the batch's cells read them, and dropped with
        the batch, so memory stays bounded by the lines rendered.
        """
        names = _Names(instance)
        prefs = self.prefs
        m, n = len(prefs), len(prefs[0])
        P = [names.pref(p) for p in prefs]
        V = _Strings(lambda v, d=self.D: str(Fraction(v, d)))
        rank_strings = {rank: f"{rank} violated=" for rank in range(1, n + 1)}
        for batch in self._batches:
            agent = batch.agent
            if self.prior is None:
                step = m ** (n - 1 - agent)
                before = _Strings(
                    lambda c, j=agent: "|".join(reports_at(P, j, c)) + "|"
                ) if agent else [""]
                after = _Strings(
                    lambda c, j=n - 1 - agent: "|" + "|".join(reports_at(P, j, c))
                ) if agent < n - 1 else [""]
                head = f"{prefix}{self.axiom} agent={agent + 1} profile="
            else:  # one cell, 0
                before = after = [""]
                head = f"{prefix}{self.axiom} agent={agent + 1} truth="
                step = 1
            lines: list[str] = []
            for r, s, swap, objects, relation, detail, cells, ranks, lhs, rhs in batch.groups:
                mid = f" deviation={P[s]}"
                if swap is not None:
                    mid += " " + names.swap(swap)
                if objects:
                    mid += " objects=" + names.object_list(objects)
                if ranks is None:
                    mid += " violated="
                    ranks = itertools.repeat("")
                else:
                    mid += " prefix="
                    ranks = map(rank_strings.__getitem__, ranks)
                tail = " " + detail if detail else ""
                truth = P[r]
                lines += [
                    f"{head}{before[c // step]}{truth}{after[c % step]}{mid}{rank}"
                    f"{V[x]}{relation}{V[y]}{tail}"
                    for c, rank, x, y in zip(cells, ranks, lhs, rhs)
                ]
            lines = list(map(lines.__getitem__, batch.order))
            for at in range(0, len(lines), _CHUNK_LINES):
                yield lines[at: at + _CHUNK_LINES]


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one axiom sweep.

    ``violations`` is a sequence of ViolationReports: a tuple, or for the
    ex-post and interim pair checks a :class:`Violations` of integer
    records that behaves like one.

    ``profiles_checked`` counts assignment rows read by the sweep, not
    distinct mechanism evaluations: a pair sweep reads each profile once per
    agent.  Up to the sweep cap it reads a filled table, so it evaluates
    each profile at most once (an anonymous mechanism once per multiset of
    reports); past the cap it evaluates a profile on every read, once per
    agent that reads it and again when a failed batch is swept cell by
    cell.  A profile sweep (neutrality, ETE, OE,
    ex-post) counts each profile it visits once.  ``comparisons`` counts
    the exact comparisons made.  Both are deterministic for a given mode,
    independent of parallelism degree.
    """

    axiom: str
    satisfied: bool
    violations: Sequence[ViolationReport] = field(default_factory=tuple)
    profiles_checked: int = 0
    comparisons: int = 0

    def __post_init__(self):
        if self.satisfied != (len(self.violations) == 0):
            raise ValueError("verdict inconsistent with the violation list")

    @property
    def verdict(self) -> str:
        return "satisfied" if self.satisfied else "violated"
