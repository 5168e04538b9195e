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
    """The violations of one pair axiom in one batch of the pair kernel,
    in sweep order.

    Entry ``k`` failed, in cell ``cells[k]``, one comparison slot of the
    move ``groups[group[k]] = (r, s, swap, objects, relation, detail)``
    from report ``prefs[r]`` to ``prefs[s]``, with ``lhs[k]`` and
    ``rhs[k]`` the numerators over ``Violations.D`` and, for sp and
    weak-sp, ``ranks[k]`` the prefix of the failure (``ranks`` is None
    otherwise).  The per-entry fields are integer arrays, or lists of
    Python ints where a value exceeds 64 bits.  The agent copies of an
    anonymous sweep share every field but ``agent``, and
    :meth:`Violations.render` builds one sweep-order view of the lines'
    shared parts for them all.
    """

    agent: int
    groups: list
    group: Sequence
    cells: Sequence
    ranks: Optional[Sequence]
    lhs: Sequence
    rhs: Sequence

    def first(self) -> "PairBatch":
        """This batch cut to its first entry."""
        return PairBatch(self.agent, self.groups,
                         *(None if field is None else field[:1] for field in self[2:]))


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
        self._ends = list(itertools.accumulate(len(b.cells) for b in batches))

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
        return self._report(self._batches[b], i - (self._ends[b - 1] if b else 0))

    def __iter__(self) -> Iterator[ViolationReport]:
        for batch in self._batches:
            for k in range(len(batch.cells)):
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
        r, s, swap, objects, relation, detail = batch.groups[batch.group[k]]
        prefs, agent = self.prefs, batch.agent
        profile = truth = None
        if self.prior is None:
            opponents = reports_at(prefs, len(prefs[0]) - 1, batch.cells[k])
            profile = insert_report(opponents, agent, prefs[r])
        else:
            truth = prefs[r]
        return ViolationReport(
            axiom=self.axiom, agent=agent, profile=profile, truth=truth,
            deviation=prefs[s], swap=swap, objects=objects,
            rank=None if batch.ranks is None else batch.ranks[k],
            lhs=Fraction(batch.lhs[k], self.D), rhs=Fraction(batch.rhs[k], self.D),
            relation=relation, prior=self.prior, detail=detail,
        )

    def render(self, instance: Instance, prefix: str = "") -> Iterator[list[str]]:
        """``prefix + report.render(instance)`` for each report, built from
        the records a batch at a time and given out in lists of at most
        :data:`_CHUNK_LINES` lines, so a writer joins only that many.

        A line is the part before the reporting agent's report (the head
        and the reports of the agents before her), her report, the reports
        of the agents after her, and the entry's tail.  The truths and
        tails come from the batch's view (:func:`_sweep_view`), built once
        for each distinct set of records and shared by the agent copies of
        an anonymous sweep, which follow one another; each view is dropped
        before the next is built.  The parts before and after
        come from one table per count j of agents (:func:`_report_table`),
        in which each string is the one of j-1 agents plus one report.  A
        table is built whole only when its ``m**j`` strings are at most the
        batch's lines, and otherwise string by string as the cells read
        them, so its size stays within the lines rendered even past the
        sweep cap; the tables are dropped with the batch.
        """
        names = _Names(instance)
        prefs = self.prefs
        m, n = len(prefs), len(prefs[0])
        P = [names.pref(p) for p in prefs]
        value = _Strings(lambda v, d=self.D: str(Fraction(v, d))).__getitem__
        before_parts = [p + "|" for p in P]
        after_parts = ["|" + p for p in P]
        records = view = None
        for batch in self._batches:
            if records is None or any(map(operator.is_not, batch[1:], records)):
                records, view = batch[1:], None
                view = _sweep_view(batch, P, names, value)
            truths, tails = view
            cells, agent, size = batch.cells, batch.agent, len(batch.cells)
            if self.prior is None:
                step = m ** (n - 1 - agent)
                head = f"{prefix}{self.axiom} agent={agent + 1} profile="
                before = _report_table(before_parts, agent, head, size)
                after = _report_table(after_parts, n - 1 - agent, "", size)
            else:  # one cell, 0
                step = 1
                before = [f"{prefix}{self.axiom} agent={agent + 1} truth="]
                after = [""]
            for at in range(0, size, _CHUNK_LINES):
                end = at + _CHUNK_LINES
                yield [
                    f"{before[c // step]}{truth}{after[c % step]}{tail}"
                    for c, truth, tail in zip(cells[at:end], truths[at:end], tails[at:end])
                ]


def _sweep_view(batch: PairBatch, P: list[str], names: _Names, value):
    """``(truths, tails)`` of a batch's entries, in its sweep order: each
    entry's truth string ``P[r]``, and its tail, which is the deviation,
    swap, objects and prefix, then the left value and relation, then the
    right value and detail.  Each tail is built once per group and
    ``(rank, lhs, rhs)``, and the entries refer to it."""
    parts = []  # per group: its fixed middle, relation and end
    for r, s, swap, objects, relation, detail in batch.groups:
        mid = f" deviation={P[s]}"
        if swap is not None:
            mid += " " + names.swap(swap)
        if objects:
            mid += " objects=" + names.object_list(objects)
        parts.append((mid, relation, " " + detail if detail else ""))

    def tail(key) -> str:
        g, rank, x, y = key
        mid, relation, end = parts[g]
        if rank is not None:
            mid += f" prefix={rank}"
        return f"{mid} violated={value(x)}{relation}{value(y)}{end}"

    truth_of = [P[group[0]] for group in batch.groups]
    ranks = itertools.repeat(None) if batch.ranks is None else batch.ranks
    return (
        list(map(truth_of.__getitem__, batch.group)),
        list(map(_Strings(tail).__getitem__, zip(batch.group, ranks, batch.lhs, batch.rhs))),
    )


def _report_table(parts: list[str], j: int, base: str, size: int):
    """``table[c]`` for ``c`` in ``[0, m**j)``: ``base``, then ``parts[d]``
    for each base-``m`` digit ``d`` of ``c``, most significant first, with
    ``m = len(parts)``.  The strings of j digits are those of j-1 plus one
    part.  A level is built whole while it has at most ``size`` strings,
    and string by string on first read past that."""
    m = len(parts)
    table = [base]
    for k in range(1, j + 1):
        if m ** k <= size:
            table = [t + part for t in table for part in parts]
        else:
            table = _Strings(lambda c, prev=table: prev[c // m] + parts[c % m])
    return table


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
    reports, and one that is also neutral, such as PS, once per multiset of
    the identity report's opponent reports); past the cap it evaluates a
    profile on every read, once per agent that reads it.  A profile sweep
    (neutrality, ETE, OE, ex-post) counts each profile it visits once.
    ``comparisons`` counts exact comparisons.  Where a sweep takes a
    shortcut, it reports the count of the check the shortcut stands for,
    computed by arithmetic: the first-mode pair counters are those of a
    cell-by-cell sweep, and an orbit that passes neutrality counts those
    of comparing every member with every relabeling (PS neutrality at n=4
    reports 127,401,984 and makes 331,776 row comparisons).  Both are
    deterministic for a given mode, independent of parallelism degree.
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
