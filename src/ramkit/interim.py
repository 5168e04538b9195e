"""Priors, interim shares and prior-based incentive checks.

The interim share vector of an agent reporting some preference is the
prior-weighted average of her ex-post rows over all opponent profiles,
with i.i.d. opponent draws.  On top of that this module verifies ordinal
Bayesian incentive compatibility (OBIC), its three-axiom interim
decomposition, the rank structure of interim shares under relabeling-
symmetric mechanisms, and runs the sampled falsification search for
local robustness of OBIC around a prior.

All prior probabilities are exact rationals; sampled priors live on an
integer grid with a fixed denominator so downstream sums stay exact.

The checks read every agent's interim rows from one integer pass over the
prior's support domain (:func:`_interim_rows`): the prior becomes integer
weights over its common denominator ``Q``, and only profiles with at most
one off-support report carry weight.  The rows come by one of two
routes.  An anonymous and neutral mechanism (``Mechanism.anonymous`` and
``Mechanism.neutral``: PS, RP, eating at one speed for all) gives every
agent the same rows, and relabeling the objects relabels them, so every
report's row is read from the identity report's.  A walk over the
multisets of the identity report's opponent reports, pruned wherever no
report is weighed, serves any n.  It keeps sums for one report per orbit
of the relabelings that fix the prior (one under the uniform prior), and
each evaluation also gives, through neutrality, the identity report's
row against the multisets that relabel the others' reports; those rows
wait in a bounded map until the walk reaches them, and a full map takes
no more.  So each profile is evaluated at most once (762 PS evaluations
at n=4 under the uniform prior, out of 2,600 multisets; 702 out of 1,736
under a prior on half the preferences; at n=5 under the uniform prior,
8,803,979 out of 9,078,630, since the map fills early).  The walk packs
each row into one integer, a slot of ``(D * Q**(n-1)).bit_length() + 1``
bits per share, which no weighted sum fills past its slot, so adding a
row to a report's sums is one integer multiply-add; it carries each
multiset's number of orderings down from its prefix, and reads ``s_r``
on report indices through one cache per report, which holds only the
images the walk reads (at most ``m * m``, 14,400 at n=5).  Any other
mechanism is evaluated once per profile with at most one off-support
report, and each agent's rows are summed over ordered opponent
profiles.  Both routes evaluate through
:meth:`Mechanism.scaled_assignment`, stream into the sums and hold no
table.  Every agent's rows come out as integers over one denominator,
``mech.D * Q**(n-1)``, and OBIC and the interim em/ui/li run on them in
the ex-post pair sweep's column kernel (:class:`ramkit.axioms._PairSweep`),
one single-cell batch per agent.  The agents of an anonymous and neutral
mechanism share one set of rows, so the kernel sweeps agent 1's once and
relabels its violations for the others.  The pass reads no memo, and a
mechanism's memo stays empty; the walk stores only its map of pending
rows, of at most :data:`_PENDING_ROWS` rows, and its image caches.
:func:`obic_decomposition_report` builds the rows once for OBIC and the
em/ui/li sweep.  :func:`interim_share_vector` is a separate Fraction
route, and replaying a witness reads its rows only from that route.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, factorial
from operator import lshift
from typing import Optional

from .core import (
    ONE,
    ZERO,
    Instance,
    Preference,
    ShareVector,
    _as_exact,
    _check_sweep_cap,
    enumerate_preferences,
    insert_report,
    relabeling_action,
    report_inverse,
)
from .axioms import _PairSweep, _replay_pair, _swap_pairs
from .domain import sorted_rows
from .mechanisms import Mechanism
from .reports import CheckOutcome, ViolationReport

#: Denominator of the sampling grid for priors.
PRIOR_GRID = 10 ** 6

#: Number of redraws before the ball sampler gives up.
SAMPLER_RETRY_BUDGET = 10_000

INTERIM_AXIOMS = ("interim-em", "interim-ui", "interim-li")

#: The pair kernel's labels for interim rows (see ``axioms._EX_POST_LABELS``):
#: strategy-proofness on interim rows is OBIC.
_INTERIM_LABELS = {
    "sp": ("obic", "interim truthful prefix falls below deviation"),
    "em": ("interim-em", "interim share of the raised object decreased",
           "interim share of the lowered object increased"),
    "ui": ("interim-ui", "interim share above the pair moved"),
    "li": ("interim-li", "interim share below the pair moved"),
}

#: Interim axiom name -> the pair axiom the kernel checks for it.
_PAIR_AXIOM = {label[0]: ax for ax, label in _INTERIM_LABELS.items()}

#: Most rows :func:`_neutral_sums` holds for multisets its walk has not
#: reached yet.  A full map takes no more rows, and the walk evaluates
#: the multisets whose rows it did not take when it gets there, so no
#: result depends on the bound.  PS never fills it at n=4 (at most 1,104
#: rows); at n=5 under the uniform prior it fills early, and the walk
#: evaluates 8,803,979 of the 9,078,630 multisets.
_PENDING_ROWS = 1 << 16


class SamplingExhaustedError(RuntimeError):
    """No valid grid point found within the sampler's retry budget."""


class InternalConsistencyError(AssertionError):
    """Two routes that must agree by construction disagreed; a bug."""


@dataclass(frozen=True)
class Prior:
    """Probability distribution over all n! preferences, used i.i.d.

    ``probs`` is aligned with :func:`ramkit.core.enumerate_preferences`.
    A prior already lists all n! probabilities, so its preferences are
    enumerated at any n, past the preference cap.
    """

    instance: Instance
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        count = factorial(self.instance.n)
        if len(self.probs) != count:
            raise ValueError(f"expected {count} probabilities, got {len(self.probs)}")
        cleaned = []
        for p in self.probs:
            p = _as_exact(p, "probability")
            if p < 0:
                raise ValueError(f"negative probability {p}")
            cleaned.append(p)
        total = sum(cleaned)
        if total != ONE:
            raise ValueError(
                f"probabilities sum to {total}; off by {ONE - total}"
            )
        object.__setattr__(self, "probs", tuple(cleaned))

    @classmethod
    def from_mapping(cls, instance: Instance, mapping) -> "Prior":
        prefs = enumerate_preferences(instance, max_n=instance.n)
        lookup = {tuple(k): v for k, v in mapping.items()}
        unknown = set(lookup) - set(prefs)
        if unknown:
            raise ValueError(f"unknown preference {sorted(unknown)[0]}")
        missing = [p for p in prefs if p not in lookup]
        if missing:
            raise ValueError(f"missing probability for preference {missing[0]}")
        return cls(instance, tuple(lookup[p] for p in prefs))

    def items(self):
        prefs = enumerate_preferences(self.instance, max_n=self.instance.n)
        return tuple(zip(prefs, self.probs))


def uniform_prior(instance: Instance) -> Prior:
    """Probability exactly 1/n! on every preference."""
    count = factorial(instance.n)
    return Prior(instance, tuple(Fraction(1, count) for _ in range(count)))


def _check_prior(mech: Mechanism, prior: Prior) -> None:
    """Reject a prior over preferences of another number of objects."""
    if prior.instance.n != mech.instance.n:
        raise ValueError(
            f"prior is over n={prior.instance.n} objects, "
            f"the mechanism over n={mech.instance.n}"
        )


def _check_agents(n: int, agents) -> None:
    """Reject an agent index outside ``0..n-1``."""
    for i in agents:
        if not 0 <= i < n:
            raise ValueError(f"agent {i + 1} is not one of agents 1..{n}")


def _interim_rows(
    mech: Mechanism, prior: Prior, *, agents=None, max_n: Optional[int] = None
) -> tuple[dict[int, list[list[int]]], int]:
    """Interim share vector of every report of each of ``agents`` (default
    all), from one integer pass over the prior's support domain.

    Returns ``(rows_by_agent, common)``: ``rows_by_agent[i][k]`` holds the
    numerators of agent i's interim shares for report
    ``enumerate_preferences()[k]``, all over ``common = mech.D * Q**(n-1)``;
    the pair kernel reads an agent's rows as a batch of one cell
    (:class:`_RowCells`).

    With ``Q`` the prior's common denominator and ``w[p] = prob(p) * Q``,
    agent i's interim row for report r is the sum over opponent profiles of
    ``prod_{j != i} w[P_j] * row_i(P)``, over ``Q**(n-1)``.  Only profiles in
    which at least n-1 agents report a positive-probability preference
    carry weight for some agent.  Every agent of an anonymous and neutral
    mechanism gets the same rows, evaluated at most once per weighing
    multiset of the identity report's opponent reports
    (:func:`_neutral_sums`); any
    other mechanism is evaluated once per such profile
    (:func:`_profile_sums`).  Both routes evaluate through
    :meth:`Mechanism.scaled_assignment`, and the weighted numerators over
    ``mech.D`` are summed as integers.  No Fraction is built.
    """
    instance = mech.instance
    _check_prior(mech, prior)
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    prefs = enumerate_preferences(instance, max_n=max_n)
    agents = tuple(instance.agents) if agents is None else tuple(agents)
    _check_agents(n, agents)
    q = math.lcm(*(p.denominator for p in prior.probs))
    weights = [p.numerator * (q // p.denominator) for p in prior.probs]
    if mech.anonymous and mech.neutral:
        sums = _neutral_sums(mech, prefs, weights)
        rows_by_agent = {i: sums for i in agents}  # read only, never written
    else:
        rows_by_agent = _profile_sums(mech, prefs, weights, agents)
    return rows_by_agent, mech.D * q ** (n - 1)


def _add(acc: list[int], weight: int, row) -> None:
    """Add ``weight * row`` into ``acc``, skipping zero shares."""
    for a, x in enumerate(row):
        if x:
            acc[a] += weight * x


def _neutral_sums(mech: Mechanism, prefs, weights: list[int]) -> list[list[int]]:
    """Weighted numerators of any agent's interim row for each report of
    an anonymous and neutral mechanism, from at most one evaluation per
    multiset of opponent reports of the identity report ``prefs[0]`` that
    weighs some report.

    With ``s_r`` the inverse of report r (:mod:`ramkit.core`), neutrality
    gives ``row(r, M)[r[k]] = row(id, s_r M)[k]``.  So, with
    ``M' = s_r M``, the share of object ``r[k]`` in the row for report r is
    ``acc[r][k] = sum_M' mult(M') * prod_{p in M'} w[r o p] * row(id, M')[k]``
    over the multisets ``M'`` of n-1 reports, where ``r o p = s_r^-1 p``
    reads p's objects through r.

    A relabeling ``σ`` that fixes the prior gives ``acc[σ·r] = acc[r]``, so
    the walk keeps sums only for the smallest report of each orbit
    (:func:`_prior_orbits`): one report under the uniform prior, 6 of 24
    under a prior uniform on the 12 preferences of n=4 that rank a or b
    first, all of them under a generic prior.  It grows the sorted ``M'``
    one report at a time, in lexicographic order, and keeps at each prefix
    only the kept reports r whose prefix weight ``prod w[r o p]`` is
    nonzero, with that weight.  ``mult(M')``, the number of orderings of
    ``M'``, comes down the walk with it: appending a report to a prefix of
    d reports multiplies it by ``d + 1`` and divides it by the length of
    the run of equal reports the new one ends.  Children come from
    ``steps[r]``: every p with ``r o p`` on the support, that is
    ``p = s_r(q)`` for an on-support q, with ``w[q]``.

    ``s_r`` acts on report indices through one cache per report, which
    computes each image by :func:`ramkit.core.relabeling_action` the first
    time the walk reads it.  The caches hold at most ``m * m`` indices (576
    at n=4, 14,400 at n=5), and only those the walk reads: no table is
    built whole, which at n=7 would hold 25,401,600.

    Each row is packed into one integer, share k in bits
    ``[k*width, (k+1)*width)`` with ``width = (D * Q**(n-1)).bit_length() + 1``
    and ``Q = sum(w)``.  A slot of a row (at most ``D``), of ``mult(M')``
    times a row, or of a kept report's sums is part of a finished share's
    numerator, a sum of non-negative terms whose weights total at most
    ``Q**(n-1)``; so no slot exceeds ``D * Q**(n-1)`` or carries into the
    next.  Adding a weighted row to a kept report's sums is one integer
    multiply-add, and the sums are unpacked once at the end.

    A full ``M'`` is evaluated once at the sorted profile ``(id,) + M'``
    (:func:`ramkit.domain.sorted_rows`, whose anonymity guard runs at
    every profile evaluated), and streamed into the sums.  The evaluation
    also gives each other report r in it a row against the others'
    multiset ``O``; read through neutrality, that is the identity report's
    row ``[row_r[a] for a in r]`` against ``sorted(s_r O)``: the images of
    the whole profile, sorted, less the first, ``s_r(r)``, the identity
    report.  When the walk has not reached that multiset yet and will
    (every report of ``s_r O`` shares a kept report's ``reach`` bit), the
    row waits, packed, in the ``pending`` map, and the walk takes it there
    instead of evaluating; only a row that waits is packed.  So each
    profile is evaluated once, and fewer of them: PS at n=4 takes 762
    evaluations under the uniform prior (2,600 multisets) and 702 under
    the prior above (1,736), holding at most 1,104 and 402 pending rows.
    Once the map holds :data:`_PENDING_ROWS` rows the walk stashes no more
    and evaluates the multisets it reaches without a row: PS at n=5 under
    the uniform prior takes 8,803,979 evaluations of 9,078,630 multisets."""
    n, m = len(prefs[0]), len(prefs)
    width = (mech.D * sum(weights) ** (n - 1)).bit_length() + 1
    shifts = range(0, n * width, width)
    act = relabeling_action(prefs)
    on = [q for q, w in enumerate(weights) if w]
    on_weights = [weights[q] for q in on]
    rep = _prior_orbits(prefs, weights, on)
    kept = [r for r in range(m) if rep[r] == r]
    inverse = list(map(report_inverse, prefs))  # inverse[r]: s_r
    images = [cache(lambda q, s=s: act(s, (q,))[0]) for s in inverse]  # images[r](q): s_r(q)
    # steps[r]: (p, w[r o p]) for every p with r o p on the support, by p
    steps = {r: sorted(zip(map(images[r], on), on_weights)) for r in kept}
    # reach[p]: a bit for each kept report r with r o p on the support, so
    # a multiset weighs some kept report, and the walk visits it, when the
    # bits of its reports have one in common
    reach = [0] * m
    for bit, r in enumerate(kept):
        for p, _ in steps[r]:
            reach[p] |= 1 << bit

    def pack(shares) -> int:
        return sum(map(lshift, shares, shifts))

    # acc[r]: the packed numerators of the shares of objects r[0], r[1], ...
    # for kept report r
    acc = [0] * m
    # pending[M']: the packed identity row against a multiset the walk has
    # not reached yet, read off an earlier evaluation
    pending: dict[tuple[int, ...], int] = {}

    def identity_row(members: tuple[int, ...]) -> int:
        """``row(id, members)`` packed: the pending row, or else evaluated,
        with the rows the evaluation gives the walk's later multisets
        stashed."""
        row = pending.pop(members, None)
        if row is not None:
            return row
        reports = (0,) + members
        out = sorted_rows(mech, prefs, reports)
        for i in range(1, n):
            r = reports[i]
            if r == reports[i - 1] or len(pending) >= _PENDING_ROWS:
                continue
            moved = sorted(map(images[r], reports))
            del moved[0]  # s_r(r), the identity report, sorts first
            key = tuple(moved)
            if key <= members or key in pending:
                continue
            bits = -1
            for p in moved:
                bits &= reach[p]
            if bits:
                pending[key] = pack(map(out[i].__getitem__, prefs[r]))
        return pack(out[0])

    def walk(members: tuple[int, ...], node: list[tuple[int, int]], mult: int, run: int):
        """Visit the multisets that extend ``members``; ``mult`` is its
        number of orderings and ``run`` the length of its last run."""
        if len(members) == n - 1:
            row = mult * identity_row(members)
            for r, weight in node:
                acc[r] += weight * row
            return
        children: dict[int, list[tuple[int, int]]] = {}
        for r, weight in node:
            step = steps[r]
            # p >= the last member keeps M' sorted; () sorts before every step
            for p, w in step[bisect_left(step, members[-1:]):]:
                children.setdefault(p, []).append((r, weight * w))
        size, last = len(members) + 1, members[-1] if members else None
        for p in sorted(children):
            length = run + 1 if p == last else 1
            walk(members + (p,), children[p], mult * size // length, length)

    walk((), [(r, 1) for r in kept], 1, 0)
    # walk refers to itself; unbinding it frees the walk's state on return
    # instead of at some later cycle collection
    del walk
    if pending:
        raise InternalConsistencyError(
            f"{len(pending)} rows were stashed for multisets the walk never reached"
        )
    mask = (1 << width) - 1
    sums = {r: [acc[r] >> shift & mask for shift in shifts] for r in kept}
    return [[sums[rep[r]][k] for k in inverse[r]] for r in range(m)]


def _prior_orbits(prefs, weights: list[int], on: list[int]) -> list[int]:
    """``rep[r]``: the smallest report of r's orbit under the relabelings
    that fix the prior, acting on indices into ``prefs`` as in
    :mod:`ramkit.core`.  A relabeling ``σ`` fixes the prior when
    ``w[σ·q] == w[q]`` for every q on the support ``on``: a bijection that
    keeps the support's weights maps the rest to weight zero too.  Finding
    them reads each relabeling's images of ``on`` in one call, ``m *
    len(on)`` lookups.  Relabelings act on reports freely, so each orbit
    has one member per fixing relabeling, and listing the orbits takes
    ``m`` lookups."""
    act = relabeling_action(prefs)
    on_weights = [weights[q] for q in on]
    fixing = [s for s in prefs if [weights[p] for p in act(s, on)] == on_weights]
    rep = [-1] * len(prefs)
    for r in range(len(prefs)):
        if rep[r] < 0:
            for sigma in fixing:
                rep[act(sigma, (r,))[0]] = r
    return rep


def _profile_sums(
    mech: Mechanism, prefs, weights: list[int], agents
) -> dict[int, list[list[int]]]:
    """Weighted numerators of each of ``agents``' interim rows for each
    report, one evaluation per profile: where all n reports are on the
    support, every agent accumulates; where exactly one agent is off it,
    only that agent does, once per off-support report."""
    n = len(prefs[0])
    on = [k for k, w in enumerate(weights) if w]
    on_prefs = [prefs[k] for k in on]
    on_weights = [weights[k] for k in on]
    # sums[i][k]: agent i's weighted numerators for report prefs[k]
    sums = {i: [[0] * n for _ in prefs] for i in agents}
    scaled = mech.scaled_assignment
    for profile, ks, ws in zip(
        itertools.product(on_prefs, repeat=n),
        itertools.product(on, repeat=n),
        itertools.product(on_weights, repeat=n),
    ):
        rows = scaled(profile)
        total = math.prod(ws)
        for i in agents:
            _add(sums[i][ks[i]], total // ws[i], rows[i])
    for i in agents:
        for k, w in enumerate(weights):
            if w:
                continue
            report = prefs[k]
            for opponents, ws in zip(
                itertools.product(on_prefs, repeat=n - 1),
                itertools.product(on_weights, repeat=n - 1),
            ):
                _add(sums[i][k], math.prod(ws),
                     scaled(insert_report(opponents, i, report))[i])
    return sums


def interim_share_vector(
    mech: Mechanism, agent: int, report: Preference, prior: Prior, *,
    max_n: Optional[int] = None,
) -> ShareVector:
    """Exact prior-weighted average of the agent's rows over opponents.

    This is the independent Fraction route, one ``assignment`` call per
    positive-weight opponent profile; replaying a witness relies on it not
    sharing code with :func:`_interim_rows`.
    """
    instance = mech.instance
    _check_prior(mech, prior)
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    _check_agents(n, (agent,))
    if sorted(report) != list(range(n)):
        raise ValueError(f"report {report} is not a preference over the {n} objects")
    support = [(p, w) for p, w in prior.items() if w != 0]
    acc = [ZERO] * n
    for combo in itertools.product(support, repeat=n - 1):
        weight = math.prod((w for _, w in combo), start=ONE)
        opponents = tuple(p for p, _ in combo)
        row = mech.assignment(insert_report(opponents, agent, report))[agent]
        for a in range(n):
            if row[a] != 0:
                acc[a] += weight * row[a]
    if sum(acc) != ONE:
        raise InternalConsistencyError("interim shares do not sum to 1")
    return tuple(acc)


class _RowCells:
    """Interim rows as a source for the pair kernel: one cell per agent,
    every row over the one denominator ``D``.  It is ``anonymous`` when
    every agent shares one set of rows, as :func:`_interim_rows` gives an
    anonymous and neutral mechanism's agents, so the kernel sweeps them
    once."""

    cells = 1

    def __init__(self, rows_by_agent: dict[int, list[list[int]]], D: int):
        self.rows_by_agent = rows_by_agent
        self.D = D
        self.agents = tuple(rows_by_agent)
        first = rows_by_agent[self.agents[0]]
        self.anonymous = all(rows is first for rows in rows_by_agent.values())

    def read(self, agent: int, start: int, count: int) -> tuple[list, None]:
        return [[[x] for x in row] for row in self.rows_by_agent[agent]], None


def _interim_sweep(table, prior: Prior, *groups) -> list[dict[str, CheckOutcome]]:
    """The pair kernel on the interim rows ``table`` of :func:`_interim_rows`,
    one cell per agent, exhaustive: one sweep per group of pair-axiom
    names in ``groups``, each with its own counters, all on one preference
    list and one swap-pair table; the outcomes carry interim names."""
    # the rows exist, so their preferences passed the caller's max_n
    prefs = enumerate_preferences(prior.instance, max_n=prior.instance.n)
    pairs = _swap_pairs(prefs)
    source = _RowCells(*table)
    return [
        _PairSweep(prefs, axioms, first_only=False, labels=_INTERIM_LABELS,
                   prior=prior, pairs=pairs).run(source)
        for axioms in groups
    ]


def check_obic(mech: Mechanism, prior: Prior, *, max_n: Optional[int] = None) -> CheckOutcome:
    """Truth-telling must FOSD every deviation in interim shares."""
    return _interim_sweep(_interim_rows(mech, prior, max_n=max_n), prior, ("sp",))[0]["obic"]


def run_interim_sweep(
    mech: Mechanism, prior: Prior, axioms=INTERIM_AXIOMS, *,
    max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Interim swap axioms, exhaustive, on one set of interim rows: for
    every agent and every adjacent swap of her report,

    - ``interim-em``: raising an object one rank weakly raises its interim
      share and weakly lowers the displaced object's;
    - ``interim-ui`` / ``interim-li``: the interim shares of the objects
      above / below the swapped pair are unchanged.
    """
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in INTERIM_AXIOMS:
            raise ValueError(f"unknown interim axiom {ax!r}")
    table = _interim_rows(mech, prior, max_n=max_n)
    return _interim_sweep(table, prior, [_PAIR_AXIOM[ax] for ax in axioms])[0]


@dataclass(frozen=True)
class RankVectorReport:
    """Interim shares of one agent organized by rank of the report.

    ``vectors[p][k]`` is the interim share of the object that report ``p``
    ranks (k+1)-th.  ``rank_invariant`` says the share depends only on the
    rank, not on the report; ``rank_monotone`` says every report's vector
    is non-increasing in rank.  When invariance holds, ``rank_vector`` is
    the common per-rank vector (entries sum to 1).
    """

    agent: int
    prior: Prior
    vectors: dict[Preference, tuple[Fraction, ...]]
    rank_invariant: bool
    rank_monotone: bool
    rank_vector: Optional[tuple[Fraction, ...]]


def rank_vector_reports(
    mech: Mechanism, prior: Prior, agents=None, *, max_n: Optional[int] = None
) -> list[RankVectorReport]:
    """Rank vector reports of ``agents`` (default all), in order, from one
    pass over the prior's support domain."""
    prefs = enumerate_preferences(mech.instance, max_n=max_n)
    rows_by_agent, common = _interim_rows(mech, prior, agents=agents, max_n=max_n)
    reports = []
    for agent, rows in rows_by_agent.items():
        vectors = {
            report: tuple(Fraction(row[a], common) for a in report)
            for report, row in zip(prefs, rows)
        }
        values = list(vectors.values())
        invariant = all(v == values[0] for v in values[1:])
        monotone = all(
            all(v[k] >= v[k + 1] for k in range(len(v) - 1)) for v in values
        )
        reports.append(RankVectorReport(
            agent=agent, prior=prior, vectors=vectors,
            rank_invariant=invariant, rank_monotone=monotone,
            rank_vector=values[0] if invariant else None,
        ))
    return reports


# ---------------------------------------------------------------------------
# sampling priors near a center
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorBallSample:
    """A sampled prior together with the ball it was drawn from.

    Membership is re-verified here: every sampled probability differs from
    the center's by strictly less than the radius.
    """

    center: Prior
    radius: Fraction
    seed: int
    prior: Prior
    attempts: int

    def __post_init__(self):
        for p, q in zip(self.prior.probs, self.center.probs):
            if abs(p - q) >= self.radius:
                raise InternalConsistencyError(
                    f"sampled probability {p} leaves the {self.radius}-ball around {q}"
                )


def _uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from raw generator bits (stable across
    interpreter versions, unlike random.randrange)."""
    span = hi - lo + 1
    bits = span.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < span:
            return lo + value


def _grid_base(center: Prior) -> list[int]:
    """Round the center onto the grid: floors, remainder spread one unit at
    a time from the lexicographically first preference."""
    base = [int(p * PRIOR_GRID) for p in center.probs]
    for j in range(PRIOR_GRID - sum(base)):
        base[j % len(base)] += 1
    return base


def _validate_ball_point(
    numerators: list[int], center: Prior, epsilon: Fraction
) -> Optional[Prior]:
    if any(c < 0 for c in numerators):
        return None
    probs = tuple(Fraction(c, PRIOR_GRID) for c in numerators)
    if any(abs(p - q) >= epsilon for p, q in zip(probs, center.probs)):
        return None
    return Prior(center.instance, probs)


def sample_prior_in_ball(center: Prior, epsilon: Fraction, seed: int) -> PriorBallSample:
    """Deterministic pseudo-random prior within the epsilon-ball.

    Draws an integer offset for every preference, shifts the rounded
    center by the offsets, and rebalances the total back to
    :data:`PRIOR_GRID` by a uniform shift plus a one-unit remainder
    spread; the candidate is rejected and redrawn until every probability
    is nonnegative and within the ball, at most :data:`SAMPLER_RETRY_BUDGET`
    times before :class:`SamplingExhaustedError`.  Identical (center,
    epsilon, seed) always yields the identical prior.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m = len(center.probs)
    base = _grid_base(center)
    reach = max(1, ceil(epsilon * PRIOR_GRID) - 1)
    rng = random.Random(seed)
    for attempt in range(1, SAMPLER_RETRY_BUDGET + 1):
        offsets = [_uniform_int(rng, -reach, reach) for _ in range(m)]
        numerators = [b + o for b, o in zip(base, offsets)]
        surplus = sum(numerators) - PRIOR_GRID
        shift, rest = divmod(surplus, m)
        numerators = [c - shift for c in numerators]
        for j in range(rest):
            numerators[j] -= 1
        prior = _validate_ball_point(numerators, center, epsilon)
        if prior is not None:
            return PriorBallSample(
                center=center, radius=epsilon, seed=seed,
                prior=prior, attempts=attempt,
            )
    raise SamplingExhaustedError(
        f"no valid prior on the 1/{PRIOR_GRID} grid within {epsilon} of the center "
        f"after {SAMPLER_RETRY_BUDGET} attempts"
    )


def lrobic_search(
    mech: Mechanism,
    center: Prior,
    epsilon: Fraction,
    samples: int,
    seed: int,
    *,
    max_n: Optional[int] = None,
) -> Optional[tuple[PriorBallSample, ViolationReport]]:
    """Search sampled priors in the ball for one where OBIC fails.

    Returns the first violating sample (by sample index; sample k uses
    seed ``seed + k``) with its witness, or None when every sampled prior
    passes.  A hit certifies the mechanism is not OBIC at that prior and
    hence not locally robust at (center, epsilon); an empty result
    certifies nothing.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    for k in range(samples):
        sample = sample_prior_in_ball(center, epsilon, seed + k)
        outcome = check_obic(mech, sample.prior, max_n=max_n)
        if not outcome.satisfied:
            return sample, outcome.violations[0]
    return None


# ---------------------------------------------------------------------------
# the OBIC decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObicDecompositionReport:
    """OBIC alongside its three interim axioms for one (mechanism, prior).

    The OBIC verdict must equal the conjunction of the other three; a
    mismatch can only come from an implementation defect and raises.
    """

    obic: CheckOutcome
    interim_em: CheckOutcome
    interim_ui: CheckOutcome
    interim_li: CheckOutcome

    def __post_init__(self):
        conjunction = (
            self.interim_em.satisfied
            and self.interim_ui.satisfied
            and self.interim_li.satisfied
        )
        if self.obic.satisfied != conjunction:
            raise InternalConsistencyError(
                "OBIC verdict disagrees with the interim axiom conjunction: "
                f"obic={self.obic.verdict}, em={self.interim_em.verdict}, "
                f"ui={self.interim_ui.verdict}, li={self.interim_li.verdict}"
            )


def obic_decomposition_report(
    mech: Mechanism, prior: Prior, *, max_n: Optional[int] = None
) -> ObicDecompositionReport:
    """OBIC and the interim em/ui/li sweep, exhaustive, on one set of
    interim rows."""
    table = _interim_rows(mech, prior, max_n=max_n)
    # two sweeps, so OBIC's counters stay apart from the em/ui/li ones
    obic, interim = _interim_sweep(table, prior, ("sp",), ("em", "ui", "li"))
    return ObicDecompositionReport(
        obic=obic["obic"],
        interim_em=interim["interim-em"],
        interim_ui=interim["interim-ui"],
        interim_li=interim["interim-li"],
    )


def reverify_interim_violation(
    mech: Mechanism, report: ViolationReport, *, max_n: Optional[int] = None
) -> bool:
    """Recompute the interim quantities named by a report and confirm the
    recorded values exactly; ``max_n`` lifts the preference cap as for the
    checks that found it."""
    axiom = _PAIR_AXIOM.get(report.axiom)
    if axiom is None:
        raise ValueError(f"cannot replay axiom {report.axiom!r}")
    prior = report.prior
    truth_row = interim_share_vector(mech, report.agent, report.truth, prior, max_n=max_n)
    dev_row = interim_share_vector(mech, report.agent, report.deviation, prior, max_n=max_n)
    return _replay_pair(axiom, report.truth, truth_row, dev_row, report)
