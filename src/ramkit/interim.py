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
one off-support report carry weight.  An anonymous mechanism
(``Mechanism.anonymous``: PS, RP, eating at one speed for all) is
evaluated once per multiset of such reports, at its sorted profile, and
its rows are summed per report with each opponent multiset weighted by
its number of orderings; every agent gets the same rows.  Any other
mechanism is evaluated once per such profile, and each agent's rows are
summed over ordered opponent profiles.  Both routes evaluate through
:meth:`Mechanism.scaled_assignment`, stream into the sums and hold no
table.  Every agent's rows come out as integers over one denominator,
``mech.D * Q**(n-1)``, and OBIC and the interim em/ui/li run on them in
the ex-post pair sweep's column kernel (:class:`ramkit.axioms._PairSweep`),
one single-cell batch per agent.  The agents of an anonymous mechanism
share one set of rows, so the kernel sweeps agent 1's once and relabels
its violations for the others.  The pass needs no memo; a mechanism's
memo stays empty.  :func:`obic_decomposition_report` builds the rows once
for OBIC and the em/ui/li sweep.  :func:`interim_share_vector` is a
separate Fraction route, and replaying a witness reads its rows only from
that route.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, factorial
from typing import Optional

from .core import (
    ONE,
    ZERO,
    Instance,
    Preference,
    ShareVector,
    _check_pref_cap,
    _check_sweep_cap,
    enumerate_preferences,
    insert_report,
)
from .axioms import _PairSweep, _replay_pair
from .domain import multiset_rows
from .mechanisms import Mechanism
from .reports import CheckOutcome, ViolationReport

#: Denominator of the sampling grid for priors.
PRIOR_GRID = 10 ** 6

#: Default number of redraws before the ball sampler gives up.
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


class SamplingExhaustedError(RuntimeError):
    """No valid grid point found within the sampler's retry budget."""


class InternalConsistencyError(AssertionError):
    """Two routes that must agree by construction disagreed; a bug."""


@dataclass(frozen=True)
class Prior:
    """Probability distribution over all n! preferences, used i.i.d.

    ``probs`` is aligned with :func:`ramkit.core.enumerate_preferences`.
    """

    instance: Instance
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        _check_pref_cap(self.instance.n, None)
        count = factorial(self.instance.n)
        if len(self.probs) != count:
            raise ValueError(f"expected {count} probabilities, got {len(self.probs)}")
        cleaned = []
        for p in self.probs:
            if isinstance(p, float):
                raise ValueError("prior probabilities must be exact rationals")
            p = Fraction(p)
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
        prefs = enumerate_preferences(instance)
        lookup = {tuple(k): Fraction(v) for k, v in mapping.items()}
        unknown = set(lookup) - set(prefs)
        if unknown:
            raise ValueError(f"unknown preference {sorted(unknown)[0]}")
        missing = [p for p in prefs if p not in lookup]
        if missing:
            raise ValueError(f"missing probability for preference {missing[0]}")
        return cls(instance, tuple(lookup[p] for p in prefs))

    @cached_property
    def _index(self) -> dict[Preference, int]:
        return {p: k for k, p in enumerate(enumerate_preferences(self.instance))}

    def of(self, pref: Preference) -> Fraction:
        return self.probs[self._index[pref]]

    def items(self):
        prefs = enumerate_preferences(self.instance)
        return tuple(zip(prefs, self.probs))


def uniform_prior(instance: Instance) -> Prior:
    """Probability exactly 1/n! on every preference."""
    count = factorial(instance.n)
    return Prior(instance, tuple(Fraction(1, count) for _ in range(count)))


@dataclass(frozen=True)
class InterimShareVector:
    """Expected shares of one agent for one report under a prior."""

    agent: int
    report: Preference
    prior: Prior
    shares: ShareVector

    def __post_init__(self):
        if sum(self.shares) != ONE:
            raise InternalConsistencyError("interim shares do not sum to 1")


def _check_prior(mech: Mechanism, prior: Prior) -> None:
    """Reject a prior over preferences of another number of objects."""
    if prior.instance.n != mech.instance.n:
        raise ValueError(
            f"prior is over n={prior.instance.n} objects, "
            f"the mechanism over n={mech.instance.n}"
        )


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
    carry weight for some agent.  An anonymous mechanism is evaluated once
    per multiset of such reports (:func:`_multiset_sums`), and every agent
    gets the same rows; any other mechanism once per such profile
    (:func:`_profile_sums`).  Either way each evaluation goes through
    :meth:`Mechanism.scaled_assignment`, and the weighted numerators over
    ``mech.D`` are summed as integers.  No Fraction is built.
    """
    instance = mech.instance
    _check_prior(mech, prior)
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    prefs = enumerate_preferences(instance, max_n=max_n)
    agents = tuple(instance.agents) if agents is None else tuple(agents)
    for i in agents:
        if not 0 <= i < n:
            raise ValueError(f"agent {i + 1} is not one of agents 1..{n}")
    q = math.lcm(*(p.denominator for p in prior.probs))
    weights = [p.numerator * (q // p.denominator) for p in prior.probs]
    if mech.anonymous:
        sums = _multiset_sums(mech, prefs, weights)
        rows_by_agent = {i: sums for i in agents}  # read only, never written
    else:
        rows_by_agent = _profile_sums(mech, prefs, weights, agents)
    return rows_by_agent, mech.D * q ** (n - 1)


def _add(acc: list[int], weight: int, row) -> None:
    """Add ``weight * row`` into ``acc``, skipping zero shares."""
    for a, x in enumerate(row):
        if x:
            acc[a] += weight * x


def _multiset_sums(mech: Mechanism, prefs, weights: list[int]) -> list[list[int]]:
    """Weighted numerators of any agent's interim row for each report of
    an anonymous mechanism.

    The row for report r is ``sum_M mult(M) * prod(w[M]) * row(r, M)`` over
    the multisets ``M`` of n-1 on-support opponent reports, where
    ``mult(M) = (n-1)! / prod(c!)`` counts the orderings of ``M``.  Each
    multiset of n reports with at most one off the support is evaluated
    once, at its sorted profile (:func:`ramkit.domain.multiset_rows`), and
    streamed into the sums; nothing else is held."""
    n = len(prefs[0])
    on = [k for k, w in enumerate(weights) if w]
    off = [k for k, w in enumerate(weights) if not w]
    multisets = itertools.chain(
        itertools.combinations_with_replacement(on, n),
        (
            tuple(sorted(rest + (k,)))
            for k in off
            for rest in itertools.combinations_with_replacement(on, n - 1)
        ),
    )
    sums = [[0] * n for _ in prefs]
    for r, others, row in multiset_rows(mech, prefs, multisets):
        weight = math.prod(weights[o] for o in others)
        if weight:
            _add(sums[r], _orderings(others) * weight, row)
    return sums


def _orderings(reports: tuple[int, ...]) -> int:
    """Number of distinct orderings of the sorted multiset ``reports``:
    ``len! / prod(c!)``, dividing by 1, 2, ..., c along each run of ``c``
    equal reports (exact at every step)."""
    count, run = factorial(len(reports)), 1
    for a, b in zip(reports, reports[1:]):
        run = run + 1 if a == b else 1
        count //= run
    return count


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
) -> InterimShareVector:
    """Exact prior-weighted average of the agent's rows over opponents.

    This is the independent Fraction route, one ``assignment`` call per
    positive-weight opponent profile; replaying a witness relies on it not
    sharing code with :func:`_interim_rows`.
    """
    instance = mech.instance
    _check_prior(mech, prior)
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    support = [(p, w) for p, w in prior.items() if w != 0]
    acc = [ZERO] * n
    for combo in itertools.product(support, repeat=n - 1):
        weight = math.prod((w for _, w in combo), start=ONE)
        opponents = tuple(p for p, _ in combo)
        row = mech.assignment(insert_report(opponents, agent, report))[agent]
        for a in range(n):
            if row[a] != 0:
                acc[a] += weight * row[a]
    return InterimShareVector(agent=agent, report=report, prior=prior, shares=tuple(acc))


class _RowCells:
    """Interim rows as a source for the pair kernel: one cell per agent,
    every row over the one denominator ``D``.  It is ``anonymous`` when
    every agent shares one set of rows, as :func:`_interim_rows` gives an
    anonymous mechanism's agents, so the kernel sweeps them once."""

    cells = 1

    def __init__(self, rows_by_agent: dict[int, list[list[int]]], D: int):
        self.rows_by_agent = rows_by_agent
        self.D = D
        self.agents = tuple(rows_by_agent)
        first = rows_by_agent[self.agents[0]]
        self.anonymous = all(rows is first for rows in rows_by_agent.values())

    def columns(self, agent: int, start: int, count: int) -> list:
        return [[[x] for x in row] for row in self.rows_by_agent[agent]]


def _interim_sweep(table, prior: Prior, axioms) -> dict[str, CheckOutcome]:
    """The pair kernel on the interim rows ``table`` of :func:`_interim_rows`,
    one cell per agent, exhaustive; ``axioms`` are pair-axiom names, the
    outcomes carry interim names."""
    sweep = _PairSweep(
        enumerate_preferences(prior.instance), axioms, first_only=False,
        labels=_INTERIM_LABELS, prior=prior,
    )
    return sweep.run(_RowCells(*table))


def check_obic(mech: Mechanism, prior: Prior, *, max_n: Optional[int] = None) -> CheckOutcome:
    """Truth-telling must FOSD every deviation in interim shares."""
    return _interim_sweep(_interim_rows(mech, prior, max_n=max_n), prior, ("sp",))["obic"]


def run_interim_sweep(
    mech: Mechanism, prior: Prior, axioms=INTERIM_AXIOMS, *,
    max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Interim swap axioms: monotonicity of the swapped pair's shares and
    invariance of the shares above and below the pair."""
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in INTERIM_AXIOMS:
            raise ValueError(f"unknown interim axiom {ax!r}")
    table = _interim_rows(mech, prior, max_n=max_n)
    return _interim_sweep(table, prior, [_PAIR_AXIOM[ax] for ax in axioms])


def check_interim_elementary_monotonicity(mech, prior, *, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-em",), max_n=max_n)["interim-em"]


def check_interim_upper_invariance(mech, prior, *, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-ui",), max_n=max_n)["interim-ui"]


def check_interim_lower_invariance(mech, prior, *, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-li",), max_n=max_n)["interim-li"]


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


def rank_vector_report(
    mech: Mechanism, prior: Prior, agent: int, *, max_n: Optional[int] = None
) -> RankVectorReport:
    return rank_vector_reports(mech, prior, (agent,), max_n=max_n)[0]


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


def sample_prior_in_ball(
    center: Prior,
    epsilon: Fraction,
    seed: int,
    *,
    max_attempts: int = SAMPLER_RETRY_BUDGET,
) -> PriorBallSample:
    """Deterministic pseudo-random prior within the epsilon-ball.

    Draws an integer offset for every preference, shifts the rounded
    center by the offsets, and rebalances the total back to
    :data:`PRIOR_GRID` by a uniform shift plus a one-unit remainder
    spread; the candidate is rejected and redrawn until every probability
    is nonnegative and within the ball.  Identical (center, epsilon, seed)
    always yields the identical prior.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m = len(center.probs)
    base = _grid_base(center)
    reach = max(1, ceil(epsilon * PRIOR_GRID) - 1)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
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
        f"after {max_attempts} attempts"
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

    @property
    def verdicts(self) -> tuple[str, str, str, str]:
        return (
            self.obic.verdict, self.interim_em.verdict,
            self.interim_ui.verdict, self.interim_li.verdict,
        )


def obic_decomposition_report(
    mech: Mechanism, prior: Prior, *, max_n: Optional[int] = None
) -> ObicDecompositionReport:
    """OBIC and the interim em/ui/li sweep, exhaustive, on one set of
    interim rows."""
    table = _interim_rows(mech, prior, max_n=max_n)
    # two sweeps, so OBIC's counters stay apart from the em/ui/li ones
    obic = _interim_sweep(table, prior, ("sp",))["obic"]
    interim = _interim_sweep(table, prior, ("em", "ui", "li"))
    return ObicDecompositionReport(
        obic=obic,
        interim_em=interim["interim-em"],
        interim_ui=interim["interim-ui"],
        interim_li=interim["interim-li"],
    )


def reverify_interim_violation(mech: Mechanism, report: ViolationReport) -> bool:
    """Recompute the interim quantities named by a report and confirm the
    recorded values exactly."""
    axiom = _PAIR_AXIOM.get(report.axiom)
    if axiom is None:
        raise ValueError(f"cannot replay axiom {report.axiom!r}")
    prior = report.prior
    truth_row = interim_share_vector(mech, report.agent, report.truth, prior).shares
    dev_row = interim_share_vector(mech, report.agent, report.deviation, prior).shares
    return _replay_pair(axiom, report.truth, truth_row, dev_row, report)
