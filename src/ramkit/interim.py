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
weights over its common denominator, and each profile with at most one
off-support report is evaluated exactly once through
:meth:`Mechanism.scaled_assignment`.  Each agent's rows come out as
integers over one per-agent denominator, and OBIC and the interim em/ui/li
run on them in the ex-post pair sweep's column kernel
(:class:`ramkit.axioms._PairSweep`), one single-cell batch per agent.  The
pass needs no memo; a PS or RP mechanism's memo stays empty.
:func:`obic_decomposition_report` builds the rows once for OBIC and the
em/ui/li sweep.  :func:`interim_share_vector` is a separate Fraction
route, and replaying a witness reads its rows only from that route.
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
from .axioms import (
    _PairSweep,
    _replay_pair,
    _resolve_mode,
    check_lower_invariance,
    check_upper_invariance,
)
from .mechanisms import Mechanism
from .reports import CheckOutcome, ViolationReport

#: Default denominator of the sampling grid for priors.
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


def _first_only(mode: Optional[str], n: int) -> bool:
    """Interim checks run exhaustively unless ``mode="first"`` is asked for,
    at every n; any other mode string is rejected."""
    return _resolve_mode("exhaustive" if mode is None else mode, n) == "first"


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
    def uniform(cls, instance: Instance) -> "Prior":
        count = factorial(instance.n)
        return cls(instance, tuple(Fraction(1, count) for _ in range(count)))

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
    return Prior.uniform(instance)


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
) -> dict[int, tuple[list[list[int]], int]]:
    """Interim share vector of every report of each of ``agents`` (default
    all), from one integer pass over the prior's support domain.

    Each agent maps to ``(rows, common)``: ``rows[k]`` holds the numerators
    of the agent's interim shares for report ``enumerate_preferences()[k]``,
    all over the one denominator ``common``; the pair kernel reads them as
    a batch of one cell (:class:`_RowCells`).

    With ``Q`` the prior's common denominator and ``w[p] = prob(p) * Q``,
    agent i's interim row for report r is the sum over opponent profiles of
    ``prod_{j != i} w[P_j] * row_i(P)``, over ``Q**(n-1)``.  Only profiles in
    which at least n-1 agents report a positive-probability preference
    carry weight for some agent: where all n do, every agent accumulates;
    where exactly one agent is off the support, only that agent does.  Each
    such profile is evaluated exactly once, through
    :meth:`Mechanism.scaled_assignment`, and the weighted numerators are
    summed as integers per (agent, report, profile denominator D), and
    brought to the agent's ``common = lcm(D) * Q**(n-1)`` at the end.  No
    Fraction is built.
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
    on = [k for k, w in enumerate(weights) if w]
    on_prefs = [prefs[k] for k in on]
    on_weights = [weights[k] for k in on]
    # sums[i][k][D]: agent i's weighted numerators over D for report prefs[k]
    sums = [[{} for _ in prefs] for _ in range(n)]
    scaled = mech.scaled_assignment

    def add(i, k, weight, row, d):
        acc = sums[i][k].get(d)
        if acc is None:
            sums[i][k][d] = [weight * x for x in row]
        else:
            for a, x in enumerate(row):
                if x:
                    acc[a] += weight * x

    for profile, ks, ws in zip(
        itertools.product(on_prefs, repeat=n),
        itertools.product(on, repeat=n),
        itertools.product(on_weights, repeat=n),
    ):
        rows, d = scaled(profile)
        total = math.prod(ws)
        for i in agents:
            add(i, ks[i], total // ws[i], rows[i], d)
    for i in agents:
        for k, w in enumerate(weights):
            if w:
                continue
            report = prefs[k]
            for opponents, ws in zip(
                itertools.product(on_prefs, repeat=n - 1),
                itertools.product(on_weights, repeat=n - 1),
            ):
                rows, d = scaled(insert_report(opponents, i, report))
                add(i, k, math.prod(ws), rows[i], d)

    table = {}
    for i in agents:
        common = math.lcm(*(d for by_d in sums[i] for d in by_d))
        rows = []
        for by_d in sums[i]:
            total = [0] * n
            for d, acc in by_d.items():
                f = common // d
                for a in range(n):
                    total[a] += acc[a] * f
            rows.append(total)
        table[i] = (rows, common * q ** (n - 1))
    return table


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
    """Interim rows as a source for the pair kernel: one cell per agent."""

    cells = 1
    opponents = None  # reports carry truth= and prior=

    def __init__(self, table: dict[int, tuple[list[list[int]], int]]):
        self.table = table
        self.agents = tuple(table)

    def columns(self, agent: int, start: int, count: int) -> tuple[list, int]:
        rows, common = self.table[agent]
        return [[[x] for x in row] for row in rows], common


def _interim_sweep(
    table, prior: Prior, axioms, first_only: bool
) -> dict[str, CheckOutcome]:
    """The pair kernel on prebuilt interim rows, one cell per agent;
    ``axioms`` are pair-axiom names, the outcomes carry interim names."""
    sweep = _PairSweep(
        enumerate_preferences(prior.instance), axioms, first_only,
        labels=_INTERIM_LABELS, prior=prior,
    )
    return sweep.run(_RowCells(table))


def check_obic(
    mech: Mechanism, prior: Prior, *, mode: Optional[str] = None,
    max_n: Optional[int] = None,
) -> CheckOutcome:
    """Truth-telling must FOSD every deviation in interim shares."""
    first_only = _first_only(mode, mech.instance.n)
    table = _interim_rows(mech, prior, max_n=max_n)
    return _interim_sweep(table, prior, ("sp",), first_only)["obic"]


def run_interim_sweep(
    mech: Mechanism, prior: Prior, axioms=INTERIM_AXIOMS, *,
    mode: Optional[str] = None, max_n: Optional[int] = None,
) -> dict[str, CheckOutcome]:
    """Interim swap axioms: monotonicity of the swapped pair's shares and
    invariance of the shares above and below the pair."""
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in INTERIM_AXIOMS:
            raise ValueError(f"unknown interim axiom {ax!r}")
    first_only = _first_only(mode, mech.instance.n)
    table = _interim_rows(mech, prior, max_n=max_n)
    return _interim_sweep(table, prior, [_PAIR_AXIOM[ax] for ax in axioms], first_only)


def check_interim_elementary_monotonicity(mech, prior, *, mode=None, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-em",), mode=mode, max_n=max_n)["interim-em"]


def check_interim_upper_invariance(mech, prior, *, mode=None, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-ui",), mode=mode, max_n=max_n)["interim-ui"]


def check_interim_lower_invariance(mech, prior, *, mode=None, max_n=None):
    return run_interim_sweep(mech, prior, ("interim-li",), mode=mode, max_n=max_n)["interim-li"]


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
    reports = []
    for agent, (rows, common) in _interim_rows(
        mech, prior, agents=agents, max_n=max_n
    ).items():
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


def _grid_base(center: Prior, grid: int) -> list[int]:
    """Round the center onto the grid: floors, remainder spread one unit at
    a time from the lexicographically first preference."""
    base = [int(p * grid) for p in center.probs]
    for j in range(grid - sum(base)):
        base[j % len(base)] += 1
    return base


def _validate_ball_point(
    numerators: list[int], center: Prior, epsilon: Fraction, grid: int
) -> Optional[Prior]:
    if any(c < 0 for c in numerators):
        return None
    probs = tuple(Fraction(c, grid) for c in numerators)
    if any(abs(p - q) >= epsilon for p, q in zip(probs, center.probs)):
        return None
    return Prior(center.instance, probs)


def sample_prior_in_ball(
    center: Prior,
    epsilon: Fraction,
    seed: int,
    *,
    grid: int = PRIOR_GRID,
    max_attempts: int = SAMPLER_RETRY_BUDGET,
) -> PriorBallSample:
    """Deterministic pseudo-random prior within the epsilon-ball.

    Draws an integer offset for every preference, shifts the rounded
    center by the offsets, and rebalances the total back to ``grid`` by a
    uniform shift plus a one-unit remainder spread; the candidate is
    rejected and redrawn until every probability is nonnegative and within
    the ball.  Identical (center, epsilon, seed) always yields the
    identical prior.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m = len(center.probs)
    base = _grid_base(center, grid)
    reach = max(1, ceil(epsilon * grid) - 1)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        offsets = [_uniform_int(rng, -reach, reach) for _ in range(m)]
        numerators = [b + o for b, o in zip(base, offsets)]
        surplus = sum(numerators) - grid
        shift, rest = divmod(surplus, m)
        numerators = [c - shift for c in numerators]
        for j in range(rest):
            numerators[j] -= 1
        prior = _validate_ball_point(numerators, center, epsilon, grid)
        if prior is not None:
            return PriorBallSample(
                center=center, radius=epsilon, seed=seed,
                prior=prior, attempts=attempt,
            )
    raise SamplingExhaustedError(
        f"no valid prior on the 1/{grid} grid within {epsilon} of the center "
        f"after {max_attempts} attempts"
    )


def sample_prior_pair_shift(
    center: Prior,
    epsilon: Fraction,
    seed: int,
    pair: tuple[Preference, Preference],
    *,
    grid: int = PRIOR_GRID,
    max_attempts: int = SAMPLER_RETRY_BUDGET,
) -> PriorBallSample:
    """Ball sample that perturbs only two preferences, in opposite
    directions; all other probabilities keep their rounded-center values."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    index = {p: k for k, p in enumerate(enumerate_preferences(center.instance))}
    up, down = index[pair[0]], index[pair[1]]
    if up == down:
        raise ValueError("pair must name two distinct preferences")
    base = _grid_base(center, grid)
    reach = max(1, ceil(epsilon * grid) - 1)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        delta = _uniform_int(rng, 1, reach)
        if _uniform_int(rng, 0, 1):
            delta = -delta
        numerators = base[:]
        numerators[up] += delta
        numerators[down] -= delta
        prior = _validate_ball_point(numerators, center, epsilon, grid)
        if prior is not None:
            return PriorBallSample(
                center=center, radius=epsilon, seed=seed,
                prior=prior, attempts=attempt,
            )
    raise SamplingExhaustedError(
        f"no valid pair-shifted prior within {epsilon} after {max_attempts} attempts"
    )


def _invariance_violation_pair(
    mech: Mechanism, *, max_n: Optional[int] = None
) -> Optional[tuple[Preference, Preference]]:
    """Swap pair of a known ex-post invariance violation, if any."""
    for checker in (check_lower_invariance, check_upper_invariance):
        outcome = checker(mech, mode="first", max_n=max_n)
        if not outcome.satisfied:
            witness = outcome.violations[0]
            return witness.profile[witness.agent], witness.deviation
    return None


def lrobic_search(
    mech: Mechanism,
    center: Prior,
    epsilon: Fraction,
    samples: int,
    seed: int,
    *,
    targeted: bool = False,
    grid: int = PRIOR_GRID,
    max_n: Optional[int] = None,
) -> Optional[tuple[PriorBallSample, ViolationReport]]:
    """Search sampled priors in the ball for one where OBIC fails.

    Returns the first violating sample (by sample index; sample k uses
    seed ``seed + k``) with its witness, or None when every sampled prior
    passes.  A hit certifies the mechanism is not OBIC at that prior and
    hence not locally robust at (center, epsilon); an empty result
    certifies nothing.

    ``targeted`` perturbs only the two preferences of a known ex-post
    invariance violation of the mechanism, which concentrates the search
    where the interim identities are easiest to break; mechanisms with no
    such violation fall back to blind sampling.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    pair = _invariance_violation_pair(mech, max_n=max_n) if targeted else None
    for k in range(samples):
        if pair is not None:
            sample = sample_prior_pair_shift(
                center, epsilon, seed + k, pair, grid=grid
            )
        else:
            sample = sample_prior_in_ball(center, epsilon, seed + k, grid=grid)
        outcome = check_obic(mech, sample.prior, mode="first", max_n=max_n)
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
    obic = _interim_sweep(table, prior, ("sp",), first_only=False)["obic"]
    interim = _interim_sweep(table, prior, ("em", "ui", "li"), first_only=False)
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
