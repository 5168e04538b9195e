"""Shared test utilities: seeded exact randomness and brute-force oracles
kept independent of the library code paths they check."""

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

from ramkit.axioms import _resolve_mode, ex_post_inefficiency_witness, trade_cycle
from ramkit.core import (
    ZERO,
    Instance,
    _check_sweep_cap,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
    insert_report,
)
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
)
from ramkit.reports import CheckOutcome, ViolationReport

# Table-1 objects a=0, b=1, c=2
A, B, C = 0, 1, 2
TRUTH_PROFILE = ((C, A, B), (A, B, C), (C, A, B))
DEVIATION = (A, C, B)
DEVIATION_PROFILE = (DEVIATION, (A, B, C), (C, A, B))
TRUTH_ROW = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
DEVIATION_ROW = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in ``[lo, hi]``, by rejection on ``rng``'s bits."""
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    bits = span.bit_length()
    while True:
        v = rng.getrandbits(bits)
        if v < span:
            return lo + v


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = uniform_int(rng, 0, i)
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def random_profile(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(random_permutation(rng, n) for _ in range(n))


def random_bistochastic(rng: random.Random, n: int):
    """Exact random bistochastic matrix: a random positive-rational convex
    combination of random permutation matrices.  At n=1 the only one,
    drawing nothing from ``rng``."""
    if n == 1:
        return ((Fraction(1),),)
    k = uniform_int(rng, 2, (n - 1) ** 2 + 1)
    weights = {}
    raw = [uniform_int(rng, 1, 99) for _ in range(k)]
    total = sum(raw)
    for w in raw:
        perm = random_permutation(rng, n)
        weights[perm] = weights.get(perm, Fraction(0)) + Fraction(w, total)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for perm, w in weights.items():
        for i in range(n):
            matrix[i][perm[i]] += w
    return tuple(tuple(row) for row in matrix)


def random_prior(rng: random.Random, instance):
    """Exact random full-support prior on a coarse grid."""
    from ramkit.interim import Prior

    m = math.factorial(instance.n)
    raw = [uniform_int(rng, 1, 999) for _ in range(m)]
    total = sum(raw)
    return Prior(instance, tuple(Fraction(r, total) for r in raw))


def half_support_prior(instance):
    """Uniform over the first n!/2 preferences, zero on the rest."""
    from ramkit.interim import Prior

    m = math.factorial(instance.n)
    return Prior(instance, tuple(
        Fraction(1, m // 2) if k < m // 2 else Fraction(0) for k in range(m)
    ))


def two_point_prior(instance):
    """Half on each of the first two preferences, zero on the rest."""
    from ramkit.interim import Prior

    m = math.factorial(instance.n)
    return Prior(instance, (Fraction(1, 2),) * 2 + (Fraction(0),) * (m - 2))


HALF = Fraction(1, 2)

#: Mechanism kinds of :func:`build_mechanism`.
MECHANISM_KINDS = ("ps", "rp", "sd", "sea", "table")


def nonunit_schedule(n):
    """A non-unit speed schedule: agent 1 eats fast then slow, agent n the
    reverse, everyone else at unit speed."""
    fast_slow = ((0, HALF, Fraction(3, 2)), (HALF, 1, HALF))
    slow_fast = ((0, HALF, HALF), (HALF, 1, Fraction(3, 2)))
    unit = ((0, 1, 1),)
    return EatingSpeedSchedule(
        (fast_slow,) + (unit,) * (n - 2) + (slow_fast,)
    )


def tabulate(mechanism: Mechanism, *, max_n: Optional[int] = None) -> TabulatedMechanism:
    """Snapshot a mechanism into a lookup table over the full domain.
    Profiles with equal integer shares are handed one matrix object, built
    once, so the table validates each distinct matrix once."""
    matrices = {}  # integer rows -> matrix
    table = {}
    for profile in enumerate_profiles(mechanism.instance, max_n=max_n):
        rows = tuple(map(tuple, mechanism.scaled_assignment(profile)))
        if rows not in matrices:
            matrices[rows] = mechanism.assignment(profile)
        table[profile] = matrices[rows]
    return TabulatedMechanism(mechanism.instance, table, max_n=max_n)


def constant_mechanism(instance, matrix) -> TabulatedMechanism:
    """Mechanism returning the same assignment at every profile; the table
    holds one matrix object, so it is validated once."""
    return TabulatedMechanism(instance, dict.fromkeys(enumerate_profiles(instance), matrix))


def random_table(instance, seed):
    """Tabulated mechanism with a seeded random bistochastic matrix at every
    profile."""
    rng = random.Random(seed)
    return TabulatedMechanism(instance, {
        profile: random_bistochastic(rng, instance.n)
        for profile in enumerate_profiles(instance)
    })


def huge_denominator_table(instance, seed, every=True):
    """Random bistochastic tables; with ``every`` each matrix, otherwise only
    the first profile's, is mixed with a weight whose denominator exceeds
    2**64, so shares and numerators do not fit in 64 bits."""
    rng = random.Random(seed)
    n = instance.n
    table = {}
    for k, profile in enumerate(enumerate_profiles(instance)):
        matrix = random_bistochastic(rng, n)
        if every or k == 0:
            w = Fraction(rng.randrange(1, 2 ** 70), 2 ** 70 + rng.randrange(1, 2 ** 40))
            other = random_bistochastic(rng, n)
            matrix = tuple(
                tuple(w * x + (1 - w) * y for x, y in zip(row, orow))
                for row, orow in zip(matrix, other)
            )
        table[profile] = matrix
    return TabulatedMechanism(instance, table)


def build_mechanism(kind, n):
    """One mechanism of each kind in :data:`MECHANISM_KINDS`, without memo;
    also ``sea-unit`` and ``sea-shared``, eating on one schedule for every
    agent: unit speed, or :func:`nonunit_schedule`'s fast-then-slow; and
    ``sea-split``, unit speed for everyone, with agent 1's speed in one
    piece and the others' split at 1/2."""
    instance = Instance.default(n)
    if kind == "ps":
        return ProbabilisticSerial(instance)
    if kind == "rp":
        return RandomPriority(instance)
    if kind == "sd":
        return SerialDictatorship(instance, reversed(range(n)))
    if kind == "sea":
        return SimultaneousEating(instance, nonunit_schedule(n))
    if kind == "sea-unit":
        return SimultaneousEating(instance, EatingSpeedSchedule.unit(n))
    if kind == "sea-shared":
        shared = nonunit_schedule(n).pieces[0]
        return SimultaneousEating(instance, EatingSpeedSchedule((shared,) * n))
    if kind == "sea-split":
        split = ((0, HALF, 1), (HALF, 1, 1))
        return SimultaneousEating(
            instance, EatingSpeedSchedule((((0, 1, 1),),) + (split,) * (n - 1))
        )
    return random_table(instance, seed=n)


def eat(profile, schedule, trace=None):
    """Fraction oracle of simultaneous eating: the run, event by event, in
    exact rationals and independent of the library's integer engine.

    Every agent continuously consumes her best object with remaining
    supply, at her scheduled speed.  The simulation advances to the
    earliest of (a) an object's supply hitting zero and (b) a speed
    breakpoint; event times solve single linear equations, so all
    quantities stay rational.  With equal agent and object counts and unit
    total consumption per agent, the run ends at time 1 with every supply
    exactly zero.

    ``trace``, when given, collects one entry per event:
    ``(time_after, supplies_after, total_eaten_after)``.
    """
    n = len(profile)
    if schedule.n != n:
        raise ValueError(f"schedule covers {schedule.n} agents, profile has {n}")
    zero, one = Fraction(0), Fraction(1)
    supply = [one] * n
    shares = [[zero] * n for _ in range(n)]
    pos = [0] * n
    alive = [True] * n
    breaks = schedule.breakpoints()
    bi = 0
    t = zero
    while t < one:
        while breaks[bi] <= t:
            bi += 1
        rates = [schedule.rate_at(i, t) for i in range(n)]
        eaters = [zero] * n
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
            trace.append((t, tuple(supply), sum(sum(row) for row in shares)))
    if t != one or any(s != 0 for s in supply):
        raise AssertionError("eating simulation failed to consume all supply by time 1")
    return tuple(tuple(row) for row in shares)


class CountingPS(ProbabilisticSerial):
    """PS that counts its integer evaluations per profile, and its Fraction
    ``assignment`` calls, in this process."""

    def __init__(self, instance, *, cache=False):
        super().__init__(instance, cache=cache)
        self.counts = {}
        self.assignment_calls = 0

    def scaled_assignment(self, profile):
        self.counts[profile] = self.counts.get(profile, 0) + 1
        return super().scaled_assignment(profile)

    def assignment(self, profile):
        self.assignment_calls += 1
        return super().assignment(profile)


class CountingUndeclaredPS(CountingPS):
    """A counting PS that does not declare itself anonymous, so a domain
    table fills it from the profiles where agent 1 or agent 2 reports the
    identity order."""

    anonymous = False


class CountingDensePS(CountingUndeclaredPS):
    """A counting PS declared neither anonymous nor neutral, so a domain
    table fills it at every profile."""

    neutral = False


class CountingNonNeutralPS(CountingPS):
    """A counting PS that declares itself anonymous but not neutral, so its
    interim rows come from the per-profile pass."""

    neutral = False


class UndeclaredRP(RandomPriority):
    """Random priority not declared anonymous."""

    anonymous = False


class UndeclaredEating(SimultaneousEating):
    """Simultaneous eating not declared anonymous, whatever its speeds."""

    anonymous = False


class AnonymousSD(SerialDictatorship):
    """Serial dictatorship falsely declared anonymous."""

    anonymous = True


class FalselyNeutralPS(ProbabilisticSerial):
    """Anonymous and declared neutral, but not neutral: PS at profiles where
    every agent ranks object a first, equal division elsewhere."""

    neutral = True

    def _shares(self, profile):
        if all(p[0] == A for p in profile):
            return super()._shares(profile)
        n = len(profile)
        return [[self.D // n] * n for _ in range(n)]


class HiddenTradePS(ProbabilisticSerial):
    """Anonymous and declared neutral, but not neutral: PS, except that at
    every ordering of the report multiset {b>a>c, b>a>c, c>b>a} (at n=3),
    which holds no identity report, every agent's shares of a and c trade
    places.  PS gives that multiset's agents different shares of a and c,
    so the trade shows in every agent's row; the identity fill never
    evaluates the multiset, so its guard cannot see the trade."""

    neutral = True
    TRADED = ((B, A, C), (B, A, C), (C, B, A))

    def _shares(self, profile):
        out = super()._shares(profile)
        if tuple(sorted(profile)) != self.TRADED:
            return out
        return [[row[C], row[B], row[A]] for row in out]


def decomposition_verdicts(report) -> tuple[str, str, str, str]:
    """The verdicts of an OBIC decomposition report: OBIC, then interim em,
    ui and li."""
    return tuple(
        o.verdict for o in (report.obic, report.interim_em, report.interim_ui, report.interim_li)
    )


def interim_shares_oracle(mechanism, agent, report, prior):
    """Brute-force interim shares: full product over all opponent profiles,
    no support skipping, no shared tables."""
    instance = mechanism.instance
    n = instance.n
    probs = dict(prior.items())
    acc = [Fraction(0)] * n
    for opponents in itertools.product(probs, repeat=n - 1):
        weight = math.prod((probs[p] for p in opponents), start=Fraction(1))
        if weight == 0:
            continue
        row = mechanism.assignment(insert_report(opponents, agent, report))[agent]
        for a in range(n):
            acc[a] += weight * row[a]
    return tuple(acc)


def dominates_oracle(candidate, incumbent, profile) -> bool:
    """Definitional domination: every agent's candidate row FOSD-dominates
    her incumbent row, with at least one row different."""
    from ramkit.core import fosd

    n = len(profile)
    if all(candidate[i] == incumbent[i] for i in range(n)):
        return False
    return all(fosd(candidate[i], incumbent[i], profile[i]) for i in range(n))


def _strict_dominance_rank_oracle(winner, loser, pref):
    lhs = rhs = Fraction(0)
    for rank, a in enumerate(pref, start=1):
        lhs += winner[a]
        rhs += loser[a]
        if lhs > rhs:
            return rank, lhs, rhs
    return None


def _check_cell_oracle(mech, agent, opponents, prefs, axioms, first_only):
    """The pair axioms for one (agent, opponents) cell on Fraction rows, each
    row from a fresh ``mech.assignment`` call."""
    from ramkit.core import adjacent_swaps, fosd, fosd_failure
    from ramkit.reports import ViolationReport

    rows = {}
    for report in prefs:
        profile = insert_report(opponents, agent, report)
        rows[report] = mech.assignment(profile)[agent]
    found = {ax: [] for ax in axioms}
    comparisons = 0

    def want(ax):
        return ax in found and not (first_only and found[ax])

    if "sp" in found or "weak-sp" in found:
        for truth in prefs:
            base = insert_report(opponents, agent, truth)
            for dev in prefs:
                if dev == truth:
                    continue
                if want("sp"):
                    comparisons += 1
                    fail = fosd_failure(rows[truth], rows[dev], truth)
                    if fail is not None:
                        rank, lhs, rhs = fail
                        found["sp"].append(ViolationReport(
                            axiom="sp", agent=agent, profile=base, deviation=dev,
                            rank=rank, lhs=lhs, rhs=rhs, relation="<",
                            detail="truthful prefix falls below deviation prefix",
                        ))
                if want("weak-sp"):
                    comparisons += 1
                    if rows[dev] != rows[truth] and fosd(rows[dev], rows[truth], truth):
                        rank, lhs, rhs = _strict_dominance_rank_oracle(
                            rows[dev], rows[truth], truth
                        )
                        found["weak-sp"].append(ViolationReport(
                            axiom="weak-sp", agent=agent, profile=base, deviation=dev,
                            rank=rank, lhs=lhs, rhs=rhs, relation=">",
                            detail="deviation strictly dominates truth-telling",
                        ))

    if "em" in found or "ui" in found or "li" in found:
        for base_pref in prefs:
            base = insert_report(opponents, agent, base_pref)
            for swapped, info in adjacent_swaps(base_pref):
                if swapped < base_pref:
                    continue
                old = rows[base_pref]
                new = rows[swapped]
                if want("em"):
                    comparisons += 2
                    if new[info.raised] < old[info.raised]:
                        found["em"].append(ViolationReport(
                            axiom="em", agent=agent, profile=base, deviation=swapped,
                            swap=info, objects=(info.raised,),
                            lhs=new[info.raised], rhs=old[info.raised], relation="<",
                            detail="share of the raised object decreased",
                        ))
                    if new[info.lowered] > old[info.lowered]:
                        found["em"].append(ViolationReport(
                            axiom="em", agent=agent, profile=base, deviation=swapped,
                            swap=info, objects=(info.lowered,),
                            lhs=new[info.lowered], rhs=old[info.lowered], relation=">",
                            detail="share of the lowered object increased",
                        ))
                if want("ui"):
                    for x in base_pref[: info.position - 1]:
                        comparisons += 1
                        if new[x] != old[x]:
                            found["ui"].append(ViolationReport(
                                axiom="ui", agent=agent, profile=base,
                                deviation=swapped, swap=info, objects=(x,),
                                lhs=new[x], rhs=old[x], relation="!=",
                                detail="share above the swapped pair moved",
                            ))
                if want("li"):
                    for x in base_pref[info.position + 1:]:
                        comparisons += 1
                        if new[x] != old[x]:
                            found["li"].append(ViolationReport(
                                axiom="li", agent=agent, profile=base,
                                deviation=swapped, swap=info, objects=(x,),
                                lhs=new[x], rhs=old[x], relation="!=",
                                detail="share below the swapped pair moved",
                            ))
    return found, len(prefs), comparisons


def pair_sweep_oracle(mech, axioms, *, mode="exhaustive"):
    """Reference pair sweep: the Fraction cell check over every (agent,
    opponents) cell in lexicographic order, evaluating each row afresh, so
    each profile is evaluated n times.  Returns what ``run_pair_sweep``
    must return for the same ``mode``."""
    from ramkit.reports import CheckOutcome

    instance = mech.instance
    n = instance.n
    axioms = tuple(axioms)
    prefs = enumerate_preferences(instance)
    first_only = mode == "first"
    merged = {ax: [] for ax in axioms}
    evaluations = comparisons = 0
    for agent in instance.agents:
        for opponents in itertools.product(prefs, repeat=n - 1):
            active = tuple(ax for ax in axioms if not (first_only and merged[ax]))
            found, ev, cmps = _check_cell_oracle(
                mech, agent, opponents, prefs, active, first_only
            )
            evaluations += ev
            comparisons += cmps
            for ax in active:
                merged[ax].extend(found[ax][:1] if first_only else found[ax])
            if first_only and all(merged[ax] for ax in axioms):
                break
        else:
            continue
        break
    return {
        ax: CheckOutcome(
            axiom=ax, satisfied=not merged[ax], violations=tuple(merged[ax]),
            profiles_checked=evaluations, comparisons=comparisons,
        )
        for ax in axioms
    }


def _obic_oracle(table, prior, first_only):
    """OBIC on Fraction interim rows: truth-telling must FOSD every
    deviation, agent by agent in order."""
    from ramkit.core import fosd_failure
    from ramkit.reports import CheckOutcome, ViolationReport

    violations = []
    evaluations = 0
    comparisons = 0
    for agent, rows in table.items():
        evaluations += len(rows)
        for truth in rows:
            for dev in rows:
                if dev == truth:
                    continue
                comparisons += 1
                fail = fosd_failure(rows[truth], rows[dev], truth)
                if fail is not None:
                    rank, lhs, rhs = fail
                    violations.append(ViolationReport(
                        axiom="obic", agent=agent, truth=truth, deviation=dev,
                        rank=rank, lhs=lhs, rhs=rhs, relation="<", prior=prior,
                        detail="interim truthful prefix falls below deviation",
                    ))
                    if first_only:
                        return CheckOutcome(
                            axiom="obic", satisfied=False,
                            violations=tuple(violations),
                            profiles_checked=evaluations, comparisons=comparisons,
                        )
    return CheckOutcome(
        axiom="obic", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=comparisons,
    )


def _swap_oracle(table, prior, axioms, first_only):
    """The interim swap axioms on Fraction interim rows; in first mode an
    axiom is skipped once it has violations, and each violating block is
    recorded whole."""
    from ramkit.core import adjacent_swaps
    from ramkit.reports import CheckOutcome, ViolationReport

    found = {ax: [] for ax in axioms}
    evaluations = 0
    comparisons = 0
    for agent, rows in table.items():
        evaluations += len(rows)
        for base in rows:
            for swapped, info in adjacent_swaps(base):
                if swapped < base:
                    continue
                old = rows[base]
                new = rows[swapped]
                if "interim-em" in found and not (first_only and found["interim-em"]):
                    comparisons += 2
                    if new[info.raised] < old[info.raised]:
                        found["interim-em"].append(ViolationReport(
                            axiom="interim-em", agent=agent, truth=base,
                            deviation=swapped, swap=info, objects=(info.raised,),
                            lhs=new[info.raised], rhs=old[info.raised],
                            relation="<", prior=prior,
                            detail="interim share of the raised object decreased",
                        ))
                    if new[info.lowered] > old[info.lowered]:
                        found["interim-em"].append(ViolationReport(
                            axiom="interim-em", agent=agent, truth=base,
                            deviation=swapped, swap=info, objects=(info.lowered,),
                            lhs=new[info.lowered], rhs=old[info.lowered],
                            relation=">", prior=prior,
                            detail="interim share of the lowered object increased",
                        ))
                if "interim-ui" in found and not (first_only and found["interim-ui"]):
                    for x in base[: info.position - 1]:
                        comparisons += 1
                        if new[x] != old[x]:
                            found["interim-ui"].append(ViolationReport(
                                axiom="interim-ui", agent=agent, truth=base,
                                deviation=swapped, swap=info, objects=(x,),
                                lhs=new[x], rhs=old[x], relation="!=", prior=prior,
                                detail="interim share above the pair moved",
                            ))
                if "interim-li" in found and not (first_only and found["interim-li"]):
                    for x in base[info.position + 1:]:
                        comparisons += 1
                        if new[x] != old[x]:
                            found["interim-li"].append(ViolationReport(
                                axiom="interim-li", agent=agent, truth=base,
                                deviation=swapped, swap=info, objects=(x,),
                                lhs=new[x], rhs=old[x], relation="!=", prior=prior,
                                detail="interim share below the pair moved",
                            ))
        if first_only and all(found[ax] for ax in axioms):
            break
    return {
        ax: CheckOutcome(
            axiom=ax, satisfied=not found[ax], violations=tuple(found[ax]),
            profiles_checked=evaluations, comparisons=comparisons,
        )
        for ax in axioms
    }


def interim_sweep_oracle(mech, prior, axioms, *, mode="exhaustive"):
    """Reference OBIC and interim em/ui/li: Fraction loops on rows from
    :func:`interim_shares_oracle`, with OBIC's counters kept apart from the
    shared em/ui/li ones.  ``axioms`` may name "obic" and any interim swap
    axiom.  Returns what ``check_obic`` and ``run_interim_sweep`` must
    return for the same ``mode``: in first mode each outcome keeps its
    first violation."""
    from ramkit.reports import CheckOutcome

    instance = mech.instance
    prefs = enumerate_preferences(instance)
    table = {
        agent: {report: interim_shares_oracle(mech, agent, report, prior)
                for report in prefs}
        for agent in instance.agents
    }
    first_only = mode == "first"
    outcomes = {}
    if "obic" in axioms:
        outcomes["obic"] = _obic_oracle(table, prior, first_only)
    swaps = tuple(ax for ax in axioms if ax != "obic")
    if swaps:
        outcomes.update(_swap_oracle(table, prior, swaps, first_only))
    if first_only:
        outcomes = {
            ax: CheckOutcome(
                axiom=ax, satisfied=o.satisfied, violations=o.violations[:1],
                profiles_checked=o.profiles_checked, comparisons=o.comparisons,
            )
            for ax, o in outcomes.items()
        }
    return outcomes


# ---------------------------------------------------------------------------
# whole-profile sweeps: Fraction loops over Mechanism.assignment
# ---------------------------------------------------------------------------


def profile_sweep_oracle(mech, axiom, *, mode):
    """Reference neutrality, ETE, OE and ex-post sweeps: Fraction loops over
    ``mech.assignment``, one profile at a time in lexicographic order.
    Returns what ``run_axiom_check(mech, axiom, mode=mode)`` must return."""
    return {
        "neutral": _neutrality_oracle,
        "ete": _ete_oracle,
        "oe": _oe_oracle,
        "ex-post": _ex_post_oracle,
    }[axiom](mech, mode=mode)


def _neutrality_oracle(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Relabeling objects must relabel output shares: for every profile and
    every object permutation, the share of ``a`` at the original profile
    equals the share of the image of ``a`` at the relabeled profile.

    Profiles are grouped into relabeling orbits so each assignment is
    evaluated once.
    """
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    n = instance.n
    mode = _resolve_mode(mode, n)
    sigmas = [tuple(s) for s in itertools.permutations(range(n))]
    violations: list[ViolationReport] = []
    evaluations = 0
    comparisons = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        images = {
            sigma: apply_permutation_profile(profile, sigma) for sigma in sigmas
        }
        if min(images.values()) < profile:
            continue  # handled at the orbit's lexicographic minimum
        table = {}
        for image in images.values():
            if image not in table:
                table[image] = mech.assignment(image)
                evaluations += 1
        members = sorted(table)
        for base in members:
            out = table[base]
            for sigma in sigmas:
                relabeled = table[apply_permutation_profile(base, sigma)]
                for i in range(n):
                    for a in range(n):
                        comparisons += 1
                        if out[i][a] != relabeled[i][sigma[a]]:
                            violations.append(ViolationReport(
                                axiom="neutral", agent=i, profile=base,
                                sigma=sigma, objects=(a,),
                                lhs=out[i][a], rhs=relabeled[i][sigma[a]],
                                relation="!=",
                                detail="share does not follow the relabeling",
                            ))
                            if mode == "first":
                                return CheckOutcome(
                                    axiom="neutral", satisfied=False,
                                    violations=tuple(violations),
                                    profiles_checked=evaluations,
                                    comparisons=comparisons,
                                )
    return CheckOutcome(
        axiom="neutral", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=comparisons,
    )


def _ete_oracle(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Agents reporting identical preferences receive identical rows."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    comparisons = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        for i in range(instance.n):
            for j in range(i + 1, instance.n):
                if profile[i] != profile[j]:
                    continue
                comparisons += 1
                if out[i] != out[j]:
                    a = next(x for x in range(instance.n) if out[i][x] != out[j][x])
                    violations.append(ViolationReport(
                        axiom="ete", agent=i, agent2=j, profile=profile,
                        objects=(a,), lhs=out[i][a], rhs=out[j][a], relation="!=",
                        detail="equal reports received unequal rows",
                    ))
                    if mode == "first":
                        return CheckOutcome(
                            axiom="ete", satisfied=False,
                            violations=tuple(violations),
                            profiles_checked=evaluations, comparisons=comparisons,
                        )
    return CheckOutcome(
        axiom="ete", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=comparisons,
    )


def _oe_oracle(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ordinal efficiency of every output over the full profile domain."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        cycle = trade_cycle(out, profile)
        if cycle is not None:
            violations.append(ViolationReport(
                axiom="oe", profile=profile, objects=cycle,
                detail="objects trade along the cycle",
            ))
            if mode == "first":
                break
    return CheckOutcome(
        axiom="oe", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=evaluations,
    )


def _ex_post_oracle(
    mech: Mechanism, *, mode: Optional[str] = None, max_n: Optional[int] = None
) -> CheckOutcome:
    """Ex-post efficiency of every output over the full profile domain."""
    instance = mech.instance
    _check_sweep_cap(instance.n, max_n)
    mode = _resolve_mode(mode, instance.n)
    violations: list[ViolationReport] = []
    evaluations = 0
    for profile in enumerate_profiles(instance, max_n=max_n):
        out = mech.assignment(profile)
        evaluations += 1
        witness = ex_post_inefficiency_witness(out, profile)
        if witness is not None:
            weight, perm, cycle = witness
            violations.append(ViolationReport(
                axiom="ex-post", profile=profile, component=perm,
                objects=tuple(perm[i] for i in cycle),
                lhs=weight, rhs=ZERO, relation=">",
                detail="component with positive weight admits a trading cycle "
                       f"among agents {','.join(str(i + 1) for i in cycle)}",
            ))
            if mode == "first":
                break
    return CheckOutcome(
        axiom="ex-post", satisfied=not violations, violations=tuple(violations),
        profiles_checked=evaluations, comparisons=evaluations,
    )
