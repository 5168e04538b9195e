"""Shared test utilities: seeded exact randomness and brute-force oracles
kept independent of the library code paths they check."""

import itertools
import math
import random
from fractions import Fraction

from ramkit.core import Instance, enumerate_preferences, enumerate_profiles, insert_report
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
)

# Table-1 objects a=0, b=1, c=2
A, B, C = 0, 1, 2
TRUTH_PROFILE = ((C, A, B), (A, B, C), (C, A, B))
DEVIATION = (A, C, B)
DEVIATION_PROFILE = (DEVIATION, (A, B, C), (C, A, B))
TRUTH_ROW = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
DEVIATION_ROW = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def uniform_int(rng: random.Random, lo: int, hi: int) -> int:
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
    combination of random permutation matrices."""
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


def random_table(instance, seed):
    """Tabulated mechanism with a seeded random bistochastic matrix at every
    profile."""
    rng = random.Random(seed)
    return TabulatedMechanism(instance, {
        profile: random_bistochastic(rng, instance.n)
        for profile in enumerate_profiles(instance)
    })


def build_mechanism(kind, n):
    """One mechanism of each kind in :data:`MECHANISM_KINDS`, without memo."""
    instance = Instance.default(n)
    if kind == "ps":
        return ProbabilisticSerial(instance)
    if kind == "rp":
        return RandomPriority(instance)
    if kind == "sd":
        return SerialDictatorship(instance, reversed(range(n)))
    if kind == "sea":
        return SimultaneousEating(instance, nonunit_schedule(n))
    return random_table(instance, seed=n)


class CountingPS(ProbabilisticSerial):
    """PS that counts its integer evaluations per profile, in this process."""

    def __init__(self, instance, *, cache=False):
        super().__init__(instance, cache=cache)
        self.counts = {}

    def scaled_assignment(self, profile):
        self.counts[profile] = self.counts.get(profile, 0) + 1
        return super().scaled_assignment(profile)


def interim_shares_oracle(mechanism, agent, report, prior):
    """Brute-force interim shares: full product over all opponent profiles,
    no support skipping, no shared tables."""
    instance = mechanism.instance
    n = instance.n
    prefs = enumerate_preferences(instance)
    acc = [Fraction(0)] * n
    for opponents in itertools.product(prefs, repeat=n - 1):
        weight = math.prod((prior.of(p) for p in opponents), start=Fraction(1))
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
