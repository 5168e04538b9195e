"""Command-line front end.

Subcommands: ``eval`` (evaluate a mechanism on a profile), ``check`` (one
axiom sweep), ``obic`` (OBIC plus its interim decomposition), ``lrobic``
(sampled local-robustness falsification), ``decompose`` (Birkhoff-von
Neumann terms), ``ranks`` (interim rank structure), ``demo table1`` (the
3-agent manipulation example).

Exit status: 0 when the checked property holds or the task completed,
1 when a violation was found, 2 on usage or input errors, and 3 when a
resource cap or the sampler's retry budget was hit.  Machine output
(``--format machine``) is one record per line and byte-identical across
runs for identical arguments and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import PAIR_AXIOMS, PROFILE_AXIOMS, run_axiom_check
from .core import (
    CapExceededError,
    Instance,
    fosd,
    parse_rational,
)
from .decomp import birkhoff_decompose
from .formats import (
    ParseError,
    assignment_records,
    assignment_table,
    decomposition_lines,
    outcome_lines,
    parse_prior_file,
    parse_profile_file,
    parse_speed_file,
    parse_table_file,
    preference_str,
    render_prior_file,
)
from .interim import (
    SamplingExhaustedError,
    lrobic_search,
    obic_decomposition_report,
    rank_vector_reports,
    uniform_prior,
)
from .mechanisms import (
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
)

AXIOM_CHOICES = PAIR_AXIOMS + PROFILE_AXIOMS


def build_mechanism(selector: str, instance: Instance | None, *, cache: bool) -> Mechanism:
    """Construct a mechanism from a selector string.

    ``ps`` | ``rp`` | ``sd:<order>`` | ``sea:<speed-file>`` |
    ``table:<file>``.  Table files carry their own instance; every other
    kind needs one from --n or the profile file.
    """
    kind, _, arg = selector.partition(":")
    if kind == "table":
        if not arg:
            raise ValueError("table mechanism needs a file: table:<path>")
        with open(arg, encoding="utf-8") as fh:
            file_instance, mech = parse_table_file(fh.read())
        if instance is not None and file_instance.n != instance.n:
            raise ValueError(
                f"table file is for n={file_instance.n}, expected n={instance.n}"
            )
        return mech
    if instance is None:
        raise ValueError("this command needs --n to build the mechanism")
    if kind == "ps":
        return ProbabilisticSerial(instance, cache=cache)
    if kind == "rp":
        return RandomPriority(instance, cache=cache)
    if kind == "sd":
        if not arg:
            raise ValueError("serial dictatorship needs an order: sd:1,2,3")
        order = tuple(int(tok) - 1 for tok in arg.split(","))
        return SerialDictatorship(instance, order, cache=cache)
    if kind == "sea":
        if not arg:
            raise ValueError("eating mechanism needs a file: sea:<speed-file>")
        with open(arg, encoding="utf-8") as fh:
            schedule = parse_speed_file(fh.read())
        return SimultaneousEating(instance, schedule, cache=cache)
    raise ValueError(f"unknown mechanism selector {selector!r}")


def build_prior(selector: str, instance: Instance):
    if selector == "uniform":
        return uniform_prior(instance)
    kind, _, path = selector.partition(":")
    if kind != "file" or not path:
        raise ValueError("prior selector must be 'uniform' or 'file:<path>'")
    with open(path, encoding="utf-8") as fh:
        file_instance, prior = parse_prior_file(fh.read())
    if file_instance.object_names != instance.object_names:
        raise ValueError(
            f"prior file objects {file_instance.object_names} do not match "
            f"{instance.object_names}"
        )
    return prior


def _instance_from_args(args) -> Instance:
    return Instance.default(args.n)


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_eval(args) -> int:
    with open(args.profile, encoding="utf-8") as fh:
        instance, profile = parse_profile_file(fh.read())
    mech = build_mechanism(args.mechanism, instance, cache=False)
    out = mech.assignment(profile)
    if args.format == "machine":
        _emit([f"eval mechanism={mech.descriptor()} profile="
               + "|".join(preference_str(instance, p) for p in profile)]
              + assignment_records(instance, out))
    else:
        _emit([f"{mech.descriptor()} at profile "
               + " | ".join(preference_str(instance, p) for p in profile),
               assignment_table(instance, out)])
    return 0


def cmd_check(args) -> int:
    instance = _instance_from_args(args)
    # every check reads each profile at most once, so a memo would only grow
    mech = build_mechanism(args.mechanism, instance, cache=False)
    outcome = run_axiom_check(
        mech, args.axiom, mode=args.mode, jobs=args.jobs, max_n=args.max_n
    )
    _emit(outcome_lines(instance, outcome, machine=args.format == "machine"))
    return 0 if outcome.satisfied else 1


def cmd_obic(args) -> int:
    instance = _instance_from_args(args)
    # the interim pass reads each profile once, so a memo would only grow
    mech = build_mechanism(args.mechanism, instance, cache=False)
    prior = build_prior(args.prior, instance)
    report = obic_decomposition_report(mech, prior, max_n=args.max_n)
    machine = args.format == "machine"
    lines = []
    for outcome in (report.obic, report.interim_em, report.interim_ui, report.interim_li):
        lines.extend(outcome_lines(instance, outcome, machine=machine))
    _emit(lines)
    return 0 if report.obic.satisfied else 1


def cmd_lrobic(args) -> int:
    instance = _instance_from_args(args)
    mech = build_mechanism(args.mechanism, instance, cache=True)
    center = build_prior(args.center, instance)
    epsilon = parse_rational(args.epsilon)
    hit = lrobic_search(
        mech, center, epsilon, args.samples, args.seed,
        targeted=args.targeted, max_n=args.max_n,
    )
    machine = args.format == "machine"
    if hit is None:
        _emit([
            f"lrobic verdict=unfalsified samples={args.samples}" if machine
            else f"no violating prior found in {args.samples} samples"
        ])
        return 0
    sample, witness = hit
    head = (
        f"lrobic verdict=violated sample_seed={sample.seed} "
        f"attempts={sample.attempts}"
        if machine
        else f"violating prior found (sample seed {sample.seed}); OBIC witness:"
    )
    prefix = "violation " if machine else "  "
    _emit([head, prefix + witness.render(instance), "",
           render_prior_file(sample.prior).rstrip("\n")])
    return 1


def cmd_decompose(args) -> int:
    with open(args.profile, encoding="utf-8") as fh:
        instance, profile = parse_profile_file(fh.read())
    mech = build_mechanism(args.mechanism, instance, cache=False)
    out = mech.assignment(profile)
    decomposition = birkhoff_decompose(out)
    lines = []
    if args.format != "machine":
        lines.append(assignment_table(instance, out))
        lines.append("")
    lines.extend(decomposition_lines(instance, decomposition))
    _emit(lines)
    return 0


def cmd_ranks(args) -> int:
    instance = _instance_from_args(args)
    mech = build_mechanism(args.mechanism, instance, cache=False)
    prior = build_prior(args.prior, instance)
    agents = None if args.agent is None else [args.agent - 1]
    machine = args.format == "machine"
    lines = []
    for report in rank_vector_reports(mech, prior, agents, max_n=args.max_n):
        agent = report.agent
        flags = (
            f"rank_invariant={str(report.rank_invariant).lower()} "
            f"rank_monotone={str(report.rank_monotone).lower()}"
        )
        if machine:
            lines.append(f"ranks agent={agent + 1} {flags}")
            for pref, vec in sorted(report.vectors.items()):
                lines.append(
                    f"rankvector agent={agent + 1} "
                    f"report={preference_str(instance, pref)} "
                    + " ".join(str(x) for x in vec)
                )
        else:
            lines.append(f"agent {agent + 1}: {flags}")
            if report.rank_vector is not None:
                lines.append(
                    "  common rank vector: "
                    + " ".join(str(x) for x in report.rank_vector)
                )
            else:
                for pref, vec in sorted(report.vectors.items()):
                    lines.append(
                        f"  report {preference_str(instance, pref)}: "
                        + " ".join(str(x) for x in vec)
                    )
    _emit(lines)
    return 0


def cmd_demo(args) -> int:
    if args.name != "table1":
        raise ValueError(f"unknown demo {args.name!r}; available: table1")
    instance = Instance.default(3)
    a, b, c = 0, 1, 2
    truth_profile = ((c, a, b), (a, b, c), (c, a, b))
    deviation = (a, c, b)
    dev_profile = (deviation,) + truth_profile[1:]
    ps = ProbabilisticSerial(instance)
    truth_out = ps.assignment(truth_profile)
    dev_out = ps.assignment(dev_profile)
    machine = args.format == "machine"
    lines = []
    if machine:
        lines.append("demo name=table1")
        lines.append("profile truth=" + "|".join(preference_str(instance, p)
                                                 for p in truth_profile))
        lines.extend(assignment_records(instance, truth_out))
        lines.append("profile deviation=" + "|".join(preference_str(instance, p)
                                                     for p in dev_profile))
        lines.extend(assignment_records(instance, dev_out))
    else:
        lines.append("probabilistic serial at the truthful profile "
                     + " | ".join(preference_str(instance, p) for p in truth_profile))
        lines.append(assignment_table(instance, truth_out))
        lines.append("")
        lines.append("agent 1 misreports "
                     f"{preference_str(instance, deviation)} instead of "
                     f"{preference_str(instance, truth_profile[0])}:")
        lines.append(assignment_table(instance, dev_out))
        lines.append("")
    truth_row, dev_row = truth_out[0], dev_out[0]
    t_over_d = fosd(truth_row, dev_row, truth_profile[0])
    d_over_t = fosd(dev_row, truth_row, truth_profile[0])
    if machine:
        lines.append(
            f"fosd under={preference_str(instance, truth_profile[0])} "
            f"truth_dominates={str(t_over_d).lower()} "
            f"deviation_dominates={str(d_over_t).lower()}"
        )
    else:
        lines.append(
            "under the true preference "
            f"{preference_str(instance, truth_profile[0])}, truth dominates "
            f"deviation: {t_over_d}; deviation dominates truth: {d_over_t}"
        )
        lines.append(
            "the two rows are FOSD-incomparable, so agent 1's misreport is "
            "profitable for some utility consistent with the true ranking: "
            "the mechanism is not strategy-proof"
        )
    _emit(lines)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ram",
        description="exact random-assignment mechanisms and axiom verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, need_n=False, prior=False):
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--max-n", type=int, default=None,
                       help="override the enumeration size cap")
        if need_n:
            p.add_argument("--n", type=int, required=True,
                           help="instance size (objects named a, b, c, ...)")
        if prior:
            p.add_argument("--prior", default="uniform",
                           help="'uniform' or 'file:<path>'")

    p = sub.add_parser("eval", help="evaluate a mechanism on a profile file")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--profile", required=True, help="profile file path")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run one axiom sweep")
    p.add_argument("--axiom", required=True, choices=AXIOM_CHOICES)
    p.add_argument("--mechanism", required=True)
    p.add_argument("--mode", choices=("exhaustive", "first"), default=None,
                   help="collect all violations or stop at the first "
                        "(default: exhaustive for n<=3, first above)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes that build the domain table of an "
                        "exhaustive pair-axiom sweep; the comparisons run in "
                        "the main process; mode=first, the default for n>3, "
                        "always runs serially")
    common(p, need_n=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("obic", help="OBIC and its interim decomposition")
    p.add_argument("--mechanism", required=True)
    common(p, need_n=True, prior=True)
    p.set_defaults(func=cmd_obic)

    p = sub.add_parser("lrobic", help="sampled falsification of local OBIC robustness")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--center", default="uniform", help="'uniform' or 'file:<path>'")
    p.add_argument("--epsilon", required=True, help="ball radius, e.g. 1/20")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--targeted", action="store_true",
                   help="perturb only the two preferences of a known "
                        "ex-post invariance violation")
    common(p, need_n=True)
    p.set_defaults(func=cmd_lrobic)

    p = sub.add_parser("decompose", help="Birkhoff-von Neumann decomposition")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--profile", required=True, help="profile file path")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ranks", help="interim rank structure under a prior")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--agent", type=int, default=None, help="1-based agent (default: all)")
    common(p, need_n=True, prior=True)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name", help="demo name (table1)")
    common(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, SamplingExhaustedError) as exc:
        print(f"ram: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"ram: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
