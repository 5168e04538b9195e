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
runs for identical arguments and seeds.  ``check`` and ``obic`` write
their violation lines in chunks as they are rendered; if the reader closes
the pipe early, the output stops and the exit status is unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import PAIR_AXIOMS, PROFILE_AXIOMS, run_axiom_check
from .core import (
    CapExceededError,
    Instance,
    _check_sweep_cap,
    fosd,
    parse_rational,
)
from .decomp import birkhoff_decompose
from .formats import (
    ParseError,
    assignment_records,
    assignment_table,
    decomposition_lines,
    outcome_chunks,
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


def build_mechanism(
    selector: str, instance: Instance | None, max_n: int | None = None
) -> Mechanism:
    """Construct a mechanism from a selector string.

    ``ps`` | ``rp`` | ``sd:<order>`` | ``sea:<speed-file>`` |
    ``table:<file>``.  Table files carry their own instance, object names
    included, and commands render with ``mech.instance``; every other kind
    needs one from --n or the profile file.  ``max_n`` overrides random
    priority's enumeration cap.
    """
    kind, sep, arg = selector.partition(":")
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
    if kind in ("ps", "rp") and sep:
        raise ValueError(f"mechanism {kind} takes no argument; got {selector!r}")
    if kind == "ps":
        return ProbabilisticSerial(instance)
    if kind == "rp":
        return RandomPriority(instance, max_n=max_n)
    if kind == "sd":
        if not arg:
            raise ValueError("serial dictatorship needs an order: sd:1,2,3")
        try:
            order = tuple(int(tok) - 1 for tok in arg.split(","))
        except ValueError:
            order = ()
        if sorted(order) != list(instance.agents):
            numbers = ",".join(str(i + 1) for i in instance.agents)
            raise ValueError(
                f"serial dictatorship order must be agent numbers 1..{instance.n}, "
                f"each once, e.g. sd:{numbers}; got {arg!r}"
            )
        return SerialDictatorship(instance, order)
    if kind == "sea":
        if not arg:
            raise ValueError("eating mechanism needs a file: sea:<speed-file>")
        with open(arg, encoding="utf-8") as fh:
            schedule = parse_speed_file(fh.read())
        return SimultaneousEating(instance, schedule)
    raise ValueError(f"unknown mechanism selector {selector!r}")


def build_prior(selector: str, instance: Instance, max_n: int | None):
    """The prior a ``--prior`` or ``--center`` selector names.  Every command
    that reads one sweeps the domain, so the sweep cap is checked first:
    past it no n!-long prior is built or read."""
    _check_sweep_cap(instance.n, max_n)
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


def _mechanism_from_args(args) -> Mechanism:
    """The mechanism of ``--mechanism`` over ``--n`` objects; a table brings
    its own object names, so commands render with ``mech.instance``."""
    return build_mechanism(args.mechanism, Instance.default(args.n), args.max_n)


def _profile_and_mechanism(args):
    """The profile file's instance and profile, and the mechanism over them;
    a table over other object names is rejected."""
    with open(args.profile, encoding="utf-8") as fh:
        instance, profile = parse_profile_file(fh.read())
    mech = build_mechanism(args.mechanism, instance, args.max_n)
    if mech.instance.object_names != instance.object_names:
        raise ValueError(
            f"profile file objects {instance.object_names} do not match the "
            f"table's {mech.instance.object_names}"
        )
    return instance, profile, mech


def _emit(lines) -> None:
    _stream([lines])


def _stream(chunks) -> None:
    """Write each chunk of lines to stdout as it comes.  A reader that
    closes the pipe early ends the output quietly; the exit status still
    reports the verdict."""
    out = sys.stdout
    try:
        for lines in chunks:
            out.write("\n".join(lines))
            out.write("\n")
        out.flush()
    except BrokenPipeError:
        # send what is still buffered nowhere, so the flush at exit cannot fail
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        except (OSError, ValueError):  # stdout has no file descriptor
            pass


def cmd_eval(args) -> int:
    instance, profile, mech = _profile_and_mechanism(args)
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
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    mech = _mechanism_from_args(args)
    instance = mech.instance
    outcome = run_axiom_check(mech, args.axiom, mode=args.mode, max_n=args.max_n)
    _stream(outcome_chunks(instance, outcome, machine=args.format == "machine"))
    return 0 if outcome.satisfied else 1


def cmd_obic(args) -> int:
    mech = _mechanism_from_args(args)
    instance = mech.instance
    prior = build_prior(args.prior, instance, args.max_n)
    report = obic_decomposition_report(mech, prior, max_n=args.max_n)
    machine = args.format == "machine"
    _stream(
        chunk
        for outcome in (report.obic, report.interim_em, report.interim_ui, report.interim_li)
        for chunk in outcome_chunks(instance, outcome, machine=machine)
    )
    return 0 if report.obic.satisfied else 1


def cmd_lrobic(args) -> int:
    mech = _mechanism_from_args(args)
    instance = mech.instance
    center = build_prior(args.center, instance, args.max_n)
    epsilon = parse_rational(args.epsilon)
    hit = lrobic_search(
        mech, center, epsilon, args.samples, args.seed, max_n=args.max_n
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
    instance, profile, mech = _profile_and_mechanism(args)
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
    mech = _mechanism_from_args(args)
    instance = mech.instance
    prior = build_prior(args.prior, instance, args.max_n)
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
                        "(default: exhaustive for n<=3, first above); past "
                        "n=4 only first runs")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for old command lines, at least 1, and "
                        "ignored: no sweep starts worker processes.  Up to "
                        "n=4 a sweep fills the domain table in this process: "
                        "anonymous and neutral mechanisms (ps, rp, sea at "
                        "one speed for all) once per multiset of the identity "
                        "report's opponents, other neutral ones (sd, sea) "
                        "where agent 1 or 2 reports the identity, others at "
                        "every profile; neutrality fills anonymous mechanisms "
                        "once per multiset of reports and reads others "
                        "unfilled; ete and sweeps past n=4 evaluate profiles "
                        "as they read them")
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


#: Library argument named by a CapExceededError -> the ``ram`` flag for it.
_OVERRIDE_FLAGS = {"max_n": "--max-n", "mode='first'": "--mode first"}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        flag = _OVERRIDE_FLAGS.get(exc.override, exc.override)
        print(f"ram: {exc.message(flag)}", file=sys.stderr)
        return 3
    except SamplingExhaustedError as exc:
        print(f"ram: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"ram: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
