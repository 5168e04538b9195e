"""Workloads of the ramkit benchmark, and the process that measures them.

``run.py`` starts this file in a fresh interpreter for every measurement,
with ``src`` on ``PYTHONPATH``::

    python3 benchmarks/workloads.py --workload pairs-ps4 --seed 1 --seconds 10 --trace 0
    python3 benchmarks/workloads.py --workload pairs-ps4 --seed 1 --setup-only

``--setup-only`` imports ramkit, builds the workload's inputs, prints
``ready`` and exits; ``run.py`` times that from the outside.  Otherwise the
process repeats the workload's call until ``--seconds`` have passed (at
least one call) and prints one JSON record as its last stdout line: per
call the wall time, CPU time and output fingerprint, plus peak RSS.  With
``--trace 1`` it instead makes one traced call, runs the layer probes of
``layers.py`` and reports the per-layer metrics.

Every call goes through ramkit's public API by module attribute
(``axioms.run_pair_sweep`` and so on), so the traced run can wrap those
attributes in this process without touching ``src/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here, before ramkit loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from ramkit import axioms, formats, interim  # noqa: E402
from ramkit.core import Instance, enumerate_preferences  # noqa: E402
from ramkit.mechanisms import ProbabilisticSerial, RandomPriority  # noqa: E402

LROBIC_EPSILON = Fraction(1, 20)


def cpu_split() -> tuple[float, float]:
    """User plus system CPU of this process, and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_seconds() -> float:
    return sum(cpu_split())


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def half_support_prior(instance: Instance) -> interim.Prior:
    """Uniform over the first n!/2 preferences in enumeration order (at n=4
    the 12 that rank a or b first), zero elsewhere."""
    prefs = enumerate_preferences(instance)
    half = len(prefs) // 2
    return interim.Prior(instance, tuple(
        Fraction(1, half) if k < half else Fraction(0) for k in range(len(prefs))
    ))


class CheckWorkload:
    """A workload whose call returns CheckOutcomes; its output is what
    ``ram check``/``ram obic --format machine`` print for them."""

    serial = True  # the mechanism is evaluated in this process

    def __init__(self, n: int):
        self.n = n

    def setup(self, seed: int) -> dict:
        return {"instance": Instance.default(self.n)}

    def render(self, inputs, outcomes) -> list[str]:
        return [
            line
            for outcome in outcomes
            for line in formats.outcome_lines(inputs["instance"], outcome, machine=True)
        ]

    def fingerprint(self, inputs, outcomes, drawn) -> dict:
        return {"outcomes": [
            [o.axiom, o.verdict, len(o.violations), o.profiles_checked, o.comparisons]
            for o in outcomes
        ]}


class PairSweep(CheckWorkload):
    """em+ui+li in one exhaustive pair sweep of PS over a 2-worker pool."""

    api = {"call": "run_pair_sweep",
           "args": {"axioms": ["em", "ui", "li"], "mode": "exhaustive", "jobs": 2}}
    serial = False  # evaluation happens in pool workers

    def mechanism(self, inputs):
        return ProbabilisticSerial(inputs["instance"])

    def call(self, mech, inputs):
        swept = axioms.run_pair_sweep(
            mech, ("em", "ui", "li"), mode="exhaustive", jobs=2
        )
        return list(swept.values())

    def comparisons(self, outcomes) -> int:
        return outcomes[0].comparisons  # one bundled sweep, counter shared


class InterimReport(CheckWorkload):
    """OBIC plus its interim em/ui/li decomposition for PS under one prior.

    The prior is uniform on half the preferences, so the interim rows
    cover (n!/2)^(n-1) opponent profiles instead of (n!)^(n-1); at n=4 that
    is an eighth of the uniform prior's work.
    """

    api = {"call": "obic_decomposition_report",
           "args": {"prior": "uniform over the first n!/2 preferences"},
           "note": "takes no mode or jobs; always exhaustive and serial"}

    def setup(self, seed: int) -> dict:
        inputs = super().setup(seed)
        inputs["prior"] = half_support_prior(inputs["instance"])
        return inputs

    def mechanism(self, inputs):
        # a fresh memo per call: filling it is part of the measured work
        return ProbabilisticSerial(inputs["instance"], cache=True)

    def call(self, mech, inputs):
        report = interim.obic_decomposition_report(mech, inputs["prior"])
        return [report.obic, report.interim_em, report.interim_ui, report.interim_li]

    def comparisons(self, outcomes) -> int:
        return outcomes[0].comparisons + outcomes[1].comparisons  # obic + shared


class OrdinalEfficiency(CheckWorkload):
    """Exhaustive ordinal-efficiency sweep of RP: each profile once."""

    api = {"call": "check_mechanism_ordinal_efficiency",
           "args": {"mode": "exhaustive"}, "note": "takes no jobs; serial"}

    def mechanism(self, inputs):
        return RandomPriority(inputs["instance"])

    def call(self, mech, inputs):
        return [axioms.check_mechanism_ordinal_efficiency(mech, mode="exhaustive")]

    def comparisons(self, outcomes) -> int:
        return outcomes[0].comparisons


class Lrobic:
    """LROBIC falsification search for RP at n=3 around the uniform prior.

    RP is strategy-proof, so every sampled prior passes and each call
    spends its whole sample budget; the only correct verdict is
    ``unfalsified``.  Call k of a run uses sample seeds
    ``seed*samples .. seed*samples+samples-1``, the same in every call.
    """

    serial = True

    def __init__(self, samples: int):
        self.samples = samples
        self.api = {"call": "lrobic_search",
                    "args": {"epsilon": str(LROBIC_EPSILON), "samples": samples},
                    "note": "takes no mode or jobs; serial, and checks each "
                            "prior with check_obic(mode='first')"}

    def setup(self, seed: int) -> dict:
        instance = Instance.default(3)
        center = interim.uniform_prior(instance)
        return {"instance": instance, "center": center,
                "first_seed": seed * self.samples,
                # shared across calls: after the first call every evaluation
                # is a memo hit, as in a long ``ram lrobic`` search
                "mech": RandomPriority(instance, cache=True)}

    def mechanism(self, inputs):
        return inputs["mech"]

    def call(self, mech, inputs):
        return interim.lrobic_search(
            mech, inputs["center"], LROBIC_EPSILON, self.samples, inputs["first_seed"]
        )

    def render(self, inputs, hit) -> list[str]:
        if hit is None:
            return [f"lrobic verdict=unfalsified samples={self.samples}"]
        sample, witness = hit
        return [
            f"lrobic verdict=violated sample_seed={sample.seed} attempts={sample.attempts}",
            "violation " + witness.render(inputs["instance"]),
        ]

    def fingerprint(self, inputs, hit, drawn) -> dict:
        if "reference" not in inputs:
            # the priors the documented seeds give, drawn directly
            inputs["reference"] = prior_digest(
                interim.sample_prior_in_ball(
                    inputs["center"], LROBIC_EPSILON, inputs["first_seed"] + k
                ).prior
                for k in range(self.samples)
            )
        digest = prior_digest(drawn)
        return {"verdict": "unfalsified" if hit is None else "violated",
                "priors_sha256": digest,
                "priors_match_seeds": digest == inputs["reference"]}

    def comparisons(self, hit) -> int:
        return 0  # counted from the traced check_obic calls instead


def prior_digest(priors) -> str:
    h = hashlib.sha256()
    for prior in priors:
        h.update((",".join(str(p) for p in prior.probs) + "\n").encode())
    return h.hexdigest()


#: Every workload by name.  BENCHMARK.json lists the ones the benchmark
#: runs; the n=3 analogues (lrobic-rp3 is its own) serve the smoke test and
#: the traced run's probe stage.
WORKLOADS = {
    "pairs-ps4": PairSweep(4),
    "interim-ps4": InterimReport(4),
    "oe-rp4": OrdinalEfficiency(4),
    "lrobic-rp3": Lrobic(40),
    "pairs-ps3": PairSweep(3),
    "interim-ps3": InterimReport(3),
    "oe-rp3": OrdinalEfficiency(3),
}


class PriorCapture:
    """Records the priors ``lrobic_search`` draws, by wrapping the module
    attribute it calls.  Costs one Python call per sampled prior."""

    def __init__(self):
        self.drawn: list = []
        self._original = interim.sample_prior_in_ball

        def sample(*args, **kwargs):
            result = self._original(*args, **kwargs)
            self.drawn.append(result.prior)
            return result

        interim.sample_prior_in_ball = sample

    def take(self) -> list:
        drawn, self.drawn = self.drawn, []
        return drawn

    def close(self) -> None:
        interim.sample_prior_in_ball = self._original


def measure_call(workload, inputs, capture: PriorCapture, *, mech=None,
                 tracer=None) -> tuple[dict, object]:
    """One timed call: library call, machine-format rendering, digest.

    Returns the call's record and the library's result."""
    if mech is None:
        mech = workload.mechanism(inputs)
    capture.take()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if tracer is None:
        result = workload.call(mech, inputs)
        lines = workload.render(inputs, result)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    else:
        with tracer.span("call"):
            result = workload.call(mech, inputs)
        with tracer.span("render"):
            lines = workload.render(inputs, result)
        with tracer.span("digest"):
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    fingerprint = {"output_sha256": digest}
    fingerprint.update(workload.fingerprint(inputs, result, capture.take()))
    return {"wall_s": wall, "cpu_s": cpu, "fingerprint": fingerprint,
            "output_bytes": sum(len(line.encode()) + 1 for line in lines)}, result


def run_untraced(workload, inputs, seconds: float) -> list[dict]:
    """Calls until ``seconds`` have passed; a call starts only if the
    previous call's time still fits, and the first call always runs.
    A call that raises is recorded with its error and ends the run."""
    capture = PriorCapture()
    calls = []
    start = time.perf_counter()
    try:
        while True:
            try:
                call, _ = measure_call(workload, inputs, capture)
            except Exception as exc:  # recorded as a failed call
                calls.append({"error": f"{type(exc).__name__}: {exc}"})
                return calls
            calls.append(call)
            elapsed = time.perf_counter() - start
            if elapsed + call["wall_s"] > seconds:
                return calls
    finally:
        capture.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--untraced-pass", action="store_true",
                        help="traced run: also make one untraced call, as the "
                             "tracing-overhead reference, if it ends in time")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    workload.mechanism(inputs)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    record = {"workload": args.workload, "api": workload.api}
    if args.trace:
        import layers  # only the traced run needs the tracer and probes

        record.update(layers.traced_run(
            args.workload, workload, inputs, args.seed, args.untraced_pass,
            setup=(STARTED, time.perf_counter()),
        ))
    else:
        record["calls"] = run_untraced(workload, inputs, args.seconds)
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
