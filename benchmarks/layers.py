"""Per-layer measurements of the ramkit benchmark: spans and probes.

The traced run (``run.py --trace 1``) does three things in the workload
process, each time with tracing on:

1. one call of the workload, with spans around the benchmark's phases
   (call, render, digest) and around ramkit's public calls, which are
   wrapped by module attribute in this process only;
2. one call of each n=3 analogue workload, so that every span metric below
   has spans on every workload (their outputs are checked like the
   workload's);
3. the seeded probes: each times one public function on inputs derived
   from ``--seed``, discards a warm-up, and reports the median and the
   90th percentile per call over 100 samples.

Spans live in memory and are written out at the end: name, start, end,
parent, plus the CPU of this process and of its children while open.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from contextlib import contextmanager
from fractions import Fraction

from ramkit import axioms, core, decomp, formats, interim
from ramkit.core import Instance, enumerate_preferences
from ramkit.mechanisms import (
    EatingSpeedSchedule,
    ProbabilisticSerial,
    RandomPriority,
    SimultaneousEating,
)

import workloads

PROBE_WARMUP = 5
PROBE_SAMPLES = 100  # the 90th percentile then has ten samples beyond it
PROBE_WORKLOADS = ("pairs-ps3", "interim-ps3", "oe-rp3", "lrobic-rp3")
UNTRACED_BY_S = 140  # an untraced reference call must end this soon after start

#: Public calls wrapped in spans during the traced run.
WRAPPED = (
    (axioms, "run_pair_sweep"),
    (axioms, "check_mechanism_ordinal_efficiency"),
    (interim, "obic_decomposition_report"),
    (interim, "check_obic"),
    (interim, "run_interim_sweep"),
    (interim, "lrobic_search"),
    (formats, "outcome_lines"),
)

# name -> (unit, better, what it should move).  ``run.py`` prints the
# targets with the traced run's results; BENCHMARK.json lists the same
# names and units.
LAYER_METRICS = {}


def _metric(name, unit, better, target, *, p90=False):
    LAYER_METRICS[name] = (unit, better, target)
    if p90:
        LAYER_METRICS[name + ".p90"] = (unit, better, target)


_metric("mechanisms.ps_eval_us", "us", "lower",
        "wall_s/cpu_s on pairs-ps4, interim-ps4", p90=True)
_metric("mechanisms.rp_eval_us", "us", "lower", "wall_s on oe-rp4", p90=True)
_metric("mechanisms.sea_eval_us", "us", "lower",
        "control (ROADMAP item 3's eat fold)", p90=True)
_metric("mechanisms.memo_hit_us", "us", "lower",
        "wall_s on interim-ps4, lrobic-rp3", p90=True)
_metric("mechanisms.calls", "count", "lower", "wall_s on pairs-ps4, interim-ps4")
_metric("mechanisms.distinct_profiles", "count", "lower",
        "wall_s on pairs-ps4, interim-ps4")
_metric("mechanisms.distinct_ratio", "ratio", "higher",
        "wall_s on pairs-ps4, interim-ps4")
_metric("mechanisms.memo_entries", "count", "lower", "peak_rss_mb on interim-ps4")
_metric("core.fosd_failure_us", "us", "lower",
        "wall_s on interim-ps4, lrobic-rp3", p90=True)
_metric("core.enumerate_profiles_s", "s", "lower",
        "wall_s on oe-rp4 (small share)", p90=True)
_metric("axioms.comparisons", "count", "lower",
        "cpu_s, peak_rss_mb on pairs-ps4, oe-rp4")
_metric("axioms.violations", "count", "lower",
        "cpu_s, peak_rss_mb on pairs-ps4, oe-rp4")
_metric("axioms.parent_cpu_s", "s", "lower",
        "wall_s/cpu_s on pairs-ps4 (unpickle-and-merge cost)")
_metric("axioms.worker_cpu_s", "s", "lower", "wall_s/cpu_s on pairs-ps4")
_metric("axioms.trade_cycle_us", "us", "lower", "wall_s on oe-rp4", p90=True)
_metric("axioms.lp_oracle_ms", "ms", "lower", "control (ROADMAP item 5)", p90=True)
_metric("axioms.lp_oracle_n3_ms", "ms", "lower", "control (ROADMAP item 5)",
        p90=True)
_metric("interim.obic_s", "s", "lower", "wall_s on interim-ps4")
_metric("interim.sweep_s", "s", "lower", "wall_s on interim-ps4")
_metric("interim.check_obic_ms", "ms", "lower", "wall_s on lrobic-rp3")
_metric("interim.share_vector_ms", "ms", "lower", "wall_s on lrobic-rp3", p90=True)
_metric("interim.sample_prior_us", "us", "lower",
        "wall_s on lrobic-rp3 (small share)", p90=True)
_metric("interim.sampler_attempts", "count", "lower",
        "wall_s on lrobic-rp3 (small share)")
_metric("decomp.birkhoff_ms", "ms", "lower", "control (ex-post sweep)", p90=True)
_metric("decomp.terms", "count", "lower", "control (ex-post sweep)")
_metric("formats.render_s", "s", "lower", "wall_s on pairs-ps4, oe-rp4")
_metric("formats.output_bytes", "bytes", "lower", "wall_s on pairs-ps4, oe-rp4")


class Tracer:
    """Spans held in memory: [name, start, end, parent, cpu_self, cpu_children]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           *workloads.cpu_split()])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            span = self.spans[index]
            span[2] = time.perf_counter()
            own, kids = workloads.cpu_split()
            span[4] = own - span[4]
            span[5] = kids - span[5]

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        return [
            end - start for span_name, start, end, up, _, _ in self.spans
            if span_name == name
            and (parent is None or (up is not None and self.spans[up][0] == parent))
        ]

    def self_times(self) -> dict[str, dict]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return table


class CallCounter:
    """Counts ``assignment`` calls and distinct profiles on one mechanism
    instance; usable only where the mechanism is not sent to workers."""

    def __init__(self, mech):
        self.mech = mech
        self.calls = 0
        self.profiles: set = set()
        original = mech.assignment

        def assignment(profile):
            self.calls += 1
            self.profiles.add(profile)
            return original(profile)

        mech.assignment = assignment

    def close(self) -> None:
        del self.mech.assignment


# ---------------------------------------------------------------------------
# seeded probes
# ---------------------------------------------------------------------------


def _per_call(fn, args: list[tuple], batch: int) -> list[float]:
    """Seconds per call over PROBE_SAMPLES batches of ``batch`` calls,
    cycling through ``args``, after PROBE_WARMUP discarded batches."""
    times = []
    k = 0
    for sample in range(PROBE_WARMUP + PROBE_SAMPLES):
        chunk = [args[(k + j) % len(args)] for j in range(batch)]
        k += batch
        start = time.perf_counter()
        for a in chunk:
            fn(*a)
        elapsed = (time.perf_counter() - start) / batch
        if sample >= PROBE_WARMUP:
            times.append(elapsed)
    return times


def _profiles(rng: random.Random, n: int, count: int) -> list[tuple]:
    prefs = enumerate_preferences(Instance.default(n))
    return [tuple(rng.choice(prefs) for _ in range(n)) for _ in range(count)]


def _sea_schedule() -> EatingSpeedSchedule:
    half = Fraction(1, 2)
    return EatingSpeedSchedule((
        ((0, half, Fraction(3, 2)), (half, 1, half)),
        ((0, half, 1), (half, 1, 1)),
        ((0, half, half), (half, 1, Fraction(3, 2))),
    ))


def run_probes(seed: int) -> tuple[dict, dict]:
    """(probe name -> summary, exact counts) for the seeded probes."""
    rng = random.Random(seed)
    n3, n4 = Instance.default(3), Instance.default(4)
    count = PROBE_WARMUP + PROBE_SAMPLES
    ps4 = ProbabilisticSerial(n4)
    rp3, rp4 = RandomPriority(n3), RandomPriority(n4)
    p4 = _profiles(rng, 4, count)
    p3 = _profiles(rng, 3, count)
    ps_out = [(ps4.assignment(p), p) for p in p4]
    rp_out4 = [(rp4.assignment(p), p) for p in p4]
    rp_out3 = [(rp3.assignment(p), p) for p in p3]
    rows = []
    for out, p in ps_out:
        i, j = rng.sample(range(4), 2)
        rows.append((out[i], out[j], p[i]))
    memo = ProbabilisticSerial(n4, cache=True)
    for p in p4:
        memo.assignment(p)
    center3 = interim.uniform_prior(n3)
    ball = interim.sample_prior_in_ball(
        center3, workloads.LROBIC_EPSILON, rng.randrange(1 << 30)
    ).prior
    lrobic_mech = RandomPriority(n3, cache=True)
    prefs3 = enumerate_preferences(n3)
    share_args = [(lrobic_mech, rng.randrange(3), rng.choice(prefs3), ball)
                  for _ in range(count)]
    prior_seeds = [(center3, workloads.LROBIC_EPSILON, rng.randrange(1 << 30))
                   for _ in range(count)]

    # (name, scale to the unit, batch, function, argument tuples)
    plan = [
        ("mechanisms.ps_eval_us", 1e6, 1, ps4.assignment, [(p,) for p in p4]),
        ("mechanisms.rp_eval_us", 1e6, 1, rp4.assignment, [(p,) for p in p4]),
        ("mechanisms.sea_eval_us", 1e6, 1,
         SimultaneousEating(n3, _sea_schedule()).assignment, [(p,) for p in p3]),
        ("mechanisms.memo_hit_us", 1e6, 100, memo.assignment, [(p,) for p in p4]),
        ("core.fosd_failure_us", 1e6, 100, core.fosd_failure, rows),
        ("core.enumerate_profiles_s", 1.0, 1,
         lambda: deque(core.enumerate_profiles(n4), maxlen=0), [()]),
        ("axioms.trade_cycle_us", 1e6, 10, axioms.trade_cycle, rp_out4),
        ("axioms.lp_oracle_ms", 1e3, 1, axioms.lp_dominance_oracle, rp_out4),
        ("axioms.lp_oracle_n3_ms", 1e3, 1, axioms.lp_dominance_oracle, rp_out3),
        ("interim.share_vector_ms", 1e3, 1, interim.interim_share_vector, share_args),
        ("interim.sample_prior_us", 1e6, 1, interim.sample_prior_in_ball, prior_seeds),
        ("decomp.birkhoff_ms", 1e3, 1, decomp.birkhoff_decompose,
         [(out,) for out, _ in ps_out]),
    ]
    summaries = {}
    for name, scale, batch, fn, args in plan:
        times = [t * scale for t in _per_call(fn, args, batch)]
        summaries[name] = {
            "median": statistics.median(times),
            "p90": statistics.quantiles(times, n=10)[8],
            "samples": len(times), "batch": batch,
        }
    counts = {
        "interim.sampler_attempts": sum(
            interim.sample_prior_in_ball(*a).attempts for a in prior_seeds
        ),
        "decomp.terms": sum(
            len(decomp.birkhoff_decompose(out).terms) for out, _ in ps_out
        ),
    }
    return summaries, counts


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def traced_run(name: str, workload, inputs, seed: int, untraced_pass: bool, *,
               setup: tuple[float, float]) -> dict:
    """The traced call, the analogue calls and the probes; ``setup`` is the
    (start, end) of this process's set-up, recorded as the first span."""
    record: dict = {"notes": []}
    capture = workloads.PriorCapture()
    try:
        tracer = Tracer()
        tracer.spans.append(["setup", *setup, None, 0.0, 0.0])
        mech = workload.mechanism(inputs)
        counter = CallCounter(mech) if workload.serial else None
        for module, attr in WRAPPED:
            tracer.wrap(module, attr)
        try:
            with tracer.span("workload " + name):
                call, result = workloads.measure_call(
                    workload, inputs, capture, mech=mech, tracer=tracer
                )
            probe_calls = []
            for probe in PROBE_WORKLOADS:
                analogue = workloads.WORKLOADS[probe]
                with tracer.span("probe " + probe):
                    probe_call, _ = workloads.measure_call(
                        analogue, analogue.setup(seed), capture, tracer=tracer
                    )
                probe_call["workload"] = probe
                probe_calls.append(probe_call)
        finally:
            tracer.unwrap()
            if counter is not None:
                counter.close()
        # the reference call comes last and only if it ends in time
        if untraced_pass:
            if time.perf_counter() - setup[0] + call["wall_s"] < UNTRACED_BY_S:
                record["untraced_call"], _ = workloads.measure_call(
                    workload, inputs, capture
                )
            else:
                record["notes"].append(
                    "no untraced run of this workload is recorded in this "
                    "checkout, and an untraced call would not end in time: "
                    "tracing overhead not measured"
                )
    finally:
        capture.close()

    record["traced_call"] = call
    record["probe_calls"] = probe_calls

    if counter is not None:
        calls, distinct = counter.calls, len(counter.profiles)
    else:
        n = workload.n
        calls = result[0].profiles_checked
        distinct = len(enumerate_preferences(Instance.default(n))) ** n
        record["notes"].append(
            "mechanism evaluation runs in pool workers: mechanisms.calls is the "
            "outcome's profiles_checked counter, mechanisms.distinct_profiles is "
            "the domain size (n!)^n, and worker CPU comes from getrusage "
            "RUSAGE_CHILDREN"
        )
    memo = getattr(mech, "_cache", None)  # the memo a cached mechanism holds
    if not isinstance(result, list):
        record["notes"].append(
            "lrobic_search returns no outcomes: axioms.comparisons and "
            "axioms.violations read 0 for it"
        )
    outcomes = result if isinstance(result, list) else []

    pair_spans = [s for s in tracer.spans if s[0] == "axioms.run_pair_sweep"]
    lrobic_checks = tracer.durations("interim.check_obic", "interim.lrobic_search")
    layers = {
        "mechanisms.calls": calls,
        "mechanisms.distinct_profiles": distinct,
        "mechanisms.distinct_ratio": distinct / calls if calls else 0.0,
        "mechanisms.memo_entries": len(memo) if memo is not None else 0,
        "axioms.comparisons": workload.comparisons(result),
        "axioms.violations": sum(len(o.violations) for o in outcomes),
        "axioms.parent_cpu_s": sum(s[4] for s in pair_spans),
        "axioms.worker_cpu_s": sum(s[5] for s in pair_spans),
        "interim.obic_s": sum(tracer.durations(
            "interim.check_obic", "interim.obic_decomposition_report")),
        "interim.sweep_s": sum(tracer.durations(
            "interim.run_interim_sweep", "interim.obic_decomposition_report")),
        "interim.check_obic_ms": 1e3 * statistics.median(lrobic_checks),
        "formats.render_s": sum(tracer.durations("formats.outcome_lines")),
        "formats.output_bytes": call["output_bytes"],
    }
    summaries, counts = run_probes(seed)
    for probe, summary in summaries.items():
        layers[probe] = summary["median"]
        layers[probe + ".p90"] = summary["p90"]
    layers.update(counts)

    record["layers"] = layers
    record["layer_metrics"] = LAYER_METRICS
    record["probes"] = summaries
    record["self_times"] = tracer.self_times()
    record["spans"] = tracer.spans
    return record
