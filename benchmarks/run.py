"""Benchmark of ramkit: time to a checked verdict, end to end and per layer.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload pairs-ps4 --seed 1 --seconds 10 --trace 0

The workloads are listed in BENCHMARK.json and defined in workloads.py.
Each run measures the workload in a fresh interpreter, times
``SETUP_SAMPLES`` more fresh interpreters from start to inputs ready
(``setup_s``, before and after the measured one), and checks every call's output against its golden fingerprint
in golden.json.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over the run's calls); with ``--trace 1`` it
carries the per-layer metrics of layers.py.  Each run also writes its
full record under ``benchmarks/out/``.

Exit status is 0 when the run produced a result (``correct`` is false
when any call failed its check), 1 when the workload process failed or
every call raised, and 2 when the checkout has no ramkit sources; no
result is printed with a non-zero status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "workloads.py")
HISTORY = os.path.join(OUT, "history.jsonl")

SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0  # the whole run, set-up included, ends within this
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting an interpreter to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(args, extra: list[str], timeout: float) -> dict | None:
    """Start the measuring interpreter; None when it fails or times out."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    # own process group, so a timeout also stops its pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {args.workload} timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run.py: {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def matches(golden: dict, call: dict) -> bool:
    """The call returned, and its fingerprint has every golden value."""
    fingerprint = call.get("fingerprint")
    return fingerprint is not None and all(
        fingerprint.get(key) == value for key, value in golden.items()
    )


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None, "note": "not a git checkout"}

    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}


def untraced_reference(workload: str) -> float | None:
    """Median wall_s of the untraced runs recorded in this checkout."""
    try:
        with open(HISTORY, encoding="utf-8") as fh:
            walls = [rec["wall_s"] for rec in map(json.loads, fh)
                     if rec["workload"] == workload]
    except FileNotFoundError:
        return None
    return statistics.median(walls) if walls else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                        help="golden fingerprints (default: %(default)s)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "ramkit", "__init__.py")):
        print(f"run.py: no ramkit sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    with open(args.golden, encoding="utf-8") as fh:
        golden_all = json.load(fh)
    if args.workload not in golden_all:
        print(f"run.py: unknown workload {args.workload!r}; known: "
              + ", ".join(sorted(golden_all)), file=sys.stderr)
        return 2
    golden = golden_all[args.workload]

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_state(),
        "loadavg_start": os.getloadavg(),
    }
    # set-up samples straddle the measured call, so one slow spell of a
    # shared machine moves fewer of them
    setups = [] if args.trace else [
        time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2 + 1)
    ]

    extra = []
    reference = None
    if args.trace:
        reference = untraced_reference(args.workload)
        if reference is None:
            extra.append("--untraced-pass")
    record = run_worker(args, extra,
                        RUN_TIMEOUT_S - (time.perf_counter() - started))
    if not args.trace:
        setups += [time_setup(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - len(setups))]
    env["loadavg_end"] = os.getloadavg()
    if record is None:
        print(f"run.py: no result; environment {json.dumps(env)}", file=sys.stderr)
        return 1

    if args.trace:
        calls = [record["traced_call"]] + record["probe_calls"]
        checks = [matches(golden, record["traced_call"])] + [
            matches(golden_all[c["workload"]], c) for c in record["probe_calls"]
        ]
        if "untraced_call" in record:
            calls.append(record["untraced_call"])
            checks.append(matches(golden, record["untraced_call"]))
            reference = record["untraced_call"]["wall_s"]
        record["untraced_reference_s"] = reference
        record["tracing_overhead_s"] = (
            None if reference is None else record["traced_call"]["wall_s"] - reference
        )
    else:
        calls = record["calls"]
        checks = [matches(golden, c) for c in calls]

    attempted, failed = len(checks), checks.count(False)
    # a call whose output does not match contributes no timing, unless no
    # call matched: then the result still prints, with correct false
    good = [c for c, ok in zip(calls, checks) if ok] or [
        c for c in calls if "wall_s" in c
    ]
    if not good:
        print(f"run.py: every call of {args.workload} raised: "
              f"{json.dumps(calls)}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, (unit, _, _) in record["layer_metrics"].items()}
    else:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in good),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(c["cpu_s"] for c in good),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record.update({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "env": env, "setup_s_samples": setups,
                   "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "metrics": metrics})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not args.trace and not failed:
        with open(HISTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "wall_s": metrics["wall_s"]["value"]}) + "\n")

    report(record, path)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record: dict, path: str) -> None:
    """Human-readable summary, printed before the result line."""
    env = record["env"]
    print(f"workload {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"api={json.dumps(record['api'])}")
    print(f"env python={env['python']} nproc={env['nproc']} git={env['git']} "
          f"loadavg_start={env['loadavg_start']} loadavg_end={env['loadavg_end']}")
    print(f"calls attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']}")
    if record["trace"]:
        if record["tracing_overhead_s"] is not None:
            print(f"tracing overhead {record['tracing_overhead_s']:+.4f} s "
                  f"(traced wall_s {record['traced_call']['wall_s']:.4f} s minus "
                  f"untraced wall_s {record['untraced_reference_s']:.4f} s)")
        for note in record["notes"]:
            print("note " + note)
        print("span self time (s): name count total self")
        for name, row in sorted(record["self_times"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:48s} {row['count']:6d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
        print("layer metric = value unit; should move")
        for name, (unit, better, target) in record["layer_metrics"].items():
            value = record["metrics"][name]["value"]
            probe = record["probes"].get(name.removesuffix(".p90"))
            samples = f" (n={probe['samples']})" if probe else ""
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name} = {shown} {unit}{samples}; {better} is better; {target}")
    else:
        walls = [c["wall_s"] for c in record["calls"]]
        print(f"wall_s per call: {' '.join(f'{w:.4f}' for w in walls)} (n={len(walls)})")
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in record['setup_s_samples'])}")
    print(f"record {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
