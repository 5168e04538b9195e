"""Report what ``import ramkit`` costs in a fresh interpreter.

It prints the median wall time of 7 runs of ``python3 -c "import ramkit"``
less the median of 7 runs of ``python3 -c pass``, and the five modules
with the largest self time in one ``-X importtime`` run of the import.
The runs import ``ramkit`` from this checkout's ``src``.

Run from the repository root::

    python3 tests/import_time.py

It only reports: it gates nothing, and exits 0 unless the import fails.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import time

RUNS = 7
LARGEST = 5


def _env() -> dict:
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def median_run_s(code: str, env: dict) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def self_times_us(env: dict) -> list[tuple[int, str]]:
    """``(self time in us, module)`` of each module the import loads, from
    ``-X importtime``'s ``import time: self | cumulative | name`` lines."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ramkit"],
        env=env, check=True, capture_output=True, text=True,
    )
    rows = []
    for line in run.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), fields[2].strip()))
    return sorted(rows, reverse=True)


def main() -> None:
    env = _env()
    base = median_run_s("pass", env)
    full = median_run_s("import ramkit", env)
    cache = "off" if env.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"import ramkit: {(full - base) * 1e3:.1f} ms "
          f"(median of {RUNS} runs, {full * 1e3:.1f} ms, less python3 -c pass, {base * 1e3:.1f} ms; "
          f"bytecode cache {cache})")
    print("largest self times of one -X importtime run, in us:")
    for us, name in self_times_us(env)[:LARGEST]:
        print(f"{us:8d} {name}")


if __name__ == "__main__":
    main()
