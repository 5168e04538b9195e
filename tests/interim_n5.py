"""Run PS's interim rank vector at n=5 under the uniform prior and check it.

It runs ``ram ranks --n 5 --max-n 5 --mechanism ps --agent 1`` in this
process, through ``ramkit.cli.main`` with this checkout's ``src`` first on
the path, and prints:

- the wall time of the run and the process's maximum resident set size;
- the number of PS evaluations, counted by a wrapper around
  ``ProbabilisticSerial.scaled_assignment``.  The interim walk visits each
  multiset of opponent reports once and evaluates it at most once, so
  each evaluation is of a distinct profile;
- the sha256 of the run's stdout.

Run from the repository root::

    python3 tests/interim_n5.py

It takes about three minutes.  It exits 1 unless the run exits 0 and its
stdout gives PS's common rank vector at n=5 under the uniform prior:
153690083/259200000, 1788468767/8294400000, 340318693/3317760000,
1837097447/33177600000, 123456659/3686400000.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ramkit import cli  # noqa: E402
from ramkit.mechanisms import ProbabilisticSerial  # noqa: E402

ARGV = ["ranks", "--n", "5", "--max-n", "5", "--mechanism", "ps", "--agent", "1"]
RANK_VECTOR = (
    "  common rank vector: 153690083/259200000 1788468767/8294400000 "
    "340318693/3317760000 1837097447/33177600000 123456659/3686400000"
)


def run() -> tuple[int, str, float, int]:
    """``(exit code, stdout, wall seconds, PS evaluations)`` of one run."""
    evaluate = ProbabilisticSerial.scaled_assignment
    evaluations = 0

    def counted(self, profile):
        nonlocal evaluations
        evaluations += 1
        return evaluate(self, profile)

    ProbabilisticSerial.scaled_assignment = counted
    out = io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(ARGV)
        wall = time.perf_counter() - start
    finally:
        ProbabilisticSerial.scaled_assignment = evaluate
    return code, out.getvalue(), wall, evaluations


def main() -> int:
    code, stdout, wall, evaluations = run()
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ram {' '.join(ARGV)}: exit {code}")
    print(f"wall {wall:.1f} s, max RSS {max_rss_mb:.1f} MB, {evaluations:,} PS evaluations")
    print(f"stdout sha256 {hashlib.sha256(stdout.encode()).hexdigest()}")
    if code != 0 or RANK_VECTOR not in stdout.splitlines():
        print("the run did not give PS's common rank vector at n=5:")
        print(stdout, end="")
        return 1
    print("common rank vector as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
