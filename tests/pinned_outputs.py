"""Pinned outputs of the ``ram`` command line.

Every row of :data:`PINS` is a ``ram`` command with the exit code it must
give and the sha256 of the stdout it must write.  Each command runs as its
own child, ``python -m ramkit.cli`` with this checkout's ``src`` first on
``PYTHONPATH``, and its stdout is hashed through a real pipe as the child
writes it.  ``{sea3}``, ``{sea4}``, ``{half4}``, ``{two5}`` and
``{table3}`` in a command name the input files that :func:`write_inputs`
builds; no input file reaches the output.

Run it with no arguments::

    python3 tests/pinned_outputs.py

It prints one line per row and exits 1 if any row's exit code or digest
differs.  Tier-1 runs the ``--n 3`` rows (``tests/test_cli.py``).
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from helpers import (  # noqa: E402
    half_support_prior,
    huge_denominator_table,
    nonunit_schedule,
    two_point_prior,
)
from ramkit.core import Instance, enumerate_profiles  # noqa: E402
from ramkit.formats import render_prior_file, render_speed_file, render_table_file  # noqa: E402

#: exit code, sha256 of stdout, ``ram`` arguments; a comment heads each group
PINS = """
# 457,632 li violation lines, 72,693,882 bytes; tests/test_cli.py also pins this row's memory
1 67a8a68fda89b54b8d60a24b44d2e24351df4e9324ff80a8477bdd09c562c216 check --axiom li --mechanism ps --n 4 --mode exhaustive --format machine --jobs 2
# the same li violations in the human format, each line under a two-space prefix; recorded while each agent's lines were rendered in slot-group order and reordered
1 a08b1d15e1648886ff06ccbd7f5138229184efe1c84354dc1b8be8c8ec2038ed check --axiom li --mechanism ps --n 4 --mode exhaustive --jobs 2
# 1,386,432 sp violation lines, recorded while every profile was evaluated on two workers
1 8586cc886785800e297f6e031c16a29b89de9c5ba8ca73b189f4b48ce90ff9b9 check --axiom sp --mechanism ps --n 4 --mode exhaustive --format machine --jobs 2
# exhaustive weak-sp and em of ps, both satisfied, recorded while the pair kernel compared cell columns of the multiset-filled table
0 f279c976a100423fa06c44d4d7f1460f0e4fc7d5c71577f9a2f8ff0d2e300d5b check --axiom weak-sp --mechanism ps --n 4 --mode exhaustive --format machine
0 35c1dcf084d56b7d44a06bf421c91a8c91d55c755b7ff4a5ed53b74d715a1a16 check --axiom em --mechanism ps --n 4 --mode exhaustive --format machine
# profile sweeps, recorded with the Fraction loops these sweeps replaced
1 02c2ae9353d85934415edf2a68f3640ce372d5d7cd074886cb93b850c791ba57 check --axiom oe --mechanism rp --n 4 --mode exhaustive --format machine --jobs 2
1 2135a5a063481038678f534894620dedbc0a34da7372f1bcea9152d49a4af99f check --axiom ete --mechanism sd:4,2,1,3 --n 4 --mode exhaustive --format machine --jobs 2
# non-unit eating, filled profile by profile; recorded with the Fraction eating engine the integer engine replaced
1 a9cd90eca2d1be8290b39d52192318455096a4437a1b8ae004a3ef8da5dec1a1 check --axiom li --mechanism sea:{sea4} --n 4 --mode exhaustive --format machine --jobs 2
# first-mode pair sweeps, recorded while first mode evaluated profiles as it read them and kept them in a memo
0 35c1dcf084d56b7d44a06bf421c91a8c91d55c755b7ff4a5ed53b74d715a1a16 check --axiom em --mechanism ps --n 4 --format machine
1 ea28eded78e897de18666a2fc71c661db1b04319c11ef0db8478f6f5abeeae53 check --axiom sp --mechanism ps --n 4 --format machine
1 3bb098e9ef9481c61c327f3c53a9dd46f1068a2694954812b3f8d01d466b735a check --axiom li --mechanism sea:{sea4} --n 4 --format machine --jobs 2
# first-mode pair sweeps that run to the end (rp weak-sp, an sd order's em) and one past the cap, recorded while a batch holding a violation was swept again cell by cell
0 f279c976a100423fa06c44d4d7f1460f0e4fc7d5c71577f9a2f8ff0d2e300d5b check --axiom weak-sp --mechanism rp --n 4 --format machine
0 35c1dcf084d56b7d44a06bf421c91a8c91d55c755b7ff4a5ed53b74d715a1a16 check --axiom em --mechanism sd:4,2,1,3 --n 4 --format machine --jobs 2
1 eafd837ccf61ff591740ad145046dbe85055ff3745a15dd92c2621c759bc46cd check --axiom li --mechanism ps --n 5 --max-n 5 --format machine
# first-mode profile sweeps, recorded while first mode evaluated each profile as it read it
1 4383174f5ccd7ce386256336b7cde17727a1396e6103f9f429df58080cefb8ea check --axiom oe --mechanism rp --n 4 --format machine
0 bece1fcf79db51f9c97c6088b7e942997caacc91fd6d7905571ed518bc0c5c0e check --axiom oe --mechanism sd:4,2,1,3 --n 4 --format machine --jobs 2
# ps is neutral; recorded while every profile of an orbit was relabeled to find the orbit's minimum
0 f4a88da74bd5c82d6b9b1ec665a04b067f794fa76b1ce0a009596a942adc7aad check --axiom neutral --mechanism ps --n 4 --mode exhaustive --format machine
# rp filled by multiset and an sd order filled on the pool, both neutral; recorded while every member of an orbit was compared with every relabeling of it
0 f4a88da74bd5c82d6b9b1ec665a04b067f794fa76b1ce0a009596a942adc7aad check --axiom neutral --mechanism rp --n 4 --mode exhaustive --format machine
0 f4a88da74bd5c82d6b9b1ec665a04b067f794fa76b1ce0a009596a942adc7aad check --axiom neutral --mechanism sd:4,2,1,3 --n 4 --mode exhaustive --format machine --jobs 2
# OBIC and rank vectors of ps under the uniform prior
0 3182945c8d94e12f3761233c8f5b46b7fdac56242208e83ec51b0aa87da8de54 obic --mechanism ps --n 4 --format machine
0 9549b9ece37461262fd320eb660690850ee1a6ebffca49ccd042dc1fe8726e61 ranks --mechanism ps --n 4 --format machine
# ps under a prior on 12 of 24 preferences; recorded while interim rows were built profile by profile
1 1c87a47ec530042d59168f78ff67f99f75ff73bb24fa460c83f5e5bcda4111f7 obic --mechanism ps --n 4 --prior file:{half4} --format machine
# exact interim shares of rp and ps under that prior, which is not neutral; recorded while interim rows were built once per report multiset
0 35fc4147df2f99eadb049bded25e4b3e57220266935b39ed27523f98f98e02f1 ranks --mechanism rp --n 4 --prior file:{half4} --format machine
0 f089d501d16b038bf39b38f07f82756a49eb31cfb016a1d2d557d0fcffd591c3 ranks --mechanism ps --n 4 --prior file:{half4} --format machine
# interim rows past the preference cap: ps and rp at n=5 under half on each of the first two preferences; recorded while anonymous rows past n=4 were built once per report multiset
0 b51f4158b0c9a8a7b6e8b3db7466a62b20ebe9b23855736d6901532c7333affd ranks --mechanism ps --n 5 --max-n 5 --prior file:{two5} --format machine
1 69f303ddce5331786055f4b2d9e7b4a6ca263b2321c457da7a6d546739d906d8 obic --mechanism ps --n 5 --max-n 5 --prior file:{two5} --format machine
0 b0b9c439e633e5a685706d50156c0e1b637fb352ed53d5abfbfc0f25fbe88b34 obic --mechanism rp --n 5 --max-n 5 --prior file:{two5} --format machine
# --jobs 1 twins of the rows whose table is filled on the pool: no output depends on --jobs
1 a9cd90eca2d1be8290b39d52192318455096a4437a1b8ae004a3ef8da5dec1a1 check --axiom li --mechanism sea:{sea4} --n 4 --mode exhaustive --format machine --jobs 1
1 3bb098e9ef9481c61c327f3c53a9dd46f1068a2694954812b3f8d01d466b735a check --axiom li --mechanism sea:{sea4} --n 4 --format machine --jobs 1
0 bece1fcf79db51f9c97c6088b7e942997caacc91fd6d7905571ed518bc0c5c0e check --axiom oe --mechanism sd:4,2,1,3 --n 4 --format machine --jobs 1
# a table with shares past 64 bits, recorded while a table met one denominator per profile on each lookup
1 c8f215766dc1e912d26b97d6dba8599ac6eecd3f18c5a8c277eaf7aa89c8443b check --axiom sp --mechanism table:{table3} --n 3 --mode exhaustive --format machine
1 e10edcbecae18efcddc25ffadc14d2a8f23f3d15299a1360cd633552203aa07a obic --mechanism table:{table3} --n 3 --format machine
# 9,684 violations, recorded while every profile was relabeled to find its orbit's minimum
1 7e3fc7aecf83ef7f7ff924f649b7217aa5b43a049275b11101d7307e8114884c check --axiom neutral --mechanism table:{table3} --n 3 --mode exhaustive --format machine
# 1,100 and 320 violations, recorded while each pair axiom's check ran through its own wrapper
1 6efffb014b5ba44717cf027e9d0de85f36d482e9c231f4a0d6f5c00eac486963 check --axiom weak-sp --mechanism table:{table3} --n 3 --mode exhaustive --format machine
1 f338ee39aa5be3141a0084c512d68750ff44dfe8cdc7324e276043224e8b470d check --axiom ui --mechanism table:{table3} --n 3 --mode exhaustive --format machine
# every axiom, obic and ranks at n=3 for ps, rp, an sd order and a non-unit schedule
1 d458717f8176d0f1ab16fee2d29460ec095694bb326f9d7dbe980255b919fe5c check --axiom sp --mechanism ps --n 3 --mode exhaustive --format machine
0 3952a50cc96d375acc0305dfcd65ce3414912ed9c3c588d8c9886346e7efd256 check --axiom weak-sp --mechanism ps --n 3 --mode exhaustive --format machine
0 b83d52080d24698e758a8c38c23f66274f8571f262f7f6653e040ca3498f3aaf check --axiom em --mechanism ps --n 3 --mode exhaustive --format machine
0 de8008dab55ec2c675ae6bfc5a864098d124517a9142b78359215317dcbc9659 check --axiom ui --mechanism ps --n 3 --mode exhaustive --format machine
1 b6e2995d2d27523c5f4ba02de089822e4b7e7e6c32de8084929ee437808357a3 check --axiom li --mechanism ps --n 3 --mode exhaustive --format machine
0 afc0d2d2e4191c2d4e22f91167abec78d035a7efc71dcb7cb4ed71818bf50aed check --axiom neutral --mechanism ps --n 3 --mode exhaustive --format machine
0 85a85cf8a5ffaaffa5e703bc523f8af54edb5248b3a698a2fc92f87e665a826b check --axiom ete --mechanism ps --n 3 --mode exhaustive --format machine
0 7af1e902fb477d8d458fba8507dd8a7488e5281e6e92b143547154d73f3394f4 check --axiom oe --mechanism ps --n 3 --mode exhaustive --format machine
0 cc3852fd9bd14f8a5773bf6d2ed2f36473e778e2878ae1756f17786207d625a3 check --axiom ex-post --mechanism ps --n 3 --mode exhaustive --format machine
0 e286b1460888e39a67d1dde6b4b837a2ee817ba3bcd215e05e5bb6130db6a2f2 obic --mechanism ps --n 3 --format machine
0 7b4070a5a866b4b874f313b0096faa2757c9106ad6f27fb0914d3b91f2304606 ranks --mechanism ps --n 3 --format machine
0 6d26e87b0fd1b5810fcdd6a7c265cf7c0fed14c0c3f9354faf04a69879bf75e4 check --axiom sp --mechanism rp --n 3 --mode exhaustive --format machine
0 3952a50cc96d375acc0305dfcd65ce3414912ed9c3c588d8c9886346e7efd256 check --axiom weak-sp --mechanism rp --n 3 --mode exhaustive --format machine
0 b83d52080d24698e758a8c38c23f66274f8571f262f7f6653e040ca3498f3aaf check --axiom em --mechanism rp --n 3 --mode exhaustive --format machine
0 de8008dab55ec2c675ae6bfc5a864098d124517a9142b78359215317dcbc9659 check --axiom ui --mechanism rp --n 3 --mode exhaustive --format machine
0 b496525900082a26cf476c242c588bd15996ced73411a9893eb56d0288a8cdd2 check --axiom li --mechanism rp --n 3 --mode exhaustive --format machine
0 afc0d2d2e4191c2d4e22f91167abec78d035a7efc71dcb7cb4ed71818bf50aed check --axiom neutral --mechanism rp --n 3 --mode exhaustive --format machine
0 85a85cf8a5ffaaffa5e703bc523f8af54edb5248b3a698a2fc92f87e665a826b check --axiom ete --mechanism rp --n 3 --mode exhaustive --format machine
0 7af1e902fb477d8d458fba8507dd8a7488e5281e6e92b143547154d73f3394f4 check --axiom oe --mechanism rp --n 3 --mode exhaustive --format machine
0 cc3852fd9bd14f8a5773bf6d2ed2f36473e778e2878ae1756f17786207d625a3 check --axiom ex-post --mechanism rp --n 3 --mode exhaustive --format machine
0 e286b1460888e39a67d1dde6b4b837a2ee817ba3bcd215e05e5bb6130db6a2f2 obic --mechanism rp --n 3 --format machine
0 55b30ee57d53cc7f237e3d7a1c31c78a490af7c76693a169ae7cdc23c4588134 ranks --mechanism rp --n 3 --format machine
0 6d26e87b0fd1b5810fcdd6a7c265cf7c0fed14c0c3f9354faf04a69879bf75e4 check --axiom sp --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 3952a50cc96d375acc0305dfcd65ce3414912ed9c3c588d8c9886346e7efd256 check --axiom weak-sp --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 b83d52080d24698e758a8c38c23f66274f8571f262f7f6653e040ca3498f3aaf check --axiom em --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 de8008dab55ec2c675ae6bfc5a864098d124517a9142b78359215317dcbc9659 check --axiom ui --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 b496525900082a26cf476c242c588bd15996ced73411a9893eb56d0288a8cdd2 check --axiom li --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 afc0d2d2e4191c2d4e22f91167abec78d035a7efc71dcb7cb4ed71818bf50aed check --axiom neutral --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
1 5ce262d1382f201e3a5658863ff9bd67338caa5e54f414dd378cb417e604b83f check --axiom ete --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 7af1e902fb477d8d458fba8507dd8a7488e5281e6e92b143547154d73f3394f4 check --axiom oe --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 cc3852fd9bd14f8a5773bf6d2ed2f36473e778e2878ae1756f17786207d625a3 check --axiom ex-post --mechanism sd:3,1,2 --n 3 --mode exhaustive --format machine
0 e286b1460888e39a67d1dde6b4b837a2ee817ba3bcd215e05e5bb6130db6a2f2 obic --mechanism sd:3,1,2 --n 3 --format machine
0 2dabcf63a5f088b67fe0898b63022e1f8f3f297644306170fc19e1639f331ab5 ranks --mechanism sd:3,1,2 --n 3 --format machine
1 de55deb188b8f5580dd8f7f626b014ebb797f08ea81728ef879413dffc3288d3 check --axiom sp --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 3952a50cc96d375acc0305dfcd65ce3414912ed9c3c588d8c9886346e7efd256 check --axiom weak-sp --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 b83d52080d24698e758a8c38c23f66274f8571f262f7f6653e040ca3498f3aaf check --axiom em --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 de8008dab55ec2c675ae6bfc5a864098d124517a9142b78359215317dcbc9659 check --axiom ui --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
1 074651cb320315c4d97277f6d0db956d2fab5ef7ee8905f92df64162efbd8772 check --axiom li --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 afc0d2d2e4191c2d4e22f91167abec78d035a7efc71dcb7cb4ed71818bf50aed check --axiom neutral --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
1 16598635f50d3d2e624bf810558a3fff8e6710c32d9e2d709a1f2495d92ac8d3 check --axiom ete --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 7af1e902fb477d8d458fba8507dd8a7488e5281e6e92b143547154d73f3394f4 check --axiom oe --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 cc3852fd9bd14f8a5773bf6d2ed2f36473e778e2878ae1756f17786207d625a3 check --axiom ex-post --mechanism sea:{sea3} --n 3 --mode exhaustive --format machine
0 e286b1460888e39a67d1dde6b4b837a2ee817ba3bcd215e05e5bb6130db6a2f2 obic --mechanism sea:{sea3} --n 3 --format machine
0 c974caa4f3d26305b0a72fd274a9a25ca61ead5c209d7f2993475b12ed70311f ranks --mechanism sea:{sea3} --n 3 --format machine
"""


class Row(NamedTuple):
    code: int
    digest: str
    argv: tuple[str, ...]


ROWS = tuple(
    Row(int(code), digest, tuple(argv))
    for code, digest, *argv in (
        line.split() for line in PINS.splitlines() if line and not line.startswith("#")
    )
)


def ram_command(*argv):
    """Command line of ``ram`` run from this checkout's sources."""
    return [sys.executable, "-m", "ramkit.cli", *argv]


def ram_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def write_inputs(directory):
    """Write the input files the rows name into ``directory``; return their
    paths by name."""
    n3, n4, n5 = Instance.default(3), Instance.default(4), Instance.default(5)
    table = huge_denominator_table(n3, seed=64)
    texts = {
        "sea3": render_speed_file(nonunit_schedule(3)),
        "sea4": render_speed_file(nonunit_schedule(4)),
        "half4": render_prior_file(half_support_prior(n4)),
        "two5": render_prior_file(two_point_prior(n5)),
        "table3": render_table_file(
            n3, {p: table.assignment(p) for p in enumerate_profiles(n3)}
        ),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = Path(directory) / f"{name}.txt"
        paths[name].write_text(text)
    return paths


def run_row(row, paths):
    """Run one row's command; return its exit code and the sha256 of its
    stdout."""
    argv = [arg.format(**paths) for arg in row.argv]
    proc = subprocess.Popen(ram_command(*argv), stdout=subprocess.PIPE, env=ram_env())
    digest = hashlib.sha256()
    for block in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(block)
    proc.stdout.close()
    return proc.wait(), digest.hexdigest()


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(directory)
        for row in ROWS:
            start = time.perf_counter()
            code, digest = run_row(row, paths)
            seconds = time.perf_counter() - start
            ok = (code, digest) == (row.code, row.digest)
            failed += not ok
            want = "" if ok else f" (want {row.code} {row.digest})"
            print(f"{'ok' if ok else 'FAIL'} {code} {digest}{want} {seconds:.1f}s "
                  f"ram {' '.join(row.argv)}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
