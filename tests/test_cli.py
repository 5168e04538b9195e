import concurrent.futures
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from fractions import Fraction

import pytest

from helpers import huge_denominator_table
from pinned_outputs import ROWS, ram_command, ram_env, run_row, write_inputs
from ramkit import domain
from ramkit.cli import main
from ramkit.core import Instance, enumerate_profiles
from ramkit.formats import parse_prior_file, render_speed_file, render_table_file
from ramkit.mechanisms import EatingSpeedSchedule, ProbabilisticSerial, tabulate

PROFILE_TEXT = """\
objects: a b c
agent 1: c a b
agent 2: a b c
agent 3: c a b
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(PROFILE_TEXT)
    return str(path)


class TestDemo:
    def test_table1_demo(self):
        code, out, _ = run_cli("demo", "table1")
        assert code == 0
        assert "1/6" in out and "1/2" in out
        assert "truth dominates deviation: False" in out
        assert "deviation dominates truth: False" in out

    def test_machine_format(self):
        code, out, _ = run_cli("demo", "table1", "--format", "machine")
        assert code == 0
        assert "row agent=1 a=1/6 b=1/3 c=1/2" in out
        assert "truth_dominates=false deviation_dominates=false" in out

    def test_unknown_demo(self):
        code, _, err = run_cli("demo", "bogus")
        assert code == 2 and "unknown demo" in err


class TestEval:
    def test_eval_ps(self, profile_file):
        code, out, _ = run_cli("eval", "--mechanism", "ps", "--profile", profile_file)
        assert code == 0
        assert "1/6" in out and "2/3" in out

    def test_eval_machine(self, profile_file):
        code, out, _ = run_cli(
            "eval", "--mechanism", "ps", "--profile", profile_file,
            "--format", "machine",
        )
        assert code == 0
        assert "row agent=2 a=2/3 b=1/3 c=0" in out

    def test_eval_sd_selector(self, profile_file):
        code, out, _ = run_cli(
            "eval", "--mechanism", "sd:1,2,3", "--profile", profile_file,
            "--format", "machine",
        )
        assert code == 0
        assert "row agent=1 a=0 b=0 c=1" in out

    def test_missing_file(self):
        code, _, err = run_cli("eval", "--mechanism", "ps", "--profile", "/no/such")
        assert code == 2 and "No such file" in err

    def test_bad_selector(self, profile_file):
        code, _, err = run_cli("eval", "--mechanism", "xyz", "--profile", profile_file)
        assert code == 2 and "unknown mechanism selector" in err

    @pytest.mark.parametrize("order", ("a,b,c", "0,1,2", "1,2", "1,1,2"))
    def test_bad_sd_order(self, order):
        code, out, err = run_cli(
            "check", "--axiom", "em", "--mechanism", f"sd:{order}", "--n", "3"
        )
        assert code == 2 and out == ""
        assert err == (
            "ram: serial dictatorship order must be agent numbers 1..3, each once, "
            f"e.g. sd:1,2,3; got '{order}'\n"
        )

    @pytest.mark.parametrize("argv", (
        ("check", "--axiom", "em", "--mechanism", "ps:garbage", "--n", "3"),
        ("obic", "--mechanism", "rp:1,2", "--n", "3"),
        ("check", "--axiom", "em", "--mechanism", "ps:", "--n", "3"),
    ))
    def test_ps_and_rp_take_no_argument(self, argv):
        selector = argv[argv.index("--mechanism") + 1]
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == (
            f"ram: mechanism {selector.partition(':')[0]} takes no argument; got '{selector}'\n"
        )


class TestCheck:
    def test_sp_violated_exit_1(self):
        code, out, _ = run_cli("check", "--axiom", "sp", "--mechanism", "ps", "--n", "3")
        assert code == 1
        assert "VIOLATED" in out

    def test_em_satisfied_exit_0(self):
        code, out, _ = run_cli("check", "--axiom", "em", "--mechanism", "ps", "--n", "3")
        assert code == 0
        assert "SATISFIED" in out

    def test_machine_output_byte_identical(self):
        _, first, _ = run_cli(
            "check", "--axiom", "sp", "--mechanism", "ps", "--n", "3",
            "--format", "machine",
        )
        _, second, _ = run_cli(
            "check", "--axiom", "sp", "--mechanism", "ps", "--n", "3",
            "--format", "machine",
        )
        assert first == second
        assert first.startswith("check axiom=sp verdict=violated violations=72")

    def test_cap_exit_3(self):
        code, _, err = run_cli("check", "--axiom", "sp", "--mechanism", "ps", "--n", "8")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("argv,line", (
        (("check", "--axiom", "em", "--mechanism", "ps", "--n", "5", "--max-n", "5",
          "--mode", "exhaustive"),
         "ram: exhaustive sweep for n=5 exceeds the cap n <= 4; "
         "pass --mode first to override\n"),
        (("obic", "--mechanism", "ps", "--n", "5"),
         "ram: full-domain enumeration for n=5 exceeds the cap n <= 4; "
         "pass --max-n to override\n"),
        (("ranks", "--mechanism", "ps", "--n", "7"),
         "ram: full-domain enumeration for n=7 exceeds the cap n <= 4; "
         "pass --max-n to override\n"),
    ))
    def test_cap_message_names_the_flag(self, argv, line):
        """The library names its own arguments (``mode='first'``,
        ``max_n``); ``ram`` names the flags that set them."""
        assert run_cli(*argv) == (3, "", line)

    def test_jobs_flag_changes_nothing(self):
        _, seq, _ = run_cli(
            "check", "--axiom", "li", "--mechanism", "ps", "--n", "3",
            "--jobs", "1", "--format", "machine",
        )
        _, par, _ = run_cli(
            "check", "--axiom", "li", "--mechanism", "ps", "--n", "3",
            "--jobs", "2", "--format", "machine",
        )
        assert seq == par

    def test_table_mechanism_from_file(self, tmp_path, instance3, ps3):
        from ramkit.core import Instance, enumerate_profiles

        table = {p: ps3.assignment(p) for p in enumerate_profiles(instance3)}
        path = tmp_path / "mech.txt"
        path.write_text(render_table_file(instance3, table))
        code, out, _ = run_cli(
            "check", "--axiom", "li", "--mechanism", f"table:{path}", "--n", "3",
        )
        assert code == 1

    def test_sea_mechanism_from_file(self, tmp_path):
        from fractions import Fraction as F

        sched = EatingSpeedSchedule((
            ((F(0), F(1, 2), F(2)), (F(1, 2), F(1), F(0))),
            ((F(0), F(1), F(1)),),
            ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))),
        ))
        path = tmp_path / "speeds.txt"
        path.write_text(render_speed_file(sched))
        code, out, _ = run_cli(
            "check", "--axiom", "em", "--mechanism", f"sea:{path}", "--n", "3",
        )
        assert code == 0


class TestObicCommand:
    def test_ps_uniform(self):
        code, out, _ = run_cli("obic", "--mechanism", "ps", "--prior", "uniform", "--n", "3")
        assert code == 0
        assert out.count("SATISFIED") == 4

    def test_prior_from_file(self, tmp_path, instance3):
        from ramkit.formats import render_prior_file
        from ramkit.interim import uniform_prior

        path = tmp_path / "prior.txt"
        path.write_text(render_prior_file(uniform_prior(instance3)))
        code, out, _ = run_cli(
            "obic", "--mechanism", "rp", "--prior", f"file:{path}", "--n", "3",
        )
        assert code == 0


class TestLrobicCommand:
    def test_rp_unfalsified(self):
        code, out, _ = run_cli(
            "lrobic", "--mechanism", "rp", "--center", "uniform",
            "--epsilon", "1/20", "--samples", "50", "--seed", "7", "--n", "3",
        )
        assert code == 0
        assert "no violating prior found in 50 samples" in out

    def test_ps_finds_prior_and_emits_parseable_file(self):
        code, out, _ = run_cli(
            "lrobic", "--mechanism", "ps", "--center", "uniform",
            "--epsilon", "1/20", "--samples", "100", "--seed", "7", "--n", "3",
        )
        assert code == 1
        block = out[out.index("objects:"):]
        _, prior = parse_prior_file(block)
        assert sum(prior.probs) == 1

    def test_deterministic_output(self):
        args = (
            "lrobic", "--mechanism", "ps", "--center", "uniform",
            "--epsilon", "1/20", "--samples", "5", "--seed", "11", "--n", "3",
            "--format", "machine",
        )
        assert run_cli(*args) == run_cli(*args)


class TestDecomposeAndRanks:
    def test_decompose(self, profile_file):
        code, out, _ = run_cli("decompose", "--mechanism", "ps", "--profile", profile_file)
        assert code == 0
        weights = [line.split(" : ")[0] for line in out.splitlines() if " : " in line]
        from fractions import Fraction as F

        assert sum(F(w) for w in weights) == 1

    def test_ranks(self):
        code, out, _ = run_cli(
            "ranks", "--mechanism", "ps", "--prior", "uniform", "--n", "3",
            "--agent", "1",
        )
        assert code == 0
        assert "rank_invariant=true rank_monotone=true" in out
        assert "71/108 17/72 23/216" in out

    def test_ranks_machine_all_agents(self):
        code, out, _ = run_cli(
            "ranks", "--mechanism", "rp", "--prior", "uniform", "--n", "3",
            "--format", "machine",
        )
        assert code == 0
        assert out.count("ranks agent=") == 3

    @pytest.mark.parametrize("agent", ("4", "0", "-1"))
    def test_ranks_unknown_agent_exits_2(self, agent):
        code, out, err = run_cli(
            "ranks", "--mechanism", "ps", "--prior", "uniform", "--n", "3",
            "--agent", agent,
        )
        assert code == 2
        assert out == ""
        assert "is not one of agents 1..3" in err


XYZ = Instance(3, ("x", "y", "z"))


@pytest.fixture
def xyz_table(tmp_path):
    """PS written as a table over objects x, y, z."""
    ps = ProbabilisticSerial(XYZ)
    path = tmp_path / "xyz.txt"
    path.write_text(render_table_file(
        XYZ, {p: ps.assignment(p) for p in enumerate_profiles(XYZ)}
    ))
    return f"table:{path}"


def _field(line, key):
    return next(tok for tok in line.split() if tok.startswith(key + "="))[len(key) + 1:]


class TestTableObjectNames:
    """A table file carries its own object names, and commands keep them."""

    def test_check_renders_the_table_names(self, xyz_table):
        code, out, _ = run_cli(
            "check", "--axiom", "li", "--mechanism", xyz_table, "--n", "3",
            "--format", "machine",
        )
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("violation ")]
        assert lines
        first = lines[0]
        assert _field(first, "profile") == "x>y>z|x>y>z|x>z>y"
        assert _field(first, "objects") == "z"
        for line in lines:
            assert set(_field(line, "profile")) <= set("xyz>|")
            assert _field(line, "objects") in ("x", "y", "z")

    def test_ranks_and_obic_read_priors_over_the_table_names(self, tmp_path, xyz_table):
        from ramkit.formats import render_prior_file
        from ramkit.interim import uniform_prior

        xyz, abc = tmp_path / "xyz-prior.txt", tmp_path / "abc-prior.txt"
        xyz.write_text(render_prior_file(uniform_prior(XYZ)))
        abc.write_text(render_prior_file(uniform_prior(Instance.default(3))))
        code, out, _ = run_cli(
            "ranks", "--mechanism", xyz_table, "--prior", f"file:{xyz}", "--n", "3",
            "--format", "machine",
        )
        assert code == 0
        assert "report=x>y>z" in out and "report=a" not in out
        code, out, _ = run_cli(
            "obic", "--mechanism", xyz_table, "--prior", f"file:{xyz}", "--n", "3",
        )
        assert code == 0
        for command in ("ranks", "obic"):
            code, out, err = run_cli(
                command, "--mechanism", xyz_table, "--prior", f"file:{abc}", "--n", "3",
            )
            assert code == 2 and out == ""
            assert "do not match" in err

    def test_lrobic_renders_the_table_names(self, xyz_table):
        code, out, _ = run_cli(
            "lrobic", "--mechanism", xyz_table, "--center", "uniform",
            "--epsilon", "1/20", "--samples", "100", "--seed", "7", "--n", "3",
            "--format", "machine",
        )
        assert code == 1
        witness = next(line for line in out.splitlines() if line.startswith("violation "))
        assert set(_field(witness, "truth")) <= set("xyz>")
        instance, _ = parse_prior_file(out[out.index("objects:"):])
        assert instance == XYZ

    @pytest.mark.parametrize("command", ("eval", "decompose"))
    def test_profile_over_other_names_exits_2(
        self, command, tmp_path, profile_file, xyz_table
    ):
        args = (command, "--mechanism", xyz_table, "--profile")
        code, out, err = run_cli(*args, profile_file)
        assert code == 2 and out == ""
        assert "do not match" in err
        xyz_profile = tmp_path / "xyz-profile.txt"
        xyz_profile.write_text(
            "objects: x y z\nagent 1: z x y\nagent 2: x y z\nagent 3: z x y\n"
        )
        code, out, _ = run_cli(*args, str(xyz_profile))
        assert code == 0 and "1/6" in out


class TestMaxN:
    @pytest.fixture
    def profile7(self, tmp_path):
        names = "abcdefg"
        lines = ["objects: " + " ".join(names)] + [
            f"agent {k + 1}: " + " ".join(names[k:] + names[:k]) for k in range(4)
        ] + [f"agent {k + 1}: " + " ".join(names) for k in range(4, 7)]
        path = tmp_path / "profile7.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_max_n_reaches_random_priority(self, profile7):
        code, out, _ = run_cli(
            "eval", "--mechanism", "rp", "--profile", profile7, "--max-n", "7",
            "--format", "machine",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("row ")]
        assert len(rows) == 7
        for row in rows:
            assert sum(Fraction(tok.split("=")[1]) for tok in row.split()[2:]) == 1

    def test_random_priority_cap_without_max_n(self, profile7):
        code, _, err = run_cli("eval", "--mechanism", "rp", "--profile", profile7)
        assert code == 3 and "pass --max-n to override" in err


class TestUsage:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("check", "--mechanism", "ps", "--n", "3")
        assert err.value.code == 2

    def test_unknown_axiom_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("check", "--axiom", "nope", "--mechanism", "ps", "--n", "3")
        assert err.value.code == 2


class TestJobs:
    @pytest.mark.parametrize("jobs", ("0", "-1"))
    def test_jobs_below_one_exits_2(self, jobs):
        code, out, err = run_cli(
            "check", "--axiom", "em", "--mechanism", "ps", "--n", "3", "--jobs", jobs,
        )
        assert code == 2 and out == ""
        assert "--jobs must be at least 1" in err

    @pytest.mark.parametrize("cpus, jobs, started", (
        (3, "500", [3]), (8, "2", [2]), (None, "500", []), (1, "4", []),
    ))
    def test_fill_pool_never_exceeds_cpu_count(self, monkeypatch, cpus, jobs, started):
        """A stand-in pool records the workers a fill asks for and runs the
        tasks in this process; no process is started."""
        asked = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # serial dictatorship is not anonymous, so its fill uses the pool
        args = ("check", "--axiom", "em", "--mechanism", "sd:3,1,2", "--n", "3",
                "--mode", "exhaustive", "--format", "machine")
        _, serial, _ = run_cli(*args, "--jobs", "1")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(domain, "_worker_job", None)
        monkeypatch.setattr(domain.os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(*args, "--jobs", jobs)
        assert asked == started
        assert code == 0 and out == serial


#: The pinned row of ``ram check --axiom li --mechanism ps --n 4 --mode
#: exhaustive --format machine --jobs 2``.
LI_PS4 = next(row for row in ROWS if row.argv == (
    "check", "--axiom", "li", "--mechanism", "ps", "--n", "4",
    "--mode", "exhaustive", "--format", "machine", "--jobs", "2",
))

#: The pinned row of ``ram check --axiom sp --mechanism ps --n 4 --mode
#: exhaustive --format machine --jobs 2``.
SP_PS4 = next(row for row in ROWS if row.argv == (
    "check", "--axiom", "sp", "--mechanism", "ps", "--n", "4",
    "--mode", "exhaustive", "--format", "machine", "--jobs", "2",
))

#: Runs argv[1:] as its one child and prints that child's exit code, the
#: sha256 of its stdout and its max RSS in KiB (the largest of it and the
#: pool workers it waited for).
_MEASURE = """
import hashlib, resource, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for block in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(block)
code = proc.wait()
print(code, digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _limit_address_space():
    """Give a child process 1 GiB of address space."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _measure(row):
    """Run a pinned row's command; return its exit code, the sha256 of its
    stdout and its max RSS in KiB."""
    run = subprocess.run(
        [sys.executable, "-c", _MEASURE] + ram_command(*row.argv),
        env=ram_env(), capture_output=True, text=True, check=True,
    )
    code, digest, max_rss_kib = run.stdout.split()
    return int(code), digest, int(max_rss_kib)


@pytest.fixture(scope="module")
def li_ps4():
    return _measure(LI_PS4)


@pytest.fixture(scope="module")
def sp_ps4():
    return _measure(SP_PS4)


class TestStreamedOutput:
    def test_n4_li_output_pinned(self, li_ps4):
        code, digest, _ = li_ps4
        assert (code, digest) == (LI_PS4.code, LI_PS4.digest)

    def test_n4_li_max_rss(self, li_ps4):
        _, _, max_rss_kib = li_ps4
        assert max_rss_kib <= 250 * 1024

    def test_n4_sp_output_pinned(self, sp_ps4):
        code, digest, _ = sp_ps4
        assert (code, digest) == (SP_PS4.code, SP_PS4.digest)

    def test_n4_sp_max_rss(self, sp_ps4):
        """1,386,432 sp lines, rendered a chunk at a time from one view in
        sweep order that all four agents share."""
        _, _, max_rss_kib = sp_ps4
        assert max_rss_kib <= 100 * 1024

    def test_first_violation_past_the_cap_renders_in_bounded_memory(self):
        """At n=5 the first li violation is rendered from its own cell's
        opponents; strings for all 120**4 opponent profiles of agent 1
        would not fit in the 1 GiB address space the run is given."""
        run = subprocess.run(
            ram_command("check", "--axiom", "li", "--mechanism", "ps", "--n", "5",
                        "--max-n", "5", "--format", "machine"),
            env=ram_env(), capture_output=True, text=True, preexec_fn=_limit_address_space,
            timeout=600,
        )
        assert (run.returncode, run.stderr) == (1, "")
        lines = run.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("check axiom=li verdict=violated violations=1 ")
        assert lines[1].startswith("violation li agent=1 profile=")

    def test_exhaustive_past_the_cap_exits_before_evaluating(self):
        """Past the sweep cap an exhaustive sweep is refused with the cap
        status, before it evaluates anything; filling PS's table by
        multiset at n=5 would not fit in 1 GiB of address space."""
        run = subprocess.run(
            ram_command("check", "--axiom", "em", "--mechanism", "ps", "--n", "5",
                        "--max-n", "5", "--mode", "exhaustive"),
            env=ram_env(), capture_output=True, text=True, preexec_fn=_limit_address_space,
            timeout=600,
        )
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr.startswith("ram: exhaustive sweep for n=5 exceeds the cap")
        assert len(run.stderr.splitlines()) == 1

    def test_prior_past_the_cap_is_never_built(self):
        """Past the sweep cap a prior command exits before it builds or
        reads a prior; the uniform prior's 12! probabilities would not fit
        in the 1 GiB of address space the run is given."""
        run = subprocess.run(
            ram_command("obic", "--mechanism", "ps", "--n", "12"),
            env=ram_env(), capture_output=True, text=True, preexec_fn=_limit_address_space,
            timeout=600,
        )
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr == ("ram: full-domain enumeration for n=12 exceeds the cap n <= 4; "
                              "pass --max-n to override\n")

    def test_closed_pipe_ends_quietly(self, tmp_path, instance3):
        """The reader takes one line and closes the pipe, as ``| head -1``
        does; the output is several times a pipe buffer, so later writes
        fail, and the run still ends with its verdict and no traceback."""
        mech = huge_denominator_table(instance3, seed=64)
        path = tmp_path / "mech.txt"
        path.write_text(render_table_file(
            instance3, {p: mech.assignment(p) for p in enumerate_profiles(instance3)}
        ))
        args = ("check", "--axiom", "sp", "--mechanism", f"table:{path}", "--n", "3",
                "--mode", "exhaustive", "--format", "machine")
        _, full, _ = run_cli(*args)
        assert len(full) > 4 * 65536
        proc = subprocess.Popen(
            ram_command(*args), env=ram_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline().decode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert first == full.splitlines(keepends=True)[0]
        assert err == ""


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.argv[row.argv.index("--n") + 1] == "3"],
    ids=lambda row: " ".join(row.argv),
)
def test_n3_output_pinned(row, pinned_inputs):
    """Every ``--n 3`` row of ``tests/pinned_outputs.py`` gives its pinned
    exit code and stdout digest."""
    assert run_row(row, pinned_inputs) == (row.code, row.digest)
