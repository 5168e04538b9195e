import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ramkit.cli import main
from ramkit.formats import parse_prior_file, render_speed_file, render_table_file
from ramkit.mechanisms import EatingSpeedSchedule, tabulate

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
        from ramkit.core import enumerate_profiles

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

    def test_targeted_flag(self):
        code, out, _ = run_cli(
            "lrobic", "--mechanism", "ps", "--center", "uniform",
            "--epsilon", "1/20", "--samples", "10", "--seed", "7", "--n", "3",
            "--targeted",
        )
        assert code == 1


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


class TestUsage:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("check", "--mechanism", "ps", "--n", "3")
        assert err.value.code == 2

    def test_unknown_axiom_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("check", "--axiom", "nope", "--mechanism", "ps", "--n", "3")
        assert err.value.code == 2
