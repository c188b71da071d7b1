import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import cfpomdp
from cfpomdp import (
    CollectionQuery,
    DeterministicPolicy,
    History,
    collection_prob,
    corpus_path,
    load_env,
    load_weights,
    parse_rational,
    save_env,
)
from cfpomdp.cli import main

from helpers import aliased_env

MU = str(corpus_path("mu"))
MU_PRIME = str(corpus_path("mu-prime"))
MU_DOUBLE_PRIME = str(corpus_path("mu-double-prime"))
MU_STAR = str(corpus_path("mu-star"))


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestValidateCommand:
    def test_ok(self, runner):
        result = invoke(runner, "validate", MU)
        assert result.exit_code == 0
        assert result.output.strip() == "ok"

    def test_violations_exit_one(self, runner, tmp_path):
        bad = tmp_path / "bad.env"
        bad.write_text(
            corpus_path("mu").read_text().replace(
                "trans: s0 a0 -> s00 1/2 | s01 1/2",
                "trans: s0 a0 -> s00 1/3 | s01 1/3",
            )
        )
        result = invoke(runner, "validate", str(bad))
        assert result.exit_code == 1
        assert "violation:" in result.output
        assert "(s0,a0)" in result.output

    def test_syntax_error_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.env"
        bad.write_text("states s0\n")
        result = invoke(runner, "validate", str(bad))
        assert result.exit_code == 2

    def test_missing_file_exit_two(self, runner):
        result = runner.invoke(main, ["validate", "no-such-file.env"])
        assert result.exit_code == 2


class TestEquivCommands:
    def test_equiv_equivalent(self, runner):
        result = invoke(runner, "equiv", MU, MU_DOUBLE_PRIME, "--m", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "equivalent"

    def test_equiv_witness(self, runner, tmp_path):
        perturbed = tmp_path / "p.env"
        perturbed.write_text(
            corpus_path("mu").read_text().replace(
                "trans: s0 a0 -> s00 1/2 | s01 1/2",
                "trans: s0 a0 -> s00 1/3 | s01 2/3",
            )
        )
        result = invoke(runner, "equiv", MU, str(perturbed), "--m", "1")
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert lines[0] == "not equivalent"
        assert lines[1] == "witness:"
        assert lines[2] == "o0 a0 s00 | o0 | a0 | 1/2 | 1/3"

    def test_initial_observation_witness_replays(self, runner, tmp_path):
        # start odds 1/2:1/2 against 1/3:2/3 on two self-looping states
        files = []
        for name, (wu, wv) in (("left", ("1/2", "1/2")), ("right", ("1/3", "2/3"))):
            env = tmp_path / f"{name}.env"
            env.write_text(
                "states: u v\nactions: a b\nobservations: x y\n"
                f"init: u {wu} | v {wv}\nobs: u -> x 1\nobs: v -> y 1\n"
                + "".join(f"trans: {s} {a} -> {s} 1\n" for s in "uv" for a in "ab")
            )
            files.append(str(env))
        result = invoke(runner, "equiv", *files, "--m", "1")
        assert result.exit_code == 1
        line = result.output.strip().splitlines()[2]
        assert line == "x | x |  | 1/2 | 1/3"
        h, _, policy, left, right = (part.strip() for part in line.split("|"))
        for env, value in zip(files, (left, right)):
            replay = invoke(runner, "collection-prob", env, "--m", "1", "--pair", f"{h} ; {policy}")
            assert replay.exit_code == 0
            assert replay.output.strip() == value

    def test_cf_equiv_equivalent(self, runner):
        result = invoke(runner, "cf-equiv", MU, MU_PRIME, "--m", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "equivalent"

    def test_cf_equiv_witness_reevaluates(self, runner):
        result = invoke(
            runner, "cf-equiv", MU, MU_DOUBLE_PRIME, "--m", "1", "--witness"
        )
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert lines[0] == "not equivalent"
        assert lines[1] == "witness:"
        pair_lines = lines[2:]
        assert len(pair_lines) == 2
        values = set()
        pair_args = []
        for line in pair_lines:
            hist, policy, left, right = (part.strip() for part in line.split("|"))
            values.add((parse_rational(left), parse_rational(right)))
            pair_args.extend(["--pair", f"{hist} ; {policy}"])
        assert values == {(Fraction(1, 4), Fraction(0))}
        # replay the witness through collection-prob on both environments
        left = invoke(runner, "collection-prob", MU, "--m", "1", *pair_args)
        right = invoke(
            runner, "collection-prob", MU_DOUBLE_PRIME, "--m", "1", *pair_args
        )
        assert parse_rational(left.output.strip()) == Fraction(1, 4)
        assert parse_rational(right.output.strip()) == Fraction(0)

    def test_dissimilar_inputs_exit_two(self, runner, tmp_path):
        other = tmp_path / "other.env"
        other.write_text(
            "states: s\nactions: z\nobservations: w\ninit: s 1\n"
            "obs: s -> w 1\ntrans: s z -> s 1\n"
        )
        for command in ("equiv", "cf-equiv"):
            result = invoke(runner, command, MU, str(other), "--m", "1")
            assert result.exit_code == 2

    def test_equiv_negative_horizon_exit_two(self, runner):
        result = invoke(runner, "equiv", MU, MU_PRIME, "--m", "-1")
        assert result.exit_code == 2
        assert "turn count must be >= 0" in result.output


class TestDeterminizeCommand:
    def test_writes_parseable_equivalent_env(self, runner, tmp_path):
        out = tmp_path / "det.env"
        result = invoke(runner, "determinize", MU, "--m", "1", "-o", str(out))
        assert result.exit_code == 0
        assert "8 states" in result.output and "4 initial" in result.output
        written = load_env(out)
        check = invoke(runner, "cf-equiv", MU, str(out), "--m", "1")
        assert check.exit_code == 0
        assert len(written.states) == 8

    def test_minimize_flag(self, runner, tmp_path):
        out = tmp_path / "mini.env"
        result = invoke(
            runner, "determinize", MU, "--m", "1", "-o", str(out), "--minimize"
        )
        assert result.exit_code == 0
        check = invoke(runner, "cf-equiv", str(out), MU_STAR, "--m", "1")
        assert check.exit_code == 0


class TestEnvPoliciesCommand:
    def test_support_listing(self, runner):
        result = invoke(runner, "env-policies", MU, "--m", "1")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "support: 4"
        assert len(lines) == 5
        assert all("prob 1/4" in line for line in lines[1:])

    def test_count_only_transition_only(self, runner):
        result = invoke(
            runner, "env-policies", MU, "--m", "1",
            "--count-only", "--convention", "transition-only",
        )
        assert result.output.strip() == "48828125"

    def test_count_only_full(self, runner):
        result = invoke(
            runner, "env-policies", MU, "--m", "1",
            "--count-only", "--convention", "full",
        )
        assert int(result.output.strip()) == 5 * 5**10 * 5**10


class TestPosteriorCommand:
    def test_mu_prime_posterior(self, runner):
        result = invoke(runner, "posterior", MU_PRIME, "--history", "o0 a0 s00")
        assert result.exit_code == 0
        lines = dict(
            line.rsplit(" ", 1) for line in result.output.strip().splitlines()
        )
        assert lines["s0^0"] == "1"
        assert lines["s0^1"] == "0"

    def test_unknown_symbol_exit_two(self, runner):
        result = invoke(runner, "posterior", MU, "--history", "o0 zz s00")
        assert result.exit_code == 2


class TestLearnCommands:
    def test_learn_evaluates(self, runner, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1\ns0^01 0\ns0^10 0\ns0^11 0\n")
        result = invoke(
            runner, "learn", MU_STAR, "--m", "1",
            "--weights", str(weights), "--history", "o0 a0 s00",
        )
        assert result.output.strip() == "1/2"

    def test_learn_transfer_verify(self, runner, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1/3\ns0^01 0\ns0^10 1\ns0^11 2/5\n")
        det = tmp_path / "det.env"
        invoke(runner, "determinize", MU, "--m", "1", "-o", str(det))
        out = tmp_path / "moved.txt"
        result = invoke(
            runner, "learn-transfer", MU_STAR, str(det), "--m", "1",
            "--weights", str(weights), "-o", str(out), "--verify",
        )
        assert result.exit_code == 0
        assert "universality: verified" in result.output
        moved = dict(
            line.split() for line in out.read_text().strip().splitlines()
        )
        assert len(moved) == 4
        assert sorted(moved.values()) == ["0", "1", "1/3", "2/5"]

    def test_learn_transfer_verify_transfers_once(self, runner, tmp_path, monkeypatch):
        import cfpomdp.cli
        import cfpomdp.learning

        calls = []

        def counted(*args):
            calls.append(args)
            return transfer(*args)

        transfer = cfpomdp.learning.transfer
        monkeypatch.setattr(cfpomdp.cli, "transfer", counted)
        monkeypatch.setattr(cfpomdp.learning, "transfer", counted)
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1\ns0^01 0\ns0^10 1/2\ns0^11 0\n")
        det = tmp_path / "det.env"
        invoke(runner, "determinize", MU, "--m", "1", "-o", str(det))
        result = invoke(
            runner, "learn-transfer", MU_STAR, str(det), "--m", "1",
            "--weights", str(weights), "-o", str(tmp_path / "moved.txt"), "--verify",
        )
        assert "universality: verified" in result.output
        assert len(calls) == 1

    def test_learn_transfer_inequivalent_exit_two(self, runner, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1\ns0^01 0\ns0^10 0\ns0^11 0\n")
        out = tmp_path / "moved.txt"
        result = invoke(
            runner, "learn-transfer", MU_STAR, MU_DOUBLE_PRIME, "--m", "1",
            "--weights", str(weights), "-o", str(out),
        )
        assert result.exit_code == 2


class TestNonAsciiFiles:
    def test_written_as_utf8_under_c_locale(self, tmp_path):
        # files are read as UTF-8 whatever the locale, so they are written so
        mu = tmp_path / "mu.env"
        mu.write_text(re.sub(r"\bs0\b", "sé", Path(MU).read_text()), encoding="utf-8")
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1/3\ns0^01 0\ns0^10 1\ns0^11 2/5\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(cfpomdp.__file__).parents[1])}

        def run(*args):
            return subprocess.run([sys.executable, "-m", "cfpomdp", *args], env=env,
                                  capture_output=True, text=True, encoding="utf-8")

        det, moved = tmp_path / "det.env", tmp_path / "moved.txt"
        done = run("determinize", str(mu), "--m", "1", "-o", str(det))
        assert done.returncode == 0, done.stderr
        assert "sé@0" in " ".join(load_env(det).states)
        done = run("learn-transfer", MU_STAR, str(det), "--m", "1",
                   "--weights", str(weights), "-o", str(moved), "--verify")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "universality: verified"
        moved_weights = load_weights(moved)
        assert set(moved_weights) == set(load_env(det).init.support)
        assert sorted(moved_weights.values()) == [0, Fraction(1, 3), Fraction(2, 5), 1]


class TestSimulateCommand:
    def test_deterministic_given_seed(self, runner):
        args = (
            "simulate", MU, "--m", "1", "--agents", "2",
            "--policy", "a0", "--policy", "a1",
            "--episodes", "200", "--seed", "7",
        )
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output
        assert first.exit_code == 0

    def test_seed_changes_counts(self, runner):
        base = (
            "simulate", MU, "--m", "1", "--agents", "1",
            "--policy", "a0", "--episodes", "200",
        )
        one = invoke(runner, *base, "--seed", "1")
        two = invoke(runner, *base, "--seed", "2")
        assert one.output != two.output

    def test_reports_exact_values(self, runner):
        result = invoke(
            runner, "simulate", MU, "--m", "1", "--agents", "2",
            "--policy", "a0", "--policy", "a1",
            "--episodes", "400", "--seed", "11",
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "episodes 400 seed 11 agents 2"
        target = [
            line for line in lines
            if line.startswith("o0 a0 s00 ; o0 a1 s11 |")
        ]
        assert len(target) == 1
        assert target[0].rstrip().endswith("exact 1/4")

    def test_action_outside_the_behavior_map_exit_two(self, runner):
        result = invoke(
            runner, "simulate", MU, "--m", "1", "--agents", "1",
            "--policy", "o0 -> zz", "--episodes", "10", "--seed", "1",
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: action 'zz' outside the behavior map"]

    def test_policy_count_mismatch_exit_two(self, runner):
        result = invoke(
            runner, "simulate", MU, "--m", "1", "--agents", "2",
            "--policy", "a0", "--episodes", "10", "--seed", "1",
        )
        assert result.exit_code == 2


class TestPolicyArguments:
    def test_learn_transfer_verify_reports_a_difference(self, runner, tmp_path, monkeypatch):
        import cfpomdp.cli

        monkeypatch.setattr(cfpomdp.cli, "_first_difference",
                            lambda spec, moved: History.parse("o0 a0 s00"))
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1\ns0^01 0\ns0^10 1/2\ns0^11 0\n")
        out = tmp_path / "moved.txt"
        result = invoke(
            runner, "learn-transfer", MU_STAR, MU_STAR, "--m", "1",
            "--weights", str(weights), "-o", str(out), "--verify",
        )
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            f"wrote {out} (4 weights)", "universality: differs at o0 a0 s00"]

    def test_policy_file(self, runner, tmp_path):
        table = tmp_path / "policy.txt"
        table.write_text("o0 -> a0\n")
        result = invoke(
            runner, "collection-prob", MU, "--m", "1",
            "--pair", f"o0 a0 s00 ; @{table}",
        )
        assert result.output.strip() == "1/2"

    def test_inline_policy_table(self, runner):
        result = invoke(
            runner, "collection-prob", MU, "--m", "1",
            "--pair", "o0 a0 s00 ; o0 -> a0",
        )
        assert result.output.strip() == "1/2"

    def test_unknown_action_exit_two(self, runner):
        result = invoke(
            runner, "collection-prob", MU, "--m", "1", "--pair", "o0 a0 s00 ; zz"
        )
        assert result.exit_code == 2


    def test_constant_policy_tabled_along_the_history(self, runner, tmp_path):
        # a pair's factor reads its policy only on its history's prefixes, so
        # the constant policy is not tabled on every reachable decision point
        env = tmp_path / "aliased.env"
        p = aliased_env()
        save_env(env, p)
        collections = [
            [("y a0 x", "a0")],
            [("y a0 x", "a0"), ("y a1 x", "a1")],
            [("y a0 y a0 x", "a0"), ("y a1 x", "a1")],
            [("y a0 y a1 x", "a1")],
        ]
        for m in range(2, 7):
            for pairs in collections:
                # the value with each policy tabled on every decision point
                query = CollectionQuery(tuple(
                    (History.parse(h), DeterministicPolicy.constant(p, m, a).as_stochastic())
                    for h, a in pairs))
                args = [arg for h, a in pairs for arg in ("--pair", f"{h} ; {a}")]
                result = invoke(runner, "collection-prob", str(env), "--m", str(m), *args)
                assert result.output.strip() == str(collection_prob(p, query, m))
        result = invoke(runner, "collection-prob", str(env), "--m", "16", "--pair", "y a0 x ; a0")
        assert result.output.strip() == "1/2"

    def test_history_named_twice_exit_two(self, runner):
        result = invoke(
            runner, "collection-prob", MU, "--m", "1",
            "--pair", "o0 a1 s10 ; o0 -> a0, o0 -> a1",
        )
        assert result.exit_code == 2
        assert result.stderr.splitlines() == ["error: policy names history o0 twice"]

    def test_entry_without_arrow_exit_two(self, runner):
        result = invoke(
            runner, "collection-prob", MU, "--m", "1",
            "--pair", "o0 a0 s00 ; o0 -> a0, o0 a0 s00",
        )
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            "error: policy entry needs 'history -> action': 'o0 a0 s00'"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_unknown_history_action_in_any_pair_order(self, runner, order):
        pairs = ("--pair", "s00 ; ", "--pair", "o0 zz s00 ; o0 -> a0")
        args = pairs if order == 1 else pairs[2:] + pairs[:2]
        result = invoke(runner, "collection-prob", MU, "--m", "1", *args)
        assert result.exit_code == 2
        assert "unknown action 'zz' in history" in result.output


class TestUsageErrors:
    def test_missing_required_option_exit_two(self, runner):
        result = runner.invoke(main, ["equiv", MU, MU_PRIME])
        assert result.exit_code == 2

    def test_unknown_command_exit_two(self, runner):
        result = runner.invoke(main, ["no-such-command"])
        assert result.exit_code == 2


VERB_INPUT_ERRORS = [
    (("validate", "{bad.env}"), "line 1: expected '<keyword>: ...', got 'states s0'"),
    (("equiv", MU, "{bad.env}", "--m", "1"),
     "line 1: expected '<keyword>: ...', got 'states s0'"),
    (("cf-equiv", MU, MU_PRIME, "--m", "-1"), "turn count must be >= 1, got -1"),
    (("determinize", "{invalid.env}", "--m", "1", "-o", "{out.env}"),
     "validation failed: distribution sum ≠ 1 (got 2/3) in trans at (s0,a0)"),
    (("env-policies", MU, "--m", "0"), "turn count must be >= 1, got 0"),
    (("posterior", MU, "--history", "o0 zz s00"), "unknown action 'zz' in history"),
    (("collection-prob", MU, "--m", "1", "--pair", "o0 a0 s00"),
     "pair needs 'HISTORY ; POLICY', got 'o0 a0 s00'"),
    (("learn", MU_STAR, "--m", "1", "--weights", "{w.txt}", "--history", "o0 a0"),
     "history 'o0 a0' must alternate obs action obs ... (odd token count)"),
    (("learn-transfer", MU_STAR, MU_DOUBLE_PRIME, "--m", "1",
      "--weights", "{w.txt}", "-o", "{moved.txt}"),
     "transfer requires counterfactually equivalent environments at the given horizon"),
    (("simulate", MU, "--m", "1", "--agents", "0", "--policy", "a0",
      "--episodes", "10", "--seed", "1"), "agents must be >= 1, got 0"),
]


class TestInputErrorsExitTwo:
    """Every verb turns a bad input into exactly one ``error:`` line on
    stderr and exit 2."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "bad.env").write_text("states s0\n")
        (tmp_path / "invalid.env").write_text(
            corpus_path("mu").read_text().replace(
                "trans: s0 a0 -> s00 1/2 | s01 1/2",
                "trans: s0 a0 -> s00 1/3 | s01 1/3",
            )
        )
        (tmp_path / "w.txt").write_text("s0^00 1\ns0^01 0\ns0^10 0\ns0^11 0\n")
        return tmp_path

    @pytest.mark.parametrize(
        "args,message", VERB_INPUT_ERRORS, ids=[args[0] for args, _ in VERB_INPUT_ERRORS]
    )
    def test_one_error_line(self, runner, files, args, message):
        args = [
            str(files / arg[1:-1]) if arg.startswith("{") else arg for arg in args
        ]
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]


class TestFileErrorsExitTwo:
    """A file that cannot be read, decoded or written is an input error:
    exit 1 would read as a verdict of `equiv`."""

    def check(self, result, *fragments):
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for fragment in fragments:
            assert fragment in lines[0]
        assert "Traceback" not in result.output

    def test_env_file_not_utf8(self, runner, tmp_path):
        binary = tmp_path / "bin.env"
        binary.write_bytes(b"states: s\xff\n")
        result = invoke(runner, "equiv", str(binary), MU, "--m", "1")
        self.check(result, str(binary), "can't decode byte 0xff")

    def test_missing_policy_file(self, runner, tmp_path):
        missing = tmp_path / "pol.txt"
        result = invoke(
            runner, "collection-prob", MU, "--m", "1", "--pair", f"o0 a0 s00 ; @{missing}"
        )
        self.check(result, "No such file or directory", str(missing))

    def test_policy_file_is_a_directory(self, runner, tmp_path):
        result = invoke(
            runner, "simulate", MU, "--m", "1", "--agents", "1",
            "--policy", f"@{tmp_path}", "--episodes", "10", "--seed", "1",
        )
        self.check(result, "Is a directory", str(tmp_path))

    def test_policy_file_not_utf8(self, runner, tmp_path):
        table = tmp_path / "pol.txt"
        table.write_bytes(b"o0 -> a\xe90\n")
        result = invoke(
            runner, "collection-prob", MU, "--m", "1", "--pair", f"o0 a0 s00 ; @{table}"
        )
        self.check(result, str(table), "can't decode byte 0xe9")

    def test_weights_file_not_utf8(self, runner, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_bytes(b"s0^00 1\xff\n")
        result = invoke(
            runner, "learn", MU_STAR, "--m", "1",
            "--weights", str(weights), "--history", "o0",
        )
        self.check(result, str(weights), "can't decode byte 0xff")

    def test_output_directory_missing(self, runner, tmp_path):
        out = tmp_path / "no-such-dir" / "out.env"
        result = invoke(runner, "determinize", MU, "--m", "1", "-o", str(out))
        self.check(result, "No such file or directory", str(out))

    @staticmethod
    def argv(verb, path, tmp_path):
        """`verb` with `path` in its FILE argument, or in --weights."""
        return {
            "validate": ["validate", path],
            "equiv": ["equiv", MU, path, "--m", "1"],
            "learn-transfer": ["learn-transfer", MU_STAR, MU_STAR, "--m", "1",
                               "--weights", path, "-o", str(tmp_path / "out.w")],
        }[verb]

    @pytest.mark.parametrize("verb", ["validate", "equiv", "learn-transfer"])
    def test_missing_file(self, runner, tmp_path, verb):
        missing = str(tmp_path / "no-such.env")
        result = invoke(runner, *self.argv(verb, missing, tmp_path))
        self.check(result, "No such file or directory", missing)

    @pytest.mark.parametrize("verb", ["validate", "equiv", "learn-transfer"])
    def test_directory_as_file(self, runner, tmp_path, verb):
        result = invoke(runner, *self.argv(verb, str(tmp_path), tmp_path))
        self.check(result, "Is a directory", str(tmp_path))

    def test_output_is_a_directory(self, runner, tmp_path):
        result = invoke(runner, "determinize", MU, "--m", "1", "-o", str(tmp_path))
        self.check(result, "Is a directory", str(tmp_path))

    @pytest.mark.parametrize("verb", ["determinize", "learn-transfer"])
    @pytest.mark.parametrize("case", ["directory", "missing parent"])
    def test_output_checked_before_any_work(self, runner, tmp_path, monkeypatch, verb, case):
        import cfpomdp.cli

        def engine(*args):
            raise AssertionError("computed before -o was checked")

        monkeypatch.setattr(cfpomdp.cli, "determinize_env", engine)
        monkeypatch.setattr(cfpomdp.cli, "transfer", engine)
        out = str(tmp_path) if case == "directory" else str(tmp_path / "no-such-dir" / "out")
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1/2\ns0^01 1/3\ns0^10 0\ns0^11 1\n")
        argv = {
            "determinize": ["determinize", MU, "--m", "1", "-o", out],
            "learn-transfer": ["learn-transfer", MU_STAR, MU_STAR, "--m", "1",
                               "--weights", str(weights), "-o", out],
        }[verb]
        before = sorted(tmp_path.iterdir())
        result = invoke(runner, *argv)
        message = ("[Errno 21] Is a directory" if case == "directory"
                   else "[Errno 2] No such file or directory")
        assert result.stderr.splitlines() == [f"error: {message}: {out!r}"]
        self.check(result)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("verb", ["determinize", "learn-transfer"])
    def test_empty_output_checked_before_any_work(self, runner, tmp_path, monkeypatch, verb):
        # the write opens an empty path as the working directory
        import cfpomdp.cli

        def engine(*args):
            raise AssertionError("computed before -o was checked")

        monkeypatch.setattr(cfpomdp.cli, "determinize_env", engine)
        monkeypatch.setattr(cfpomdp.cli, "transfer", engine)
        weights = tmp_path / "w.txt"
        weights.write_text("s0^00 1/2\ns0^01 1/3\ns0^10 0\ns0^11 1\n")
        argv = {
            "determinize": ["determinize", MU, "--m", "1", "-o", ""],
            "learn-transfer": ["learn-transfer", MU_STAR, MU_STAR, "--m", "1",
                               "--weights", str(weights), "-o", ""],
        }[verb]
        result = invoke(runner, *argv)
        assert result.stderr.splitlines() == ["error: [Errno 21] Is a directory: '.'"]
        self.check(result)

    def test_broken_pipe_is_left_to_click(self, runner, monkeypatch):
        # click quiets a closed stdout and exits 1; the handler must not
        # turn it into an input error
        import cfpomdp.cli

        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cfpomdp.cli, "check_equiv", closed)
        result = runner.invoke(main, ["equiv", MU, MU_PRIME, "--m", "1"])
        assert result.exit_code == 1
        assert "error:" not in result.output

