"""Acceptance suite: one test per criterion, each timed against its budget
and reported as a single pass/fail line in the terminal summary."""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import pytest
from click.testing import CliRunner

from cfpomdp import (
    CollectionQuery,
    PureLearningSpec,
    behavior_partition,
    check_cf_equiv,
    check_equiv,
    collection_prob,
    corpus_path,
    count_env_policies,
    determinize,
    enumerate_support,
    history_prob,
    history_prob_given_ep,
    is_deterministic,
    load_env,
    minimize,
    parse_rational,
    save_env,
    transfer,
)
from cfpomdp.cli import main

from conftest import record_acceptance
from helpers import (
    cell_of,
    perturb_one_row,
    random_pomdp,
    random_stochastic_policy,
    reachable_up_to,
    relabel_states,
    split_initial_state,
)

MU = str(corpus_path("mu"))
MU_PRIME = str(corpus_path("mu-prime"))
MU_DOUBLE_PRIME = str(corpus_path("mu-double-prime"))
MU_STAR = str(corpus_path("mu-star"))

runner = CliRunner()


def cli(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number} FAIL  {description}")
        raise
    elapsed = perf_counter() - start
    if elapsed >= budget_seconds:
        record_acceptance(
            f"criterion {number} FAIL  {description} (over budget: {elapsed:.2f}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    record_acceptance(
        f"criterion {number} PASS  {description} [{elapsed:.2f}s < {budget_seconds:g}s]"
    )


def test_criterion_1_counterfactual_equivalence_of_the_split_presentation():
    with criterion(1, "cf-equiv mu mu-prime --m 1 exits 0", 1.0):
        assert cli("cf-equiv", MU, MU_PRIME, "--m", "1").exit_code == 0


def test_criterion_2_correlated_outcomes_are_separated():
    with criterion(2, "equiv holds, cf-equiv fails with a 1/4-vs-0 witness", 1.0):
        assert cli("equiv", MU, MU_DOUBLE_PRIME, "--m", "1").exit_code == 0
        result = cli("cf-equiv", MU, MU_DOUBLE_PRIME, "--m", "1", "--witness")
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert lines[0] == "not equivalent" and lines[1] == "witness:"
        pair_args = []
        for line in lines[2:]:
            hist, policy, left, right = (part.strip() for part in line.split("|"))
            assert parse_rational(left) == Fraction(1, 4)
            assert parse_rational(right) == Fraction(0)
            pair_args.extend(["--pair", f"{hist} ; {policy}"])
        replay_left = cli("collection-prob", MU, "--m", "1", *pair_args)
        replay_right = cli("collection-prob", MU_DOUBLE_PRIME, "--m", "1", *pair_args)
        assert parse_rational(replay_left.output.strip()) == Fraction(1, 4)
        assert parse_rational(replay_right.output.strip()) == Fraction(0)


def test_criterion_3_resolution_census():
    with criterion(3, "4 resolutions of 1/4 for mu; 2 of 1/2 for mu-double-prime", 1.0):
        for path, expected_count, expected_mass in (
            (MU, 4, "1/4"),
            (MU_DOUBLE_PRIME, 2, "1/2"),
        ):
            result = cli("env-policies", path, "--m", "1")
            lines = result.output.strip().splitlines()
            assert lines[0] == f"support: {expected_count}"
            assert len(lines) == expected_count + 1
            assert all(line.endswith(f"prob {expected_mass}") for line in lines[1:])


def test_criterion_4_census_arithmetic():
    with criterion(4, "5*5^10 resolutions; state-space magnitude 488281250", 1.0):
        result = cli(
            "env-policies", MU, "--m", "1",
            "--count-only", "--convention", "transition-only",
        )
        count = int(result.output.strip())
        assert count == 5 * 5**10 == 48828125
        mu = load_env(MU)
        assert count == count_env_policies(mu, 1, "transition-only")
        assert len(mu.states) * count * (1 + 1) == 488281250


def test_criterion_5_determinization_always_succeeds(tmp_path):
    with criterion(
        5, "determinize is deterministic and cf-equivalent (corpus + 50 random)", 60.0
    ):
        rng = random.Random(5001)
        environments = [
            load_env(path) for path in (MU, MU_PRIME, MU_DOUBLE_PRIME, MU_STAR)
        ] + [random_pomdp(rng) for _ in range(50)]
        cli_sample = {0, 7, 23}  # spot-check the command surface too
        for index, p in enumerate(environments):
            for m in (1, 2):
                d = determinize(p, m)
                assert is_deterministic(d)
                assert check_cf_equiv(p, d, m).equivalent
                if index in cli_sample and m == 1:
                    src = tmp_path / f"env{index}.env"
                    out = tmp_path / f"det{index}.env"
                    save_env(src, p)
                    assert cli(
                        "determinize", str(src), "--m", "1", "-o", str(out)
                    ).exit_code == 0
                    assert cli(
                        "cf-equiv", str(src), str(out), "--m", "1"
                    ).exit_code == 0


def test_criterion_6_minimization_matches_the_eight_state_presentation(tmp_path):
    with criterion(6, "minimize(determinize(mu,1),1): 8 states, cells match", 1.0):
        mu = load_env(MU)
        mu_star = load_env(MU_STAR)
        mini = minimize(determinize(mu, 1), 1)
        assert len(mini.states) == 8
        assert len(mini.init.support) == 4
        assert all(w == Fraction(1, 4) for _, w in mini.init.entries)
        cells_mini = behavior_partition(mini, 1)
        cells_star = behavior_partition(mu_star, 1)
        assert {bm: mass for bm, _, mass in cells_mini.cells} == {
            bm: mass for bm, _, mass in cells_star.cells
        }
        assert all(len(members) == 1 for _, members, _ in cells_mini.cells)
        out = tmp_path / "mini.env"
        save_env(out, mini)
        assert cli("cf-equiv", str(out), MU_STAR, "--m", "1").exit_code == 0


def test_criterion_7_universal_transfer(tmp_path):
    with criterion(7, "20 random weight vectors transfer and verify exactly", 5.0):
        rng = random.Random(7001)
        mu = load_env(MU)
        mu_star = load_env(MU_STAR)
        det = determinize(mu, 1)
        det_path = tmp_path / "det.env"
        save_env(det_path, det)
        for round_index in range(20):
            weights = {
                s: Fraction(rng.randint(0, 12), 12) for s in mu_star.init.support
            }
            weights_path = tmp_path / f"w{round_index}.txt"
            weights_path.write_text(
                "\n".join(f"{s} {w}" for s, w in weights.items()) + "\n"
            )
            out = tmp_path / f"moved{round_index}.txt"
            result = cli(
                "learn-transfer", MU_STAR, str(det_path), "--m", "1",
                "--weights", str(weights_path), "-o", str(out), "--verify",
            )
            assert result.exit_code == 0
            assert "universality: verified" in result.output
            # matched cells exchange exactly their mass-weighted totals
            spec = PureLearningSpec.of(mu_star, weights, 1)
            moved = transfer(spec, det, 1)
            moved_weights = dict(moved.weights)
            src_cells = behavior_partition(mu_star, 1)
            tgt_cells = behavior_partition(det, 1)
            for bm, members, _ in src_cells.cells:
                src_total = sum(
                    (mu_star.init.prob(s) * weights[s] for s in members), Fraction(0)
                )
                tgt_total = sum(
                    (det.init.prob(s) * moved_weights[s] for s in cell_of(tgt_cells, bm)),
                    Fraction(0),
                )
                assert src_total == tgt_total


def test_criterion_8_property_suites():
    with criterion(
        8, "two-views, cf=>equiv, and oracle agreement on random instances", 120.0
    ):
        rng = random.Random(8001)

        # two-views consistency on the corpus and 50 random environments
        corpus = [load_env(path) for path in (MU, MU_PRIME, MU_DOUBLE_PRIME, MU_STAR)]
        for p in corpus:
            for m in (1, 2):
                support = enumerate_support(p, m)
                policies = [random_stochastic_policy(p, m, rng) for _ in range(2)]
                for pi in policies:
                    for h in reachable_up_to(p, m):
                        mixture = sum(
                            (
                                prior * history_prob_given_ep(p, h, ep, pi)
                                for ep, prior in support
                            ),
                            Fraction(0),
                        )
                        assert mixture == history_prob(p, h, pi)
        for _ in range(50):
            p = random_pomdp(rng)
            m = rng.choice((1, 2))
            support = enumerate_support(p, m)
            pi = random_stochastic_policy(p, m, rng)
            histories = reachable_up_to(p, m)
            rng.shuffle(histories)
            for h in histories[:6]:
                mixture = sum(
                    (
                        prior * history_prob_given_ep(p, h, ep, pi)
                        for ep, prior in support
                    ),
                    Fraction(0),
                )
                assert mixture == history_prob(p, h, pi)

        # counterfactual equivalence implies plain equivalence on 50 pairs
        non_vacuous = 0
        for index in range(50):
            p = random_pomdp(rng)
            kind = index % 5
            if kind == 0:
                q, m = determinize(p, 1), 1
            elif kind == 1:
                q, m = relabel_states(p), 1
            elif kind == 2:
                q, m = split_initial_state(p), 1
            elif kind == 3:
                q, m = perturb_one_row(p, rng), 1
            else:
                q, m = random_pomdp(rng, alphabets=(p.actions, p.observations)), 1
            if check_cf_equiv(p, q, m).equivalent:
                non_vacuous += 1
                assert check_equiv(p, q, m).equivalent
        assert non_vacuous >= 15

        # oracle agreement between the verdict and direct collection sums
        pairs = []
        for _ in range(5):
            p = random_pomdp(rng)
            pairs.append((p, determinize(p, 1)))
            pairs.append((p, split_initial_state(p)))
            pairs.append((p, perturb_one_row(p, rng)))
            pairs.append((p, random_pomdp(rng, alphabets=(p.actions, p.observations))))
        checked = 0
        for p, q in pairs:
            verdict = check_cf_equiv(p, q, 1)
            if not verdict.equivalent:
                w = verdict.witness
                left = collection_prob(p, w.query, 1)
                right = collection_prob(q, w.query, 1)
                assert (left, right) == (w.value_left, w.value_right)
                assert left != right
            for _ in range(10):
                checked += 1
                n = rng.randint(1, 3)
                query = CollectionQuery(
                    tuple(
                        (
                            rng.choice(reachable_up_to(p, 1)),
                            random_stochastic_policy(p, 1, rng),
                        )
                        for _ in range(n)
                    )
                )
                left = collection_prob(p, query, 1)
                right = collection_prob(q, query, 1)
                if verdict.equivalent:
                    assert left == right
        assert checked == 200


def test_criterion_9_monte_carlo_cross_check():
    with criterion(9, "100k-episode simulation within 5 SE of 1/4; exact 0", 30.0):
        result = cli(
            "simulate", MU, "--m", "1", "--agents", "2",
            "--policy", "a0", "--policy", "a1",
            "--episodes", "100000", "--seed", "90210",
        )
        assert result.exit_code == 0
        target = [
            line for line in result.output.strip().splitlines()
            if line.startswith("o0 a0 s00 ; o0 a1 s11 |")
        ]
        assert len(target) == 1
        count = int(target[0].split("count", 1)[1].split("|")[0].strip())
        frequency = count / 100000
        standard_error = (0.25 * 0.75 / 100000) ** 0.5
        assert abs(frequency - 0.25) < 5 * standard_error
        assert target[0].rstrip().endswith("exact 1/4")

        impossible = cli(
            "simulate", MU_DOUBLE_PRIME, "--m", "1", "--agents", "2",
            "--policy", "a0", "--policy", "a1",
            "--episodes", "100000", "--seed", "90210",
        )
        assert impossible.exit_code == 0
        assert not any(
            line.startswith("o0 a0 s00 ; o0 a1 s11 |")
            for line in impossible.output.strip().splitlines()
        )
