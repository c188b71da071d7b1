from fractions import Fraction

import pytest

from cfpomdp import (
    DeterministicPolicy,
    FiniteDist,
    History,
    InputError,
    Pomdp,
    StochasticPolicy,
    cond_history_prob,
    history_prob,
    initial_posterior,
    reachable_histories,
)

from helpers import (
    brute_history_prob,
    brute_posterior,
    clean_start_then_missing_rows_env,
    missing_rows_env,
    random_det_policy,
    random_pomdp,
    random_stochastic_policy,
    reachable_up_to,
    shared_successor_env,
    tiny_three_state,
    tiny_two_state,
)


def const(p, m, action):
    return DeterministicPolicy.constant(p, m, action).as_stochastic()


class TestHistoryProb:
    def test_mu_single_step(self, mu):
        # frozen: the a0 branch splits its mass in half
        h = History.parse("o0 a0 s00")
        pi = const(mu, 1, "a0")
        assert history_prob(mu, h, pi) == Fraction(1, 2)
        assert brute_history_prob(mu, h, pi) == Fraction(1, 2)

    def test_outside_transition_support(self, mu):
        h = History.parse("o0 a0 s10")
        assert history_prob(mu, h, const(mu, 1, "a0")) == 0

    def test_mu_prime_single_step(self, mu_prime):
        # frozen via explicit state-sequence sum over both initial states
        h = History.parse("o0 a0 s00")
        pi = const(mu_prime, 1, "a0")
        assert brute_history_prob(mu_prime, h, pi) == Fraction(1, 2)
        assert history_prob(mu_prime, h, pi) == Fraction(1, 2)

    def test_policy_factor_scales(self, mu):
        h = History.parse("o0 a0 s00")
        uniform = StochasticPolicy.uniform(mu, 1)
        assert history_prob(mu, h, uniform) == Fraction(1, 4)

    def test_unknown_symbol_rejected(self, mu):
        with pytest.raises(InputError):
            history_prob(mu, History.parse("o0 zz s00"), const(mu, 1, "a0"))

    def test_matches_brute_force_on_random_envs(self, rng):
        for _ in range(6):
            p = random_pomdp(rng, max_states=3)
            for m in (1, 2):
                policies = [
                    random_det_policy(p, m, rng).as_stochastic(),
                    random_stochastic_policy(p, m, rng),
                ]
                for h in reachable_up_to(p, m)[:10]:
                    for pi in policies:
                        assert history_prob(p, h, pi) == brute_history_prob(p, h, pi)

    def test_normalization_over_reachable(self, corpus, rng):
        environments = list(corpus.values()) + [tiny_two_state(), random_pomdp(rng)]
        for p in environments:
            for m in (1, 2):
                pi = StochasticPolicy.uniform(p, m)
                total = sum(
                    (history_prob(p, h, pi) for h in reachable_histories(p, m)[m]),
                    Fraction(0),
                )
                assert total == 1

    def test_prefix_consistency(self, mu_prime):
        pi = StochasticPolicy.uniform(mu_prime, 2)
        for h in reachable_up_to(mu_prime, 1):
            extensions = [
                h2 for h2 in reachable_histories(mu_prime, 2)[h.length + 1]
                if h.is_prefix_of(h2)
            ]
            assert history_prob(mu_prime, h, pi) == sum(
                (history_prob(mu_prime, h2, pi) for h2 in extensions), Fraction(0)
            )


class TestCondHistoryProb:
    def test_ratio(self, mu):
        long = History.parse("o0 a0 s00")
        short = History.parse("o0")
        assert cond_history_prob(mu, long, short, const(mu, 1, "a0")) == Fraction(1, 2)

    def test_non_extension_is_zero(self, mu):
        a = History.parse("o0 a1 s10")
        b = History.parse("o0 a0 s00")
        assert cond_history_prob(mu, a, b, const(mu, 1, "a1")) == 0

    def test_self_conditioning(self, mu):
        h = History.parse("o0 a0 s00")
        assert cond_history_prob(mu, h, h, const(mu, 1, "a0")) == 1

    def test_zero_probability_condition(self, mu):
        short = History.parse("o0 a0 s10")  # impossible
        long = History.parse("o0 a0 s10 a0 s10")
        assert cond_history_prob(mu, long, short, const(mu, 2, "a0")) == 0


class TestInitialPosterior:
    def test_point_mass_initial(self, mu):
        post = initial_posterior(mu, History.parse("o0"))
        assert post["s0"] == 1
        assert sum(post.values()) == 1

    def test_mu_prime_identifies_start(self, mu_prime):
        post = initial_posterior(mu_prime, History.parse("o0 a0 s00"))
        assert post["s0^0"] == 1
        assert post["s0^1"] == 0

    def test_mu_prime_uniform_before_acting(self, mu_prime):
        post = initial_posterior(mu_prime, History.parse("o0"))
        assert post["s0^0"] == Fraction(1, 2)
        assert post["s0^1"] == Fraction(1, 2)

    def test_impossible_history_gives_all_zeros(self, mu):
        post = initial_posterior(mu, History.parse("o0 a0 s10"))
        assert all(v == 0 for v in post.values())

    def test_policy_independence(self, rng):
        # the same posterior comes out of the Bayes formula with the policy
        # factors kept in, whichever compatible policy is used
        for _ in range(4):
            p = random_pomdp(rng, max_states=3)
            for h in reachable_up_to(p, 2)[:8]:
                expected = initial_posterior(p, h)
                for _ in range(2):
                    pi = random_det_policy(p, max(h.length, 1), rng)
                    if any(
                        pi.action_at(h.prefix(t)) != h.steps[t][0]
                        for t in range(h.length)
                    ):
                        continue  # incompatible with h
                    assert brute_posterior(p, h, pi.as_stochastic()) == expected

    def test_sums_to_one_or_zero(self, rng):
        p = tiny_three_state()
        for h in reachable_up_to(p, 2):
            assert sum(initial_posterior(p, h).values()) == 1
        impossible = History("y", (("a", "y"), ("a", "x")))
        assert sum(initial_posterior(p, impossible).values()) == 0

    def test_initial_states_sharing_a_successor_stay_apart(self):
        # u and v both reach w: a belief over current states alone would
        # merge them, the posterior must not
        p = shared_successor_env()
        post = initial_posterior(p, History.parse("x a y"))
        assert (post["u"], post["v"], post["d"]) == (Fraction(1, 3), Fraction(2, 3), 0)
        for h in reachable_up_to(p, 2):
            pi = DeterministicPolicy.script(h).as_stochastic()
            assert initial_posterior(p, h) == brute_posterior(p, h, pi)

    def test_undeclared_initial_state_is_ignored(self, mu):
        # `Pomdp.build` keeps an init entry for a state it does not declare;
        # the posterior walks declared states only, the history weight reads
        # every init entry
        ghost = Pomdp.build(
            mu.states, mu.actions, mu.observations,
            FiniteDist(mu.init.entries + (("ghost", Fraction(1, 3)),)),
            dict(mu.trans), dict(mu.obs),
        )
        for h in reachable_up_to(mu, 2):
            assert initial_posterior(ghost, h) == initial_posterior(mu, h)
            with pytest.raises(InputError, match="no observation row for state ghost"):
                history_prob(ghost, h, DeterministicPolicy.script(h).as_stochastic())

    @pytest.mark.parametrize("env", [missing_rows_env, clean_start_then_missing_rows_env])
    def test_missing_row_named_as_if_each_state_were_folded_alone(self, env):
        # s meets a missing row at turn 2, t at turn 1, and r (if present)
        # none: the posterior names the first failing initial state's, the
        # history weight the first one met
        p = env()
        h = History.parse("x a x a x")
        with pytest.raises(InputError, match="no observation row for state s2"):
            initial_posterior(p, h)
        with pytest.raises(InputError, match="no observation row for state t1"):
            history_prob(p, h, DeterministicPolicy.script(h).as_stochastic())
