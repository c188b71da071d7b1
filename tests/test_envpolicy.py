import pickle
import random
from fractions import Fraction

import pytest

from cfpomdp import (
    DeterministicPolicy,
    EnvironmentPolicy,
    History,
    InputError,
    Pomdp,
    StochasticPolicy,
    behavior_map,
    count_env_policies,
    determinize,
    enumerate_det_policies,
    enumerate_support,
    env_policy_posterior,
    env_policy_prob,
    history_prob,
    history_prob_given_ep,
    initial_posterior,
)
from cfpomdp import envpolicy
from cfpomdp.core import decision_points

from helpers import (
    aliased_env,
    brute_response,
    full_resolutions,
    random_cf_env,
    random_det_policy,
    random_pomdp,
    random_stochastic_policy,
    reachable_up_to,
    reduce_resolution,
    rename_state,
    resolution_rollouts,
    reversed_alphabets,
    rollout,
    stage_support,
    tiny_three_state,
    tiny_two_state,
    with_zero_observation_entries,
)


def make_ep(init, trans, obs, horizon):
    return EnvironmentPolicy(
        init_state=init,
        trans_choice=tuple(trans.items()),
        obs_choice=tuple(obs.items()),
        horizon=horizon,
    )


def mu_ep(i, j):
    """The horizon-1 resolution sending a0 to s0<i> and a1 to s1<j>."""
    lo = f"s0{i}"
    hi = f"s1{j}"
    return make_ep(
        "s0",
        {("s0", "a0", 1): lo, ("s0", "a1", 1): hi},
        {("s0", 0): "o0", (lo, 1): lo, (hi, 1): hi},
        1,
    )


class TestEnvironmentPolicyKey:
    def test_choice_order_is_ignored(self, mu):
        for ep, _ in enumerate_support(mu, 2):
            reordered = EnvironmentPolicy(
                ep.init_state, ep.trans_choice[::-1], ep.obs_choice[::-1], ep.horizon
            )
            assert reordered == ep and hash(reordered) == hash(ep)
        assert len({ep for ep, _ in enumerate_support(mu, 2)}) == 4

    def test_later_repeated_choice_wins(self):
        ep = mu_ep(1, 1)
        repeated = EnvironmentPolicy(
            "s0", ((("s0", "a0", 1), "s00"),) + ep.trans_choice, ep.obs_choice, 1
        )
        assert repeated == ep and hash(repeated) == hash(ep)
        assert repeated != mu_ep(0, 1)

    def test_walk_hash_is_the_mapping_hash(self, rng):
        # resolutions from the walk carry a hash summed on the way down; a
        # copy built by hand, choices reversed or an earlier choice repeated,
        # is equal and computes the same hash from its items
        resolutions = []
        for _ in range(8):
            p = random_pomdp(rng)
            for m in (1, 2):
                resolutions += [ep for ep, _ in enumerate_support(p, m)]
                h = rng.choice(reachable_up_to(p, m))
                resolutions += env_policy_posterior(p, h, StochasticPolicy.uniform(p, m), m)
        for ep in resolutions:
            assert ep._hash is not None
            (key, _), (at, _) = ep.trans_choice[0], ep.obs_choice[0]
            copies = [
                EnvironmentPolicy(ep.init_state, ep.trans_choice[::-1], ep.obs_choice[::-1],
                                  ep.horizon),
                EnvironmentPolicy(ep.init_state, ((key, "elsewhere"),) + ep.trans_choice,
                                  ((at, "unseen"),) + ep.obs_choice, ep.horizon),
            ]
            for copy in copies:
                assert copy._hash is None
                assert copy == ep and hash(copy) == hash(ep)
        assert len(resolutions) > 500

    def test_hashes_spread(self):
        # per-choice hashes are mixed before they are summed: a plain sum of
        # tuple hashes gave 12,480 distinct hashes over these 91,828
        hashes = {hash(ep) for ep, _ in enumerate_support(aliased_env(), 4)}
        assert len(hashes) >= 0.999 * 91828

    def test_pickle_drops_the_stored_hash(self):
        # string hashes differ between processes, so an unpickled resolution
        # hashes afresh
        ep, _ = enumerate_support(aliased_env(), 2)[3]
        stored = ep._hash
        back = pickle.loads(pickle.dumps(ep))
        assert stored is not None and back._hash is None
        assert back == ep and hash(back) == stored
        assert ep._hash == stored


class TestEnumerateSupport:
    def test_mu_support(self, mu):
        support = enumerate_support(mu, 1)
        assert len(support) == 4
        assert all(prob == Fraction(1, 4) for _, prob in support)
        assert [ep for ep, _ in support] == [
            mu_ep(0, 0), mu_ep(0, 1), mu_ep(1, 0), mu_ep(1, 1)
        ]

    def test_mu_double_prime_support(self, mu_double_prime):
        support = enumerate_support(mu_double_prime, 1)
        assert len(support) == 2
        assert all(prob == Fraction(1, 2) for _, prob in support)
        assert [ep.init_state for ep, _ in support] == ["s0^0", "s0^1"]

    def test_deterministic_environment_single_policy(self):
        p = Pomdp.build(
            ("s", "t"), ("a",), ("x", "y"),
            {"s": Fraction(1)},
            {("s", "a"): {"t": Fraction(1)}, ("t", "a"): {"t": Fraction(1)}},
            {"s": {"x": Fraction(1)}, "t": {"y": Fraction(1)}},
        )
        support = enumerate_support(p, 2)
        assert len(support) == 1
        assert support[0][1] == 1

    def test_probabilities_sum_to_one(self, corpus, rng):
        environments = list(corpus.values()) + [tiny_two_state(), random_pomdp(rng)]
        for p in environments:
            for m in (1, 2):
                total = sum((prob for _, prob in enumerate_support(p, m)), Fraction(0))
                assert total == 1
                assert all(prob > 0 for _, prob in enumerate_support(p, m))

    @pytest.mark.parametrize("env_builder,m", [
        (tiny_two_state, 1), (tiny_two_state, 2), (tiny_three_state, 1),
    ])
    def test_reduction_soundness(self, env_builder, m):
        # grouping unreduced resolutions by their reachable restriction must
        # reproduce the aggregated probabilities exactly
        p = env_builder()
        aggregated: dict[tuple, Fraction] = {}
        for t0, trans_map, obs_map, prob in full_resolutions(p, m):
            key = reduce_resolution(p, t0, trans_map, obs_map, m)
            aggregated[key] = aggregated.get(key, Fraction(0)) + prob
        support = {
            (ep.init_state, frozenset(ep.trans_choice), frozenset(ep.obs_choice)): prob
            for ep, prob in enumerate_support(p, m)
        }
        assert aggregated == support


def support_rows(support):
    return [(ep.init_state, ep.trans_choice, ep.obs_choice, ep.horizon, prob)
            for ep, prob in support]


class TestStageSupportOracle:
    """`enumerate_support` recurses on `_product`; the oracle is the
    two-stage generator with its own products."""

    def test_matches_stage_support(self, corpus):
        rng = random.Random(9090)
        envs = list(corpus.values())
        envs += [random_pomdp(rng, horizon_cap=3) for _ in range(4)]
        envs += [random_cf_env(rng, n, resolution_cap=600) for n in (2, 3, 4)]
        envs += [variant(p) for p in envs[4:] for variant in
                 (with_zero_observation_entries, reversed_alphabets)]
        for p in envs:
            for m in (1, 2, 3):
                assert support_rows(enumerate_support(p, m)) == support_rows(stage_support(p, m))

    def test_missing_row_at_unreachable_state(self, mu):
        p = Pomdp.build(
            mu.states + ("dead",), mu.actions, mu.observations, mu.init, dict(mu.trans), dict(mu.obs)
        )
        for m in (1, 2):
            assert support_rows(enumerate_support(p, m)) == support_rows(stage_support(p, m))

    def test_missing_row_at_reachable_state(self, mu):
        trans = dict(mu.trans)
        del trans[("s01", "a1")]
        obs = dict(mu.obs)
        del obs["s10"]
        for p in (
            Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, trans, dict(mu.obs)),
            Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, dict(mu.trans), obs),
            Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, trans, obs),
        ):
            with pytest.raises(InputError) as expected:
                list(stage_support(p, 2))
            with pytest.raises(InputError) as got:
                enumerate_support(p, 2)
            assert str(got.value) == str(expected.value)

    def test_zero_turns_rejected(self, mu):
        for call in (lambda: list(stage_support(mu, 0)), lambda: enumerate_support(mu, 0)):
            with pytest.raises(InputError, match="turn count must be >= 1, got 0"):
                call()


class TestEnvPolicyProb:
    def test_mu_quarter(self, mu):
        assert env_policy_prob(mu, mu_ep(0, 1)) == Fraction(1, 4)

    def test_off_support_choice_is_zero(self, mu):
        ep = make_ep(
            "s0",
            {("s0", "a0", 1): "s10", ("s0", "a1", 1): "s11"},
            {("s0", 0): "o0", ("s10", 1): "s10", ("s11", 1): "s11"},
            1,
        )
        assert env_policy_prob(mu, ep) == 0

    def test_mu_prime_hand_value(self, mu_prime):
        # init mass 1/2 times forced a0 outcome times the 1/2 chance of s10
        ep = make_ep(
            "s0^0",
            {("s0^0", "a0", 1): "s00", ("s0^0", "a1", 1): "s10"},
            {("s0^0", 0): "o0", ("s00", 1): "s00", ("s10", 1): "s10"},
            1,
        )
        assert env_policy_prob(mu_prime, ep) == Fraction(1, 4)

    def test_unknown_symbol_rejected(self, mu):
        ep = make_ep("nowhere", {}, {("nowhere", 0): "o0"}, 1)
        with pytest.raises(InputError):
            env_policy_prob(mu, ep)

    def test_unknown_symbol_in_a_choice_rejected(self, mu):
        good = mu_ep(0, 1)
        stray_state = make_ep("s0", {("s0", "a0", 1): "zz", ("s0", "a1", 1): "s11"},
                              dict(good.obs_choice), 1)
        with pytest.raises(InputError, match=r"^unknown symbol in choice \(s0,a0\)->zz$"):
            env_policy_prob(mu, stray_state)
        stray_obs = make_ep("s0", dict(good.trans_choice),
                            {**dict(good.obs_choice), ("s0", 0): "zz"}, 1)
        with pytest.raises(InputError, match=r"^unknown symbol in choice \(s0\)->zz$"):
            env_policy_prob(mu, stray_obs)

    def test_matches_enumerated_probabilities(self, rng):
        p = random_pomdp(rng)
        for ep, prob in enumerate_support(p, 2):
            assert env_policy_prob(p, ep) == prob


class TestRollout:
    def test_mu_rollouts(self, mu):
        a0 = DeterministicPolicy.constant(mu, 1, "a0")
        a1 = DeterministicPolicy.constant(mu, 1, "a1")
        assert str(rollout(mu, mu_ep(0, 1), a0)) == "o0 a0 s00"
        assert str(rollout(mu, mu_ep(0, 1), a1)) == "o0 a1 s11"

    def test_mu_double_prime_rollout(self, mu_double_prime):
        support = enumerate_support(mu_double_prime, 1)
        pi_1 = support[1][0]
        a0 = DeterministicPolicy.constant(mu_double_prime, 1, "a0")
        assert str(rollout(mu_double_prime, pi_1, a0)) == "o0 a0 s01"

    def test_rollout_has_probability_one(self, rng):
        for _ in range(3):
            p = random_pomdp(rng)
            for m in (1, 2):
                pi = random_det_policy(p, m, rng)
                for ep, _ in enumerate_support(p, m):
                    h = rollout(p, ep, pi)
                    assert history_prob_given_ep(p, h, ep, pi.as_stochastic()) == 1


class TestHistoryProbGivenEp:
    def test_uniform_policy_half(self, mu):
        h = History.parse("o0 a0 s00")
        assert history_prob_given_ep(
            mu, h, mu_ep(0, 1), StochasticPolicy.uniform(mu, 1)
        ) == Fraction(1, 2)

    def test_contradicting_evolution(self, mu):
        h = History.parse("o0 a0 s01")
        assert history_prob_given_ep(
            mu, h, mu_ep(0, 1), StochasticPolicy.uniform(mu, 1)
        ) == 0

    def test_deterministic_match(self, mu):
        h = History.parse("o0 a0 s00")
        pi = DeterministicPolicy.constant(mu, 1, "a0").as_stochastic()
        assert history_prob_given_ep(mu, h, mu_ep(0, 1), pi) == 1

    def test_missing_choice_raises_whatever_the_policy(self, mu):
        # the walk asks only the resolution, so a choice h needs is read even
        # where the policy gives h probability 0
        ep = make_ep("s0", {("s0", "a1", 1): "s10"}, {("s0", 0): "o0", ("s10", 1): "s10"}, 1)
        never_a0 = DeterministicPolicy.constant(mu, 1, "a1").as_stochastic()
        with pytest.raises(InputError, match=r"no choice at \(s0, a0, 1\)"):
            history_prob_given_ep(mu, History.parse("o0 a0 s00"), ep, never_a0)

    def test_history_longer_than_the_horizon_rejected(self, mu):
        h = History.parse("o0 a0 s00 a0 s00")
        with pytest.raises(InputError,
                           match="^history length 2 exceeds environment policy horizon 1$"):
            history_prob_given_ep(mu, h, mu_ep(0, 1), StochasticPolicy.uniform(mu, 2))

    def test_missing_observation_choice(self):
        with pytest.raises(InputError,
                           match=r"^environment policy has no observation choice at \(s0, 1\)$"):
            mu_ep(0, 1).obs_at("s0", 1)

    def test_two_views_consistency(self, corpus, rng):
        # mixing the per-resolution probabilities with the resolution prior
        # reproduces the plain history probability
        environments = list(corpus.values()) + [random_pomdp(rng) for _ in range(3)]
        for p in environments:
            for m in (1, 2):
                support = enumerate_support(p, m)
                policies = [
                    StochasticPolicy.uniform(p, m),
                    random_det_policy(p, m, rng).as_stochastic(),
                    random_stochastic_policy(p, m, rng),
                ]
                histories = reachable_up_to(p, m)[:12]
                for pi in policies:
                    for h in histories:
                        mixture = sum(
                            (
                                prior * history_prob_given_ep(p, h, ep, pi)
                                for ep, prior in support
                            ),
                            Fraction(0),
                        )
                        assert mixture == history_prob(p, h, pi)


class TestEnvPolicyPosterior:
    def test_horizon_shorter_than_the_history_rejected(self, mu):
        h = History.parse("o0 a0 s00 a0 s00")
        with pytest.raises(InputError, match=r"^posterior horizon 1 shorter than history \(2\)$"):
            env_policy_posterior(mu, h, StochasticPolicy.uniform(mu, 2), 1)

    def test_mu_two_consistent(self, mu):
        pi = DeterministicPolicy.constant(mu, 1, "a0").as_stochastic()
        post = env_policy_posterior(mu, History.parse("o0 a0 s00"), pi)
        assert post[mu_ep(0, 0)] == Fraction(1, 2)
        assert post[mu_ep(0, 1)] == Fraction(1, 2)
        assert post[mu_ep(1, 0)] == 0
        assert post[mu_ep(1, 1)] == 0

    def test_no_evidence_is_uniform(self, mu):
        pi = DeterministicPolicy.constant(mu, 1, "a0").as_stochastic()
        post = env_policy_posterior(mu, History.parse("o0"), pi, m=1)
        assert all(v == Fraction(1, 4) for v in post.values())

    def test_mu_double_prime_determined(self, mu_double_prime):
        pi = DeterministicPolicy.constant(mu_double_prime, 1, "a0").as_stochastic()
        post = env_policy_posterior(mu_double_prime, History.parse("o0 a0 s00"), pi)
        values = sorted(post.values())
        assert values == [0, 1]

    def test_policy_independent_for_compatible_policies(self, mu):
        h = History.parse("o0 a0 s00")
        det = DeterministicPolicy.constant(mu, 1, "a0").as_stochastic()
        uniform = StochasticPolicy.uniform(mu, 1)
        assert env_policy_posterior(mu, h, det) == env_policy_posterior(mu, h, uniform)

    def test_impossible_history_all_zero(self, mu):
        pi = DeterministicPolicy.constant(mu, 1, "a0").as_stochastic()
        post = env_policy_posterior(mu, History.parse("o0 a0 s10"), pi)
        assert all(v == 0 for v in post.values())

    def test_policy_read_only_where_generated(self, mu):
        # the policy is undefined at o0 a0 s00, which some resolution
        # reaches, but none generates the whole history: 0, not an error
        h = History.parse("o0 a0 s00 a1 s01")
        pi = DeterministicPolicy.script(History.parse("o0 a0 s00")).as_stochastic()
        support = enumerate_support(mu, 2)
        assert all(history_prob_given_ep(mu, h, ep, pi) == 0 for ep, _ in support)
        assert all(v == 0 for v in env_policy_posterior(mu, h, pi, 2).values())
        generated = History.parse("o0 a0 s00 a1 s00")
        with pytest.raises(InputError, match="policy undefined at history o0 a0 s00"):
            env_policy_posterior(mu, generated, pi, 2)
        with pytest.raises(InputError, match="policy undefined at history o0 a0 s00"):
            history_prob_given_ep(mu, generated, support[0][0], pi)

    def test_unknown_symbol_raises_before_enumeration(self, monkeypatch):
        # at m = 4 the aliased env has 91,828 resolutions: none is built, and
        # the turn table's walk is the only producer of resolutions
        def refuse(*args):
            raise AssertionError("resolutions enumerated")

        monkeypatch.setattr(envpolicy._Turns, "walk", refuse)
        p = aliased_env()
        pi = DeterministicPolicy.constant(p, 1, "a0").as_stochastic()
        for text, message in (("y zz x", "unknown action 'zz'"), ("y a0 w", "unknown observation 'w'"),
                              ("w", "unknown observation 'w'")):
            with pytest.raises(InputError, match=f"^{message} in history$"):
                env_policy_posterior(p, History.parse(text), pi, 4)

    def test_caches_nothing_on_the_resolutions_it_returns(self):
        # the returned dict keeps every resolution alive: a lookup dict
        # cached on each would more than double the posterior's memory
        p = aliased_env()
        post = env_policy_posterior(p, History.parse("y a0 x"), StochasticPolicy.uniform(p, 2), 2)
        assert any(post.values())
        for ep in post:
            assert "_obs" not in vars(ep) and "_trans" not in vars(ep), ep.describe()

    def test_is_the_twins_initial_posterior(self, corpus, rng):
        # the twin keeps all its uncertainty in the initial state, one per
        # resolution and in the support's order
        environments = list(corpus.values()) + [
            random_pomdp(rng, horizon_cap=3, resolution_cap=200) for _ in range(4)
        ]
        for p in environments:
            for m in (1, 2, 3):
                twin = determinize(p, m)
                reachable = reachable_up_to(p, m)
                histories = rng.sample(reachable, min(len(reachable), 25))
                histories += [h.extend(a, o) for h in histories[:5] if h.length < m
                              for a in p.actions[:1] for o in p.observations]
                for h in histories:
                    pi = DeterministicPolicy.script(h).as_stochastic()
                    post = initial_posterior(twin, h)
                    assert list(env_policy_posterior(p, h, pi, m).values()) == [
                        post[s] for s in twin.init.support
                    ], (p, m, h)


class TestPosteriorGenerationOracle:
    """`env_policy_posterior` checks generation inside the walk; the oracle
    is the per-resolution rule: prior x [`history_prob_given_ep` > 0] over
    its total, on `enumerate_support`."""

    @staticmethod
    def reference(p, h, m):
        pi = StochasticPolicy.uniform(p, m)
        support = enumerate_support(p, m)
        kept = [prior if history_prob_given_ep(p, h, ep, pi) > 0 else 0 for ep, prior in support]
        total = sum(kept, Fraction(0))
        return [Fraction(0) if total == 0 else w / total for w in kept]

    def test_matches_the_per_resolution_rule(self, corpus, rng):
        environments = list(corpus.values()) + [
            random_pomdp(rng, horizon_cap=3, resolution_cap=200) for _ in range(4)
        ] + [random_cf_env(rng, n, resolution_cap=800) for n in (2, 3)]
        # a state named "" is a valid name, not a missing one
        environments += [rename_state(p, p.states[0], "") for p in environments]
        lengths = set()
        for p in environments:
            for m in (1, 2, 3):
                reachable = reachable_up_to(p, m)
                histories = rng.sample(reachable, min(len(reachable), 12))
                histories += [History(o) for o in p.observations]
                histories += [h.extend(a, o) for h in histories[:4] if h.length < m
                              for a in p.actions[:1] for o in p.observations]
                for h in histories:
                    post = env_policy_posterior(p, h, StochasticPolicy.uniform(p, m), m)
                    assert list(post.values()) == self.reference(p, h, m), (p, m, h)
                    lengths.add((h.length == 0, h.length < m, any(post.values())))
        # length 0, shorter than m and equal to m; possible and impossible
        assert {(True, True, True), (False, True, True), (False, False, True),
                (False, True, False), (False, False, False)} <= lengths

    def test_state_named_empty_string(self):
        # "" leads to s, which shows y: x a x is impossible, x a y certain
        p = Pomdp.build(("", "s"), ("a",), ("x", "y"), {"": 1},
                        {("", "a"): {"s": 1}, ("s", "a"): {"s": 1}}, {"": {"x": 1}, "s": {"y": 1}})
        pi = StochasticPolicy.uniform(p, 2)
        for text, expected in (("x a x", [0]), ("x a y", [1]), ("x", [1]), ("y", [0]),
                               ("x a y a x", [0]), ("x a y a y", [1])):
            h = History.parse(text)
            assert list(env_policy_posterior(p, h, pi, 2).values()) == expected, text
            assert expected == self.reference(p, h, 2), text


class TestBehaviorMap:
    def test_mu_behavior_map(self, mu):
        bm = behavior_map(mu, mu_ep(0, 1), 1)
        a0 = DeterministicPolicy.constant(mu, 1, "a0")
        a1 = DeterministicPolicy.constant(mu, 1, "a1")
        assert str(bm.history_for(a0)) == "o0 a0 s00"
        assert str(bm.history_for(a1)) == "o0 a1 s11"

    def test_mu_double_prime_behavior_map(self, mu_double_prime):
        support = enumerate_support(mu_double_prime, 1)
        bm = behavior_map(mu_double_prime, support[0][0], 1)
        rendered = {
            pi.action_at(History.parse("o0")): str(bm.history_for(pi))
            for pi in enumerate_det_policies(mu_double_prime, 1)
        }
        assert rendered == {"a0": "o0 a0 s00", "a1": "o0 a1 s10"}

    def test_assignment_total_on_policy_enumeration(self, mu):
        policies = enumerate_det_policies(mu, 2)
        for ep, _ in enumerate_support(mu, 2):
            bm = behavior_map(mu, ep, 2)
            histories = [bm.history_for(pi) for pi in policies]
            assert all(h.length == 2 for h in histories)
            assert set(histories) == set(bm.histories())

    def test_assignment_matches_rollout(self, rng):
        p = random_pomdp(rng)
        for ep, _ in enumerate_support(p, 1):
            bm = behavior_map(p, ep, 1)
            for pi in enumerate_det_policies(p, 1):
                assert bm.history_for(pi) == rollout(p, ep, pi)

    def test_horizon_mismatch_rejected(self, mu):
        with pytest.raises(InputError):
            behavior_map(mu, mu_ep(0, 0), 2)

    def test_action_outside_the_map_rejected(self, mu):
        stray = DeterministicPolicy(((History.parse("o0"), "zz"),))
        with pytest.raises(InputError, match="^action 'zz' outside the behavior map$"):
            behavior_map(mu, mu_ep(0, 1), 1).history_for(stray)

    def test_matches_brute_force_rollouts(self, corpus, rng):
        # against rolling out every action sequence one by one: the image in
        # order, the history of every policy (or of 50 random ones when there
        # are too many), and the order of maps by their response functions
        envs = list(corpus.values()) + [
            random_pomdp(
                rng, max_states=3, horizon_cap=3, resolution_cap=96,
                alphabets=(actions, ("x0", "x1")),
            )
            for actions in (("a0", "a1"), ("a1", "a0")) * 2
        ]
        for m in (1, 2, 3):
            responses = {}
            for p in envs:
                if len(p.actions) ** len(decision_points(p, m)) <= 2**10:
                    policies = enumerate_det_policies(p, m)
                else:
                    policies = [random_det_policy(p, m, rng) for _ in range(50)]
                for ep, _ in enumerate_support(p, m):
                    bm = behavior_map(p, ep, m)
                    rollouts = resolution_rollouts(p, ep, m)
                    assert bm.histories() == rollouts
                    for pi in policies:
                        assert bm.history_for(pi) == rollout(p, ep, pi)
                    alphabets = (frozenset(p.actions), p.observations)
                    responses.setdefault(alphabets, {})[bm] = brute_response(rollouts)
            for maps in responses.values():
                assert len(set(maps.values())) == len(maps)
                assert sorted(maps, key=lambda bm: bm.tree) == sorted(maps, key=maps.__getitem__)


class TestCountEnvPolicies:
    def test_mu_transition_only(self, mu):
        assert count_env_policies(mu, 1, "transition-only") == 5 * 5**10 == 48828125

    def test_mu_full(self, mu):
        assert count_env_policies(mu, 1, "full") == 5 * 5**10 * 5**10

    def test_singleton_environment(self):
        p = Pomdp.build(
            ("s",), ("a",), ("x",),
            {"s": Fraction(1)},
            {("s", "a"): {"s": Fraction(1)}},
            {"s": {"x": Fraction(1)}},
        )
        assert count_env_policies(p, 1, "full") == 1

    def test_state_space_magnitude(self, mu):
        count = count_env_policies(mu, 1, "transition-only")
        assert len(mu.states) * count * (1 + 1) == 488281250

    def test_unknown_convention(self, mu):
        with pytest.raises(InputError):
            count_env_policies(mu, 1, "both")
