from fractions import Fraction

import pytest

from cfpomdp import (
    CollectionQuery,
    DeterministicPolicy,
    FiniteDist,
    History,
    InputError,
    Pomdp,
    SimilarityError,
    StochasticPolicy,
    behavior_distribution,
    check_cf_equiv,
    check_equiv,
    collection_prob,
    cond_history_prob,
    determinize,
    history_prob,
)

from helpers import (
    brute_check_equiv,
    brute_collection_prob,
    random_det_policy,
    random_pomdp,
    random_stochastic_policy,
    reachable_up_to,
    relabel_states,
    perturb_one_row,
    split_initial_state,
    tiny_three_state,
    tiny_two_state,
)


def const(p, m, action):
    return DeterministicPolicy.constant(p, m, action).as_stochastic()


def perturbed_mu(mu):
    trans = {key: dist for key, dist in mu.trans}
    trans[("s0", "a0")] = FiniteDist.of(
        [("s00", Fraction(1, 3)), ("s01", Fraction(2, 3))]
    )
    return Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, trans, dict(mu.obs))


class TestCheckEquiv:
    def test_mu_vs_double_prime(self, mu, mu_double_prime):
        assert check_equiv(mu, mu_double_prime, 1).equivalent

    def test_mu_vs_prime(self, mu, mu_prime):
        assert check_equiv(mu, mu_prime, 1).equivalent

    def test_perturbed_mu_detected(self, mu):
        verdict = check_equiv(mu, perturbed_mu(mu), 1)
        assert not verdict.equivalent
        w = verdict.witness
        assert str(w.h_long) == "o0 a0 s00"
        assert str(w.h_short) == "o0"
        assert {w.value_left, w.value_right} == {Fraction(1, 2), Fraction(1, 3)}
        # the witness re-evaluates to the reported values
        pi = w.policy.as_stochastic()
        assert cond_history_prob(mu, w.h_long, w.h_short, pi) == w.value_left
        assert cond_history_prob(perturbed_mu(mu), w.h_long, w.h_short, pi) == w.value_right

    def test_reflexive_and_symmetric(self, corpus):
        for p in corpus.values():
            assert check_equiv(p, p, 2).equivalent
        pairs = list(corpus.values())
        for p1 in pairs:
            for p2 in pairs:
                assert (
                    check_equiv(p1, p2, 1).equivalent
                    == check_equiv(p2, p1, 1).equivalent
                )

    def test_dissimilar_alphabets_rejected(self, mu):
        other = Pomdp.build(
            ("s",), ("b",), ("x",),
            {"s": Fraction(1)},
            {("s", "b"): {"s": Fraction(1)}},
            {"s": {"x": Fraction(1)}},
        )
        with pytest.raises(SimilarityError):
            check_equiv(mu, other, 1)

    def test_reachability_asymmetry_detected(self, mu):
        # shift the initial observation: conditionals on the length-0
        # history no longer agree
        obs = {s: dist for s, dist in mu.obs}
        obs["s0"] = FiniteDist.of([("o0", Fraction(1, 2)), ("s00", Fraction(1, 2))])
        widened = Pomdp.build(
            mu.states, mu.actions, mu.observations, mu.init, dict(mu.trans), obs
        )
        assert not check_equiv(mu, widened, 1).equivalent

    def test_stochastic_policy_spot_check(self, mu, mu_double_prime, rng):
        # equal verdicts extend to stochastic policies by multilinearity
        for _ in range(10):
            pi = random_stochastic_policy(mu, 2, rng)
            h_long = rng.choice(reachable_up_to(mu, 2))
            h_short = h_long.prefix(rng.randint(0, h_long.length))
            assert cond_history_prob(mu, h_long, h_short, pi) == cond_history_prob(
                mu_double_prime, h_long, h_short, pi
            )


def reweighted_start(p):
    """Double the initial odds of the first initial state: the o0-odds
    variant of ROADMAP item 2 when that state's observations differ."""
    first = p.init.support[0]
    scaled = [(s, w * (2 if s == first else 1)) for s, w in p.init.entries]
    total = sum(w for _, w in scaled)
    return Pomdp.build(
        p.states, p.actions, p.observations,
        FiniteDist.of([(s, w / total) for s, w in scaled]),
        dict(p.trans), dict(p.obs),
    )


def o0_odds_pair():
    """Two self-looping states, each emitting its own observation, with
    start odds 1/2:1/2 and 1/3:2/3."""
    def env(init):
        return Pomdp.build(
            ("u", "v"), ("a", "b"), ("x", "y"), init,
            {(s, a): {s: 1} for s in ("u", "v") for a in ("a", "b")},
            {"u": {"x": 1}, "v": {"y": 1}},
        )

    return env({"u": Fraction(1, 2), "v": Fraction(1, 2)}), env(
        {"u": Fraction(1, 3), "v": Fraction(2, 3)}
    )


class TestCheckEquivOracle:
    def test_matches_prefix_pair_loop(self, corpus, rng):
        # same verdict and same whole witness as the brute-force prefix-pair
        # loop, on the corpus and on random environments of <= 3 states,
        # each against its twin, a perturbed row, a neighbour and its
        # reweighted start
        alphabets = (("a0", "a1"), ("x0", "x1"))
        families = [
            list(corpus.values()),
            [random_pomdp(rng, max_states=3, alphabets=alphabets) for _ in range(6)],
        ]
        pairs = [o0_odds_pair()]
        for envs in families:
            for i, p in enumerate(envs):
                pairs += [
                    (p, relabel_states(split_initial_state(p))),
                    (p, perturb_one_row(p, rng)),
                    (p, envs[(i + 1) % len(envs)]),
                    (p, reweighted_start(p)),
                ]
        verdicts = set()
        for p, q in pairs:
            for m in range(4):
                verdict = check_equiv(p, q, m)
                w = verdict.witness
                got = None if w is None else (
                    w.h_long, w.h_short, w.policy, w.value_left, w.value_right
                )
                assert got == brute_check_equiv(p, q, m), (p, q, m)
                verdicts.add(verdict.equivalent)
        assert verdicts == {True, False}

    def test_negative_horizon_rejected(self, mu):
        with pytest.raises(InputError):
            check_equiv(mu, mu, -1)


class TestCollectionProb:
    def test_mu_pinning_both_branches(self, mu):
        query = CollectionQuery((
            (History.parse("o0 a0 s00"), const(mu, 1, "a0")),
            (History.parse("o0 a1 s11"), const(mu, 1, "a1")),
        ))
        assert collection_prob(mu, query, 1) == Fraction(1, 4)

    def test_mu_double_prime_jointly_impossible(self, mu_double_prime):
        query = CollectionQuery((
            (History.parse("o0 a0 s00"), const(mu_double_prime, 1, "a0")),
            (History.parse("o0 a1 s11"), const(mu_double_prime, 1, "a1")),
        ))
        assert collection_prob(mu_double_prime, query, 1) == 0

    def test_single_pair(self, mu):
        query = CollectionQuery(((History.parse("o0 a0 s00"), const(mu, 1, "a0")),))
        assert collection_prob(mu, query, 1) == Fraction(1, 2)

    def test_singleton_matches_history_prob(self, rng):
        for _ in range(4):
            p = random_pomdp(rng)
            for m in (1, 2):
                pi = random_stochastic_policy(p, m, rng)
                for h in reachable_up_to(p, m)[:8]:
                    query = CollectionQuery(((h, pi),))
                    assert collection_prob(p, query, m) == history_prob(p, h, pi)

    @pytest.mark.parametrize("env_builder,m", [
        (tiny_two_state, 1), (tiny_two_state, 2), (tiny_three_state, 1),
    ])
    def test_matches_unreduced_sum(self, env_builder, m, rng):
        p = env_builder()
        for _ in range(6):
            n = rng.randint(1, 3)
            pairs = tuple(
                (
                    rng.choice(reachable_up_to(p, m)),
                    random_stochastic_policy(p, m, rng)
                    if rng.random() < 0.5
                    else random_det_policy(p, m, rng).as_stochastic(),
                )
                for _ in range(n)
            )
            assert collection_prob(p, CollectionQuery(pairs), m) == brute_collection_prob(
                p, pairs, m
            )

    def test_appending_a_pair_never_increases(self, mu, rng):
        base_pairs = (
            (History.parse("o0 a0 s00"), const(mu, 1, "a0")),
        )
        extended = base_pairs + ((History.parse("o0 a1 s10"), const(mu, 1, "a1")),)
        assert collection_prob(mu, CollectionQuery(extended), 1) <= collection_prob(
            mu, CollectionQuery(base_pairs), 1
        )

    def test_horizon_guard(self, mu):
        query = CollectionQuery(((History.parse("o0 a0 s00"), const(mu, 1, "a0")),))
        with pytest.raises(Exception):
            collection_prob(mu, query, 0)


class TestBehaviorDistribution:
    def test_mu_four_quarters(self, mu):
        dist = behavior_distribution(mu, 1)
        assert len(dist) == 4
        assert all(v == Fraction(1, 4) for v in dist.values())

    def test_mu_prime_same_maps(self, mu, mu_prime):
        assert behavior_distribution(mu, 1) == behavior_distribution(mu_prime, 1)

    def test_mu_double_prime_two_halves(self, mu_double_prime):
        dist = behavior_distribution(mu_double_prime, 1)
        assert len(dist) == 2
        assert all(v == Fraction(1, 2) for v in dist.values())

    def test_masses_sum_to_one(self, corpus, rng):
        for p in list(corpus.values()) + [random_pomdp(rng)]:
            for m in (1, 2):
                assert sum(behavior_distribution(p, m).values()) == 1


class TestCheckCfEquiv:
    def test_mu_vs_prime(self, mu, mu_prime):
        assert check_cf_equiv(mu, mu_prime, 1).equivalent
        assert check_cf_equiv(mu, mu_prime, 2).equivalent

    def test_mu_vs_double_prime_witness(self, mu, mu_double_prime):
        verdict = check_cf_equiv(mu, mu_double_prime, 1)
        assert not verdict.equivalent
        w = verdict.witness
        assert (w.value_left, w.value_right) == (Fraction(1, 4), Fraction(0))
        # the witness collection re-evaluates to exactly those values
        assert collection_prob(mu, w.query, 1) == Fraction(1, 4)
        assert collection_prob(mu_double_prime, w.query, 1) == 0

    def test_reflexivity(self, corpus):
        for p in corpus.values():
            for m in (1, 2):
                assert check_cf_equiv(p, p, m).equivalent

    def test_symmetry(self, mu, mu_double_prime):
        fwd = check_cf_equiv(mu, mu_double_prime, 1)
        back = check_cf_equiv(mu_double_prime, mu, 1)
        assert not fwd.equivalent and not back.equivalent
        assert (fwd.witness.value_left, fwd.witness.value_right) == (
            back.witness.value_right,
            back.witness.value_left,
        )

    def test_dissimilar_alphabets_rejected(self, mu):
        other = Pomdp.build(
            ("s",), ("a0", "a1"), ("weird",),
            {"s": Fraction(1)},
            {("s", "a0"): {"s": Fraction(1)}, ("s", "a1"): {"s": Fraction(1)}},
            {"s": {"weird": Fraction(1)}},
        )
        with pytest.raises(SimilarityError):
            check_cf_equiv(mu, other, 1)

    def test_implies_equiv(self, corpus, rng):
        # counterfactual equivalence is the stronger notion
        candidates = []
        for _ in range(8):
            p = random_pomdp(rng)
            candidates.append((p, determinize(p, 1), 1))
            candidates.append((p, relabel_states(p), 2))
            candidates.append((p, split_initial_state(p), 1))
            candidates.append((p, perturb_one_row(p, rng), 1))
        candidates.append((corpus["mu"], corpus["mu-prime"], 1))
        candidates.append((corpus["mu"], corpus["mu-double-prime"], 1))
        seen_equivalent = 0
        for p1, p2, m in candidates:
            if check_cf_equiv(p1, p2, m).equivalent:
                seen_equivalent += 1
                assert check_equiv(p1, p2, m).equivalent
        assert seen_equivalent >= 10  # the implication is not vacuous

    def test_oracle_agreement_on_equivalent_pairs(self, rng):
        # when the verdict says equivalent, every collection evaluates equal
        for _ in range(3):
            p = random_pomdp(rng)
            for other, m in [
                (determinize(p, 1), 1),
                (relabel_states(p), 1),
                (split_initial_state(p), 1),
            ]:
                assert check_cf_equiv(p, other, m).equivalent
                for _ in range(5):
                    n = rng.randint(1, 3)
                    pairs = tuple(
                        (
                            rng.choice(reachable_up_to(p, m)),
                            random_stochastic_policy(p, m, rng),
                        )
                        for _ in range(n)
                    )
                    query = CollectionQuery(pairs)
                    assert collection_prob(p, query, m) == collection_prob(
                        other, query, m
                    )

    def test_witnesses_reevaluate_to_unequal_values(self, rng):
        found = 0
        for _ in range(16):
            p = random_pomdp(rng)
            q = perturb_one_row(p, rng)
            verdict = check_cf_equiv(p, q, 1)
            if verdict.equivalent:
                continue
            found += 1
            w = verdict.witness
            left = collection_prob(p, w.query, 1)
            right = collection_prob(q, w.query, 1)
            assert (left, right) == (w.value_left, w.value_right)
            assert left != right
        assert found >= 3


class TestStochasticReduction:
    def test_stochastic_collection_is_convex_combination(self, mu, mu_prime, rng):
        # equality of behavior distributions settles stochastic queries too
        for _ in range(6):
            pairs = tuple(
                (
                    rng.choice(reachable_up_to(mu, 1)),
                    random_stochastic_policy(mu, 1, rng),
                )
                for _ in range(rng.randint(1, 3))
            )
            query = CollectionQuery(pairs)
            assert collection_prob(mu, query, 1) == collection_prob(mu_prime, query, 1)
