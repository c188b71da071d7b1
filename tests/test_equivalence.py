import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from cfpomdp import (
    CollectionQuery,
    DeterministicPolicy,
    FiniteDist,
    History,
    InputError,
    Pomdp,
    PureLearningSpec,
    SimilarityError,
    StochasticPolicy,
    behavior_distribution,
    behavior_map,
    check_cf_equiv,
    check_equiv,
    collection_prob,
    cond_history_prob,
    determinize,
    enumerate_support,
    env_policy_posterior,
    history_prob,
    initial_behavior_map,
    minimize,
    reachable_histories,
    simulate,
    transfer,
)
from cfpomdp import equivalence
from cfpomdp.determinize import behavior_partition
from cfpomdp.equivalence import _witness_query

from helpers import (
    aliased_env,
    distribution_check_cf_equiv,
    behavior_collection_prob,
    behavior_dp,
    brute_check_equiv,
    brute_collection_prob,
    cf_witness_oracle,
    fresh_unrolling,
    random_cf_env,
    random_det_policy,
    random_pomdp,
    random_stochastic_policy,
    reachable_up_to,
    relabel_states,
    resolution_behavior_distribution,
    resolution_collection_prob,
    fresh_observation_pair,
    perturb_one_row,
    reversed_alphabets,
    split_initial_state,
    tiny_three_state,
    tiny_two_state,
    with_zero_observation_entries,
)


def const(p, m, action):
    return DeterministicPolicy.constant(p, m, action).as_stochastic()


def perturbed_mu(mu):
    trans = {key: dist for key, dist in mu.trans}
    trans[("s0", "a0")] = FiniteDist.of(
        [("s00", Fraction(1, 3)), ("s01", Fraction(2, 3))]
    )
    return Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, trans, dict(mu.obs))


def with_rows(p, trans=None, obs=None, states=None):
    return Pomdp.build(
        states or p.states, p.actions, p.observations, p.init,
        dict(p.trans) if trans is None else trans,
        dict(p.obs) if obs is None else obs,
    )


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


def equiv_witness(p, q, m):
    """check_equiv's witness in `brute_check_equiv`'s form (None if
    equivalent)."""
    w = check_equiv(p, q, m).witness
    return None if w is None else (w.h_long, w.h_short, w.policy, w.value_left, w.value_right)


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
                got = equiv_witness(p, q, m)
                assert got == brute_check_equiv(p, q, m), (p, q, m)
                verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_matches_prefix_pair_loop_on_harder_pairs(self, corpus):
        # unequal state counts, alphabets declared out of sorted order,
        # zero-probability observation entries, and pairs that first differ
        # at turn 1, 2 and 3
        rng = random.Random(606)
        envs = [corpus["mu"], corpus["mu-double-prime"]]
        envs += [random_cf_env(rng, n) for n in (2, 3, 4)]
        pairs = []
        for p in envs:
            pairs += [
                (p, split_initial_state(p)),
                (reversed_alphabets(p), with_zero_observation_entries(p)),
                (with_zero_observation_entries(p), perturb_one_row(p, rng)),
            ]
        pairs.append((envs[2], envs[4]))  # 2 states against 4
        for k in (1, 2, 3):
            for p in (corpus["mu"], envs[2], envs[3]):
                declared, unrolled = fresh_observation_pair(p, k)
                pairs += [(declared, unrolled), (reversed_alphabets(unrolled), declared)]
        assert any(len(p.states) != len(q.states) for p, q in pairs)
        lengths = set()
        for p, q in pairs:
            for m in range(4):
                got = equiv_witness(p, q, m)
                assert got == brute_check_equiv(p, q, m), (p, q, m)
                if got is not None:
                    lengths.add(got[0].length)
        assert lengths >= {1, 2, 3}

    def test_twins_with_mass_moved_across_cells(self, rng):
        # the minimized twin against the twin of a relabelled, start-split
        # copy whose initial mass moved between two behavior cells of one
        # o0: forward spans cover every twin state, so this is where the
        # witness search used to be slow; twins of more than 150 states are
        # skipped, because the brute-force oracle is quadratic in them
        m = 2
        lengths = set()
        for _ in range(8):
            p = random_cf_env(rng, rng.randint(2, 3))
            source = minimize(determinize(p, m), m)
            target = determinize(relabel_states(split_initial_state(p)), m)
            if len(target.states) > 150:
                continue
            first = {
                s: members[0] for _, members, _ in behavior_partition(target, m).cells
                for s in members
            }
            init = target.init
            pairs = [
                (s1, s2)
                for s1 in init.support
                for s2 in init.support
                if first[s1] < first[s2] and target.obs_dist(s1) == target.obs_dist(s2)
            ]
            if not pairs:
                continue
            s1, s2 = rng.choice(pairs)
            mass = min(init.prob(s1), init.prob(s2)) / 2
            moved = dict(init.entries)
            moved[s1] += mass
            moved[s2] -= mass
            q = Pomdp.build(target.states, target.actions, target.observations, moved,
                            dict(target.trans), dict(target.obs))
            assert check_equiv(source, target, m).equivalent
            got = equiv_witness(source, q, m)
            assert got is not None and got == brute_check_equiv(source, q, m)
            lengths.add(got[0].length)
        assert lengths >= {1, 2}

    def test_negative_horizon_rejected(self, mu):
        with pytest.raises(InputError):
            check_equiv(mu, mu, -1)

    def test_missing_rows_at_unreachable_states(self, mu, mu_prime):
        # a rowless extra state and, at m = 1, s00's transition rows are
        # never read
        dead = with_rows(mu, states=mu.states + ("dead",))
        no_s00 = with_rows(mu, trans={k: d for k, d in mu.trans if k[0] != "s00"})
        for p in (dead, no_s00):
            assert check_equiv(p, mu_prime, 1).equivalent
            assert equiv_witness(p, perturbed_mu(mu), 1) == equiv_witness(
                mu, perturbed_mu(mu), 1
            )
        assert check_equiv(dead, mu_prime, 3).equivalent

    def test_missing_row_at_reachable_state(self, mu):
        no_obs = with_rows(mu, obs={s: d for s, d in mu.obs if s != "s01"})
        no_trans = with_rows(mu, trans={k: d for k, d in mu.trans if k[0] != "s00"})
        for p, m in ((no_obs, 1), (no_trans, 2)):
            for left, right in ((p, mu), (mu, p), (p, perturbed_mu(mu))):
                with pytest.raises(InputError, match="no (observation|transition) row"):
                    check_equiv(left, right, m)

    def test_deep_horizon(self):
        # far too many histories to visit one by one
        p = aliased_env()
        assert check_equiv(p, relabel_states(split_initial_state(p)), 50).equivalent
        declared, unrolled = fresh_observation_pair(p, 30)
        for m in (30, 40):
            w = check_equiv(declared, unrolled, m).witness
            assert w.h_long.length == 30 and w.h_long.steps[-1][1] == "fresh"
            assert w.h_long.steps[:-1] == (("a0", "x"),) * 29
            pi = w.policy.as_stochastic()
            assert w.value_left == cond_history_prob(declared, w.h_long, w.h_short, pi) == 0
            assert w.value_right == cond_history_prob(unrolled, w.h_long, w.h_short, pi) > 0

    def test_pass_stops_at_the_failing_turn(self, monkeypatch):
        # past the failing turn only the rows are read: no span grows with m
        import cfpomdp.equivalence

        span = cfpomdp.equivalence._span
        calls = []
        monkeypatch.setattr(
            cfpomdp.equivalence, "_span", lambda vectors: calls.append(None) or span(vectors)
        )
        declared, unrolled = fresh_observation_pair(aliased_env(), 20)
        counts = []
        for m in (20, 21, 50):
            calls.clear()
            assert check_equiv(declared, unrolled, m).witness.h_long.length == 20
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]

    def test_initial_observation_odds_compared(self):
        # the odds of o0 differ, so a single agent already tells the pair
        # apart at length 0; the witness values are the unconditional
        # probabilities of o0
        p, q = o0_odds_pair()
        for m in range(4):
            verdict = check_equiv(p, q, m)
            assert not verdict.equivalent
            w = verdict.witness
            assert str(w.h_long) == str(w.h_short) == "x"
            assert (w.value_left, w.value_right) == (Fraction(1, 2), Fraction(1, 3))
            pi = w.policy.as_stochastic()
            assert history_prob(p, w.h_long, pi) == w.value_left
            assert history_prob(q, w.h_long, pi) == w.value_right


class TestCollectionProb:
    def test_empty_query_rejected(self):
        with pytest.raises(InputError, match="^a collection query needs at least one pair$"):
            CollectionQuery(())

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


@pytest.fixture(scope="module")
def cf_envs():
    """Nine seeded random environments of 2-4 states, with actions declared
    out of sorted order and several initial states."""
    rng = random.Random(5150)
    return [random_cf_env(rng, n) for n in (2, 3, 4) * 3]


def random_queries(p, m, rng):
    """1-3-pair collection queries with random stochastic policies; some
    histories are shorter than m and some are impossible."""
    reachable = reachable_up_to(p, m)
    policies = [random_stochastic_policy(p, m, rng) for _ in range(3)]
    queries = []
    for _ in range(4):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(reachable)
            if h.length < m and rng.random() < 0.4:
                h = h.extend(rng.choice(p.actions), rng.choice(p.observations))
            pairs.append((h, rng.choice(policies)))
        queries.append(CollectionQuery(tuple(pairs)))
    return queries


class TestBehaviorDistributionOracle:
    def test_matches_pushforward_on_corpus(self, corpus):
        for p in corpus.values():
            for m in (1, 2, 3):
                assert behavior_distribution(p, m) == resolution_behavior_distribution(p, m)

    def test_matches_pushforward_on_random_envs(self, cf_envs):
        for p in cf_envs:
            for m in (1, 2, 3):
                dist = behavior_distribution(p, m)
                assert dist == resolution_behavior_distribution(p, m), (p, m)
                assert all(bm.actions == tuple(sorted(p.actions)) for bm in dist)
        # the draws cover what the dynamic program has to get right
        assert {len(p.states) for p in cf_envs} == {2, 3, 4}
        assert any(list(p.actions) != sorted(p.actions) for p in cf_envs)
        assert all(len(p.init.support) >= 2 for p in cf_envs)
        assert {len(d.support) for p in cf_envs for _, d in p.obs} == {1, 2}

    def test_aliased_three_states_at_m4(self):
        # 91,828 reduced resolutions at m = 4, merged into 6,015 maps
        p = aliased_env()
        dist = behavior_distribution(p, 4)
        assert len(dist) == 6015
        assert sum(dist.values()) == 1
        assert check_cf_equiv(p, relabel_states(split_initial_state(p)), 4).equivalent


def oracle_cases(cf_envs):
    """(environment, horizon, support, behavior DP) for the collection
    oracles: every random environment at m = 1..3 and the aliased one at 3."""
    for p, m in [(p, m) for p in cf_envs for m in (1, 2, 3)] + [(aliased_env(), 3)]:
        yield p, m, enumerate_support(p, m), behavior_dp(p, m)


class TestCollectionProbOracle:
    def test_matches_resolution_sum(self, cf_envs):
        # and the unreduced sum, on the environments small enough for it
        rng = random.Random(77)
        brute_sized = [(tiny_two_state(), 2), (tiny_three_state(), 1)]
        values = set()
        for p, brute_m in [(p, 0) for p in cf_envs] + brute_sized:
            for m in (1, 2, 3):
                for q in random_queries(p, m, rng):
                    value = collection_prob(p, q, m)
                    assert value == resolution_collection_prob(p, q, m), (p, m, q)
                    if m <= brute_m:
                        assert value == brute_collection_prob(p, q.pairs, m)
                    values.add(value == 0)
        assert values == {True, False}  # impossible and possible collections

    def test_matches_both_oracles(self, cf_envs):
        # random queries and the full-tree witness query of each map, which
        # re-evaluates to the map's mass; both oracles pay per query, the DP
        # oracle per map and the resolution sum per resolution, so beyond
        # 250 maps a seeded sample of 24 stands for them, and the resolution
        # sum checks a seeded sample of 8 queries per case
        rng = random.Random(2024)
        checked = 0
        for p, m, support, table in oracle_cases(cf_envs):
            maps = list(behavior_distribution(p, m).items())
            if len(maps) > 250:
                maps = rng.sample(maps, 24)
            queries = [(q, None) for q in random_queries(p, m, rng)]
            queries += [(_witness_query(bm), mass) for bm, mass in maps]
            for q, mass in queries:
                value = collection_prob(p, q, m)
                assert isinstance(value, Fraction)
                assert value == behavior_collection_prob(p, q, m, table), (p, m, q)
                assert mass is None or value == mass
                checked += 1
            for q, _ in rng.sample(queries, min(8, len(queries))):
                assert collection_prob(p, q, m) == resolution_collection_prob(p, q, m, support)
        assert checked > 1000

    def test_long_horizon_without_the_behavior_dp(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("the behavior DP was built")

        monkeypatch.setattr(equivalence, "_behaviors", unavailable)
        p = aliased_env()
        h = History.parse("y" + " a0 x" * 40)
        pi = DeterministicPolicy.script(h).as_stochastic()
        value = collection_prob(p, CollectionQuery(((h, pi),)), 40)
        assert value == history_prob(p, h, pi) > 0
        # both agents leave s0 by a0 on one shared draw: s1 shows x, s0 shows y
        pairs = [(History.parse(text), const(p, 1, "a0")) for text in ("y a0 x", "y a0 y")]
        for pair in pairs:
            assert collection_prob(p, CollectionQuery((pair,)), 40) == Fraction(1, 2)
        assert collection_prob(p, CollectionQuery(tuple(pairs)), 40) == 0


def cf_outcome(verdict):
    """A verdict as (equivalent, witness histories, left value, right value)."""
    w = verdict.witness
    if w is None:
        return verdict.equivalent, None, None, None
    return verdict.equivalent, [h for h, _ in w.query.pairs], w.value_left, w.value_right


class TestCheckCfEquivOracle:
    def test_matches_distribution_comparison(self, cf_envs):
        rng = random.Random(1871)
        cases = [(aliased_env(), relabel_states(split_initial_state(aliased_env())), 3)]
        for i, p in enumerate(cf_envs):
            # m = 3 on the first 2-, 3- and 4-state environments
            for m in (1, 2, 3) if i < 3 else (1, 2):
                cases.append((p, relabel_states(split_initial_state(p)), m))
                cases.append((p, perturb_one_row(p, rng), m))
                cases.append((reversed_alphabets(p), p, m))
                cases.append((reversed_alphabets(perturb_one_row(p, rng)), p, m))
                # another random environment over the same actions
                for q in cf_envs[i + 1:]:
                    if set(q.actions) == set(p.actions):
                        cases.append((p, q, m))
                        break
        inequivalent = 0
        for p, q, m in cases:
            for left, right in ((p, q), (q, p)):
                got = check_cf_equiv(left, right, m)
                assert cf_outcome(got) == cf_outcome(distribution_check_cf_equiv(left, right, m))
                if not got.equivalent:
                    inequivalent += 1
                    w = got.witness
                    assert isinstance(w.value_left, Fraction) and isinstance(w.value_right, Fraction)
        assert inequivalent >= 50 and len(cases) * 2 - inequivalent >= 50

    def test_witness_is_the_least_tied_map(self, cf_envs):
        # the whole witness (query and both masses) against every tied map
        # unfolded; against a fresh unrolling one side has mass 0 on nearly
        # every map, so nearly every map is tied, and a reweighted start
        # keeps both masses positive
        rng = random.Random(2609)
        p = aliased_env()
        cases = [(p, fresh_unrolling(p, 1), 3), (reversed_alphabets(p), fresh_unrolling(p, 2), 3)]
        for i, p in enumerate(cf_envs):
            for m in (1, 2, 3) if i < 3 else (1, 2):
                for k in (1, 2):
                    cases.append((p, fresh_unrolling(p, k), m))
                    cases.append((reversed_alphabets(fresh_unrolling(p, k)), p, m))
                cases.append((reversed_alphabets(p), perturb_one_row(p, rng), m))
                cases.append((p, reversed_alphabets(reweighted_start(p)), m))
        low_zero = inequivalent = 0
        for p, q, m in cases:
            for left, right in ((p, q), (q, p)):
                got = check_cf_equiv(left, right, m)
                assert got.witness == cf_witness_oracle(left, right, m)
                if not got.equivalent:
                    inequivalent += 1
                    low_zero += min(got.witness.value_left, got.witness.value_right) == 0
        assert low_zero >= 100 and inequivalent - low_zero >= 10

    def test_equivalent_inputs_build_no_behavior_map(self, monkeypatch, mu, mu_prime):
        def unavailable(*args):
            raise AssertionError("a behavior map was built")

        monkeypatch.setattr(equivalence, "BehaviorMap", unavailable)
        monkeypatch.setattr(equivalence, "behavior_distribution", unavailable)
        p = aliased_env()
        assert check_cf_equiv(p, relabel_states(split_initial_state(p)), 3).equivalent
        assert check_cf_equiv(reversed_alphabets(p), p, 3).equivalent
        assert check_cf_equiv(mu, mu_prime, 2).equivalent


class TestCfGuards:
    def test_missing_rows_at_unreachable_states(self, mu, mu_prime):
        # a rowless extra state and, at m = 1, s00's transition rows are
        # never visited
        dead = with_rows(mu, states=mu.states + ("dead",))
        no_s00 = with_rows(mu, trans={k: d for k, d in mu.trans if k[0] != "s00"})
        for p in (dead, no_s00):
            assert behavior_distribution(p, 1) == behavior_distribution(mu, 1)
            assert check_cf_equiv(p, mu_prime, 1).equivalent
        assert check_cf_equiv(dead, mu_prime, 2).equivalent

    def test_missing_row_at_reachable_state(self, mu):
        no_obs = with_rows(mu, obs={s: d for s, d in mu.obs if s != "s01"})
        no_trans = with_rows(mu, trans={k: d for k, d in mu.trans if k[0] != "s00"})
        query = CollectionQuery(((History.parse("o0"), const(mu, 1, "a0")),))
        for p, m in ((no_obs, 1), (no_trans, 2)):
            with pytest.raises(InputError, match="no (observation|transition) row"):
                behavior_distribution(p, m)
            with pytest.raises(InputError, match="no (observation|transition) row"):
                check_cf_equiv(p, mu, m)
            with pytest.raises(InputError, match="no (observation|transition) row"):
                collection_prob(p, query, m)

    def test_collection_unknown_symbol(self, mu):
        for text in ("o0 a0 nowhere", "o0 zz s00", "void"):
            query = CollectionQuery(((History.parse(text), const(mu, 1, "a0")),))
            with pytest.raises(InputError, match="unknown"):
                collection_prob(mu, query, 1)

    def test_collection_unknown_symbol_in_any_pair_order(self, mu):
        # an impossible pair ahead of the bad one no longer hides it
        empty = DeterministicPolicy.script(History.parse("s00")).as_stochastic()
        impossible = (History.parse("s00"), empty)
        bad = (History.parse("o0 zz s00"), const(mu, 1, "a0"))
        for pairs in ((impossible, bad), (bad, impossible)):
            with pytest.raises(InputError, match="unknown action 'zz'"):
                collection_prob(mu, CollectionQuery(pairs), 1)

    def test_collection_undefined_policy(self, mu):
        first = DeterministicPolicy.script(History.parse("o0 a0 s00")).as_stochastic()
        reached = CollectionQuery(((History.parse("o0 a0 s00 a1 s00"), first),))
        with pytest.raises(InputError, match="policy undefined"):
            collection_prob(mu, reached, 2)
        # a prefix that no resolution reaches is never read
        unreached = CollectionQuery(((History.parse("o0 a0 o0 a1 s00"), first),))
        assert collection_prob(mu, unreached, 2) == 0
        # nor is one that some resolution reaches when none generates the
        # whole history (this raised while the policy was read map by map)
        generated_by_none = CollectionQuery(((History.parse("o0 a0 s00 a1 s01"), first),))
        assert collection_prob(mu, generated_by_none, 2) == 0
        # nor any policy while some other paired history is generated by no map
        assert collection_prob(mu, CollectionQuery(reached.pairs + unreached.pairs), 2) == 0

    def test_zero_turns_rejected(self, mu):
        query = CollectionQuery(((History.parse("o0"), const(mu, 1, "a0")),))
        for call in (
            lambda: behavior_distribution(mu, 0),
            lambda: check_cf_equiv(mu, mu, 0),
            lambda: collection_prob(mu, query, 0),
        ):
            with pytest.raises(InputError, match="turn count must be >= 1, got 0"):
                call()


def test_queried_environment_is_freed():
    # state names no other test uses, so no equal environment is queried
    p = relabel_states(tiny_two_state(), prefix="freed_")
    ref = weakref.ref(p)
    h = History.parse("x a y")
    pi = StochasticPolicy.uniform(p, 1)
    enumerate_support(p, 1)
    assert check_cf_equiv(p, relabel_states(p), 1).equivalent
    collection_prob(p, CollectionQuery(((h, pi),)), 1)
    env_policy_posterior(p, h, pi, 1)
    del p, pi
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "name",
    ["check_cf_equiv", "determinize", "simulate", "enumerate_support", "env_policy_posterior",
     "collection_prob", "behavior_distribution", "behavior_partition", "minimize", "transfer",
     "behavior_map", "initial_behavior_map"],
)
def test_public_call_leaves_no_cycles(name, mu, mu_double_prime, mu_star):
    # memos and self-referring closures are freed by reference counting,
    # not left for the cyclic collector
    pi = DeterministicPolicy.constant(mu, 2, "a0")
    h = History.parse("o0 a0 s00")
    det = determinize(mu, 2)
    spec = PureLearningSpec.of(mu_star, {s: 1 for s in mu_star.init.support}, 1)
    target = minimize(determinize(mu, 1), 1)
    ep = enumerate_support(mu, 2)[0][0]
    calls = {
        "check_cf_equiv": lambda: check_cf_equiv(mu, mu_double_prime, 2),
        "determinize": lambda: determinize(mu, 2),
        "simulate": lambda: simulate(mu, 2, [pi], 10, 1),
        "enumerate_support": lambda: enumerate_support(mu_double_prime, 2),
        "env_policy_posterior": lambda: env_policy_posterior(mu, h, pi.as_stochastic(), 2),
        "collection_prob": lambda: collection_prob(
            mu, CollectionQuery(((h, pi.as_stochastic()),)), 2),
        "behavior_distribution": lambda: behavior_distribution(mu_double_prime, 2),
        "behavior_partition": lambda: behavior_partition(det, 2),
        "minimize": lambda: minimize(det, 2),
        "transfer": lambda: transfer(spec, target, 1),
        "behavior_map": lambda: behavior_map(mu, ep, 2),
        "initial_behavior_map": lambda: initial_behavior_map(det, det.init.support[0], 2),
    }
    gc.collect()
    gc.disable()
    try:
        calls[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def scripted(text):
    """A history with the policy playing its own actions, which reads no row."""
    h = History.parse(text)
    return h, DeterministicPolicy.script(h).as_stochastic()


ROW_READERS = {
    "enumerate_support": lambda p, twin: enumerate_support(p, 3),
    "behavior_distribution": lambda p, twin: behavior_distribution(p, 3),
    "check_cf_equiv": lambda p, twin: check_cf_equiv(p, twin, 3),
    "check_equiv": lambda p, twin: check_equiv(p, twin, 4),
    "reachable_histories": lambda p, twin: reachable_histories(p, 4),
    "collection_prob": lambda p, twin: collection_prob(
        p, CollectionQuery((scripted("y a0 x a0 x"), scripted("y a1 x"))), 6),
    "determinize": lambda p, twin: determinize(p, 3),
    "env_policy_posterior": lambda p, twin: env_policy_posterior(p, *scripted("y a0 x"), 3),
}


@pytest.mark.parametrize("engine", ROW_READERS)
def test_reads_each_row_once_per_call(monkeypatch, engine):
    # every horizon-m engine reads its rows through one sweep: no row of
    # the aliased env, or of its split twin for the verdicts, is read twice
    p = aliased_env()
    twin = relabel_states(split_initial_state(p))
    reads = Counter()

    def counted(read):
        def counting(self, *key):
            reads[(id(self), *key)] += 1
            return read(self, *key)
        return counting

    for name in ("obs_dist", "trans_dist"):
        monkeypatch.setattr(Pomdp, name, counted(getattr(Pomdp, name)))
    ROW_READERS[engine](p, twin)
    assert reads and max(reads.values()) == 1
    if engine in ("check_cf_equiv", "check_equiv"):
        assert {env for env, *_ in reads} == {id(p), id(twin)}
