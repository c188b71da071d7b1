import random
import sys
from fractions import Fraction

import pytest

from cfpomdp import (
    CollectionQuery,
    DeterministicPolicy,
    History,
    InputError,
    collection_prob,
    enumerate_support,
    simulate,
)

from helpers import random_cf_env, random_det_policy, random_pomdp, rollout


def resolution_simulation(p, m, policies, episodes, seed):
    """Sorted (joint, count, exact) outcomes, sampling the enumerated
    support with `simulate`'s draws and rolling each policy through the
    drawn resolution."""
    support = enumerate_support(p, m)
    cumulative, running = [], Fraction(0)
    for _, prob in support:
        running += prob
        cumulative.append(running)
    exact, counts = {}, {}
    for ep, prob in support:
        joint = tuple(rollout(p, ep, pi) for pi in policies)
        exact[joint] = exact.get(joint, Fraction(0)) + prob
    rng = random.Random(seed)
    for _ in range(episodes):
        draw = Fraction(rng.getrandbits(64), 2**64)
        ep = support[next(i for i, c in enumerate(cumulative) if draw < c)][0]
        joint = tuple(rollout(p, ep, pi) for pi in policies)
        counts[joint] = counts.get(joint, 0) + 1
    return tuple(
        (joint, counts[joint], exact[joint])
        for joint in sorted(counts, key=lambda js: tuple(str(h) for h in js))
    )


def test_matches_enumerated_resolutions(corpus):
    rng = random.Random(2718)
    envs = list(corpus.values()) + [random_pomdp(rng, horizon_cap=3) for _ in range(3)]
    envs += [random_cf_env(rng, 3, resolution_cap=400)]
    for p in envs:
        for m in (1, 2, 3):
            for agents in (1, 2, 3):
                policies = [random_det_policy(p, m, rng) for _ in range(agents)]
                seed = rng.randrange(1000)
                result = simulate(p, m, policies, episodes=150, seed=seed)
                assert result.outcomes == resolution_simulation(p, m, policies, 150, seed)


def test_exact_column_is_the_collection_probability(corpus):
    rng = random.Random(31)
    for p in corpus.values():
        for m in (1, 2):
            policies = [DeterministicPolicy.constant(p, m, a) for a in p.actions]
            policies.append(random_det_policy(p, m, rng))
            result = simulate(p, m, policies, episodes=400, seed=rng.randrange(1000))
            assert sum(count for _, count, _ in result.outcomes) == 400
            for joint, _, exact in result.outcomes:
                query = CollectionQuery(
                    tuple((h, pi.as_stochastic()) for h, pi in zip(joint, policies))
                )
                assert exact == collection_prob(p, query, m) > 0


def test_walks_the_behavior_nodes_without_a_twin(mu, monkeypatch):
    # simulate reads `_behaviors`' nodes: no deterministic twin is built
    def twin(*args):
        raise AssertionError("a deterministic twin was built")

    monkeypatch.setattr(sys.modules["cfpomdp.determinize"], "determinize", twin)
    monkeypatch.setattr(sys.modules["cfpomdp.simulate"], "determinize", twin, raising=False)
    policies = [DeterministicPolicy.constant(mu, 2, a) for a in mu.actions]
    result = simulate(mu, 2, policies, episodes=200, seed=5)
    assert result.outcomes == resolution_simulation(mu, 2, policies, 200, 5)


def test_action_outside_the_behavior_map(mu):
    stray = DeterministicPolicy(((History.parse("o0"), "zz"),))
    with pytest.raises(InputError, match="^action 'zz' outside the behavior map$"):
        simulate(mu, 1, [DeterministicPolicy.constant(mu, 1, "a0"), stray], 10, 1)


def test_no_policies_rejected(mu):
    with pytest.raises(InputError, match="^need at least one agent policy$"):
        simulate(mu, 1, [], 10, 1)


def test_no_episodes_rejected(mu):
    with pytest.raises(InputError, match="^episodes must be >= 1, got 0$"):
        simulate(mu, 1, [DeterministicPolicy.constant(mu, 1, "a0")], 0, 1)
