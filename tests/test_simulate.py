import random

from cfpomdp import CollectionQuery, DeterministicPolicy, collection_prob, simulate

from helpers import random_det_policy


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
