import hashlib
import random
from fractions import Fraction

import pytest

from cfpomdp import (
    DeterminismError,
    DeterministicPolicy,
    FiniteDist,
    InputError,
    Pomdp,
    behavior_distribution,
    behavior_map,
    behavior_partition,
    check_cf_equiv,
    determinize,
    enumerate_det_policies,
    enumerate_support,
    initial_behavior_map,
    is_deterministic,
    minimize,
    serialize_env,
    simulate,
    validate,
)
from cfpomdp import envpolicy

from helpers import (
    aliased_env,
    det_rollouts,
    random_cf_env,
    random_pomdp,
    resolution_twin,
    reversed_alphabets,
    rollout,
    tiny_two_state,
    with_zero_observation_entries,
)


def fully_deterministic_env():
    return Pomdp.build(
        ("s", "t"), ("a", "b"), ("x", "y"),
        {"s": Fraction(1)},
        {
            ("s", "a"): {"t": Fraction(1)},
            ("s", "b"): {"s": Fraction(1)},
            ("t", "a"): {"t": Fraction(1)},
            ("t", "b"): {"s": Fraction(1)},
        },
        {"s": {"x": Fraction(1)}, "t": {"y": Fraction(1)}},
    )


def grouped_by_behavior_map(p, m):
    """Oracle cells: initial states grouped by their brute-force rollouts of
    every action sequence, cells ordered by first member and members by
    declaration order, each with its rollouts and mass."""
    groups = {}
    for s in p.init.support:
        groups.setdefault(det_rollouts(p, s, m), []).append(s)
    cells = sorted(
        (
            (histories, tuple(sorted(members, key=p.state_index.__getitem__)))
            for histories, members in groups.items()
        ),
        key=lambda cell: p.state_index[cell[1][0]],
    )
    return tuple(
        (histories, members, sum((p.init.prob(s) for s in members), Fraction(0)))
        for histories, members in cells
    )


class TestIsDeterministic:
    def test_mu_is_not(self, mu):
        assert not is_deterministic(mu)

    def test_mu_star_is(self, mu_star):
        assert is_deterministic(mu_star)

    def test_constructed_is(self, mu):
        assert is_deterministic(determinize(mu, 1))

    def test_spread_initial_distribution_allowed(self, mu_star):
        # only transitions and observations must be point masses
        assert not mu_star.init.is_point()
        assert is_deterministic(mu_star)


class TestDeterminize:
    def test_mu_initial_states(self, mu):
        d = determinize(mu, 1)
        assert len(d.init.support) == 4
        assert all(w == Fraction(1, 4) for _, w in d.init.entries)
        assert validate(d) == []

    def test_mu_counterfactually_equivalent(self, mu):
        assert check_cf_equiv(mu, determinize(mu, 1), 1).equivalent

    def test_fully_deterministic_input_collapses(self):
        p = fully_deterministic_env()
        d = determinize(p, 2)
        assert len(d.init.support) == 1
        assert d.init.entries[0][1] == 1

    def test_shared_alphabets(self, mu):
        d = determinize(mu, 1)
        assert d.actions == mu.actions
        assert d.observations == mu.observations

    def test_initial_states_mirror_support(self, corpus, rng):
        # one initial state per reduced resolution, with its probability
        for p in list(corpus.values()) + [random_pomdp(rng)]:
            for m in (1, 2):
                d = determinize(p, m)
                support = enumerate_support(p, m)
                assert len(d.init.support) == len(support)
                assert [w for _, w in d.init.entries] == [pr for _, pr in support]

    def test_rollout_correspondence(self, mu, rng):
        # replaying a resolution from its image initial state produces the
        # same histories, policy by policy
        for p in [mu, tiny_two_state(), random_pomdp(rng)]:
            for m in (1, 2):
                d = determinize(p, m)
                support = enumerate_support(p, m)
                for (ep, prob), start in zip(support, d.init.support):
                    assert behavior_map(p, ep, m) == initial_behavior_map(d, start, m)

    def test_equivalence_property_small_sample(self, corpus, rng):
        environments = list(corpus.values()) + [random_pomdp(rng) for _ in range(4)]
        for p in environments:
            for m in (1, 2):
                d = determinize(p, m)
                assert is_deterministic(d)
                assert check_cf_equiv(p, d, m).equivalent

    def test_det_rollouts_match_source_rollouts(self, mu):
        # every policy sees the same observations in either presentation
        d = determinize(mu, 1)
        support = enumerate_support(mu, 1)
        det_support = enumerate_support(d, 1)
        for (ep, _), (det_ep, _) in zip(support, det_support):
            for pi in enumerate_det_policies(mu, 1):
                assert rollout(mu, ep, pi) == rollout(d, det_ep, pi)


class TestResolutionTwinOracle:
    """`determinize` reads the twin off the behavior dynamic program; the
    oracle builds one labelled behavior tree per enumerated resolution."""

    def test_files_match(self, corpus):
        rng = random.Random(5150)
        envs = list(corpus.values())
        envs += [random_pomdp(rng, horizon_cap=3) for _ in range(4)]
        envs += [random_cf_env(rng, n, resolution_cap=600) for n in (2, 3, 3)]
        envs += [variant(p) for p in envs[4:] for variant in
                 (with_zero_observation_entries, reversed_alphabets)]
        for p in envs:
            for m in (1, 2, 3):
                assert serialize_env(determinize(p, m)) == serialize_env(resolution_twin(p, m))

    def test_missing_row_at_unreachable_state(self, mu):
        # a declared state that nothing reaches has no rows at all
        p = Pomdp.build(
            mu.states + ("dead",), mu.actions, mu.observations, mu.init, dict(mu.trans), dict(mu.obs)
        )
        for m in (1, 2):
            assert serialize_env(determinize(p, m)) == serialize_env(resolution_twin(p, m))

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
                resolution_twin(p, 2)
            with pytest.raises(InputError) as got:
                determinize(p, 2)
            assert str(got.value) == str(expected.value)

    def test_no_resolution_enumerated(self, mu, monkeypatch):
        def refuse(p, m):
            raise AssertionError("resolutions enumerated")

        monkeypatch.setattr(envpolicy, "_iter_support", refuse)
        pi = DeterministicPolicy.constant(mu, 2, "a1")
        assert is_deterministic(determinize(mu, 2))
        assert simulate(mu, 2, [pi], episodes=10, seed=3).episodes == 10


class TestTwinRows:
    # sha256 of the aliased env's twin files as written with a fresh object per row
    DIGESTS = {
        1: "1dc1dca13936fb29af203700f87c09d285c29ee867c414d87c971e9fb3a285e6",
        2: "8ece2d74b5938312f482074b0e52e1c1c7a4f0949624dfaa1986e61627adfa42",
        3: "bb5f31a6289dff8cfe362cdb39e905abd86b0d2ad26c4928d3569770f8ad84e5",
        4: "3747bf32475e174141bb0f6be0461b73a95eca6bd531fc332acf7bde4e438612",
    }

    def test_one_row_object_per_target(self):
        twin = determinize(aliased_env(), 2)
        for rows in (twin.trans, twin.obs):
            by_target = {}
            for _, dist in rows:
                by_target.setdefault(dist.entries[0][0], set()).add(id(dist))
            assert all(len(ids) == 1 for ids in by_target.values())
            assert len({id(dist) for _, dist in rows}) == len(by_target)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_file_unchanged(self, m):
        text = serialize_env(determinize(aliased_env(), m))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[m]


class TestInitialBehaviorMap:
    def test_mu_star_cells(self, mu_star):
        bm00 = initial_behavior_map(mu_star, "s0^00", 1)
        assert [str(h) for h in bm00.histories()] == ["o0 a0 s00", "o0 a1 s10"]
        bm11 = initial_behavior_map(mu_star, "s0^11", 1)
        assert [str(h) for h in bm11.histories()] == ["o0 a0 s01", "o0 a1 s11"]

    def test_single_choice_environment(self):
        p = Pomdp.build(
            ("s",), ("a",), ("x",),
            {"s": Fraction(1)},
            {("s", "a"): {"s": Fraction(1)}},
            {"s": {"x": Fraction(1)}},
        )
        bm = initial_behavior_map(p, "s", 2)
        assert [str(h) for h in bm.histories()] == ["x a x a x"]

    def test_requires_deterministic(self, mu):
        with pytest.raises(DeterminismError):
            initial_behavior_map(mu, "s0", 1)

    def test_unknown_state_rejected(self, mu_star):
        with pytest.raises(InputError):
            initial_behavior_map(mu_star, "nowhere", 1)


class TestBehaviorPartition:
    def test_mu_star_singletons(self, mu_star):
        part = behavior_partition(mu_star, 1)
        assert len(part.cells) == 4
        for _, members, mass in part.cells:
            assert len(members) == 1
            assert mass == Fraction(1, 4)

    def test_mu_star_matches_determinized_mu(self, mu, mu_star):
        part_star = behavior_partition(mu_star, 1)
        part_det = behavior_partition(determinize(mu, 1), 1)
        assert {bm: mass for bm, _, mass in part_star.cells} == {
            bm: mass for bm, _, mass in part_det.cells
        }

    def test_identical_rows_land_in_one_cell(self):
        p = Pomdp.build(
            ("s1", "s2"), ("a",), ("x",),
            {"s1": Fraction(1, 2), "s2": Fraction(1, 2)},
            {("s1", "a"): {"s1": Fraction(1)}, ("s2", "a"): {"s2": Fraction(1)}},
            {"s1": {"x": Fraction(1)}, "s2": {"x": Fraction(1)}},
        )
        part = behavior_partition(p, 2)
        assert len(part.cells) == 1
        assert part.cells[0][1] == ("s1", "s2")
        assert part.cells[0][2] == 1

    def test_masses_sum_to_one(self, mu, rng):
        for p in [determinize(mu, 1), determinize(random_pomdp(rng), 2)]:
            part = behavior_partition(p, 1)
            assert sum(mass for _, _, mass in part.cells) == 1

    def test_masses_are_the_behavior_distribution(self, mu, mu_star):
        for m in (1, 2, 3):
            twin = determinize(mu, m)
            for p in (mu_star, twin, minimize(twin, m)):
                assert behavior_partition(p, m).masses() == behavior_distribution(p, m)

    def test_requires_deterministic(self, mu):
        with pytest.raises(DeterminismError):
            behavior_partition(mu, 1)

    def test_matches_grouping_by_behavior_map(self, rng):
        # the behavior-tree grouping against grouping the initial support by
        # brute-force rollouts, at every horizon up to the twin's own
        for _ in range(4):
            p = random_pomdp(
                rng, max_states=3, max_actions=2, horizon_cap=3, resolution_cap=96
            )
            for m in (1, 2, 3):
                d = determinize(p, m)
                for q in (d, minimize(d, m)):
                    for k in range(1, m + 1):
                        cells = tuple(
                            (bm.histories(), members, mass)
                            for bm, members, mass in behavior_partition(q, k).cells
                        )
                        assert cells == grouped_by_behavior_map(q, k)


class TestMinimize:
    def test_mu_pipeline_counts(self, mu):
        mini = minimize(determinize(mu, 1), 1)
        assert len(mini.states) == 8
        assert len(mini.init.support) == 4
        assert all(w == Fraction(1, 4) for _, w in mini.init.entries)
        assert validate(mini) == []

    def test_mu_star_is_already_minimal(self, mu_star):
        assert minimize(mu_star, 1) == mu_star

    def test_merges_duplicate_behaviors(self):
        p = Pomdp.build(
            ("s1", "s2"), ("a",), ("x",),
            {"s1": Fraction(1, 2), "s2": Fraction(1, 2)},
            {("s1", "a"): {"s1": Fraction(1)}, ("s2", "a"): {"s2": Fraction(1)}},
            {"s1": {"x": Fraction(1)}, "s2": {"x": Fraction(1)}},
        )
        mini = minimize(p, 1)
        assert mini.states == ("s1",)
        assert mini.init.entries == (("s1", Fraction(1)),)

    def test_preserves_behavior_distribution(self, mu, rng):
        for p, m in [(mu, 1), (mu, 2), (random_pomdp(rng), 1)]:
            d = determinize(p, m)
            mini = minimize(d, m)
            assert behavior_distribution(mini, m) == behavior_distribution(d, m)
            assert check_cf_equiv(mini, p, m).equivalent

    def test_idempotent(self, mu, mu_star):
        for p, m in [(determinize(mu, 1), 1), (mu_star, 1)]:
            once = minimize(p, m)
            assert minimize(once, m) == once

    def test_requires_deterministic(self, mu):
        with pytest.raises(DeterminismError):
            minimize(mu, 1)
