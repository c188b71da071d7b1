import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfpomdp import (
    DeterminismError,
    DeterministicPolicy,
    History,
    InputError,
    Pomdp,
    PureLearningSpec,
    SimilarityError,
    cond_history_prob,
    determinize,
    evaluate,
    initial_posterior,
    load_weights,
    minimize,
    reachable_histories,
    save_weights,
    transfer,
    verify_universality,
)
from cfpomdp.core import history_sort_key
from cfpomdp.determinize import behavior_partition
from cfpomdp.learning import _first_difference

from helpers import (
    cell_of,
    missing_rows_env,
    random_cf_env,
    random_pomdp,
    reachable_up_to,
    relabel_states,
    shared_successor_env,
    split_initial_state,
)

STAR_STATES = ("s0^00", "s0^01", "s0^10", "s0^11")


def star_spec(mu_star, weights=None, m=1):
    if weights is None:
        weights = {s: Fraction(int(s == "s0^00")) for s in STAR_STATES}
    return PureLearningSpec.of(mu_star, weights, m)


rational_weights = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    min_size=4,
    max_size=4,
)


class TestSpecValidation:
    def test_requires_deterministic_env(self, mu):
        with pytest.raises(DeterminismError):
            PureLearningSpec.of(mu, {"s0": Fraction(1)}, 1)

    def test_requires_full_support_weights(self, mu_star):
        with pytest.raises(InputError):
            PureLearningSpec.of(mu_star, {"s0^00": Fraction(1)}, 1)

    def test_rejects_out_of_range_weights(self, mu_star):
        weights = {s: Fraction(0) for s in STAR_STATES}
        weights["s0^00"] = Fraction(3, 2)
        with pytest.raises(InputError):
            PureLearningSpec.of(mu_star, weights, 1)

    def test_rejects_float_weights(self, mu_star):
        with pytest.raises(InputError):
            star_spec(mu_star, {s: 0.1 for s in STAR_STATES})
        spec = star_spec(mu_star, {s: "1/10" for s in STAR_STATES})
        assert all(w == Fraction(1, 10) for _, w in spec.weights)

    def test_constructor_rejects_float_weights(self, mu_star):
        # the dataclass constructor is checked too, not just `of`
        with pytest.raises(InputError, match="not an exact rational: 0.5"):
            PureLearningSpec(mu_star, tuple((s, 0.5) for s in STAR_STATES), 1)
        spec = PureLearningSpec(mu_star, tuple((s, Fraction(1, 2)) for s in STAR_STATES), 1)
        assert evaluate(spec, History.parse("o0")) == Fraction(1, 2)

    def test_rejects_alien_states(self, mu_star):
        weights = {s: Fraction(1, 4) for s in STAR_STATES}
        weights["nowhere"] = Fraction(0)
        with pytest.raises(InputError):
            PureLearningSpec.of(mu_star, weights, 1)

    def test_rejects_a_repeated_state(self, mu_star):
        weights = tuple((s, Fraction(1, 2)) for s in STAR_STATES) + (("s0^00", Fraction(0)),)
        with pytest.raises(InputError, match="^duplicate state in weight vector$"):
            PureLearningSpec(mu_star, weights, 1)


class TestEvaluate:
    def test_before_acting(self, mu_star):
        assert evaluate(star_spec(mu_star), History.parse("o0")) == Fraction(1, 4)

    def test_after_one_step(self, mu_star):
        value = evaluate(star_spec(mu_star), History.parse("o0 a0 s00"))
        assert value == Fraction(1, 2)

    def test_constant_weights_give_constant(self, mu_star):
        c = Fraction(2, 7)
        spec = star_spec(mu_star, {s: c for s in STAR_STATES})
        for h in reachable_up_to(mu_star, 1):
            assert evaluate(spec, h) == c

    def test_impossible_history_evaluates_to_zero(self, mu_star):
        spec = star_spec(mu_star)
        assert evaluate(spec, History.parse("o0 a0 s10")) == 0

    def test_horizon_guard(self, mu_star):
        with pytest.raises(InputError):
            evaluate(star_spec(mu_star), History.parse("o0 a0 s00 a0 s00"))

    def test_prefix_consistency_with_posterior(self, mu_star):
        # law of total expectation along one-step extensions
        spec = star_spec(mu_star, {s: Fraction(1, 3) if s != "s0^11" else Fraction(1) for s in STAR_STATES})
        pi = DeterministicPolicy.constant(mu_star, 1, "a0").as_stochastic()
        h = History.parse("o0")
        extensions = [
            h2 for h2 in reachable_histories(mu_star, 1)[1]
            if h.is_prefix_of(h2) and h2.steps[0][0] == "a0"
        ]
        total = sum(
            (evaluate(spec, h2) * cond_history_prob(mu_star, h2, h, pi) for h2 in extensions),
            Fraction(0),
        )
        assert total == evaluate(spec, h)


class TestTransfer:
    def test_pointer_weight_follows_matching_cell(self, mu, mu_star):
        target = minimize(determinize(mu, 1), 1)
        moved = transfer(star_spec(mu_star), target, 1)
        weights = dict(moved.weights)
        assert sorted(weights.values()) == [0, 0, 0, 1]
        carrier = next(s for s, w in weights.items() if w == 1)
        # the carrier's behavior matches the source cell's
        src = behavior_partition(mu_star, 1)
        tgt = behavior_partition(target, 1)
        src_map = next(bm for bm, members, _ in src.cells if members == ("s0^00",))
        assert carrier in cell_of(tgt, src_map)

    def test_constant_weights_stay_constant(self, mu, mu_star):
        c = Fraction(5, 9)
        moved = transfer(
            star_spec(mu_star, {s: c for s in STAR_STATES}), determinize(mu, 1), 1
        )
        assert all(w == c for _, w in moved.weights)

    def test_self_transfer_is_identity(self, mu_star):
        weights = {
            "s0^00": Fraction(1, 3),
            "s0^01": Fraction(0),
            "s0^10": Fraction(1),
            "s0^11": Fraction(2, 5),
        }
        moved = transfer(star_spec(mu_star, weights), mu_star, 1)
        assert dict(moved.weights) == weights

    def test_requires_equivalence(self, mu_star):
        # deterministic but inequivalent: force a0 from s0^00 to s01
        from cfpomdp import FiniteDist, Pomdp

        trans = {key: dist for key, dist in mu_star.trans}
        trans[("s0^00", "a0")] = FiniteDist.point("s01")
        target = Pomdp.build(
            mu_star.states, mu_star.actions, mu_star.observations,
            mu_star.init, trans, dict(mu_star.obs),
        )
        with pytest.raises(InputError):
            transfer(star_spec(mu_star), target, 1)

    def test_dissimilar_actions_rejected(self, mu_star):
        # deterministic and otherwise identical, but a1 is renamed to b1
        rename = {"a0": "a0", "a1": "b1"}
        target = Pomdp.build(
            mu_star.states, ("a0", "b1"), mu_star.observations, mu_star.init,
            {(s, rename[a]): dist for (s, a), dist in mu_star.trans},
            dict(mu_star.obs),
        )
        with pytest.raises(SimilarityError):
            transfer(star_spec(mu_star), target, 1)

    def test_requires_deterministic_target(self, mu, mu_star):
        with pytest.raises(DeterminismError):
            transfer(star_spec(mu_star), mu, 1)

    def test_horizon_mismatch_rejected(self, mu, mu_star):
        with pytest.raises(InputError):
            transfer(star_spec(mu_star, m=1), determinize(mu, 1), 2)

    def test_interning_follows_sorted_action_order(self, mu, mu_star):
        # both environments' behaviors share one intern table whose children
        # follow the sorted actions, whatever order each environment declares
        target = minimize(determinize(mu, 1), 1)
        backwards = Pomdp.build(target.states, target.actions[::-1], target.observations,
                                target.init, dict(target.trans), dict(target.obs))
        assert backwards.actions == ("a1", "a0")
        spec = star_spec(mu_star, {s: Fraction(i, 4) for i, s in enumerate(STAR_STATES)})
        assert transfer(spec, backwards, 1).weights == transfer(spec, target, 1).weights
        assert verify_universality(spec, backwards, 1) == (True, None)
        assert behavior_partition(backwards, 1) == behavior_partition(target, 1)

    def test_cells_are_compared_without_behavior_maps(self, mu, mu_star, monkeypatch):
        # minimize and transfer compare interned ids: no tree is unfolded
        spec = star_spec(mu_star)
        det = determinize(mu, 1)
        expected = transfer(spec, minimize(det, 1), 1)

        def unfolded(*args):
            raise AssertionError("a behavior map was built")

        for module in ("cfpomdp.envpolicy", "cfpomdp.determinize"):
            monkeypatch.setattr(sys.modules[module], "BehaviorMap", unfolded)
        assert transfer(spec, minimize(det, 1), 1) == expected
        assert verify_universality(spec, det, 1) == (True, None)

    @given(rational_weights)
    def test_cell_mass_identity(self, mu, mu_star, values):
        # matched cells exchange exactly their mass-weighted weight totals
        weights = dict(zip(STAR_STATES, values))
        target = determinize(mu, 1)
        spec = star_spec(mu_star, weights)
        moved = transfer(spec, target, 1)
        src = behavior_partition(mu_star, 1)
        tgt = behavior_partition(target, 1)
        tgt_weights = dict(moved.weights)
        for bm, members, mass in src.cells:
            src_total = sum(
                (mu_star.init.prob(s) * weights[s] for s in members), Fraction(0)
            )
            tgt_members = cell_of(tgt, bm)
            tgt_total = sum(
                (target.init.prob(s) * tgt_weights[s] for s in tgt_members),
                Fraction(0),
            )
            assert src_total == tgt_total

    @given(rational_weights)
    def test_range_preserved(self, mu, mu_star, values):
        weights = dict(zip(STAR_STATES, values))
        moved = transfer(star_spec(mu_star, weights), determinize(mu, 1), 1)
        assert all(0 <= w <= 1 for _, w in moved.weights)


class TestVerifyUniversality:
    def test_star_to_determinized(self, mu, mu_star):
        ok, differing = verify_universality(star_spec(mu_star), determinize(mu, 1), 1)
        assert ok and differing is None

    def test_same_environment(self, mu_star):
        ok, _ = verify_universality(star_spec(mu_star), mu_star, 1)
        assert ok

    def test_broken_equivalence_is_an_error_not_false(self, mu_star):
        from cfpomdp import FiniteDist, Pomdp

        trans = {key: dist for key, dist in mu_star.trans}
        trans[("s0^00", "a0")] = FiniteDist.point("s01")
        target = Pomdp.build(
            mu_star.states, mu_star.actions, mu_star.observations,
            mu_star.init, trans, dict(mu_star.obs),
        )
        with pytest.raises(InputError):
            verify_universality(star_spec(mu_star), target, 1)

    @given(rational_weights)
    def test_holds_across_the_family(self, mu, mu_star, values):
        weights = dict(zip(STAR_STATES, values))
        spec = star_spec(mu_star, weights)
        det = determinize(mu, 1)
        targets = [det, minimize(det, 1), mu_star]
        for target in targets:
            ok, differing = verify_universality(spec, target, 1)
            assert ok, f"differs at {differing}"


def posterior_value(spec, h):
    """The defining sum: weights averaged under the initial posterior."""
    post = initial_posterior(spec.env, h)
    return sum((w * post[s] for s, w in spec.weights), Fraction(0))


def first_posterior_difference(spec, other, histories):
    return next(
        (h for h in histories if posterior_value(spec, h) != posterior_value(other, h)),
        None,
    )


class TestForwardValues:
    def test_initial_states_sharing_a_successor(self):
        # u and v both reach w, so the fold must keep them apart to weigh
        # them by their own weights
        p = shared_successor_env()
        spec = PureLearningSpec.of(p, {"u": 1, "v": 0, "d": Fraction(1, 2)}, 2)
        assert evaluate(spec, History.parse("x a y")) == Fraction(1, 3)
        for h in reachable_up_to(p, 2):
            assert evaluate(spec, h) == posterior_value(spec, h)

    def test_missing_row_named_in_fold_order(self):
        # s meets a missing row at turn 2, t at turn 1: as when all initial
        # states are folded together, t's is met first
        spec = PureLearningSpec.of(missing_rows_env(), {"s": 1, "t": 0}, 2)
        with pytest.raises(InputError, match="no observation row for state t1"):
            evaluate(spec, History.parse("x a x a x"))

    def test_evaluate_and_first_difference_match_posterior(self, rng):
        # two random twins with their own weights, over the union of their
        # reachable histories in canonical order, as verify_universality
        # compares them; histories only the other twin reaches evaluate to 0
        alphabets = (("a0", "a1"), ("x0", "x1"))
        for _ in range(4):
            for m in (1, 2):
                envs = [
                    determinize(random_pomdp(rng, max_states=3, alphabets=alphabets), m)
                    for _ in range(2)
                ]
                specs = [
                    PureLearningSpec.of(
                        d, {s: Fraction(rng.randint(0, 6), 6) for s in d.init.support}, m
                    )
                    for d in envs
                ]
                union = sorted(
                    {h for d in envs for h in reachable_up_to(d, m)}, key=history_sort_key
                )
                for spec in specs:
                    assert [evaluate(spec, h) for h in union] == [
                        posterior_value(spec, h) for h in union
                    ]
                assert _first_difference(*specs) == first_posterior_difference(*specs, union)
                assert _first_difference(specs[0], specs[0]) is None
                # moving init-weighted mass between two initial states that
                # emit the same o0 keeps every value until the states part
                d = envs[0]
                init = d.init.support
                pair = next(
                    (
                        (s1, s2)
                        for i, s1 in enumerate(init)
                        for s2 in init[i + 1 :]
                        if d.obs_dist(s1) == d.obs_dist(s2)
                    ),
                    None,
                )
                if pair:
                    s1, s2 = pair
                    eps = min(d.init.prob(s1), d.init.prob(s2)) / 4
                    shifted = dict.fromkeys(init, Fraction(1, 2))
                    shifted[s1] += eps / d.init.prob(s1)
                    shifted[s2] -= eps / d.init.prob(s2)
                    flat = PureLearningSpec.of(d, dict.fromkeys(init, Fraction(1, 2)), m)
                    moved = PureLearningSpec.of(d, shifted, m)
                    assert _first_difference(flat, moved) == first_posterior_difference(
                        flat, moved, union
                    )

    def test_universality_and_moved_weights_match_posterior(self, rng):
        # the minimized twin against the twin of a relabelled, start-split
        # copy: the transfer is verified, and moving weight between two
        # initial states of one o0 gives the first posterior difference
        # over both environments' reachable histories
        outcomes = set()
        for _ in range(6):
            p = random_cf_env(rng, rng.randint(2, 3))
            for m in (1, 2):
                source = minimize(determinize(p, m), m)
                target = determinize(relabel_states(split_initial_state(p)), m)
                spec = PureLearningSpec.of(
                    source, {s: Fraction(rng.randint(0, 4), 4) for s in source.init.support}, m
                )
                assert verify_universality(spec, target, m) == (True, None)
                weights = dict(transfer(spec, target, m).weights)
                init = target.init

                def room(s1, s2):
                    """The initial mass that can move from s2 to s1."""
                    return min((1 - weights[s1]) * init.prob(s1), weights[s2] * init.prob(s2))

                pairs = [
                    (s1, s2)
                    for s1 in init.support
                    for s2 in init.support
                    if s1 != s2 and target.obs_dist(s1) == target.obs_dist(s2) and room(s1, s2)
                ]
                if not pairs:
                    continue
                s1, s2 = rng.choice(pairs)
                mass = room(s1, s2) / 2
                weights[s1] += mass / init.prob(s1)
                weights[s2] -= mass / init.prob(s2)
                shifted = PureLearningSpec.of(target, weights, m)
                union = sorted(
                    set(reachable_up_to(source, m)) | set(reachable_up_to(target, m)),
                    key=history_sort_key,
                )
                expected = first_posterior_difference(spec, shifted, union)
                assert _first_difference(spec, shifted) == expected
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_unknown_observation_rejected(self, mu_star):
        with pytest.raises(InputError):
            evaluate(star_spec(mu_star), History.parse("nowhere"))


class TestWeightsFiles:
    def test_round_trip(self, tmp_path):
        weights = {"s0^00": Fraction(1, 3), "s0^01": Fraction(0)}
        path = tmp_path / "weights.txt"
        save_weights(path, weights)
        assert load_weights(path) == weights

    def test_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("s0^00 1/3 extra\n")
        with pytest.raises(InputError):
            load_weights(path)

    def test_bad_rational_names_its_line(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("s0 1/2\ns1 a\n")
        with pytest.raises(InputError) as err:
            load_weights(path)
        assert str(err.value) == f"{path}:2: not a rational literal: 'a' (use p/q or an integer)"

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("s 1/3\ns 2/3\n")
        with pytest.raises(InputError):
            load_weights(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# header\n\ns 1/2\n")
        assert load_weights(path) == {"s": Fraction(1, 2)}
