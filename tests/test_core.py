import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfpomdp import (
    CollectionQuery,
    DeterministicPolicy,
    FiniteDist,
    History,
    InputError,
    Pomdp,
    PureLearningSpec,
    StochasticPolicy,
    behavior_partition,
    check_cf_equiv,
    check_equiv,
    collection_prob,
    count_env_policies,
    determinize,
    enumerate_det_policies,
    enumerate_support,
    env_policy_posterior,
    minimize,
    parse_rational,
    reachable_histories,
    simulate,
    validate,
)
from cfpomdp.core import history_sort_key

from helpers import (
    brute_history_prob,
    prefixes,
    random_pomdp,
    reversed_alphabets,
    tiny_two_state,
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [("1/2", Fraction(1, 2)), ("1", Fraction(1)), ("0", Fraction(0)),
         ("3/6", Fraction(1, 2)), ("-2/4", Fraction(-1, 2)), ("  7/8 ", Fraction(7, 8))],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "a/b", "1/2/3", "", "1 /2"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            parse_rational(text)


class TestFiniteDist:
    def test_point(self):
        d = FiniteDist.point("x")
        assert d.prob("x") == 1
        assert d.prob("y") == 0
        assert d.is_point()
        assert d.problems() == []

    def test_equality_ignores_entry_order(self):
        d1 = FiniteDist.of([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        d2 = FiniteDist.of([("b", Fraction(1, 2)), ("a", Fraction(1, 2))])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError):
            FiniteDist.of([("a", Fraction(1, 2)), ("a", Fraction(1, 2))])

    def test_constructor_rejects_duplicate_keys(self):
        # a repeated key would make `==` (over the dict) and `hash` (over
        # the pairs) disagree
        with pytest.raises(InputError, match="duplicate entry 'a' in distribution"):
            FiniteDist((("a", Fraction(1)), ("a", Fraction(0))))
        with pytest.raises(InputError, match="duplicate entry 'a' in distribution"):
            FiniteDist.of(iter([("a", Fraction(1, 2)), ("b", 0), ("a", Fraction(1, 2))]))

    def test_floats_rejected(self):
        # 0.1 and 0.9 are binary fractions whose sum is not exactly 1
        with pytest.raises(InputError):
            FiniteDist.of({"x": 0.1, "y": 0.9})
        exact = FiniteDist.of({"x": "1/10", "y": Fraction(9, 10)})
        assert exact.total() == 1
        assert FiniteDist.of([("x", 1)]).is_point()

    def test_constructor_rejects_floats(self):
        # the dataclass constructor is checked too, not just `of`, so a
        # float row cannot reach `Pomdp.build` and `validate`
        with pytest.raises(InputError, match="not an exact rational: 1.0"):
            FiniteDist((("s", 1.0),))
        with pytest.raises(InputError, match="not an exact rational: '1'"):
            FiniteDist((("s", "1"),))
        assert FiniteDist((("s", 1),)).is_point()

    def test_problems(self):
        bad = FiniteDist.of([("a", Fraction(3, 4))])
        assert any("sum" in problem for problem in bad.problems())
        negative = FiniteDist.of([("a", Fraction(-1, 2)), ("b", Fraction(3, 2))])
        assert any("non-positive" in problem for problem in negative.problems())

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5))
    def test_normalized_weights_always_valid(self, weights):
        total = sum(weights)
        d = FiniteDist.of(
            [(f"k{i}", Fraction(w, total)) for i, w in enumerate(weights)]
        )
        assert d.total() == 1
        assert d.problems() == []


class TestHistory:
    def test_parse_and_format(self):
        h = History.parse("o0 a0 s00")
        assert h.initial_obs == "o0"
        assert h.steps == (("a0", "s00"),)
        assert h.length == 1
        assert str(h) == "o0 a0 s00"

    @pytest.mark.parametrize("text", ["", "o0 a0", "o0 a0 s00 a1"])
    def test_parse_rejects_even_token_counts(self, text):
        with pytest.raises(InputError):
            History.parse(text)

    def test_prefixes(self):
        h = History.parse("o0 a0 s00 a1 s01")
        assert [str(q) for q in prefixes(h)] == ["o0", "o0 a0 s00", "o0 a0 s00 a1 s01"]
        assert h.prefix(0).is_prefix_of(h)
        assert h.is_prefix_of(h)
        assert not h.is_prefix_of(h.prefix(1))

    def test_non_prefix(self):
        a = History.parse("o0 a0 s00")
        b = History.parse("o0 a1 s10")
        assert not a.is_prefix_of(b)
        assert not b.is_prefix_of(a)

    @given(st.integers(min_value=0, max_value=4))
    def test_prefix_roundtrip(self, t):
        h = History("o", tuple((f"a{i}", f"x{i}") for i in range(4)))
        assert h.prefix(t).length == t
        assert h.prefix(t).is_prefix_of(h)

    @pytest.mark.parametrize("t", [-1, 3])
    def test_prefix_out_of_range(self, t):
        with pytest.raises(InputError, match=f"^no length-{t} prefix of a length-2 history$"):
            History.parse("o0 a0 s00 a1 s10").prefix(t)


class TestValidate:
    def test_corpus_files_are_valid(self, corpus):
        for p in corpus.values():
            assert validate(p) == []

    def test_bad_transition_sum(self, mu):
        broken = Pomdp.build(
            mu.states,
            mu.actions,
            mu.observations,
            mu.init,
            {
                **{key: dist for key, dist in mu.trans},
                ("s0", "a0"): FiniteDist.of(
                    [("s00", Fraction(1, 2)), ("s01", Fraction(1, 4))]
                ),
            },
            dict(mu.obs),
        )
        violations = validate(broken)
        assert any("sum" in v and "(s0,a0)" in v for v in violations)

    def test_duplicate_state(self, mu):
        broken = Pomdp.build(
            mu.states + ("s0",),
            mu.actions,
            mu.observations,
            mu.init,
            dict(mu.trans),
            dict(mu.obs),
        )
        assert any("duplicate identifier" in v for v in validate(broken))

    def test_missing_rows_reported(self, mu):
        trans = {key: dist for key, dist in mu.trans}
        del trans[("s11", "a1")]
        broken = Pomdp.build(
            mu.states, mu.actions, mu.observations, mu.init, trans, dict(mu.obs)
        )
        assert any("missing transition row at (s11,a1)" in v for v in validate(broken))

    def test_unknown_symbol_in_dist(self, mu):
        broken = Pomdp.build(
            mu.states,
            mu.actions,
            mu.observations,
            {"nowhere": Fraction(1)},
            dict(mu.trans),
            dict(mu.obs),
        )
        assert any("unknown state 'nowhere' in init" in v for v in validate(broken))

    def test_empty_states_list(self, mu):
        broken = Pomdp.build((), mu.actions, mu.observations, mu.init, {}, {})
        assert "empty states list" in validate(broken)

    def test_row_for_unknown_pair(self, mu):
        trans = {**dict(mu.trans), ("zz", "a0"): FiniteDist.point("s0")}
        broken = Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, trans, dict(mu.obs))
        assert validate(broken) == ["transition row for unknown pair (zz, a0)"]

    def test_missing_observation_row(self, mu):
        obs = dict(mu.obs)
        del obs["s10"]
        broken = Pomdp.build(mu.states, mu.actions, mu.observations, mu.init, dict(mu.trans), obs)
        assert validate(broken) == ["missing observation row at s10"]

    def test_large_chain_builds_and_validates(self):
        # 20,000 states: building and validating stay linear in the rows
        n = 20_000
        states = tuple(f"c{i}" for i in range(n))
        trans = {
            (s, a): FiniteDist.point(states[min(i + 1, n - 1)])
            for i, s in enumerate(states)
            for a in ("a", "b")
        }
        obs = {s: FiniteDist.point("x") for s in states}
        obs["ghost"] = FiniteDist.point("x")
        p = Pomdp.build(states, ("a", "b"), ("x",), {"c0": 1}, trans, obs)
        assert [s for s, _ in p.obs] == list(states) + ["ghost"]
        assert validate(p) == ["observation row for unknown state 'ghost'"]


class TestReachableHistories:
    def test_mu_horizon_one(self, mu):
        grouped = reachable_histories(mu, 1)
        assert [str(h) for h in grouped[0]] == ["o0"]
        assert [str(h) for h in grouped[1]] == [
            "o0 a0 s00",
            "o0 a0 s01",
            "o0 a1 s10",
            "o0 a1 s11",
        ]

    def test_mu_horizon_zero(self, mu):
        assert [str(h) for h in reachable_histories(mu, 0)[0]] == ["o0"]

    def test_mu_prime_horizon_one(self, mu_prime):
        grouped = reachable_histories(mu_prime, 1)
        assert [str(h) for h in grouped[0]] == ["o0"]
        assert len(grouped[1]) == 4

    def test_layers_are_one_step_closures(self, mu, mu_prime, rng):
        # the length-t group is independent of the horizon it was asked at
        for p in [mu, mu_prime, tiny_two_state(), random_pomdp(rng)]:
            deep = reachable_histories(p, 2)
            for m in (0, 1):
                shallow = reachable_histories(p, m)
                for t in range(m + 1):
                    assert shallow[t] == deep[t]

    def test_negative_horizon_rejected(self, mu):
        with pytest.raises(InputError):
            reachable_histories(mu, -1)

    def test_order_ignores_declaration_order(self, corpus, rng):
        # one history order, `history_sort_key`, whatever order the
        # alphabets are declared in
        envs = list(corpus.values()) + [random_pomdp(rng) for _ in range(8)]
        for p in envs:
            for m in (0, 1, 2, 3):
                grouped = reachable_histories(p, m)
                assert reachable_histories(reversed_alphabets(p), m) == grouped
                assert all(list(g) == sorted(g, key=history_sort_key) for g in grouped.values())

    def test_positive_brute_probability_under_uniform_policy(self, rng):
        # exactly the histories of positive probability when every action
        # is played with probability 1/|A|, in canonical order; the policy
        # is written out over every history, reachable or not
        for _ in range(6):
            p = random_pomdp(rng, max_states=3, max_actions=2, max_obs=2)
            m = rng.randint(0, 3)
            layers = [[History(o) for o in p.observations]]
            for _ in range(m):
                layers.append([h.extend(a, o) for h in layers[-1]
                               for a in p.actions for o in p.observations])
            uniform = FiniteDist.of({a: Fraction(1, len(p.actions)) for a in p.actions})
            pi = StochasticPolicy(tuple((h, uniform) for layer in layers[:-1] for h in layer))
            assert reachable_histories(p, m) == {
                t: tuple(h for h in layer if brute_history_prob(p, h, pi) > 0)
                for t, layer in enumerate(layers)
            }


class TestEnumerateDetPolicies:
    def test_mu_counts(self, mu):
        assert len(enumerate_det_policies(mu, 1)) == 2
        assert len(enumerate_det_policies(mu, 2)) == 32  # 2^5 decision points

    def test_single_action_environment(self):
        p = Pomdp.build(
            ("s",), ("a",), ("x",),
            {"s": Fraction(1)},
            {("s", "a"): {"s": Fraction(1)}},
            {"s": {"x": Fraction(1)}},
        )
        assert len(enumerate_det_policies(p, 2)) == 1

    def test_count_matches_decision_points(self, rng):
        from cfpomdp.core import decision_points

        for _ in range(5):
            p = random_pomdp(rng)
            points = decision_points(p, 1)
            assert len(enumerate_det_policies(p, 1)) == len(p.actions) ** len(points)

    def test_order_is_stable(self, mu):
        first = enumerate_det_policies(mu, 2)
        second = enumerate_det_policies(mu, 2)
        assert first == second

    def test_policies_are_total_on_decision_points(self, mu):
        from cfpomdp.core import decision_points

        points = decision_points(mu, 1)
        for pi in enumerate_det_policies(mu, 1):
            for h in points:
                assert pi.action_at(h) in mu.actions

    def test_lexicographic_by_declared_action_order(self, mu):
        policies = enumerate_det_policies(mu, 1)
        h0 = History.parse("o0")
        assert policies[0].action_at(h0) == "a0"
        assert policies[1].action_at(h0) == "a1"


class TestPolicies:
    def test_constant_policy_domain(self, mu):
        pi = DeterministicPolicy.constant(mu, 2, "a0")
        assert len(pi.decisions) == 5
        assert pi.action_at(History.parse("o0")) == "a0"

    def test_script_policy(self):
        h = History.parse("o0 a0 s00 a1 s00")
        pi = DeterministicPolicy.script(h)
        assert pi.action_at(History.parse("o0")) == "a0"
        assert pi.action_at(History.parse("o0 a0 s00")) == "a1"

    def test_undefined_history_raises(self, mu):
        pi = DeterministicPolicy.constant(mu, 1, "a0")
        with pytest.raises(InputError):
            pi.action_at(History.parse("o0 a0 s00"))

    def test_policy_equality_ignores_order(self):
        h0, h1 = History.parse("o0"), History.parse("o0 a0 s00")
        p1 = DeterministicPolicy(((h0, "a0"), (h1, "a1")))
        p2 = DeterministicPolicy(((h1, "a1"), (h0, "a0")))
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_stochastic_equality_ignores_order(self):
        h0, h1 = History.parse("o0"), History.parse("o0 a0 s00")
        half = FiniteDist.of({"a0": Fraction(1, 2), "a1": Fraction(1, 2)})
        p1 = StochasticPolicy(((h0, half), (h1, FiniteDist.point("a1"))))
        p2 = StochasticPolicy(((h1, FiniteDist.point("a1")), (h0, half)))
        assert p1 == p2 and not p1 != p2
        assert hash(p1) == hash(p2)
        assert len({p1, p2}) == 1
        assert p1 != StochasticPolicy(((h0, half), (h1, FiniteDist.point("a0"))))

    def test_stochastic_never_equals_deterministic(self):
        pi = DeterministicPolicy(((History.parse("o0"), "a0"),))
        assert pi.as_stochastic() != pi
        assert pi != pi.as_stochastic()
        assert len({pi, pi.as_stochastic()}) == 2

    def test_deterministic_repr(self):
        pi = DeterministicPolicy.script(History.parse("o0 a0 s00 a1 s01"))
        assert repr(pi) == "DeterministicPolicy(o0 -> a0, o0 a0 s00 -> a1)"
        assert repr(DeterministicPolicy(())) == "DeterministicPolicy()"

    def test_constant_rejects_unknown_action(self, mu):
        with pytest.raises(InputError, match="^unknown action 'zz'$"):
            DeterministicPolicy.constant(mu, 1, "zz")

    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_repeated_history_rejected(self, kind):
        h0 = History.parse("o0")
        decisions = ((h0, "a0"), (History.parse("o0 a0 s00"), "a0"), (h0, "a1"))
        if kind == "stochastic":
            decisions = tuple((h, FiniteDist.point(a)) for h, a in decisions)
            make = StochasticPolicy
        else:
            make = DeterministicPolicy
        with pytest.raises(InputError, match="policy names history o0 twice"):
            make(decisions)

    @pytest.mark.parametrize("value", [
        (("a0", 0.5), ("a1", 0.5)),
        {"a0": Fraction(1, 2), "a1": Fraction(1, 2)},
        "a0",
        None,
    ])
    def test_stochastic_decision_must_be_a_finite_dist(self, value):
        # a float table used to pass here and fail later in history_prob
        # with AttributeError: 'tuple' object has no attribute 'prob'
        with pytest.raises(InputError, match="^policy decision at o0 is not a FiniteDist: "):
            StochasticPolicy(((History.parse("o0"), value),))


def _o0_query():
    return CollectionQuery(((History.parse("o0"), DeterministicPolicy(()).as_stochastic()),))


# a horizon that is not an int, or is a bool, on each public entry point
HORIZON_PROBES = {
    "check_equiv float": lambda c: check_equiv(c["mu"], c["mu-prime"], 2.0),
    "check_equiv Fraction": lambda c: check_equiv(c["mu"], c["mu-prime"], Fraction(2)),
    "check_equiv bool": lambda c: check_equiv(c["mu"], c["mu-prime"], True),
    "check_cf_equiv float": lambda c: check_cf_equiv(c["mu"], c["mu-prime"], 2.0),
    "check_cf_equiv bool": lambda c: check_cf_equiv(c["mu"], c["mu-prime"], True),
    "determinize": lambda c: determinize(c["mu"], 1.5),
    "enumerate_support": lambda c: enumerate_support(c["mu"], 2.0),
    "collection_prob": lambda c: collection_prob(c["mu"], _o0_query(), 1.0),
    "reachable_histories": lambda c: reachable_histories(c["mu"], 1.0),
    "env_policy_posterior": lambda c: env_policy_posterior(
        c["mu"], History.parse("o0"), DeterministicPolicy(()).as_stochastic(), 1.0),
    "DeterministicPolicy.constant": lambda c: DeterministicPolicy.constant(c["mu"], 1.0, "a0"),
    "simulate": lambda c: simulate(
        c["mu"], 1.0, [DeterministicPolicy.constant(c["mu"], 1, "a0")], 10, 1),
    "minimize": lambda c: minimize(c["mu-star"], 1.0),
    "behavior_partition": lambda c: behavior_partition(c["mu-star"], 1.0),
    "PureLearningSpec.of": lambda c: PureLearningSpec.of(
        c["mu-star"], {s: Fraction(1, 2) for s in c["mu-star"].init.support}, 1.0),
    "count_env_policies": lambda c: count_env_policies(c["mu"], 1.0),
}


class TestHorizonArgument:
    @pytest.mark.parametrize("call", HORIZON_PROBES.values(), ids=HORIZON_PROBES.keys())
    def test_rejected_with_input_error(self, corpus, call):
        with pytest.raises(InputError, match=r"(turn count|horizon) must be an int, got "):
            call(corpus)

    @pytest.mark.parametrize("m", ["3", 1.0, True], ids=repr)
    @pytest.mark.parametrize("name", ["env_policy_posterior", "collection_prob"])
    def test_checked_before_the_history_comparison(self, mu, name, m):
        # a horizon compared with a history's length first raised TypeError on "3"
        h = History.parse("o0 a0 s00")
        pi = StochasticPolicy.uniform(mu, 1)
        call = {"env_policy_posterior": lambda: env_policy_posterior(mu, h, pi, m),
                "collection_prob": lambda: collection_prob(mu, CollectionQuery(((h, pi),)), m)}
        with pytest.raises(InputError, match=rf"^turn count must be an int, got {re.escape(repr(m))}$"):
            call[name]()

    def test_int_horizon_errors_unchanged(self, mu):
        h = History.parse("o0 a0 s00")
        pi = StochasticPolicy.uniform(mu, 1)
        with pytest.raises(InputError, match=r"^posterior horizon 0 shorter than history \(1\)$"):
            env_policy_posterior(mu, h, pi, 0)
        with pytest.raises(InputError, match=r"^posterior horizon -1 shorter than history \(0\)$"):
            env_policy_posterior(mu, h.prefix(0), pi, -1)
        with pytest.raises(InputError, match=r"^turn count must be >= 1, got 0$"):
            env_policy_posterior(mu, h.prefix(0), pi, 0)
        with pytest.raises(InputError, match=r"^history o0 a0 s00 longer than the horizon 0 of the query$"):
            collection_prob(mu, CollectionQuery(((h, pi),)), 0)
        with pytest.raises(InputError, match=r"^turn count must be >= 1, got 0$"):
            collection_prob(mu, CollectionQuery(((h.prefix(0), pi),)), 0)
