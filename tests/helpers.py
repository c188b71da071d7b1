"""Independent oracles and generators for the test suite.

Everything here recomputes quantities from first principles (explicit state
sequences, unreduced resolution maps) without touching the dynamic programs
or reduced enumerations it is used to check.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from cfpomdp import (
    DeterministicPolicy,
    FiniteDist,
    History,
    Pomdp,
    StochasticPolicy,
)
from cfpomdp.core import history_sort_key
from cfpomdp.envpolicy import (
    EnvironmentPolicy,
    _behaviors,
    _generates,
    _iter_support,
    behavior_map,
    enumerate_support,
    history_prob_given_ep,
)
from cfpomdp.equivalence import (
    CollectionWitness,
    Verdict,
    _witness_query,
    behavior_distribution,
    ensure_similar,
)
from cfpomdp.errors import InputError
from cfpomdp.trajectory import _policy_factor

ZERO = Fraction(0)
ONE = Fraction(1)


def prefixes(h: History) -> list[History]:
    """All prefixes of `h`, shortest first, ending with `h` itself."""
    return [h.prefix(t) for t in range(h.length + 1)]


def cell_of(partition, bm) -> tuple[str, ...]:
    """The members of the cell of `partition` (a `BehaviorPartition`) whose
    behavior map is `bm`."""
    for candidate, members, _ in partition.cells:
        if candidate == bm:
            return members
    raise KeyError("behavior map not present in the partition")


# ---------------------------------------------------------------------------
# oracle: history probability by explicit state-sequence enumeration


def brute_history_prob(
    p: Pomdp, h: History, pi: StochasticPolicy, start: str | None = None
) -> Fraction:
    """Sum over all state sequences of the product of initial, observation,
    transition, and policy factors.  Sequences grow one state at a time, and
    one whose product is already 0 is not extended: its extensions add 0."""

    def extensions(term: Fraction, state: str, k: int) -> Fraction:
        if k == h.length:
            return term
        action, obs = h.steps[k]
        total = ZERO
        for nxt in p.states:
            factor = p.trans_dist(state, action).prob(nxt) * p.obs_dist(nxt).prob(obs)
            factor *= pi.prob(h.prefix(k), action)
            if factor != 0:
                total += extensions(term * factor, nxt, k + 1)
        return total

    total = ZERO
    for s0 in p.states:
        if start is not None and s0 != start:
            continue
        term = ONE if start is not None else p.init.prob(s0)
        term *= p.obs_dist(s0).prob(h.initial_obs)
        if term != 0:
            total += extensions(term, s0, 0)
    return total


def brute_posterior(
    p: Pomdp, h: History, pi: StochasticPolicy
) -> dict[str, Fraction]:
    """Bayes over the initial state with the policy factors kept in."""
    joint = {
        s: p.init.prob(s) * brute_history_prob(p, h, pi, start=s) for s in p.states
    }
    total = sum(joint.values(), ZERO)
    if total == 0:
        return {s: ZERO for s in p.states}
    return {s: joint[s] / total for s in p.states}


def brute_check_equiv(p1: Pomdp, p2: Pomdp, m: int):
    """m-equivalence by comparing, first, the probability of each initial
    observation o0 in sorted order, then the prefix-pair loop: for every
    reachable history of either environment in canonical order, and each of
    its prefixes shortest first, compare the conditional probabilities under
    the history's own action script, each probability from
    `brute_history_prob`.

    Returns None when everything agrees, else the first differing
    (h_long, h_short, policy, value_left, value_right); an o0 that differs
    gives (o0, o0, its empty script, both probabilities of o0)."""
    weights: tuple[dict, dict] = ({}, {})

    def weight(i: int, p: Pomdp, h: History) -> Fraction:
        if h not in weights[i]:
            script = DeterministicPolicy.script(h).as_stochastic()
            weights[i][h] = brute_history_prob(p, h, script)
        return weights[i][h]

    union = set(reachable_up_to(p1, m)) | set(reachable_up_to(p2, m))
    for o0 in sorted((h for h in union if h.length == 0), key=history_sort_key):
        values = [weight(i, p, o0) for i, p in enumerate((p1, p2))]
        if values[0] != values[1]:
            return (o0, o0, DeterministicPolicy.script(o0), *values)
    for h_long in sorted(union, key=history_sort_key):
        for h_short in prefixes(h_long):
            values = []
            for i, p in enumerate((p1, p2)):
                short = weight(i, p, h_short)
                values.append(ZERO if short == 0 else weight(i, p, h_long) / short)
            if values[0] != values[1]:
                return (h_long, h_short, DeterministicPolicy.script(h_long), *values)
    return None


# ---------------------------------------------------------------------------
# oracle: unreduced resolutions (support choices only; off-support maps have
# probability 0 and contribute nothing)


def full_resolutions(p: Pomdp, m: int):
    """Every total resolution map built from support choices, with its
    unreduced probability: the product over *all* rows, visited or not."""
    trans_rows = [(s, a, i) for i in range(1, m + 1) for s in p.states for a in p.actions]
    obs_rows = [(s, i) for i in range(m + 1) for s in p.states]
    trans_opts = [
        [s2 for s2, w in p.trans_dist(s, a).entries if w > 0] for s, a, _ in trans_rows
    ]
    obs_opts = [[o for o, w in p.obs_dist(s).entries if w > 0] for s, _ in obs_rows]
    for t0, w0 in p.init.entries:
        if w0 <= 0:
            continue
        for trans_combo in itertools.product(*trans_opts):
            trans_map = dict(zip(trans_rows, trans_combo))
            prob_t = w0
            for (s, a, _), s2 in trans_map.items():
                prob_t *= p.trans_dist(s, a).prob(s2)
            for obs_combo in itertools.product(*obs_opts):
                obs_map = dict(zip(obs_rows, obs_combo))
                prob = prob_t
                for (s, _), o in obs_map.items():
                    prob *= p.obs_dist(s).prob(o)
                yield t0, trans_map, obs_map, prob


def reduce_resolution(p: Pomdp, t0: str, trans_map, obs_map, m: int):
    """Restrict a total resolution to the entries reachable under itself."""
    recorded_trans = {}
    recorded_obs = {(t0, 0): obs_map[(t0, 0)]}
    frontier = {t0}
    for i in range(1, m + 1):
        nxt = set()
        for s in sorted(frontier):
            for a in p.actions:
                s2 = trans_map[(s, a, i)]
                recorded_trans[(s, a, i)] = s2
                nxt.add(s2)
        frontier = nxt
        for s in frontier:
            recorded_obs[(s, i)] = obs_map[(s, i)]
    return (t0, frozenset(recorded_trans.items()), frozenset(recorded_obs.items()))


def full_history_prob_given_resolution(
    h: History, t0: str, trans_map, obs_map, pi: StochasticPolicy
) -> Fraction:
    """Evolution through an explicit total resolution."""
    if obs_map[(t0, 0)] != h.initial_obs:
        return ZERO
    state = t0
    prob = ONE
    for turn, (action, obs) in enumerate(h.steps, start=1):
        prob *= pi.prob(h.prefix(turn - 1), action)
        if prob == 0:
            return ZERO
        state = trans_map[(state, action, turn)]
        if obs_map[(state, turn)] != obs:
            return ZERO
    return prob


def brute_collection_prob(p: Pomdp, pairs, m: int) -> Fraction:
    """Direct sum over unreduced resolutions; only usable on tiny inputs."""
    total = ZERO
    for t0, trans_map, obs_map, prob in full_resolutions(p, m):
        term = prob
        for h, pi in pairs:
            term *= full_history_prob_given_resolution(h, t0, trans_map, obs_map, pi)
            if term == 0:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# oracle: counterfactual quantities by enumerating reduced resolutions


def resolution_behavior_distribution(p: Pomdp, m: int) -> dict:
    """Push the reduced support forward through `behavior_map`, one
    resolution at a time; resolutions with equal maps merge."""
    out: dict = {}
    for ep, prior in enumerate_support(p, m):
        bm = behavior_map(p, ep, m)
        out[bm] = out.get(bm, ZERO) + prior
    return out


def resolution_collection_prob(p: Pomdp, q, m: int, support=None) -> Fraction:
    """Sum over the reduced support (`enumerate_support(p, m)` unless given)
    of the resolution probability times the product of the per-agent
    `history_prob_given_ep` values."""
    for h, _ in q.pairs:
        if h.length > m:
            raise ValueError(f"history {h} longer than the horizon {m}")
    total = ZERO
    for ep, prior in enumerate_support(p, m) if support is None else support:
        term = prior
        for h, pi in q.pairs:
            term *= history_prob_given_ep(p, h, ep, pi)
            if term == 0:
                break
        total += term
    return total


def behavior_dp(p: Pomdp, m: int) -> tuple[list, dict]:
    """The whole behavior DP labelled by observation: its interned nodes in
    id order, children in sorted action order, and {root id: mass}."""
    table: dict[tuple, int] = {}
    roots = _behaviors(p, m, lambda s, o: o, table)
    return list(table), roots


def behavior_collection_prob(p: Pomdp, q, m: int, dp=None) -> Fraction:
    """The mass of the behavior maps whose trees generate every paired
    history, times the policies' factors, read only if it is positive: a sum
    over the roots of the whole behavior DP (`behavior_dp(p, m)` unless
    given as `dp`), exponential in m."""
    for h, _ in q.pairs:
        if h.length > m:
            raise InputError(f"history {h} longer than the horizon {m} of the query")
        p.check_history_symbols(h)
    nodes, roots = behavior_dp(p, m) if dp is None else dp
    slot = {a: j for j, a in enumerate(sorted(p.actions))}
    total = sum((mass for root, mass in roots.items()
                 if all(_generates(h, root, lambda i, _: nodes[i][0],
                                   lambda i, a, _: nodes[i][1][slot[a]]) for h, _ in q.pairs)),
                ZERO)
    for h, pi in q.pairs:
        if total == 0:
            break
        total *= _policy_factor(h, pi)
    return total


def distribution_check_cf_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """`check_cf_equiv` by comparing the two `behavior_distribution` dicts,
    keyed by behavior map, with the same witness rule: among differing maps
    the smallest minimum mass, ties broken by behavior tree."""
    ensure_similar(p1, p2)
    d1 = behavior_distribution(p1, m)
    d2 = behavior_distribution(p2, m)
    if d1 == d2:
        return Verdict(equivalent=True)
    differing = [bm for bm in set(d1) | set(d2) if d1.get(bm, ZERO) != d2.get(bm, ZERO)]
    bm = min(differing, key=lambda b: (min(d1.get(b, ZERO), d2.get(b, ZERO)), b.tree))
    return Verdict(
        equivalent=False,
        witness=CollectionWitness(_witness_query(bm), d1.get(bm, ZERO), d2.get(bm, ZERO)),
    )


def stage_support(p: Pomdp, m: int):
    """The reduced support enumerated by two mutually recursive stages: the
    observation stage chooses one observation per visited state, the
    transition stage one successor per (visited state, action) row, each by
    `itertools.product` with its own running product.  The expected order
    of `enumerate_support`: the initial state varies slowest, then at each
    turn the observation choice, then the successor choice, rows in sorted
    visited x declared action order."""
    if m < 1:
        raise InputError(f"turn count must be >= 1, got {m}")
    state_order = p.state_index

    def obs_stage(turn, visited, prob, trans_acc, obs_acc):
        rows = sorted(visited, key=state_order.__getitem__)
        row_choices = [
            [(s, o, w) for o, w in p.obs_dist(s).entries if w > 0] for s in rows
        ]
        for combo in itertools.product(*row_choices):
            prob2 = prob
            for _, _, w in combo:
                prob2 *= w
            obs_acc2 = obs_acc + tuple(((s, turn), o) for s, o, _ in combo)
            if turn == m:
                yield EnvironmentPolicy(
                    init_state=trans_acc[0],
                    trans_choice=trans_acc[1],
                    obs_choice=obs_acc2,
                    horizon=m,
                ), prob2
            else:
                yield from trans_stage(turn + 1, rows, prob2, trans_acc, obs_acc2)

    def trans_stage(turn, current, prob, trans_acc, obs_acc):
        rows = [(s, a) for s in current for a in p.actions]
        row_choices = [
            [(s, a, s2, w) for s2, w in p.trans_dist(s, a).entries if w > 0]
            for s, a in rows
        ]
        for combo in itertools.product(*row_choices):
            prob2 = prob
            for _, _, _, w in combo:
                prob2 *= w
            choices = tuple(((s, a, turn), s2) for s, a, s2, _ in combo)
            visited = {s2 for _, _, s2, _ in combo}
            yield from obs_stage(
                turn,
                visited,
                prob2,
                (trans_acc[0], trans_acc[1] + choices),
                obs_acc,
            )

    for s0, w0 in p.init.entries:
        if w0 > 0:
            yield from obs_stage(0, {s0}, w0, (s0, ()), ())
    del obs_stage, trans_stage  # they refer to each other: break the cycle


def rollout(p: Pomdp, ep, pi: DeterministicPolicy) -> History:
    """The unique history a deterministic policy generates inside one
    resolution of the environment, turn by turn."""
    state = ep.init_state
    h = History(ep.obs_at(state, 0))
    for turn in range(1, ep.horizon + 1):
        action = pi.action_at(h)
        state = ep.next_state(state, action, turn)
        h = h.extend(action, ep.obs_at(state, turn))
    return h


def labelled_tree(p: Pomdp, ep, m: int, state: str, turn: int) -> tuple:
    """The behavior tree of one resolution from `state` at `turn`, labelled
    by (state, observation), with one child per declared action; built by
    plain recursion, without a memo."""
    children = () if turn == m else tuple(
        labelled_tree(p, ep, m, ep.next_state(state, a, turn + 1), turn + 1) for a in p.actions
    )
    return (state, ep.obs_at(state, turn)), children


def resolution_twin(p: Pomdp, m: int) -> Pomdp:
    """The deterministic twin built one resolution at a time: a behavior
    tree labelled by (state, observation) per reduced resolution
    (`labelled_tree`), its nodes named base@turn in first-encounter
    pre-order (with a '.k' suffix when a (base, turn) pair carries several
    behaviors), leaves self-looping."""
    turn_of: dict[tuple, int] = {}
    init_mass: dict[tuple, Fraction] = {}

    def register(node: tuple, turn: int) -> None:
        if node not in turn_of:
            turn_of[node] = turn
            for child in node[1]:
                register(child, turn + 1)

    for ep, prob in enumerate_support(p, m):
        root = labelled_tree(p, ep, m, ep.init_state, 0)
        register(root, 0)
        init_mass[root] = init_mass.get(root, ZERO) + prob

    bases = [(node[0][0], turn) for node, turn in turn_of.items()]
    shared = Counter(bases)
    seen: Counter = Counter()
    names: dict[tuple, str] = {}
    for node, (s, turn) in zip(turn_of, bases):
        if shared[(s, turn)] == 1:
            names[node] = f"{s}@{turn}"
        else:
            names[node] = f"{s}@{turn}.{seen[(s, turn)]}"
            seen[(s, turn)] += 1

    trans, obs = {}, {}
    for node, name in names.items():
        (_, o), children = node
        obs[name] = FiniteDist.point(o)
        targets = [names[child] for child in children] if children else [name] * len(p.actions)
        for a, target in zip(p.actions, targets):
            trans[(name, a)] = FiniteDist.point(target)
    init = FiniteDist.of([(names[root], mass) for root, mass in init_mass.items()])
    return Pomdp.build(tuple(names.values()), p.actions, p.observations, init, trans, obs)


# ---------------------------------------------------------------------------
# oracle: behavior maps by explicit rollout of every action sequence


def brute_rollouts(p: Pomdp, m: int, start: str, obs_at, next_state) -> tuple[History, ...]:
    """The history of every length-m action sequence from `start`, rolled out
    one sequence at a time, in lexicographic order of the sequences over the
    sorted action alphabet.  `obs_at(s, turn)` and `next_state(s, a, turn)`
    have the signatures of `EnvironmentPolicy.obs_at` and `.next_state`."""
    out = []
    for actions in itertools.product(sorted(p.actions), repeat=m):
        state = start
        h = History(obs_at(state, 0))
        for turn, action in enumerate(actions, start=1):
            state = next_state(state, action, turn)
            h = h.extend(action, obs_at(state, turn))
        out.append(h)
    return tuple(out)


def resolution_rollouts(p: Pomdp, ep, m: int) -> tuple[History, ...]:
    """`brute_rollouts` through one resolution."""
    return brute_rollouts(p, m, ep.init_state, ep.obs_at, ep.next_state)


def det_rollouts(p: Pomdp, s: str, m: int) -> tuple[History, ...]:
    """`brute_rollouts` of a deterministic environment started in `s`."""
    return brute_rollouts(
        p,
        m,
        s,
        lambda state, _: p.obs_dist(state).support[0],
        lambda state, action, _: p.trans_dist(state, action).support[0],
    )


def brute_response(histories) -> tuple:
    """The response function of a behavior map: rows (action sequence,
    observation sequence) in lexicographic order.  Comparing these orders
    behavior maps."""
    return tuple(sorted((h.actions, h.observations) for h in histories))


# ---------------------------------------------------------------------------
# random environments and policies


def support_size_within(p: Pomdp, m: int, cap: int) -> bool:
    """True iff the reduced support has at most `cap` policies (enumeration
    aborts early past the cap)."""
    count = 0
    for _ in _iter_support(p, m):
        count += 1
        if count > cap:
            return False
    return True


def random_dist(rng: random.Random, pool, max_support: int = 2) -> dict[str, Fraction]:
    size = 1 if rng.random() < 0.55 else min(max_support, len(pool))
    support = rng.sample(list(pool), size)
    weights = [rng.randint(1, 5) for _ in support]
    total = sum(weights)
    return {x: Fraction(w, total) for x, w in zip(support, weights)}


def random_pomdp(
    rng: random.Random,
    max_states: int = 4,
    max_actions: int = 3,
    max_obs: int = 3,
    resolution_cap: int = 512,
    horizon_cap: int = 2,
    alphabets: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> Pomdp:
    """A random environment with exact rational kernels, small enough that
    the reduced support stays enumerable up to `horizon_cap`."""
    for _ in range(500):
        n_states = rng.randint(2, max_states)
        if alphabets is None:
            actions = tuple(f"a{i}" for i in range(rng.randint(2, max_actions)))
            observations = tuple(f"x{i}" for i in range(rng.randint(2, max_obs)))
        else:
            actions, observations = alphabets
        states = tuple(f"q{i}" for i in range(n_states))
        p = Pomdp.build(
            states,
            actions,
            observations,
            random_dist(rng, states),
            {(s, a): random_dist(rng, states) for s in states for a in actions},
            {s: random_dist(rng, observations) for s in states},
        )
        if all(
            support_size_within(p, m, resolution_cap)
            for m in range(1, horizon_cap + 1)
        ):
            return p
    raise RuntimeError("could not draw a small-support environment")


def random_cf_env(
    rng: random.Random, n_states: int, resolution_cap: int = 5000
) -> Pomdp:
    """A random environment for counterfactual oracles: `n_states` states,
    actions declared out of sorted order, an initial distribution over at
    least two states, point-mass or two-outcome rows, and at most
    `resolution_cap` reduced resolutions at m = 3."""
    for _ in range(2000):
        states = tuple(f"q{i}" for i in range(n_states))
        actions = ("b", "a", "c")[: rng.randint(2, 3)]
        observations = ("x", "y", "z")
        init = random_dist(rng, states, max_support=len(states))
        if len(init) == 1:
            continue
        p = Pomdp.build(
            states,
            actions,
            observations,
            init,
            {(s, a): random_dist(rng, states) for s in states for a in actions},
            {s: random_dist(rng, observations) for s in states},
        )
        if support_size_within(p, 3, resolution_cap):
            return p
    raise RuntimeError("could not draw a small-support environment")


def relabel_states(p: Pomdp, prefix: str = "r_") -> Pomdp:
    """Rename states (alphabets untouched); counterfactually equivalent."""
    name = {s: f"{prefix}{s}" for s in p.states}
    return Pomdp.build(
        tuple(name[s] for s in p.states),
        p.actions,
        p.observations,
        {name[s]: w for s, w in p.init.entries},
        {
            (name[s], a): {name[s2]: w for s2, w in dist.entries}
            for (s, a), dist in p.trans
        },
        {name[s]: {o: w for o, w in dist.entries} for s, dist in p.obs},
    )


def split_initial_state(p: Pomdp) -> Pomdp:
    """Split the first initial-support state into two equal halves with
    identical rows; counterfactually equivalent to the original."""
    target = p.init.support[0]
    twin = target + "_twin"
    states = p.states + (twin,)
    init = []
    for s, w in p.init.entries:
        if s == target:
            init.extend([(s, w / 2), (twin, w / 2)])
        else:
            init.append((s, w))
    trans = {(s, a): dist for (s, a), dist in p.trans}
    for a in p.actions:
        trans[(twin, a)] = p.trans_dist(target, a)
    obs = {s: dist for s, dist in p.obs}
    obs[twin] = p.obs_dist(target)
    return Pomdp.build(states, p.actions, p.observations, FiniteDist.of(init), trans, obs)


def perturb_one_row(p: Pomdp, rng: random.Random) -> Pomdp:
    """Replace one transition row with a fresh random distribution."""
    s = rng.choice(p.states)
    a = rng.choice(p.actions)
    trans = {key: dist for key, dist in p.trans}
    trans[(s, a)] = FiniteDist.of(random_dist(rng, p.states))
    return Pomdp.build(p.states, p.actions, p.observations, p.init, trans, dict(p.obs))


def fresh_observation_pair(p: Pomdp, k: int, fresh: str = "fresh") -> tuple[Pomdp, Pomdp]:
    """`p` with an observation `fresh` declared but never emitted, and `p`
    unrolled for k turns that emits only `fresh` from turn k on.  Histories
    shorter than k keep their probabilities, so the pair first differs at
    turn k."""

    def layer(s: str, t: int) -> str:
        return f"{s}@{t}" if t < k else f"{s}@late"

    observations = p.observations + (fresh,)
    trans, obs = {}, {}
    for t in range(k + 1):
        for s in p.states:
            obs[layer(s, t)] = p.obs_dist(s) if t < k else FiniteDist.point(fresh)
            for a in p.actions:
                trans[(layer(s, t), a)] = {
                    layer(s2, min(t + 1, k)): w for s2, w in p.trans_dist(s, a).entries
                }
    unrolled = Pomdp.build(
        tuple(layer(s, t) for t in range(k + 1) for s in p.states),
        p.actions,
        observations,
        {layer(s, 0): w for s, w in p.init.entries},
        trans,
        obs,
    )
    declared = Pomdp.build(p.states, p.actions, observations, p.init, dict(p.trans), dict(p.obs))
    return declared, unrolled


def reversed_alphabets(p: Pomdp) -> Pomdp:
    """`p` with its actions and observations declared in reverse order."""
    return Pomdp.build(
        p.states, p.actions[::-1], p.observations[::-1], p.init, dict(p.trans), dict(p.obs)
    )


def with_zero_observation_entries(p: Pomdp) -> Pomdp:
    """`p` with an explicit zero-probability entry for every observation a
    state does not emit; the same environment as far as any weight goes."""
    obs = {
        s: FiniteDist.of([(o, dist.prob(o)) for o in p.observations])
        for s, dist in p.obs
    }
    return Pomdp.build(p.states, p.actions, p.observations, p.init, dict(p.trans), obs)


def random_det_policy(p: Pomdp, m: int, rng: random.Random) -> DeterministicPolicy:
    from cfpomdp.core import decision_points

    return DeterministicPolicy(
        tuple((h, rng.choice(p.actions)) for h in decision_points(p, m))
    )


def random_stochastic_policy(p: Pomdp, m: int, rng: random.Random) -> StochasticPolicy:
    from cfpomdp.core import decision_points

    decisions = []
    for h in decision_points(p, m):
        decisions.append((h, FiniteDist.of(random_dist(rng, p.actions, max_support=len(p.actions)))))
    return StochasticPolicy(tuple(decisions))


def reachable_up_to(p: Pomdp, m: int) -> list[History]:
    from cfpomdp import reachable_histories

    out: list[History] = []
    for group in reachable_histories(p, m).values():
        out.extend(group)
    return out


# ---------------------------------------------------------------------------
# tiny fixed environments for unreduced-resolution oracles


def tiny_two_state() -> Pomdp:
    return Pomdp.build(
        ("u", "v"),
        ("a", "b"),
        ("x", "y"),
        {"u": Fraction(2, 3), "v": Fraction(1, 3)},
        {
            ("u", "a"): {"u": Fraction(1, 2), "v": Fraction(1, 2)},
            ("u", "b"): {"v": Fraction(1)},
            ("v", "a"): {"u": Fraction(1, 4), "v": Fraction(3, 4)},
            ("v", "b"): {"u": Fraction(1)},
        },
        {
            "u": {"x": Fraction(1, 3), "y": Fraction(2, 3)},
            "v": {"y": Fraction(1)},
        },
    )


def tiny_three_state() -> Pomdp:
    return Pomdp.build(
        ("u", "v", "w"),
        ("a", "b"),
        ("x", "y"),
        {"u": Fraction(1, 2), "w": Fraction(1, 2)},
        {
            ("u", "a"): {"v": Fraction(1, 3), "w": Fraction(2, 3)},
            ("u", "b"): {"u": Fraction(1)},
            ("v", "a"): {"v": Fraction(1)},
            ("v", "b"): {"u": Fraction(1, 2), "w": Fraction(1, 2)},
            ("w", "a"): {"w": Fraction(1)},
            ("w", "b"): {"v": Fraction(1)},
        },
        {
            "u": {"x": Fraction(1)},
            "v": {"x": Fraction(1, 4), "y": Fraction(3, 4)},
            "w": {"y": Fraction(1)},
        },
    )


def aliased_env() -> Pomdp:
    """Three states, two of them emitting the same observation."""
    half = Fraction(1, 2)
    return Pomdp.build(
        ("s0", "s1", "s2"), ("a0", "a1"), ("x", "y", "z"), {"s0": 1},
        {
            ("s0", "a0"): {"s1": half, "s0": half},
            ("s0", "a1"): {"s2": Fraction(5, 6), "s0": Fraction(1, 6)},
            ("s1", "a0"): {"s2": half, "s0": half},
            ("s1", "a1"): {"s2": Fraction(5, 9), "s1": Fraction(4, 9)},
            ("s2", "a0"): {"s2": half, "s1": half},
            ("s2", "a1"): {"s1": Fraction(3, 7), "s2": Fraction(4, 7)},
        },
        {"s0": {"y": 1}, "s1": {"x": 1}, "s2": {"x": 1}},
    )


def shared_successor_env() -> Pomdp:
    """Deterministic, with three initial states: u and v emit the same
    observation and both move to w, so a belief over current states alone
    merges them after one step; d stays apart."""
    return Pomdp.build(
        ("u", "v", "d", "w"), ("a", "b"), ("x", "y"),
        {"u": Fraction(1, 6), "v": Fraction(1, 3), "d": Fraction(1, 2)},
        {
            ("u", "a"): {"w": 1}, ("u", "b"): {"u": 1},
            ("v", "a"): {"w": 1}, ("v", "b"): {"d": 1},
            ("d", "a"): {"d": 1}, ("d", "b"): {"w": 1},
            ("w", "a"): {"w": 1}, ("w", "b"): {"w": 1},
        },
        {"u": {"x": 1}, "v": {"x": 1}, "d": {"x": 1}, "w": {"y": 1}},
    )


def missing_rows_env() -> Pomdp:
    """Deterministic and unvalidated: along "x a x a x", initial state s
    reaches a state without an observation row (s2) at turn 2, and t one
    (t1) at turn 1."""
    return Pomdp.build(
        ("s", "t", "s1", "s2", "t1"), ("a",), ("x",),
        {"s": Fraction(1, 2), "t": Fraction(1, 2)},
        {(s, "a"): {nxt: 1} for s, nxt in
         (("s", "s1"), ("s1", "s2"), ("s2", "s2"), ("t", "t1"), ("t1", "t1"))},
        {"s": {"x": 1}, "t": {"x": 1}, "s1": {"x": 1}},
    )


def clean_start_then_missing_rows_env() -> Pomdp:
    """`missing_rows_env` behind a third initial state, declared first: along
    "x a x a x", r folds cleanly, s reaches s2 (no observation row) at turn
    2, and t reaches t1 (none) at turn 1."""
    return Pomdp.build(
        ("r", "s", "t", "r1", "s1", "s2", "t1"), ("a",), ("x",),
        {"r": Fraction(1, 3), "s": Fraction(1, 3), "t": Fraction(1, 3)},
        {(s, "a"): {nxt: 1} for s, nxt in
         (("r", "r1"), ("r1", "r1"), ("s", "s1"), ("s1", "s2"), ("s2", "s2"),
          ("t", "t1"), ("t1", "t1"))},
        {"r": {"x": 1}, "r1": {"x": 1}, "s": {"x": 1}, "t": {"x": 1}, "s1": {"x": 1}},
    )
