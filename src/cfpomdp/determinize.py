"""Construction of a deterministic, counterfactually equivalent environment,
plus the behavior partition of deterministic environments and the quotient
minimization it induces.

The constructed environment has one initial state per reduced resolution of
the source, carrying that resolution's probability; transitions and
observations replay the resolution deterministically, with the turn index
advanced alongside.  Interior states are keyed by their future behavior
(base state, current observation, and the successor keys per action), so
resolutions that share a tail share the corresponding states; initial states
remain in probability-preserving bijection with the reduced support.  States
at the final turn self-loop under every action with their own observation,
keeping the transition kernel total without adding pre-horizon behavior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import FiniteDist, Pomdp, Rat
from .envpolicy import BehaviorMap, EnvironmentPolicy, enumerate_support
from .errors import DeterminismError, InputError

_ZERO = Fraction(0)


def is_deterministic(p: Pomdp) -> bool:
    """True iff every transition and observation distribution is a point
    mass.  The initial distribution may be arbitrary: it is where such an
    environment keeps all of its uncertainty."""
    return all(dist.is_point() for _, dist in p.trans) and all(
        dist.is_point() for _, dist in p.obs
    )


def _require_deterministic(p: Pomdp) -> None:
    if not is_deterministic(p):
        raise DeterminismError(
            "operation requires deterministic transitions and observations"
        )


def _point(dist: FiniteDist) -> str:
    return dist.entries[0][0]


def determinize(p: Pomdp, m: int) -> Pomdp:
    """Build a deterministic environment that is m-counterfactually
    equivalent to `p`, with all randomness moved into the initial
    distribution over per-resolution replay states."""
    support = enumerate_support(p, m)

    order: list[tuple] = []
    base_of: dict[tuple, tuple[str, int]] = {}
    children_of: dict[tuple, tuple[tuple, ...]] = {}
    init_mass: dict[tuple, Rat] = {}

    def key_of(ep: EnvironmentPolicy, memo: dict, s: str, turn: int) -> tuple:
        try:
            return memo[(s, turn)]
        except KeyError:
            pass
        obs = ep.obs_at(s, turn)
        if turn == m:
            key = (s, obs)
        else:
            key = (
                s,
                obs,
                tuple(
                    key_of(ep, memo, ep.next_state(s, a, turn + 1), turn + 1)
                    for a in p.actions
                ),
            )
        memo[(s, turn)] = key
        return key

    def register(key: tuple, s: str, turn: int) -> None:
        if key in base_of:
            return
        order.append(key)
        base_of[key] = (s, turn)
        if turn < m:
            children_of[key] = key[2]
            for child in key[2]:
                register(child, child[0], turn + 1)

    for ep, prob in support:
        memo: dict[tuple[str, int], tuple] = {}
        root = key_of(ep, memo, ep.init_state, 0)
        register(root, ep.init_state, 0)
        init_mass[root] = init_mass.get(root, _ZERO) + prob

    # Name states: base@turn, disambiguated by first-encounter index when the
    # same (base, turn) pair carries several distinct behaviors.
    group_counts: dict[tuple[str, int], int] = {}
    for key in order:
        group_counts[base_of[key]] = group_counts.get(base_of[key], 0) + 1
    counters: dict[tuple[str, int], int] = {}
    names: dict[tuple, str] = {}
    for key in order:
        s, turn = base_of[key]
        if group_counts[(s, turn)] == 1:
            names[key] = f"{s}@{turn}"
        else:
            # '#' starts a comment in the file format, so disambiguate with '.'
            j = counters.get((s, turn), 0)
            counters[(s, turn)] = j + 1
            names[key] = f"{s}@{turn}.{j}"

    states = tuple(names[key] for key in order)
    init = FiniteDist.of(
        [(names[key], mass) for key, mass in init_mass.items()]
    )
    trans = {}
    obs = {}
    for key in order:
        name = names[key]
        _, turn = base_of[key]
        obs[name] = FiniteDist.point(key[1])
        if turn == m:
            for a in p.actions:
                trans[(name, a)] = FiniteDist.point(name)
        else:
            for a, child in zip(p.actions, children_of[key]):
                trans[(name, a)] = FiniteDist.point(names[child])
    return Pomdp.build(states, p.actions, p.observations, init, trans, obs)


def initial_behavior_map(p: Pomdp, s: str, m: int) -> BehaviorMap:
    """Behavior map of a deterministic environment started in state `s`:
    each deterministic policy is sent to the unique length-m history it
    generates from there."""
    _require_deterministic(p)
    if s not in p.state_index:
        raise InputError(f"unknown state {s!r}")
    return _rollout_map(p, s, m)


def _rollout_map(p: Pomdp, s: str, m: int) -> BehaviorMap:
    entries = []
    for actions in itertools.product(p.actions, repeat=m):
        state = s
        observations = [_point(p.obs_dist(state))]
        for a in actions:
            state = _point(p.trans_dist(state, a))
            observations.append(_point(p.obs_dist(state)))
        entries.append((actions, tuple(observations)))
    return BehaviorMap(horizon=m, response=tuple(sorted(entries)))


@dataclass(frozen=True)
class BehaviorPartition:
    """Initial-support states of a deterministic environment grouped by equal
    behavior maps, with the aggregated initial mass of each cell."""

    cells: tuple[tuple[BehaviorMap, tuple[str, ...], Rat], ...]

    def masses(self) -> dict[BehaviorMap, Rat]:
        return {bm: mass for bm, _, mass in self.cells}

    def cell_of(self, bm: BehaviorMap) -> tuple[str, ...]:
        for candidate, members, _ in self.cells:
            if candidate == bm:
                return members
        raise InputError("behavior map not present in the partition")


def behavior_partition(p: Pomdp, m: int) -> BehaviorPartition:
    """Partition the initial support by behavior map; cell masses sum to 1.

    States are grouped by an interned behavior node: the node of `s` at turn
    t is the id of (observation of s, node of each action's successor at
    t + 1), and a node at turn m has no successors.  Equal behavior maps are
    exactly equal node ids.  Nodes are memoized over (state, turn), so the
    grouping costs O(|S|·|A|·m); each cell's behavior map is rolled out once,
    from its first member."""
    _require_deterministic(p)
    ids: dict[tuple[str, tuple[int, ...]], int] = {}
    memo: dict[tuple[str, int], int] = {}

    def node(s: str, turn: int) -> int:
        if (s, turn) not in memo:
            children = () if turn == m else tuple(
                node(_point(p.trans_dist(s, a)), turn + 1) for a in p.actions
            )
            memo[(s, turn)] = ids.setdefault((_point(p.obs_dist(s)), children), len(ids))
        return memo[(s, turn)]

    groups: dict[int, list[str]] = {}
    for s in p.init.support:
        groups.setdefault(node(s, 0), []).append(s)
    cells = sorted(
        (tuple(sorted(members, key=p.state_index.__getitem__)) for members in groups.values()),
        key=lambda members: p.state_index[members[0]],
    )
    return BehaviorPartition(
        tuple(
            (
                _rollout_map(p, members[0], m),
                members,
                sum((p.init.prob(s) for s in members), _ZERO),
            )
            for members in cells
        )
    )


def minimize(p: Pomdp, m: int) -> Pomdp:
    """Quotient a deterministic environment by its behavior partition: each
    cell's mass moves to its first-declared member, then states unreachable
    from the new initial support are pruned.  The behavior-map distribution,
    and hence counterfactual equivalence at horizon m, is preserved."""
    partition = behavior_partition(p, m)
    new_init = [(members[0], mass) for _, members, mass in partition.cells]

    reachable: set[str] = set()
    frontier = [s for s, _ in new_init]
    while frontier:
        s = frontier.pop()
        if s in reachable:
            continue
        reachable.add(s)
        for a in p.actions:
            frontier.append(_point(p.trans_dist(s, a)))

    states = tuple(s for s in p.states if s in reachable)
    trans = {
        (s, a): p.trans_dist(s, a) for s in states for a in p.actions
    }
    obs = {s: p.obs_dist(s) for s in states}
    init = FiniteDist.of(
        sorted(new_init, key=lambda kv: p.state_index[kv[0]])
    )
    return Pomdp.build(states, p.actions, p.observations, init, trans, obs)
