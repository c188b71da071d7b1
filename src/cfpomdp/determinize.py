"""Construction of a deterministic, counterfactually equivalent environment,
plus the behavior partition of deterministic environments and the quotient
minimization it induces.  The partition groups initial states by the id of
their behavior in one intern table (`envpolicy._NodeIds`), so cells are
found, and `minimize` and `learning.transfer` compare them, without
unfolding a tree; `behavior_partition` unfolds only the maps it returns.

The constructed environment has one initial state per reduced resolution of
the source, carrying that resolution's probability; transitions and
observations replay the resolution deterministically, with the turn index
advanced alongside.  Replay states are the nodes that `envpolicy._behaviors`
interns, labelled by (base state, observation), so one state stands for
every replay position with the same future, and resolutions that share a
tail share its states; the traversal that names them follows each node's
children in declared action order.  A labelled tree fixes its resolution,
so initial states remain in probability-preserving bijection with the
reduced support, in its order.  States at the final turn self-loop under
every action with their own observation, keeping the transition kernel
total without adding pre-horizon behavior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .core import FiniteDist, Pomdp, Rat, _ZERO
from .envpolicy import BehaviorMap, _NodeIds, _replay_nodes, _trees
from .errors import DeterminismError


def is_deterministic(p: Pomdp) -> bool:
    """True iff every transition and observation distribution is a point
    mass.  The initial distribution may be arbitrary: it is where such an
    environment keeps all of its uncertainty."""
    return all(dist.is_point() for _, dist in p.trans) and all(
        dist.is_point() for _, dist in p.obs
    )


def _point(dist: FiniteDist) -> str:
    return dist.entries[0][0]


def determinize(p: Pomdp, m: int) -> Pomdp:
    """Build a deterministic environment that is m-counterfactually
    equivalent to `p`, with all randomness moved into the initial
    distribution over per-resolution replay states."""
    nodes, roots = _replay_nodes(p, m)
    actions = sorted(p.actions)
    # Replay states in first-encounter (pre-order) order, with their turns;
    # children, in sorted action order, are walked in declared order.
    declared = [actions.index(a) for a in reversed(p.actions)]
    turn_of: dict[int, int] = {}
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        i, turn = stack.pop()
        if i not in turn_of:
            turn_of[i] = turn
            children = nodes[i][1]
            if children:
                stack.extend((children[j], turn + 1) for j in declared)

    # Name states base@turn, disambiguated by first-encounter index when the
    # same (base, turn) pair carries several distinct behaviors.
    bases = [(nodes[i][0][0], turn) for i, turn in turn_of.items()]
    shared = Counter(bases)
    seen: Counter[tuple[str, int]] = Counter()
    names: dict[int, str] = {}
    for i, (s, turn) in zip(turn_of, bases):
        if shared[(s, turn)] == 1:
            names[i] = f"{s}@{turn}"
        else:
            # '#' starts a comment in the file format, so disambiguate with '.'
            names[i] = f"{s}@{turn}.{seen[(s, turn)]}"
            seen[(s, turn)] += 1

    init = FiniteDist.of([(names[root], mass) for root, mass in roots.items()])
    point = cache(FiniteDist.point)  # one row object per target, shared by its rows
    trans = {}
    obs = {}
    for i, name in names.items():
        (_, o), children = nodes[i]
        obs[name] = point(o)
        targets = [names[child] for child in children] if children else [name] * len(p.actions)
        for a, target in zip(actions, targets):
            trans[(name, a)] = point(target)
    return Pomdp.build(tuple(names.values()), p.actions, p.observations, init, trans, obs)


def _ids(p: Pomdp, m: int, table: dict[tuple, int]) -> _NodeIds:
    """(state, turn) -> id in `table` of the behavior of a deterministic
    environment started in that state at that turn."""
    if not is_deterministic(p):
        raise DeterminismError("operation requires deterministic transitions and observations")
    return _NodeIds(table, p.actions, m, lambda s, t: _point(p.obs_dist(s)),
                    lambda s, a, t: _point(p.trans_dist(s, a)))


def initial_behavior_map(p: Pomdp, s: str, m: int) -> BehaviorMap:
    """Behavior map of a deterministic environment started in state `s`:
    each deterministic policy is sent to the unique length-m history it
    generates from there."""
    table: dict[tuple, int] = {}
    root = _ids(p, m, table)[s, 0]
    return _trees(table, p.actions, [root])[root]


def _cells(p: Pomdp, m: int, table: dict[tuple, int]) -> list[tuple[int, tuple[str, ...], Rat]]:
    """The behavior partition of a deterministic environment's initial
    support with its behaviors interned in `table`: (id, members in declared
    order, aggregated initial mass) per cell, cells in order of their first
    member."""
    ids = _ids(p, m, table)
    roots = [(s, ids[s, 0]) for s in p.init.support]
    groups: dict[int, list[str]] = {}
    for s, i in sorted(roots, key=lambda root: p.state_index[root[0]]):
        groups.setdefault(i, []).append(s)
    return [(i, tuple(members), sum((p.init.prob(s) for s in members), _ZERO))
            for i, members in groups.items()]


@dataclass(frozen=True)
class BehaviorPartition:
    """Initial-support states of a deterministic environment grouped by equal
    behavior maps, with the aggregated initial mass of each cell."""

    cells: tuple[tuple[BehaviorMap, tuple[str, ...], Rat], ...]

    def masses(self) -> dict[BehaviorMap, Rat]:
        return {bm: mass for bm, _, mass in self.cells}


def behavior_partition(p: Pomdp, m: int) -> BehaviorPartition:
    """Partition the initial support by behavior map; cell masses sum to 1.

    Cells are found by comparing interned ids (`_cells`), in O(|S|·|A|·m)
    steps; only the returned maps are unfolded into trees."""
    table: dict[tuple, int] = {}
    cells = _cells(p, m, table)
    maps = _trees(table, p.actions, [i for i, _, _ in cells])
    return BehaviorPartition(tuple((maps[i], members, mass) for i, members, mass in cells))


def minimize(p: Pomdp, m: int) -> Pomdp:
    """Quotient a deterministic environment by its behavior partition: each
    cell's mass moves to its first-declared member, then states unreachable
    from the new initial support are pruned.  The behavior-map distribution,
    and hence counterfactual equivalence at horizon m, is preserved."""
    new_init = [(members[0], mass) for _, members, mass in _cells(p, m, {})]

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
