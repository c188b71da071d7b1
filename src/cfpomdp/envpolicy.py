"""Environment policies: deterministic resolutions of an environment's
randomness for m turns.

A resolution fixes the initial state, one outcome for every transition row
(state, action, turn) and one observation for every (state, turn).  Stored
policies are *reduced*: choices are recorded only at entries reachable from
the chosen initial state under the policy's own choices, and the probability
of a reduced policy aggregates every full resolution that restricts to it
(the factors of unrecorded entries sum out to 1).  Reduction leaves every
probability of interest unchanged while keeping enumeration tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import itemgetter

from .core import (
    DeterministicPolicy,
    History,
    Pomdp,
    Rat,
    StochasticPolicy,
    _ZERO,
    _check_horizon,
    _rows_within,
)
from .errors import InputError
from .trajectory import _policy_factor


@dataclass(frozen=True, eq=False)
class EnvironmentPolicy:
    """One reduced resolution of an environment's randomness for `horizon`
    turns.

    `trans_choice` maps (state, action, turn i in 1..m) to the state entered
    at turn i; `obs_choice` maps (state, turn i in 0..m) to the observation
    made on arriving in that state at turn i.
    """

    init_state: str
    trans_choice: tuple[tuple[tuple[str, str, int], str], ...]
    obs_choice: tuple[tuple[tuple[str, int], str], ...]
    horizon: int
    _hash = None  # set by `_Turns.walk` or by the first `hash`; never pickled

    @cached_property
    def _trans(self) -> dict[tuple[str, str, int], str]:
        return dict(self.trans_choice)

    @cached_property
    def _obs(self) -> dict[tuple[str, int], str]:
        return dict(self.obs_choice)

    def next_state(self, state: str, action: str, turn: int) -> str:
        try:
            return self._trans[(state, action, turn)]
        except KeyError:
            raise InputError(
                f"environment policy has no choice at ({state}, {action}, {turn})"
            ) from None

    def obs_at(self, state: str, turn: int) -> str:
        try:
            return self._obs[(state, turn)]
        except KeyError:
            raise InputError(
                f"environment policy has no observation choice at ({state}, {turn})"
            ) from None

    def _key(self) -> tuple:
        """The choices read as mappings, a later repeated choice winning, for
        `__eq__`.  Not cached, nor are `env_policy_posterior`'s lookups: kept
        on every resolution of a posterior, a cache would double its memory.
        Only the hash, one int, is stored."""
        return (self.init_state, self.horizon, frozenset(dict(self.trans_choice).items()),
                frozenset(dict(self.obs_choice).items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvironmentPolicy):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        """`_hashed` over the choices read as mappings, so equal resolutions
        hash alike; the walk sets it from sums it carries."""
        if self._hash is None:
            mixed = _mixed(dict(self.trans_choice).items()) + _mixed(dict(self.obs_choice).items())
            object.__setattr__(self, "_hash", _hashed(self.init_state, self.horizon, mixed))
        return self._hash

    def __getstate__(self) -> dict:
        # string hashes differ between processes: recompute after unpickling
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def describe(self) -> str:
        trans = " ".join(
            f"({s},{a},{i})->{s2}"
            for (s, a, i), s2 in sorted(self.trans_choice, key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
        )
        obs = " ".join(
            f"({s},{i})->{o}"
            for (s, i), o in sorted(self.obs_choice, key=lambda kv: (kv[0][1], kv[0][0]))
        )
        return f"init {self.init_state} | trans {trans or '-'} | obs {obs or '-'}"


_MASK = (1 << 64) - 1


def _mixed(items) -> int:
    """The sum of the items' hashes, each mixed first as `frozenset` mixes
    them: a plain sum of tuple hashes collides often."""
    return sum((((h ^ 89869747) ^ (h << 16)) * 3644798167) & _MASK for h in map(hash, items))


def _hashed(init: str, horizon: int, mixed: int) -> int:
    """A resolution's hash from `_mixed` over all its choices."""
    return hash((init, horizon, mixed & _MASK))


def _product(rows) -> list[tuple[tuple, Rat]]:
    """Every choice of one (item, weight) per row, weighted by their product;
    the first row varies slowest."""
    out = [((), 1)]
    for row in rows:
        out = [(xs + (x,), w if v == 1 else w * v) for xs, w in out for x, v in row]
    return out


def _over(row) -> tuple[int, list[tuple]]:
    """A row's (item, exact weight) entries as integers over the lcm of their denominators."""
    den = lcm(*(w.denominator for _, w in row))
    return den, [(x, w.numerator * (den // w.denominator)) for x, w in row]


_LEFT = object()  # where a walk's history has led once a resolution leaves it


class _Turns(dict):
    """One call's turn table, which fixes the canonical order: a missing
    (turn t, states visited at t in declared order) key holds the `_product`
    of observation picks ((s, t), o) and, before turn m and only if every
    state has one, of successor picks ((s, a, t + 1), s2) on visited x
    actions, each with the sorted states it visits, as (denominator, picks)
    for each kind.  Rows come from one `_rows_within` sweep, each scaled to
    integers once (`_over`), so each is read once per call and a missing one
    raises before any key is built.  `sums` holds, for the walk alone, each
    key's `_mixed` sums per observation pick and per move.  Like `_NodeIds`
    it makes no reference cycle."""

    def __init__(self, p: Pomdp, m: int):
        _check_horizon(m, 1)
        self.p, self.m, self.sums = p, m, {}
        self.obs, self.trans = [{k: _over(row) for k, row in rows.items()}
                                for rows in _rows_within(p, m)]

    def __missing__(self, key: tuple[int, tuple[str, ...]]) -> tuple[int, list, int, list]:
        t, visited = key
        p = self.p
        seen = _product([[(((s, t), o), w) for o, w in self.obs[s][1]] for s in visited])
        rows = [(s, a) for s in visited for a in p.actions]
        moves = [] if t == self.m or not seen else [
            (ms, v, tuple(sorted({s2 for _, s2 in ms}, key=p.state_index.__getitem__)))
            for ms, v in _product([[(((s, a, t + 1), s2), v) for s2, v in self.trans[s, a][1]]
                                   for s, a in rows])]
        return self.setdefault(key, (prod(self.obs[s][0] for s in visited), seen,
                                     prod(self.trans[k][0] for k in rows) if moves else 1, moves))

    def walk(self, t: int, visited: tuple[str, ...], num: int, den: int, init: str,
             trans: tuple, obs: tuple, mixed: int, at, h: History | None):
        """`_iter_support` below one key, reached with mass num/den (no gcd on
        the way down), these choices and their `_mixed` sum, which hashes each
        resolution yielded; `at` is where h's actions have led at turn t, or
        `_LEFT` once an observation differed (a state may be "")."""
        d_seen, seen_picks, d_moves, moves = self[t, visited]
        if (t, visited) not in self.sums:
            self.sums[t, visited] = ([_mixed(seen) for seen, _ in seen_picks],
                                     [_mixed(ms) for ms, _, _ in moves])
        seen_mixed, moves_mixed = self.sums[t, visited]
        den, below = den * d_seen, den * d_seen * d_moves
        i = j = None  # at's position in the observation picks, its successor's in a move
        if at is not _LEFT and t <= h.length:
            i, want = visited.index(at), h.steps[t - 1][1] if t else h.initial_obs
            if t < h.length:
                j = i * len(self.p.actions) + self.p.action_index[h.steps[t][0]]
        for (seen, w), x in zip(seen_picks, seen_mixed):
            w *= num
            here = at if i is None or seen[i][1] == want else _LEFT
            if t == self.m:
                ep = EnvironmentPolicy(init, trans, obs + seen, t)
                object.__setattr__(ep, "_hash", _hashed(init, t, mixed + x))
                yield ep, w, den, here is not _LEFT
            follow = j is not None and here is not _LEFT
            for (ms, v, nxt), y in zip(moves, moves_mixed):
                yield from self.walk(t + 1, nxt, w * v, below, init, trans + ms, obs + seen,
                                     mixed + x + y, ms[j][1] if follow else here, h)


def _iter_support(p: Pomdp, m: int, h: History | None = None):
    """Depth-first enumeration of reduced environment policies in canonical order, initial
    state first: (policy, its mass as numerator and denominator, whether it generates h)."""
    turns = _Turns(p, m)
    for s0, w0 in p.init.entries:
        if w0 > 0:
            yield from turns.walk(0, (s0,), w0.numerator, w0.denominator, s0, (), (), 0,
                                  _LEFT if h is None else s0, h)


def enumerate_support(p: Pomdp, m: int) -> tuple[tuple[EnvironmentPolicy, Rat], ...]:
    """All reduced environment policies of positive probability, with their
    aggregated probabilities, which are positive and sum to exactly 1, in
    the canonical order, which the deterministic twin's initial states share.
    Each call recomputes the support: nothing is cached.  Its caller is
    `env-policies`, whose output is per resolution."""
    return tuple((ep, Fraction(num, den)) for ep, num, den, _ in _iter_support(p, m))


def _behaviors(p: Pomdp, m: int, label, table: dict[tuple, int]) -> tuple[int, dict[int, int]]:
    """The reduced resolutions' behaviors interned into a caller's table, as
    in a reduced BDD; returns (den, {root id: mass over den}).  A node is
    (label(s, o), child ids in sorted action order), s a state and o its
    observation, the node shape of `_NodeIds`: in one table equal behaviors
    get one id, whichever environment and action order they come from, and
    children precede parents.  Nodes at turn m have no children.

    No resolution is enumerated: F(t, V), memoized over `_Turns`' keys, is a
    distribution over tuples of node ids, one per state of V, held as
    (den, {ids: integer mass}).  A child vector is one flat tuple of child
    ids, state by state in sorted action order, read from a successor key's
    ids by one `itemgetter` per move; children of several successor sets
    are brought to the lcm of their denominators.  No `Fraction` is built:
    callers divide at their edge.  With label (s, o), which fixes the
    resolution, the roots are `enumerate_support`'s, in its order and with
    its masses.
    """
    turns = _Turns(p, m)
    n = len(p.actions)
    slots = [p.actions.index(a) for a in sorted(p.actions)]
    memo: dict[tuple, tuple[int, dict[tuple[int, ...], int]]] = {}

    def dist(t: int, visited: tuple[str, ...]) -> tuple[int, dict[tuple[int, ...], int]]:
        if (t, visited) in memo:
            return memo[t, visited]
        d_seen, seen_picks, den, moves = turns[t, visited]
        children = {(): 1} if t == m else {}
        if moves:
            below = [dist(t + 1, nxt) for _, _, nxt in moves]
            common = lcm(*(d for d, _ in below))
            den *= common
            for (ms, weight, nxt), (d, sub) in zip(moves, below):
                weight *= common // d
                at = [nxt.index(s2) for _, s2 in ms]
                flat = [at[i + j] for i in range(0, len(at), n) for j in slots]
                pick = itemgetter(*flat if len(flat) > 1 else [slice(flat[0], flat[0] + 1)])
                for key, mass in sub.items():
                    vec = pick(key)
                    children[vec] = children.get(vec, 0) + weight * mass
        out = {}
        for seen, w in seen_picks:
            labels = [(label(s, o), k) for ((s, _), o), k in zip(seen, range(0, len(seen) * n, n))]
            for vec, mass in children.items():
                key = tuple([table.setdefault((x, vec[k:k + n]), len(table)) for x, k in labels])
                out[key] = w * mass
        memo[t, visited] = d_seen * den, out
        return memo[t, visited]

    den, starts = _over([(s0, w0) for s0, w0 in p.init.entries if w0 > 0])
    below = [dist(0, (s0,)) for s0, _ in starts]
    common = lcm(*(d for d, _ in below))
    masses: dict[int, int] = {}
    for (_, w0), (d, sub) in zip(starts, below):
        w0 *= common // d
        for (root,), mass in sub.items():
            masses[root] = masses.get(root, 0) + w0 * mass
    del dist  # it refers to itself: break the cycle so its memo dies here
    return den * common, masses


def _replay_nodes(p: Pomdp, m: int) -> tuple[list[tuple], dict[int, Rat]]:
    """`_behaviors` labelled by (state, observation), which fixes each
    resolution: its nodes in id order and {root id: mass}."""
    table: dict[tuple, int] = {}
    den, roots = _behaviors(p, m, lambda s, o: (s, o), table)
    return list(table), {root: Fraction(mass, den) for root, mass in roots.items()}


def env_policy_prob(p: Pomdp, ep: EnvironmentPolicy) -> Rat:
    """Aggregated probability of a reduced environment policy: the product of
    the environment's probabilities over the recorded entries."""
    if ep.init_state not in p.state_index:
        raise InputError(f"unknown state {ep.init_state!r} in environment policy")
    prob = p.init.prob(ep.init_state)
    for (s, a, _), s2 in ep.trans_choice:
        if s not in p.state_index or a not in p.action_index or s2 not in p.state_index:
            raise InputError(f"unknown symbol in choice ({s},{a})->{s2}")
        prob *= p.trans_dist(s, a).prob(s2)
    for (s, _), o in ep.obs_choice:
        if s not in p.state_index or o not in p.obs_index:
            raise InputError(f"unknown symbol in choice ({s})->{o}")
        prob *= p.obs_dist(s).prob(o)
    return prob


def _generates(h: History, x, label, step) -> bool:
    """Whether the deterministic evolution from `x`, driven by h's own
    actions, makes h's observations; `label(x, turn)` and
    `step(x, action, turn)` are as in `_NodeIds` (a resolution's `obs_at`
    and `next_state`).  Reads stop at the first other observation."""
    if label(x, 0) != h.initial_obs:
        return False
    for turn, (action, obs) in enumerate(h.steps, start=1):
        x = step(x, action, turn)
        if label(x, turn) != obs:
            return False
    return True


def history_prob_given_ep(
    p: Pomdp, h: History, ep: EnvironmentPolicy, pi: StochasticPolicy
) -> Rat:
    """Probability of `h` given one resolution: the policy's factor along
    `h` if the resolution generates `h`, else 0 (and the policy is not read)."""
    p.check_history_symbols(h)
    if h.length > ep.horizon:
        raise InputError(
            f"history length {h.length} exceeds environment policy horizon {ep.horizon}"
        )
    generated = _generates(h, ep.init_state, ep.obs_at, ep.next_state)
    return _policy_factor(h, pi) if generated else _ZERO


def env_policy_posterior(
    p: Pomdp, h: History, pi: StochasticPolicy, m: int | None = None
) -> dict[EnvironmentPolicy, Rat]:
    """Posterior over the reduced support of horizon `m` (default: covering
    `h`) given `h`; all-zero when `h` is impossible under `pi`.  The policy's
    factor cancels, so this is the prior on the resolutions generating `h`
    (decided in the walk), the deterministic twin's `initial_posterior`."""
    if m is None:
        m = max(h.length, 1)
    _check_horizon(m, None)
    if m < h.length:
        raise InputError(f"posterior horizon {m} shorter than history ({h.length})")
    p.check_history_symbols(h)
    support = list(_iter_support(p, m, h))
    common = lcm(*{den for _, _, den, generated in support if generated})
    total = sum(num * (common // den) for _, num, den, generated in support if generated)
    if total == 0 or _policy_factor(h, pi) == 0:
        return {ep: _ZERO for ep, *_ in support}
    return {ep: Fraction(num * (common // den), total) if generated else _ZERO
            for ep, num, den, generated in support}


class _NodeIds(dict):
    """(state, turn) -> id of its behavior node in a caller's intern table
    {(label(s, t), child ids in sorted action order): id}, the node shape of
    `_behaviors`: equal behaviors in one table get one id, and
    children precede parents.  A missing key interns its children, then
    itself, so one memo makes O(|S|·|A|·m) label and step calls in all.
    Unlike a self-recursive closure it makes no reference cycle."""

    def __init__(self, table: dict[tuple, int], actions, m: int, label, step):
        _check_horizon(m, 0)
        self.table, self.actions, self.m = table, sorted(actions), m
        self.label, self.step = label, step

    def __missing__(self, key: tuple[str, int]) -> int:
        s, t = key
        kids = () if t == self.m else tuple(
            self[self.step(s, a, t + 1), t + 1] for a in self.actions
        )
        self[key] = self.table.setdefault((self.label(s, t), kids), len(self.table))
        return self[key]


def _trees(table: dict[tuple, int], actions, wanted) -> dict[int, "BehaviorMap"]:
    """The behavior maps of the ids `wanted`, their trees unfolded from an
    intern table, in which children precede parents.  The only code that
    builds a tuple tree."""
    nodes = list(table)
    need, stack = set(), list(wanted)
    while stack:
        i = stack.pop()
        if i not in need:
            need.add(i)
            stack.extend(nodes[i][1])
    trees: dict[int, tuple] = {}
    for i in sorted(need):
        o, kids = nodes[i]
        trees[i] = o, tuple(trees[k] for k in kids)
    actions = tuple(sorted(actions))
    return {i: BehaviorMap(actions, trees[i]) for i in wanted}


def _walk(pi: DeterministicPolicy, actions, node, read) -> History:
    """The history `pi` generates down a behavior from `node`, where
    `read(node)` is its observation and its children, one per action of
    `actions`, in that order."""
    obs, children = read(node)
    h = History(obs)
    while children:
        action = pi.action_at(h)
        if action not in actions:
            raise InputError(f"action {action!r} outside the behavior map")
        obs, children = read(children[actions.index(action)])
        h = h.extend(action, obs)
    return h


@dataclass(frozen=True)
class BehaviorMap:
    """The function sending each deterministic policy to the length-m history
    it generates inside a fixed resolution (or from a fixed initial state of
    a deterministic environment).

    Represented by its behavior tree over the sorted action alphabet: nodes
    are (observation, one child per action), without children at turn m.
    Trees are comparable across environments sharing alphabets and compare
    in pre-order, the lexicographic order of observation sequences by action
    sequence.
    """

    actions: tuple[str, ...]
    tree: tuple

    def history_for(self, pi: DeterministicPolicy) -> History:
        """Walk the tree down along a deterministic policy."""
        return _walk(pi, self.actions, self.tree, lambda node: node)

    def histories(self) -> tuple[History, ...]:
        """All histories in the image of the map, one per action sequence,
        in lexicographic order of the action sequences."""
        level = [(History(self.tree[0]), self.tree[1])]
        while level[0][1]:
            level = [
                (h.extend(a, obs), grandchildren)
                for h, children in level
                for a, (obs, grandchildren) in zip(self.actions, children)
            ]
        return tuple(h for h, _ in level)


def behavior_map(p: Pomdp, ep: EnvironmentPolicy, m: int) -> BehaviorMap:
    """Behavior map of one resolution: every deterministic policy is sent to
    the history it generates there."""
    if m != ep.horizon:
        raise InputError(
            f"turn count {m} does not match environment policy horizon {ep.horizon}"
        )
    table: dict[tuple, int] = {}
    root = _NodeIds(table, p.actions, m, ep.obs_at, ep.next_state)[ep.init_state, 0]
    return _trees(table, p.actions, [root])[root]


def count_env_policies(p: Pomdp, m: int, convention: str = "full") -> int:
    """Number of (unreduced) environment policies.

    ``full`` counts initial-state, transition, and observation components:
    |S| * |S|^(|S||A|m) * |O|^(|S|(m+1)).  ``transition-only`` omits the
    observation component: |S| * |S|^(|S||A|m).
    """
    _check_horizon(m, 1)
    ns, na, no = len(p.states), len(p.actions), len(p.observations)
    base = ns * ns ** (ns * na * m)
    if convention == "transition-only":
        return base
    if convention == "full":
        return base * no ** (ns * (m + 1))
    raise InputError(f"unknown convention {convention!r} (use full or transition-only)")
