"""Decision procedures for m-equivalence and m-counterfactual equivalence.

m-equivalence: two similar environments assign the same conditional
probability to every pair of histories up to length m, under every policy.
Only prefix pairs h' of h matter (non-extensions condition to 0 on both
sides), and there every policy's conditional is either w(h)/w(h'), a ratio
of policy-free weights (`core.history_weights`), or trivially equal on both
sides, because history probabilities are multilinear in the per-history
action probabilities.  As w(h)/w(h') = [w(h)/w(o0)] / [w(h')/w(o0)], each
history is compared once, relative to its initial observation o0; a failure
is the pair (h, o0) under the policy playing h's own actions.

m-counterfactual equivalence: joint probabilities over a shared resolution
agree for every finite collection of (history, policy) pairs.  Decided by
comparing the full distributions over behavior maps: a collection of
deterministic pairs has, as its joint probability, the total mass of the
behavior maps consistent with every pair, so the behavior-map distribution
determines all collection probabilities (stochastic policies reduce to
convex combinations of deterministic ones); conversely the distribution is
recovered from collections that pin down a full behavior map.  Both
`behavior_distribution` and `collection_prob` work from that distribution,
which a dynamic program over (turn, visited states) builds without
enumerating resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DeterministicPolicy,
    History,
    Pomdp,
    Rat,
    StochasticPolicy,
    history_sort_key,
    history_weights,
)
from .envpolicy import BehaviorMap
from .errors import InputError, SimilarityError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CollectionQuery:
    """A finite collection of (history, policy) pairs sharing one resolution."""

    pairs: tuple[tuple[History, StochasticPolicy], ...]

    def __post_init__(self):
        if not self.pairs:
            raise InputError("a collection query needs at least one pair")


@dataclass(frozen=True)
class ConditionalWitness:
    """Two histories and a policy whose conditional probabilities differ."""

    h_long: History
    h_short: History
    policy: DeterministicPolicy
    value_left: Rat
    value_right: Rat


@dataclass(frozen=True)
class CollectionWitness:
    """A collection query whose joint probabilities differ."""

    query: CollectionQuery
    value_left: Rat
    value_right: Rat


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    witness: ConditionalWitness | CollectionWitness | None = None

    def __post_init__(self):
        if self.equivalent and self.witness is not None:
            raise InputError("an equivalence verdict cannot carry a witness")
        if not self.equivalent and self.witness is None:
            raise InputError("an inequivalence verdict must carry a witness")


def ensure_similar(p1: Pomdp, p2: Pomdp) -> None:
    """Similar environments share action and observation alphabets (and hence
    histories and policies)."""
    if set(p1.actions) != set(p2.actions):
        raise SimilarityError(
            f"action alphabets differ: {sorted(p1.actions)} vs {sorted(p2.actions)}"
        )
    if set(p1.observations) != set(p2.observations):
        raise SimilarityError(
            f"observation alphabets differ: "
            f"{sorted(p1.observations)} vs {sorted(p2.observations)}"
        )


def check_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """Decide m-equivalence, with a conditional-probability witness on
    failure."""
    ensure_similar(p1, p2)
    w1, w2 = history_weights(p1, m), history_weights(p2, m)

    def relative(w: dict[History, Rat], h: History) -> Rat:
        base = w.get(h.prefix(0), _ZERO)
        return _ZERO if base == 0 else w.get(h, _ZERO) / base

    for h in sorted(w1.keys() | w2.keys(), key=history_sort_key):
        v1, v2 = relative(w1, h), relative(w2, h)
        if v1 != v2:
            return Verdict(
                equivalent=False,
                witness=ConditionalWitness(
                    h, h.prefix(0), DeterministicPolicy.script(h), v1, v2
                ),
            )
    return Verdict(equivalent=True)


def collection_prob(p: Pomdp, q: CollectionQuery, m: int) -> Rat:
    """Joint probability that agents sharing one resolution each see their
    paired history: the sum over behavior maps of the map's mass times the
    product of the per-agent history probabilities, each read by walking
    the history's actions down the map's tree."""
    for h, _ in q.pairs:
        if h.length > m:
            raise InputError(f"history {h} longer than the horizon {m} of the query")
    total = _ZERO
    for bm, term in behavior_distribution(p, m).items():
        for h, pi in q.pairs:
            p.check_history_symbols(h)
            obs, children = bm.tree
            if obs != h.initial_obs:
                term = _ZERO
            for turn, (action, o) in enumerate(h.steps):
                if term == 0:
                    break
                term *= pi.prob(h.prefix(turn), action)
                obs, children = children[bm.actions.index(action)]
                if obs != o:
                    term = _ZERO
            if term == 0:
                break
        total += term
    return total


def _product(rows, weight: Rat = _ONE) -> list[tuple[tuple, Rat]]:
    """Every choice of one (item, weight) per row, weighted by their product."""
    out = [((), weight)]
    for row in rows:
        out = [(xs + (x,), w if v == 1 else w * v) for xs, w in out for x, v in row]
    return out


def behavior_distribution(p: Pomdp, m: int) -> dict[BehaviorMap, Rat]:
    """Pushforward of the resolution distribution through the behavior map;
    resolutions with identical maps merge.  Values sum to exactly 1.

    No resolution is enumerated: F(t, V), memoized over the turn t and the
    states V visited at t, is a distribution over tuples of interned node
    ids (observation at (s, t), one child id per sorted action), one per
    state of V.  It sums each choice of successors on V x actions against
    F(t + 1, V'), and observation choices multiply in.  Rows are read only
    for visited states, as in `enumerate_support`.
    """
    if m < 1:
        raise InputError(f"turn count must be >= 1, got {m}")
    actions = tuple(sorted(p.actions))
    slot = [p.actions.index(a) for a in actions]
    ids: dict[tuple, int] = {}
    memo: dict[tuple, dict[tuple[int, ...], Rat]] = {}

    def dist(t: int, visited: tuple[str, ...]) -> dict[tuple[int, ...], Rat]:
        if (t, visited) in memo:
            return memo[t, visited]
        obs_rows = [[e for e in p.obs_dist(s).entries if e[1] > 0] for s in visited]
        children = {((),) * len(visited): _ONE} if t == m else {}
        if t < m and all(obs_rows):
            rows = [[e for e in p.trans_dist(s, a).entries if e[1] > 0]
                    for s in visited for a in p.actions]
            for succ, weight in _product(rows):
                nxt = tuple(sorted(set(succ), key=p.state_index.__getitem__))
                child_at = [[nxt.index(succ[i + j]) for j in slot]
                            for i in range(0, len(succ), len(slot))]
                for key, mass in dist(t + 1, nxt).items():
                    vec = tuple(tuple(key[k] for k in row) for row in child_at)
                    children[vec] = children.get(vec, _ZERO) + weight * mass
        out = memo[t, visited] = {}
        for vec, mass in children.items():
            nodes = [[(ids.setdefault((o, kids), len(ids)), w) for o, w in row]
                     for row, kids in zip(obs_rows, vec)]
            out.update(_product(nodes, mass))
        return out

    roots: dict[int, Rat] = {}
    for s0, w0 in p.init.entries:
        if w0 > 0:
            for (root,), mass in dist(0, (s0,)).items():
                roots[root] = roots.get(root, _ZERO) + w0 * mass
    del dist  # it refers to itself: break the cycle so its memo dies here
    trees: list[tuple] = []
    for o, kids in ids:
        trees.append((o, tuple(trees[i] for i in kids)))
    return {BehaviorMap(actions, trees[i]): mass for i, mass in roots.items()}


def _witness_query(bm: BehaviorMap) -> CollectionQuery:
    """The collection pinning down one full behavior map: each action
    sequence paired with its scripted policy and generated history."""
    return CollectionQuery(
        tuple((h, DeterministicPolicy.script(h).as_stochastic()) for h in bm.histories())
    )


def check_cf_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """Decide m-counterfactual equivalence by comparing behavior-map
    distributions; on failure, return a collection query whose joint
    probabilities are the two differing masses.

    Among differing maps the witness prefers one that is impossible in one
    environment (smallest minimum mass), breaking ties by behavior tree; the
    returned query re-evaluates, via `collection_prob`, to exactly the two
    reported values.
    """
    ensure_similar(p1, p2)
    d1 = behavior_distribution(p1, m)
    d2 = behavior_distribution(p2, m)
    if d1 == d2:
        return Verdict(equivalent=True)
    differing = [
        bm
        for bm in set(d1) | set(d2)
        if d1.get(bm, _ZERO) != d2.get(bm, _ZERO)
    ]
    bm = min(
        differing,
        key=lambda b: (min(d1.get(b, _ZERO), d2.get(b, _ZERO)), b.tree),
    )
    return Verdict(
        equivalent=False,
        witness=CollectionWitness(
            query=_witness_query(bm),
            value_left=d1.get(bm, _ZERO),
            value_right=d2.get(bm, _ZERO),
        ),
    )
