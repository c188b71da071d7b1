"""Decision procedures for m-equivalence and m-counterfactual equivalence.

m-equivalence: two similar environments assign the same conditional
probability to every pair of histories up to length m, under every policy.
Checked through prefix pairs only (non-extensions condition to 0 on both
sides) and through one action-script policy per pair: every other policy's
conditional is either the same ratio of policy-free weights or trivially
equal on both sides, because history probabilities are multilinear in the
per-history action probabilities.

m-counterfactual equivalence: joint probabilities over a shared resolution
agree for every finite collection of (history, policy) pairs.  Decided by
comparing the full distributions over behavior maps: a collection of
deterministic pairs has, as its joint probability, the total mass of the
behavior maps consistent with every pair, so the behavior-map distribution
determines all collection probabilities (stochastic policies reduce to
convex combinations of deterministic ones); conversely the distribution is
recovered from collections that pin down a full behavior map.  The
direct sum over resolutions stays available as `collection_prob` and serves
as the oracle in the test suite.
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
    reachable_histories,
)
from .envpolicy import (
    BehaviorMap,
    behavior_map,
    enumerate_support,
    history_prob_given_ep,
)
from .errors import InputError, SimilarityError
from .trajectory import history_prob

_ZERO = Fraction(0)


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


def _all_reachable(p1: Pomdp, p2: Pomdp, m: int) -> list[History]:
    """Union of both reachable-history sets up to length m, in an
    environment-independent canonical order."""
    union: set[History] = set()
    for p in (p1, p2):
        for group in reachable_histories(p, m).values():
            union.update(group)
    return sorted(union, key=history_sort_key)


def _weight(cache: dict, p: Pomdp, h: History) -> Rat:
    """Policy-free weight of `h`: its probability under its own action
    script."""
    try:
        return cache[h]
    except KeyError:
        value = history_prob(p, h, DeterministicPolicy.script(h).as_stochastic())
        cache[h] = value
        return value


def check_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """Decide m-equivalence, with a conditional-probability witness on
    failure."""
    ensure_similar(p1, p2)
    if m < 0:
        raise InputError(f"turn count must be >= 0, got {m}")
    cache1: dict[History, Rat] = {}
    cache2: dict[History, Rat] = {}
    for h_long in _all_reachable(p1, p2, m):
        for h_short in h_long.prefixes():
            w1_short = _weight(cache1, p1, h_short)
            w2_short = _weight(cache2, p2, h_short)
            v1 = _ZERO if w1_short == 0 else _weight(cache1, p1, h_long) / w1_short
            v2 = _ZERO if w2_short == 0 else _weight(cache2, p2, h_long) / w2_short
            if v1 != v2:
                return Verdict(
                    equivalent=False,
                    witness=ConditionalWitness(
                        h_long=h_long,
                        h_short=h_short,
                        policy=DeterministicPolicy.script(h_long),
                        value_left=v1,
                        value_right=v2,
                    ),
                )
    return Verdict(equivalent=True)


def collection_prob(p: Pomdp, q: CollectionQuery, m: int) -> Rat:
    """Joint probability that agents sharing one resolution each see their
    paired history: the sum over the reduced support of the resolution
    probability times the product of the per-agent history probabilities."""
    for h, _ in q.pairs:
        if h.length > m:
            raise InputError(
                f"history {h} longer than the horizon {m} of the query"
            )
    total = _ZERO
    for ep, prior in enumerate_support(p, m):
        term = prior
        for h, pi in q.pairs:
            term *= history_prob_given_ep(p, h, ep, pi)
            if term == 0:
                break
        total += term
    return total


def behavior_distribution(p: Pomdp, m: int) -> dict[BehaviorMap, Rat]:
    """Pushforward of the resolution distribution through the behavior map;
    resolutions with identical maps merge.  Values sum to exactly 1."""
    out: dict[BehaviorMap, Rat] = {}
    for ep, prior in enumerate_support(p, m):
        bm = behavior_map(p, ep, m)
        out[bm] = out.get(bm, _ZERO) + prior
    return out


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
    if m < 1:
        raise InputError(f"turn count must be >= 1, got {m}")
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
