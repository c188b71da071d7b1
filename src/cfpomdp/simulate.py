"""Seeded Monte Carlo cross-check for joint history probabilities.

Each episode samples one reduced resolution with its probability: a root
of `envpolicy._behaviors` labelled by (state, observation), one per
resolution, in the order and with the masses of the deterministic twin's
initial states.  Every agent walks down that root's nodes, so sampled joint
frequencies estimate exactly the quantities `collection_prob` computes; the
exact column sums the same masses by joint outcome.
Identical seeds give identical output.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import DeterministicPolicy, History, Pomdp, Rat
from .envpolicy import _replay_nodes, _walk
from .errors import InputError

_SCALE = 2**64


@dataclass(frozen=True)
class SimulationResult:
    episodes: int
    seed: int
    # one entry per observed joint outcome: histories, count, exact probability
    outcomes: tuple[tuple[tuple[History, ...], int, Rat], ...]


def simulate(
    p: Pomdp,
    m: int,
    policies: list[DeterministicPolicy],
    episodes: int,
    seed: int,
) -> SimulationResult:
    """Sample `episodes` shared resolutions and report the empirical joint
    history frequencies next to their exact probabilities."""
    if not policies:
        raise InputError("need at least one agent policy")
    if episodes < 1:
        raise InputError(f"episodes must be >= 1, got {episodes}")
    nodes, roots = _replay_nodes(p, m)
    actions = sorted(p.actions)

    # All policies are deterministic, so a resolution fixes the whole joint
    # outcome; sampling reduces to a histogram over resolutions, and an
    # outcome's exact probability is the mass of the resolutions giving it.
    joint_of = [tuple(_walk(pi, actions, root, lambda i: (nodes[i][0][1], nodes[i][1]))
                      for pi in policies) for root in roots]
    exact: dict[tuple[History, ...], Rat] = {}
    cumulative: list[Fraction] = []
    running = Fraction(0)
    for joint, prob in zip(joint_of, roots.values()):
        exact[joint] = exact.get(joint, Fraction(0)) + prob
        running += prob
        cumulative.append(running)

    counts = [0] * len(roots)
    rng = random.Random(seed)
    for _ in range(episodes):
        draw = Fraction(rng.getrandbits(64), _SCALE)
        # the last resolution also takes a draw past the total, as when an
        # unvalidated environment's masses sum below 1
        counts[bisect_right(cumulative, draw, hi=len(cumulative) - 1)] += 1

    merged: dict[tuple[History, ...], int] = {}
    for joint, count in zip(joint_of, counts):
        if count:
            merged[joint] = merged.get(joint, 0) + count

    outcomes = tuple(
        (joint, merged[joint], exact[joint])
        for joint in sorted(merged, key=lambda js: tuple(str(h) for h in js))
    )
    return SimulationResult(episodes=episodes, seed=seed, outcomes=outcomes)
