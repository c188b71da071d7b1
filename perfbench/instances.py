"""Seeded instance generator for the benchmark.

Every environment is built here, from the workload seed, and written in the
cfpomdp text format by this module's own serializer, so the program under
test only ever receives generated files.  Expected verdicts come from how a
pair is constructed, never from running the program:

* relabelling states and splitting the initial state preserve both
  m-equivalence and m-counterfactual equivalence;
* replacing every observation made after the first action (or after turn k)
  by a fresh symbol ``z`` that the other environment never emits breaks both
  at any horizon that reaches it;
* the four corpus environments shipped in ``src/cfpomdp/corpus`` carry the
  verdicts stated in the README; they are copied as text, not generated;
* two environments that differ only in the odds of their initial
  observations are distinguishable by a single agent (README definition),
  whatever they do afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

ACTIONS = ("a0", "a1")
FRESH_OBS = "z"


@dataclass
class Env:
    """An environment as integer-weighted rows; weights are normalized only
    when written."""

    states: list[str]
    observations: list[str]
    init: list[tuple[str, int]]
    obs: dict[str, list[tuple[str, int]]]
    trans: dict[tuple[str, str], list[tuple[str, int]]]
    actions: tuple[str, ...] = ACTIONS

    def text(self) -> str:
        lines = [
            "states: " + " ".join(self.states),
            "actions: " + " ".join(self.actions),
            "observations: " + " ".join(self.observations),
            "init: " + _dist(self.init),
        ]
        lines += [f"obs: {s} -> {_dist(self.obs[s])}" for s in self.states]
        lines += [
            f"trans: {s} {a} -> {_dist(self.trans[(s, a)])}"
            for s in self.states
            for a in self.actions
        ]
        return "\n".join(lines) + "\n"


def _dist(row: list[tuple[str, int]]) -> str:
    total = sum(w for _, w in row)
    return " | ".join(f"{k} {Fraction(w, total)}" for k, w in row)


def random_env(
    rng: random.Random, n: int, revealing: bool, band: tuple[int, int, int] | None = None
) -> Env:
    """n states, point-mass start on s0, two-outcome transition rows with
    weights 1..5, point-mass observations: one symbol per state when
    revealing, two shared symbols (both used) when aliased.

    With ``band = (m, lo, hi)``, draws are repeated until the number of
    reduced resolutions at horizon m lies in [lo, hi].  Enumeration cost
    grows with that number, and the transition graph alone can change it
    fourfold, so the band keeps every seed's instance the same size.
    """
    while True:
        env = _draw_env(rng, n, revealing)
        if band is None or band[1] <= count_resolutions(env, band[0]) <= band[2]:
            return env


def _draw_env(rng: random.Random, n: int, revealing: bool) -> Env:
    states = [f"s{i}" for i in range(n)]
    if revealing:
        observations = [f"o{i}" for i in range(n)]
        emit = dict(zip(states, observations))
    else:
        observations = ["x", "y"]
        labels = ["x", "y"] + [rng.choice(observations) for _ in range(n - 2)]
        rng.shuffle(labels)
        emit = dict(zip(states, labels))
    trans = {}
    for s in states:
        for a in ACTIONS:
            targets = rng.sample(states, 2)
            trans[(s, a)] = [(t, rng.randint(1, 5)) for t in targets]
    return Env(
        states=states,
        observations=observations + [FRESH_OBS],
        init=[("s0", 1)],
        obs={s: [(emit[s], 1)] for s in states},
        trans=trans,
    )


def relabel(env: Env, rng: random.Random) -> Env:
    """Rename and reorder the states; both equivalences are preserved."""
    names = [f"r{i}" for i in range(len(env.states))]
    rng.shuffle(names)
    new = dict(zip(env.states, names))
    order = sorted(env.states, key=new.__getitem__)
    return Env(
        states=[new[s] for s in order],
        observations=list(env.observations),
        init=[(new[s], w) for s, w in env.init],
        obs={new[s]: list(env.obs[s]) for s in order},
        trans={
            (new[s], a): [(new[t], w) for t, w in env.trans[(s, a)]]
            for s in order
            for a in env.actions
        },
        actions=env.actions,
    )


def split_initial(env: Env, rng: random.Random) -> Env:
    """Split the first initial state into two copies with identical rows
    that share its initial mass; the copy is never entered again, so both
    equivalences are preserved."""
    (s0, w0), rest = env.init[0], env.init[1:]
    copy = s0 + "c"
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    scale = a + b
    init = [(s0, w0 * a), (copy, w0 * b)] + [(s, w * scale) for s, w in rest]
    return Env(
        states=env.states + [copy],
        observations=list(env.observations),
        init=init,
        obs={**env.obs, copy: list(env.obs[s0])},
        trans={
            **env.trans,
            **{(copy, a): list(env.trans[(s0, a)]) for a in env.actions},
        },
        actions=env.actions,
    )


def equivalent_twin(env: Env, rng: random.Random) -> Env:
    return split_initial(relabel(env, rng), rng)


def late_fresh_obs(env: Env, k: int) -> Env:
    """Unroll `env` for k turns and from turn k on emit only FRESH_OBS.
    Histories shorter than k keep their probabilities, so the pair differs
    only from turn k on; with k = 1 this changes the observation law reached
    after the first action."""
    def layer(s: str, t: int) -> str:
        return f"{s}_{t}" if t < k else f"{s}_z"

    states = [layer(s, t) for t in range(k + 1) for s in env.states]
    obs, trans = {}, {}
    for t in range(k + 1):
        for s in env.states:
            name = layer(s, t)
            obs[name] = list(env.obs[s]) if t < k else [(FRESH_OBS, 1)]
            nxt = min(t + 1, k)
            for a in env.actions:
                trans[(name, a)] = [(layer(u, nxt), w) for u, w in env.trans[(s, a)]]
    return Env(
        states=states,
        observations=list(env.observations),
        init=[(layer(s, 0), w) for s, w in env.init],
        obs=obs,
        trans=trans,
        actions=env.actions,
    )


def o0_odds_pair(rng: random.Random, n: int) -> tuple[Env, Env]:
    """Each state emits its own observation and self-loops under every
    action; the two environments differ only in the initial odds, so a
    single agent already sees the first observation with different
    probabilities (ROADMAP item 2's counterexample, generalized)."""
    states = [f"s{i}" for i in range(n)]
    observations = [f"o{i}" for i in range(n)]

    def make(weights):
        return Env(
            states=list(states),
            observations=list(observations),
            init=list(zip(states, weights)),
            obs={s: [(o, 1)] for s, o in zip(states, observations)},
            trans={(s, a): [(s, 1)] for s in states for a in ACTIONS},
        )

    left = [rng.randint(1, 5) for _ in states]
    while True:
        right = [rng.randint(1, 5) for _ in states]
        # Proportional vectors would be the same distribution.
        if any(l * sum(right) != r * sum(left) for l, r in zip(left, right)):
            return make(left), make(right)


CORPUS = ("mu", "mu-prime", "mu-double-prime", "mu-star")

# Pairs of corpus environments and their README verdict on counterfactual
# equivalence, which holds at every horizon: mu-prime and mu-star only move
# mu's coins into the start state, mu-double-prime correlates them.  For a
# single agent all four are equivalent (README).
CORPUS_PAIRS = (
    ("mu", "mu-prime", True),
    ("mu", "mu-star", True),
    ("mu", "mu-double-prime", False),
    ("mu-prime", "mu-double-prime", False),
)


def count_resolutions(env: Env, m: int) -> int:
    """Number of reduced resolutions of positive probability at horizon m:
    a memoized sum over (turn, set of states visited at that turn), for
    point-mass observations.  Independent of the program under test."""

    @lru_cache(maxsize=None)
    def after(turn: int, visited: frozenset) -> int:
        if turn == m:
            return 1
        rows = [env.trans[(s, a)] for s in sorted(visited) for a in env.actions]
        return sum(
            after(turn + 1, frozenset(t for t, _ in combo))
            for combo in product(*rows)
        )

    return sum(after(0, frozenset([s])) for s, _ in env.init)
