"""Core types: exact rational distributions, environments, histories, policies.

All probabilities are `fractions.Fraction` values; nothing in the decision
path ever touches floating point.  Equality of probabilities is exact.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError

# Exact rational probability.  Arbitrary precision, stored in lowest terms
# with a positive denominator.
Rat = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Rat:
    """Parse ``p/q`` or a bare integer.  Decimals are rejected on purpose."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise InputError(f"not a rational literal: {text!r} (use p/q or an integer)")
    value = Fraction(text)
    return value


def as_rational(value: int | Fraction | str) -> Rat:
    """An exact rational from an `int`, a `Fraction` or a literal accepted by
    `parse_rational`.  Floats are rejected: by the time one arrives it has
    already been rounded to a binary fraction."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise _inexact(value)


def _inexact(value) -> InputError:
    """The error for a value that is not an exact rational."""
    return InputError(f"not an exact rational: {value!r} (use an int, a Fraction or 'p/q')")


class _Table:
    """An exact finite table: one field of (key, value) pairs, no key twice.
    Pairs keep their construction order for output, but two tables of one
    type are equal, and hash alike, when their mappings are.  A subclass is a
    frozen dataclass with ``eq=False``; it names its pairs field in `_field`
    and its repeated-key message, with ``{}`` for the key, in `_repeated`."""

    _field: str
    _repeated: str

    def __post_init__(self):
        seen = set()
        for key, _ in getattr(self, self._field):
            if key in seen:
                raise InputError(self._repeated.format(key))
            seen.add(key)

    @cached_property
    def _map(self) -> dict:
        return dict(getattr(self, self._field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(getattr(self, self._field)))


@dataclass(frozen=True, eq=False)
class FiniteDist(_Table):
    """Finite-support distribution with exact rational weights.

    Entries keep their construction order (the declaration order of the
    owning environment) so that serialization is reproducible.

    A *valid* distribution has strictly positive entries summing to exactly 1;
    `problems` reports deviations instead of raising so that invalid
    environments can be loaded and inspected by `validate`.
    """

    entries: tuple[tuple[str, Rat], ...]
    _field = "entries"
    _repeated = "duplicate entry {!r} in distribution"

    def __post_init__(self):
        for _, value in self.entries:
            if not isinstance(value, (int, Fraction)):
                raise _inexact(value)
        _Table.__post_init__(self)

    @classmethod
    def of(cls, items: Mapping[str, Rat] | Iterable[tuple[str, Rat]]) -> "FiniteDist":
        pairs = items.items() if isinstance(items, Mapping) else items
        return cls(tuple((key, as_rational(value)) for key, value in pairs))

    @classmethod
    def point(cls, x: str) -> "FiniteDist":
        return cls(((x, _ONE),))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    def prob(self, x: str) -> Rat:
        return self._map.get(x, _ZERO)

    def total(self) -> Rat:
        return sum((v for _, v in self.entries), _ZERO)

    def is_point(self) -> bool:
        return len(self.entries) == 1 and self.entries[0][1] == 1

    def problems(self) -> list[str]:
        out = []
        for key, value in self.entries:
            if value <= 0:
                out.append(f"non-positive probability {value} for {key!r}")
        if self.total() != 1:
            out.append(f"distribution sum ≠ 1 (got {self.total()})")
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in self.entries)
        return f"FiniteDist({{{body}}})"


@dataclass(frozen=True)
class History:
    """Alternating observation/action sequence ``o0 a1 o1 ... at ot``.

    The length of a history is its number of steps (actions); the initial
    observation alone is the length-0 history.
    """

    initial_obs: str
    steps: tuple[tuple[str, str], ...] = ()

    @property
    def length(self) -> int:
        return len(self.steps)

    def extend(self, action: str, observation: str) -> "History":
        return History(self.initial_obs, self.steps + ((action, observation),))

    def prefix(self, t: int) -> "History":
        if not 0 <= t <= self.length:
            raise InputError(f"no length-{t} prefix of a length-{self.length} history")
        return History(self.initial_obs, self.steps[:t])

    def is_prefix_of(self, other: "History") -> bool:
        return (
            self.initial_obs == other.initial_obs
            and self.length <= other.length
            and other.steps[: self.length] == self.steps
        )

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.steps)

    @property
    def observations(self) -> tuple[str, ...]:
        """All observations, the initial one included."""
        return (self.initial_obs,) + tuple(o for _, o in self.steps)

    def symbols(self) -> tuple[str, ...]:
        out = [self.initial_obs]
        for action, obs in self.steps:
            out.extend((action, obs))
        return tuple(out)

    @classmethod
    def parse(cls, text: str) -> "History":
        tokens = text.split()
        if not tokens or len(tokens) % 2 == 0:
            raise InputError(
                f"history {text!r} must alternate obs action obs ... (odd token count)"
            )
        steps = tuple(
            (tokens[i], tokens[i + 1]) for i in range(1, len(tokens) - 1, 2)
        )
        return cls(tokens[0], steps)

    def __str__(self) -> str:
        return " ".join(self.symbols())


def history_sort_key(h: History) -> tuple:
    """Environment-independent canonical order: by length, then symbols."""
    return (h.length, h.symbols())


@dataclass(frozen=True)
class Pomdp:
    """A finite environment: states, actions, observations, and exact
    rational kernels (initial distribution, transitions, observations).

    Declaration order of states, actions and observations orders kernel
    rows, resolutions and file output; histories are ordered by
    `history_sort_key`, which no declaration order moves.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    init: FiniteDist
    trans: tuple[tuple[tuple[str, str], FiniteDist], ...]
    obs: tuple[tuple[str, FiniteDist], ...]

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        actions: Iterable[str],
        observations: Iterable[str],
        init: FiniteDist | Mapping[str, Rat],
        trans: Mapping[tuple[str, str], FiniteDist | Mapping[str, Rat]],
        obs: Mapping[str, FiniteDist | Mapping[str, Rat]],
    ) -> "Pomdp":
        """Assemble an environment, ordering kernel rows canonically.

        Rows are stored for exactly the keys provided; `validate` reports
        missing or alien rows rather than this constructor failing, so that
        broken environments can still be examined.
        """
        states = tuple(states)
        actions = tuple(actions)
        observations = tuple(observations)

        def as_dist(d):
            return d if isinstance(d, FiniteDist) else FiniteDist.of(d)

        known = {(s, a) for s in states for a in actions}
        ordered_trans = [(s, a) for s in states for a in actions if (s, a) in trans]
        extra_trans = [k for k in trans if k not in known]
        trans_rows = tuple(
            (key, as_dist(trans[key])) for key in ordered_trans + sorted(extra_trans)
        )
        ordered_obs = [s for s in states if s in obs]
        declared = set(states)
        extra_obs = [s for s in obs if s not in declared]
        obs_rows = tuple((s, as_dist(obs[s])) for s in ordered_obs + sorted(extra_obs))
        return cls(states, actions, observations, as_dist(init), trans_rows, obs_rows)

    @cached_property
    def trans_map(self) -> dict[tuple[str, str], FiniteDist]:
        return dict(self.trans)

    @cached_property
    def obs_map(self) -> dict[str, FiniteDist]:
        return dict(self.obs)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def obs_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.observations)}

    def trans_dist(self, state: str, action: str) -> FiniteDist:
        try:
            return self.trans_map[(state, action)]
        except KeyError:
            raise InputError(f"no transition row for ({state}, {action})") from None

    def obs_dist(self, state: str) -> FiniteDist:
        try:
            return self.obs_map[state]
        except KeyError:
            raise InputError(f"no observation row for state {state}") from None

    def check_history_symbols(self, h: History) -> None:
        if h.initial_obs not in self.obs_index:
            raise InputError(f"unknown observation {h.initial_obs!r} in history")
        for action, obs in h.steps:
            if action not in self.action_index:
                raise InputError(f"unknown action {action!r} in history")
            if obs not in self.obs_index:
                raise InputError(f"unknown observation {obs!r} in history")


def validate(p: Pomdp) -> list[str]:
    """Check every environment invariant; return the (possibly empty) list of
    violations.  Violations are data, not exceptions."""
    out: list[str] = []

    for kind, ids in (("states", p.states), ("actions", p.actions),
                      ("observations", p.observations)):
        if not ids:
            out.append(f"empty {kind} list")
        seen = set()
        for ident in ids:
            if ident in seen:
                out.append(f"duplicate identifier {ident!r} in {kind}")
            seen.add(ident)

    states = set(p.states)
    actions = set(p.actions)
    observations = set(p.observations)

    def check_dist(dist: FiniteDist, where: str, alphabet: set[str], alphabet_name: str):
        for key, _ in dist.entries:
            if key not in alphabet:
                out.append(f"unknown {alphabet_name} {key!r} in {where}")
        for problem in dist.problems():
            out.append(f"{problem} in {where}")

    check_dist(p.init, "init", states, "state")

    trans_keys = set()
    for (s, a), dist in p.trans:
        trans_keys.add((s, a))
        if s not in states or a not in actions:
            out.append(f"transition row for unknown pair ({s}, {a})")
            continue
        check_dist(dist, f"trans at ({s},{a})", states, "state")
    for s in p.states:
        for a in p.actions:
            if (s, a) not in trans_keys:
                out.append(f"missing transition row at ({s},{a})")

    obs_keys = set()
    for s, dist in p.obs:
        obs_keys.add(s)
        if s not in states:
            out.append(f"observation row for unknown state {s!r}")
            continue
        check_dist(dist, f"obs at {s}", observations, "observation")
    for s in p.states:
        if s not in obs_keys:
            out.append(f"missing observation row at {s}")

    return out


def _check_horizon(m, least: int, name: str = "turn count") -> None:
    """A horizon is an `int`, not a `bool`, and at least `least`."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"{name} must be an int, got {m!r}")
    if m < least:
        raise InputError(f"{name} must be >= {least}, got {m}")


def _rows_within(p: Pomdp, m: int, starts=None) -> tuple[dict, dict]:
    """The positive entries of every row that a horizon-m question reads, as
    {s: [(o, w)]} and {(s, a): [(s2, w)]} sharing the rows' entry pairs, so
    a missing one raises: the observation rows of the states reached at
    turns 0..m from the positive `starts` ((state, weight) pairs, default
    the initial distribution) and, before turn m, the transition rows of
    those with an observation.  Turn by turn, observations before
    transitions, each row is read once."""
    _check_horizon(m, 0)
    obs: dict[str, list[tuple[str, Rat]]] = {}
    trans: dict[tuple[str, str], list[tuple[str, Rat]]] = {}
    fresh = dict.fromkeys(s for s, w in (p.init.entries if starts is None else starts) if w > 0)
    for t in range(m + 1):
        obs.update((s, [e for e in p.obs_dist(s).entries if e[1] > 0]) for s in fresh)
        if t < m:
            fresh = [s for s in fresh if obs[s]]
            trans.update(((s, a), [e for e in p.trans_dist(s, a).entries if e[1] > 0])
                         for s in fresh for a in p.actions)
            fresh = dict.fromkeys(s2 for s in fresh for a in p.actions for s2, _ in trans[s, a]
                                  if s2 not in obs)
    return obs, trans


def _forward(p: Pomdp, m: int) -> list[dict[History, dict[str, None]]]:
    """For each length 0..m, map each history of positive weight to the
    states of positive weight after it, in insertion order: the support of
    its belief, read from the rows swept by `_rows_within`."""
    obs, trans = _rows_within(p, m)

    def observe(arrivals) -> dict[str, dict[str, None]]:
        out: dict[str, dict[str, None]] = {}
        for s in arrivals:
            for o, _ in obs[s]:
                out.setdefault(o, {})[s] = None
        return out

    layers = [{History(o): b for o, b in observe(s for s, w in p.init.entries if w > 0).items()}]
    for _ in range(m):
        layers.append({
            h.extend(a, o): b
            for h, support in layers[-1].items()
            for a in p.actions
            for o, b in observe(s2 for s in support for s2, _ in trans[s, a]).items()
        })
    return layers


def reachable_histories(p: Pomdp, m: int) -> dict[int, tuple[History, ...]]:
    """Histories of positive probability under some policy, grouped by length
    0..m, each group in `history_sort_key` order.  Computed by forward
    closure over the initial, transition, and observation kernels."""
    return {
        t: tuple(sorted(layer.keys(), key=history_sort_key))
        for t, layer in enumerate(_forward(p, m))
    }


def decision_points(p: Pomdp, m: int) -> tuple[History, ...]:
    """Reachable histories of length < m, in `history_sort_key` order: the
    domain of every policy with horizon m."""
    _check_horizon(m, 1)
    return tuple(h for group in reachable_histories(p, m - 1).values() for h in group)


@dataclass(frozen=True, eq=False)
class DeterministicPolicy(_Table):
    """A total map from the designated reachable decision points to actions."""

    decisions: tuple[tuple[History, str], ...]
    _field = "decisions"
    _repeated = "policy names history {} twice"

    def action_at(self, h: History) -> str:
        try:
            return self._map[h]
        except KeyError:
            raise InputError(f"policy undefined at history {h}") from None

    def as_stochastic(self) -> "StochasticPolicy":
        return StochasticPolicy(
            tuple((h, FiniteDist.point(a)) for h, a in self.decisions)
        )

    @classmethod
    def constant(cls, p: Pomdp, m: int, action: str) -> "DeterministicPolicy":
        """Play one action at every reachable decision point."""
        if action not in p.action_index:
            raise InputError(f"unknown action {action!r}")
        return cls(tuple((h, action) for h in decision_points(p, m)))

    @classmethod
    def script(cls, h: History) -> "DeterministicPolicy":
        """Play the actions of `h` along its own prefixes."""
        return cls(
            tuple((h.prefix(t), h.steps[t][0]) for t in range(h.length))
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{h} -> {a}" for h, a in self.decisions)
        return f"DeterministicPolicy({body})"


@dataclass(frozen=True, eq=False)
class StochasticPolicy(_Table):
    """A map from histories to exact action distributions."""

    decisions: tuple[tuple[History, FiniteDist], ...]
    _field = "decisions"
    _repeated = "policy names history {} twice"

    def prob(self, h: History, action: str) -> Rat:
        try:
            return self._map[h].prob(action)
        except KeyError:
            raise InputError(f"policy undefined at history {h}") from None

    @classmethod
    def uniform(cls, p: Pomdp, m: int) -> "StochasticPolicy":
        dist = FiniteDist.of([(a, Fraction(1, len(p.actions))) for a in p.actions])
        return cls(tuple((h, dist) for h in decision_points(p, m)))


def enumerate_det_policies(p: Pomdp, m: int) -> list[DeterministicPolicy]:
    """All deterministic policies on the reachable decision points (in
    `history_sort_key` order), in lexicographic order of their actions by
    the declared action ordering.

    The count is |A| raised to the number of decision points; callers are
    expected to keep that number small.
    """
    points = decision_points(p, m)
    out = []
    for combo in itertools.product(p.actions, repeat=len(points)):
        out.append(DeterministicPolicy(tuple(zip(points, combo))))
    return out
