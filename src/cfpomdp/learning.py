"""Pure learning processes: history functionals of the form

    P(h) = sum over initial states s of  w_s * posterior(initial = s | h)

on a deterministic environment.  Such a functional transfers unchanged to
any other deterministic environment that is counterfactually equivalent at
the same horizon: matching cells of the two behavior partitions carry equal
mass, and the transferred weight of a cell is the mass-weighted average of
the source weights on the matching cell.

For deterministic environments, m-counterfactual equivalence is decided by
the partition masses alone: every resolution of such an environment is an
initial state with that state's probability, so its behavior-map
distribution is exactly `behavior_partition(env, m).masses()`.  `transfer`
compares those masses instead of calling `check_cf_equiv`: it interns both
environments' cells (`determinize._cells`) into one table, where equal
behaviors share an id, and compares {id: mass}.

P(h) = sum_s w_s * j_s(h) / sum_s j_s(h), with j_s(h) the weight of h from
initial state s alone: `evaluate` folds h once, its beliefs tagged by weight
(`trajectory._joint`).  The numerator is the weight of h from the weighted
starts init * w; `transfer` has already made the denominator agree on both
sides, so `verify_universality` runs `check_equiv`'s span comparison
(`equivalence._first_failure`) from those starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .core import (History, Pomdp, Rat, _ZERO, _check_horizon, _inexact, as_rational,
                   parse_rational)
from .determinize import _cells, is_deterministic
from .envfile import read_text
from .equivalence import _first_failure, ensure_similar
from .errors import DeterminismError, InputError
from .trajectory import _joint


@dataclass(frozen=True)
class PureLearningSpec:
    """A deterministic environment, a horizon, and one weight in [0, 1] per
    initial-support state."""

    env: Pomdp
    weights: tuple[tuple[str, Rat], ...]
    horizon: int

    def __post_init__(self):
        if not is_deterministic(self.env):
            raise DeterminismError("pure learning processes need a deterministic environment")
        _check_horizon(self.horizon, 1, "horizon")
        support = set(self.env.init.support)
        given = [s for s, _ in self.weights]
        if len(set(given)) != len(given):
            raise InputError("duplicate state in weight vector")
        if set(given) != support:
            missing = sorted(support - set(given))
            alien = sorted(set(given) - support)
            details = []
            if missing:
                details.append(f"missing weights for {missing}")
            if alien:
                details.append(f"weights for non-initial states {alien}")
            raise InputError("; ".join(details))
        for s, w in self.weights:
            if not isinstance(w, (int, Fraction)):
                raise _inexact(w)
            if not 0 <= w <= 1:
                raise InputError(f"weight for {s} outside [0, 1]: {w}")

    @classmethod
    def of(cls, env: Pomdp, weights, horizon: int) -> "PureLearningSpec":
        items = weights.items() if hasattr(weights, "items") else weights
        ordered = sorted(
            ((s, as_rational(w)) for s, w in items),
            key=lambda kv: env.state_index.get(kv[0], len(env.states)),
        )
        return cls(env, tuple(ordered), horizon)

    @cached_property
    def _weights(self) -> dict[str, Rat]:
        return dict(self.weights)


def evaluate(spec: PureLearningSpec, h: History) -> Rat:
    """Value of the learning process on `h`: the weight average under the
    posterior over initial states.  Impossible histories evaluate to 0."""
    if h.length > spec.horizon:
        raise InputError(
            f"history length {h.length} exceeds the horizon {spec.horizon}"
        )
    spec.env.check_history_symbols(h)
    joint = _joint(spec.env, h, [(spec._weights[s], s, w) for s, w in spec.env.init.entries])
    total = sum(joint.values(), _ZERO)
    return _ZERO if total == 0 else sum(w * x for w, x in joint.items()) / total


def transfer(spec: PureLearningSpec, target: Pomdp, m: int) -> PureLearningSpec:
    """Carry a learning process to a counterfactually equivalent
    deterministic environment by averaging weights cell by cell."""
    if m != spec.horizon:
        raise InputError(
            f"turn count {m} does not match the learning process horizon {spec.horizon}"
        )
    if not is_deterministic(target):
        raise DeterminismError("transfer target must be deterministic")
    ensure_similar(spec.env, target)
    table: dict[tuple, int] = {}
    source = {i: (members, mass) for i, members, mass in _cells(spec.env, m, table)}
    target_cells = _cells(target, m, table)
    if {i: mass for i, (_, mass) in source.items()} != {i: mass for i, _, mass in target_cells}:
        raise InputError(
            "transfer requires counterfactually equivalent environments at the given horizon"
        )

    new_weights: list[tuple[str, Rat]] = []
    for i, members, _ in target_cells:
        src_members, src_mass = source[i]
        weighted = (spec.env.init.prob(s) * spec._weights[s] for s in src_members)
        averaged = sum(weighted, _ZERO) / src_mass
        for s in members:
            new_weights.append((s, averaged))
    return PureLearningSpec.of(target, new_weights, m)


def _first_difference(spec: PureLearningSpec, moved: PureLearningSpec) -> History | None:
    """The first history of length <= `spec.horizon`, in `history_sort_key`
    order, on which `moved` disagrees with `spec`; None when they agree
    everywhere.  `moved.env` must be m-equivalent to `spec.env` (as after
    `transfer`), so w(h | init) agrees on both sides and the values differ
    exactly where w(h | init * w) does: `check_equiv`'s comparison from the
    weighted starts.  Impossible histories read 0 on both sides."""
    starts = tuple([(s, x.env.init.prob(s) * w) for s, w in x.weights] for x in (spec, moved))
    failure = _first_failure(spec.env, moved.env, spec.horizon, starts)
    return None if failure is None else failure[0]


def verify_universality(
    spec: PureLearningSpec, target: Pomdp, m: int
) -> tuple[bool, History | None]:
    """Check that the transferred process agrees with the original on every
    reachable history of length <= m; returns the first differing history
    when they disagree."""
    differing = _first_difference(spec, transfer(spec, target, m))
    return differing is None, differing


def load_weights(path: str | Path) -> dict[str, Rat]:
    """Read a weight vector: one ``state p/q`` line per state, '#' comments."""
    out: dict[str, Rat] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(
                f"{path}:{lineno}: expected 'state p/q', got {raw!r}"
            )
        state, value = parts
        if state in out:
            raise InputError(f"{path}:{lineno}: duplicate state {state!r}")
        try:
            out[state] = parse_rational(value)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return out


def save_weights(path: str | Path, weights) -> None:
    items = weights.items() if hasattr(weights, "items") else weights
    lines = [f"{s} {w}" for s, w in items]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
