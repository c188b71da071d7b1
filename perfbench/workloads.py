"""The three workloads: a fixed batch of operations each, built from a seed.

A CLI operation is one `cfpomdp` verb run in a fresh child process; its
check decides from the exit code, the printed lines and any written file
whether the output matches the answer known from how the inputs were built
(see `instances`).  The `session` workload is one long-lived child calling
the library; its batch is a list of environments, each queried in a burst
(see `session.py`).

The shape tables fix (states, observations, horizon) per instance and, for
the horizons where enumeration dominates, a band on the number of reduced
resolutions; the seed only draws the kernels inside those limits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import instances as gen

# (states, revealing observations, horizon, resolution band or None)
# BAND_3 holds about 60% of 3-state draws (see random_env).
BAND_3 = (1744, 1972)

# Two states at m = 3 already take 6 s per learn-transfer --verify; three
# states take 12-30 s, more than one run can afford.
DET_SHAPES = [(2, True, 3, None)] + [
    (n, rev, 2, None) for n in (2, 3, 4, 5) for rev in (False, True)
]
# Revealing observations fix the history count at sum(4^t), so the cost of
# `equiv` is the same for every seed.
# Cheaper horizons repeat so that the batch has enough operations for a
# tail; m = 6 (2.5 s per equivalent pair) appears once.
EQUIV_SHAPES = [(n, True, m, None) for m, k in ((4, 3), (5, 2)) for n in (3, 4)
                for _ in range(k)] + [(3, True, 6, None)]
SESSION_SHAPES = [(3, rev, 3, BAND_3) for rev in (False, True) for _ in range(6)]
# Horizons at which `session` checks the README's corpus verdicts.
CORPUS_CF_M = (1, 2, 3)


@dataclass
class Result:
    code: int
    stdout: str
    workdir: Path


@dataclass
class Op:
    """One CLI invocation and the check of its output; `check` returns a
    failure reason or None.  `prepare` runs untimed before the invocation.
    An unscored probe also has `known_wrong`, the check that matches
    exactly the wrong output of a known defect."""

    label: str
    argv: list[str]
    check: Callable[[Result], str | None]
    prepare: Callable[[], None] | None = None
    known_wrong: Callable[[Result], str | None] | None = None

    @property
    def m(self) -> int:
        return int(self.argv[self.argv.index("--m") + 1])


@dataclass
class Batch:
    ops: list[Op] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)  # run once, not scored
    session_file: str | None = None  # set for the library workload


def _draw(rng: random.Random, shape) -> gen.Env:
    n, rev, m, band = shape
    return gen.random_env(rng, n, rev, None if band is None else (m, *band))


def _tag(shape) -> str:
    n, rev, m, _ = shape
    return f"n{n}-{'rev' if rev else 'ali'}-m{m}"


class Files:
    def __init__(self, root: Path, corpus_dir: Path):
        self.root = root
        self.corpus_dir = corpus_dir

    def corpus(self, name: str) -> str:
        """Copy a README example environment, as the package ships it, as
        text: it is an input whose verdicts the README states."""
        return self.text(name + ".env", (self.corpus_dir / (name + ".env")).read_text())

    def env(self, name: str, env: gen.Env) -> str:
        return self.text(name + ".env", env.text())

    def text(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return name


# ---------------------------------------------------------------- checks


def _lines(r: Result) -> list[str]:
    return r.stdout.splitlines()


def expect_equivalent(r: Result) -> str | None:
    if r.code != 0 or _lines(r) != ["equivalent"]:
        return f"expected 'equivalent' and exit 0, got exit {r.code}: {r.stdout[:80]!r}"
    return None


def _not_equivalent_head(r: Result) -> tuple[list[str] | None, str | None]:
    lines = _lines(r)
    if r.code != 1 or lines[:2] != ["not equivalent", "witness:"]:
        return None, f"expected a witnessed 'not equivalent' and exit 1, got exit {r.code}: {r.stdout[:80]!r}"
    return [ln.split(" | ") for ln in lines[2:]], None


def expect_not_equivalent(r: Result) -> str | None:
    if r.code != 1 or _lines(r)[:1] != ["not equivalent"]:
        return f"expected 'not equivalent' and exit 1, got exit {r.code}: {r.stdout[:80]!r}"
    return None


def expect_conditional_witness(length: int) -> Callable:
    """equiv on a pair that differs only from turn `length` on: the first
    differing long history has exactly that length."""

    def check(r: Result) -> str | None:
        rows, err = _not_equivalent_head(r)
        if err:
            return err
        if len(rows) != 1 or len(rows[0]) != 5:
            return f"expected one 5-field witness line, got {rows}"
        h_long = rows[0][0].split()
        if len(h_long) != 2 * length + 1:
            return f"witness history {rows[0][0]!r} is not of length {length}"
        if Fraction(rows[0][3]) == Fraction(rows[0][4]):
            return "witness values are equal"
        return None

    return check


def read_det_env(path: Path) -> tuple[list[str], dict[str, Fraction]]:
    """Parse a written environment enough to check that it is
    deterministic; return its states and initial distribution."""
    states, init, rows = [], {}, 0
    for line in path.read_text().splitlines():
        key, _, body = line.partition(":")
        if key == "states":
            states = body.split()
        elif key == "init":
            for part in body.split("|"):
                s, w = part.split()
                init[s] = Fraction(w)
        elif key in ("obs", "trans"):
            dist = body.split("->", 1)[1].split("|")
            if len(dist) != 1 or Fraction(dist[0].split()[1]) != 1:
                raise ValueError(f"row is not a point mass: {line!r}")
            rows += 1
    if rows != len(states) * (1 + len(gen.ACTIONS)):
        raise ValueError(f"{rows} rows for {len(states)} states")
    if sum(init.values()) != 1 or not set(init) <= set(states):
        raise ValueError("initial distribution is not a distribution over states")
    return states, init


def expect_twin(out: str, initial: int | None, states: int | None = None,
                at_most: int | None = None) -> Callable:
    """determinize: the written file is deterministic and matches the
    reported sizes.  Unminimized, its initial states are in bijection with
    the reduced resolutions (`initial`, counted independently); minimized,
    there are at most that many, or exactly the README's figure."""

    def check(r: Result) -> str | None:
        try:
            st, init = read_det_env(r.workdir / out)
        except (OSError, ValueError) as exc:
            return f"bad twin {out}: {exc}"
        expected_line = f"wrote {out} ({len(st)} states, {len(init)} initial)"
        if r.code != 0 or _lines(r) != [expected_line]:
            return f"expected {expected_line!r}, got exit {r.code}: {r.stdout[:80]!r}"
        if initial is not None and len(init) != initial:
            return f"{len(init)} initial states, expected {initial}"
        if at_most is not None and len(init) > at_most:
            return f"{len(init)} initial states, more than {at_most}"
        if states is not None and len(st) != states:
            return f"{len(st)} states, expected {states}"
        return None

    return check


def expect_verified(out: str, target: str) -> Callable:
    """learn-transfer --verify: universality holds between counterfactually
    equivalent deterministic presentations, so it must print 'verified', and
    every initial state of the target gets a weight in [0, 1]."""

    def check(r: Result) -> str | None:
        lines = _lines(r)
        if r.code != 0 or lines[-1:] != ["universality: verified"]:
            return f"expected 'universality: verified', got exit {r.code}: {r.stdout[-80:]!r}"
        try:
            _, init = read_det_env(r.workdir / target)
            weights = dict(line.split() for line in (r.workdir / out).read_text().splitlines())
        except (OSError, ValueError) as exc:
            return f"unreadable transfer output: {exc}"
        if set(weights) != set(init):
            return "transferred weights do not cover the target's initial states"
        if not all(0 <= Fraction(w) <= 1 for w in weights.values()):
            return "transferred weight outside [0, 1]"
        return None

    return check


# ------------------------------------------------------------- workloads


def _weights_writer(files: Files, source: str, out: str, rng_seed: int) -> Callable:
    """Draw one weight per initial state of a twin the program wrote."""

    def prepare() -> None:
        _, init = read_det_env(files.root / source)
        rng = random.Random(rng_seed)
        weights = {s: rng.randint(0, 5) for s in init}
        top = max(weights.values()) or 1
        files.text(out, "".join(f"{s} {Fraction(w, top)}\n" for s, w in weights.items()))

    return prepare


def det_pipeline(rng: random.Random, files: Files) -> Batch:
    batch = Batch()

    def pipeline(tag, source, m, twin_check, min_check, target=None):
        twin, small = f"{tag}-twin.env", f"{tag}-min.env"
        weights, moved = f"{tag}.w", f"{tag}-moved.w"
        if target is None:
            batch.ops.append(Op(f"determinize {tag}",
                                ["determinize", source, "--m", str(m), "-o", twin], twin_check))
            target = twin
        batch.ops.append(Op(f"determinize --minimize {tag}",
                            ["determinize", source, "--m", str(m), "-o", small, "--minimize"],
                            min_check))
        batch.ops.append(Op(f"learn-transfer --verify {tag}",
                            ["learn-transfer", small, target, "--m", str(m), "--weights", weights,
                             "-o", moved, "--verify"],
                            expect_verified(moved, target),
                            prepare=_weights_writer(files, small, weights, rng.getrandbits(32))))

    for i, shape in enumerate(DET_SHAPES):
        m = shape[2]
        env = _draw(rng, shape)
        tag = f"det{i}-{_tag(shape)}"
        resolutions = gen.count_resolutions(env, m)
        pipeline(tag, files.env(f"det{i}", env), m,
                 expect_twin(f"{tag}-twin.env", resolutions),
                 expect_twin(f"{tag}-min.env", None, at_most=resolutions))
    # README: minimizing mu's twin gives mu-star's four initial states (and
    # eight states at m = 1); the transfer goes to mu-star itself.
    mu, mu_star = files.corpus("mu"), files.corpus("mu-star")
    for m in (1, 2, 3):
        pipeline(f"corpus-mu-m{m}", mu, m, None,
                 expect_twin(f"corpus-mu-m{m}-min.env", 4, states=8 if m == 1 else None),
                 target=mu_star)
    return batch


def equiv_long(rng: random.Random, files: Files) -> Batch:
    batch = Batch()
    probed = set()
    for i, shape in enumerate(EQUIV_SHAPES):
        n, _, m, _ = shape
        env = _draw(rng, shape)
        tag = _tag(shape)
        a = files.env(f"eq{i}", env)
        eq = files.env(f"eq{i}-eq", gen.equivalent_twin(env, rng))
        late = files.env(f"eq{i}-late", gen.late_fresh_obs(env, m))
        batch.ops.append(Op(f"equiv {tag} relabel+split", ["equiv", a, eq, "--m", str(m)],
                            expect_equivalent))
        batch.ops.append(Op(f"equiv {tag} fresh-at-turn-{m}", ["equiv", a, late, "--m", str(m)],
                            expect_conditional_witness(m)))
        if (n, m) not in probed:
            # ROADMAP item 2: check_equiv never compares the odds of the
            # initial observation, so it calls this pair equivalent.  It is
            # run once per size as an unscored probe whose status is
            # printed; any output other than that exact wrong verdict (or
            # the right one) still makes the run incorrect.
            probed.add((n, m))
            left, right = gen.o0_odds_pair(rng, n)
            o0l, o0r = files.env(f"eq{i}-o0l", left), files.env(f"eq{i}-o0r", right)
            batch.probes.append(Op(f"equiv {tag} o0-odds", ["equiv", o0l, o0r, "--m", str(m)],
                                   expect_not_equivalent, known_wrong=expect_equivalent))
    corpus = {name: files.corpus(name) for name in gen.CORPUS}
    for left, right, _ in gen.CORPUS_PAIRS:
        batch.ops.append(Op(f"equiv corpus {left}/{right} m4",
                            ["equiv", corpus[left], corpus[right], "--m", "4"],
                            expect_equivalent))
    return batch


def session(rng: random.Random, files: Files) -> Batch:
    envs = []
    for shape in SESSION_SHAPES:
        env = _draw(rng, shape)
        envs.append({
            "m": shape[2],
            "tag": _tag(shape),
            "env": _rows(env),
            "twin": _rows(gen.equivalent_twin(env, rng)),
            "fresh": _rows(gen.late_fresh_obs(env, 1)),
        })
    corpus = [[files.corpus(left), files.corpus(right), equivalent]
              for left, right, equivalent in gen.CORPUS_PAIRS]
    data = {"envs": envs, "corpus": corpus, "corpus_m": CORPUS_CF_M}
    return Batch(session_file=files.text("session.json", json.dumps(data)))


def _rows(env: gen.Env) -> dict:
    """JSON form of an environment, integer weights unnormalized."""
    return {
        "states": env.states,
        "actions": list(env.actions),
        "observations": env.observations,
        "init": env.init,
        "obs": env.obs,
        "trans": [[s, a, row] for (s, a), row in env.trans.items()],
    }


WORKLOADS = {
    "det-pipeline": det_pipeline,
    "equiv-long": equiv_long,
    "session": session,
}


def build(workload: str, seed: int, root: Path, corpus_dir: Path) -> Batch:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Files(root, corpus_dir))
