"""Decision procedures for m-equivalence and m-counterfactual equivalence.

m-equivalence: two similar environments assign the same probability to
every history up to length m, and hence the same conditional probability to
every pair of histories, under every policy.  A policy's probability of h is
its action factors along h times the policy-free weight w(h)
(`trajectory._joint`), so it suffices to compare w(h) directly, the
length-0 histories (the initial observations o0) included.  A failure at
length 0 is reported as (o0, o0) with the two unconditional probabilities
of o0; a later one as the pair (h, o0) under the policy playing h's own
actions, with the conditional values w(h)/w(o0), whose denominators agree.
No history is visited one by one: w(h) is linear in the forward vector of
h, so `_first_failure` compares exact spans of forward vectors turn by
turn, in time polynomial in m, and walks a single path to the witness.  It
starts from any (state, weight) vectors, so `learning` runs the same
comparison from weighted initial distributions.

m-counterfactual equivalence: joint probabilities over a shared resolution
agree for every finite collection of (history, policy) pairs.  Under one
behavior map a history's probability is its policy's factor along it
(`trajectory._policy_factor`) if the map generates it, else 0, so a
collection's joint probability is the mass of the maps generating every
paired history times the policies' factors, and the behavior-map
distribution determines it; conversely the distribution is recovered from
collections that pin down a full behavior map.  So the verdict compares the
two distributions.  `envpolicy._behaviors`, a dynamic program over (turn,
visited states) on integer masses, enumerates no resolution; its nodes,
labelled by observation, are the behavior maps.  `check_cf_equiv` has it
intern both environments' nodes, children in sorted action order, into one
hash-consed table, where equal maps get equal ids, and compares integer
{root id: mass} over one denominator; a tree (`envpolicy._trees`) and
`Fraction`s are built only for the witness, chosen among tied maps by
comparing interned ids (`_least`), and by `behavior_distribution`.
`collection_prob` needs only the few histories it is asked about: agents
with one prefix share a state, so one forward pass over assignments
{distinct prefix: state} (`_coupled_weight`) gives the mass without
building any map.  Every horizon-m engine reads its rows through one sweep,
`core._rows_within`, so each row is read at most once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
from .envpolicy import BehaviorMap, _behaviors, _product, _trees
from .errors import InputError, SimilarityError
from .trajectory import _policy_factor


@dataclass(frozen=True)
class CollectionQuery:
    """A finite collection of (history, policy) pairs sharing one resolution."""

    pairs: tuple[tuple[History, StochasticPolicy], ...]

    def __post_init__(self):
        if not self.pairs:
            raise InputError("a collection query needs at least one pair")


@dataclass(frozen=True)
class ConditionalWitness:
    """Two histories and a policy whose conditional probabilities differ.

    When the environments already differ on an initial observation o0, both
    histories are o0 and the values are its unconditional probabilities,
    not the conditional probabilities (both 1) of o0 given itself."""

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


def _signed(v: dict) -> int:
    """v·f: p1's entries minus p2's."""
    return sum(-x if side else x for (side, _), x in v.items())


def _dot(u: dict, r: dict) -> int:
    return sum(x * r.get(i, 0) for i, x in u.items())


def _primitive(u: dict) -> dict:
    """`u` without zero entries, divided by the gcd of its entries."""
    u = {i: x for i, x in u.items() if x}
    g = gcd(*u.values())
    return u if g == 1 else {i: x // g for i, x in u.items()}


def _span(vectors) -> list[dict]:
    """An echelon basis of the span of sparse integer vectors: each basis
    vector is zero at the pivots of those before it, so reducing against
    them in order leaves zero exactly on the span."""
    basis: list[tuple[object, dict]] = []
    for u in vectors:
        u = _primitive(u)
        for pivot, b in basis:
            x = u.get(pivot)
            if x:
                g = gcd(x, b[pivot])
                x, y = x // g, b[pivot] // g
                u = {i: y * v for i, v in u.items()}
                for i, v in b.items():
                    u[i] = u.get(i, 0) - x * v
                u = _primitive(u)
        if u:
            basis.append((min(u), u))
    return [b for _, b in basis]


def _on_pivots(basis: list[dict], values: dict) -> dict:
    """A multiple of the functional that is `values[k]` on `basis[k]`, as a
    vector on the pivots of the echelon basis: their matrix is triangular,
    so back-substitution solves it, scaling instead of dividing."""
    phi: dict = {}
    scale = 1  # the functional is phi / scale
    for k, b in reversed(list(enumerate(basis))):
        pivot = min(b)
        x = values.get(k, 0) * scale - _dot(phi, b)
        phi = {i: b[pivot] * y for i, y in phi.items()} | {pivot: x}
        scale *= b[pivot]
    return _primitive(phi)


def _first_failure(p1: Pomdp, p2: Pomdp, m: int, starts):
    """The first history of length <= m, in `history_sort_key` order, whose
    weight from p1's start differs from its weight from p2's start, as
    (h, (w₁(h), w₂(h)), (w₁(o0), w₂(o0))) with o0 = h's initial
    observation; None when every weight agrees.  `starts` holds each
    side's (state, weight) pairs in place of its initial distribution.

    The forward vector v(h) = (α₁(h), α₂(h)) of unnormalized beliefs lives
    on the disjoint union of both state sets, with v(h·a·o) = v(h)·M_{a,o}
    and M_{a,o} = blockdiag(T¹_a·diag O¹_o, T²_a·diag O²_o); h fails when
    v(h)·f ≠ 0, f being +1 on p1's states and -1 on p2's.  An echelon basis
    of F_t = span{v(h) : |h| = t}, at most |S₁| + |S₂| vectors, is extended
    by every M_{a,o} to F_{t+1} (Tzeng 1992), so the first failing length t
    costs time polynomial in m.  The witness takes one path down to length
    t: the first o0, then the first (a, o), in sorted symbol order, whose
    vector is not annihilated by R_k = span{M_w·f : |w| = k}, k the turns
    left; some extension of such a prefix fails, and none of an earlier one.
    Only v·r for v in F_j matters, so R_k is kept on the pivots of F_j's
    basis (`_on_pivots`), from the values r·(b·M_{a,o}) on its vectors b.

    Both sides' rows come from one `_rows_within` sweep from their starts,
    so a missing row that a history of length <= m needs raises before any
    comparison.  The swept rows and the starts are scaled once to integers
    by the lcm of their denominators, which moves neither a span nor a zero
    and cancels out of every value; a vector at turn t is scale**(2t + 2)
    times the beliefs.
    """
    sweeps = [_rows_within(p, m, start) for p, start in zip((p1, p2), starts)]
    tables = [rows for sweep in sweeps for rows in sweep]
    scale = lcm(*(w.denominator for entries in starts for _, w in entries if w > 0),
                *(w.denominator for rows in tables for row in rows.values() for _, w in row))

    def scaled(w: Rat) -> int:
        return w.numerator * (scale // w.denominator)

    for rows in tables:
        for key, row in rows.items():
            rows[key] = [(x, scaled(w)) for x, w in row]  # in place: one copy of each row
    obs, trans = zip(*sweeps)  # obs[side][s] and trans[side][s, a]

    def children(v: dict) -> dict[tuple[str, str], dict]:
        """v·M_{a,o} for each (a, o) where it is not zero."""
        out: dict[tuple[str, str], dict] = {}
        for a in p1.actions:
            moved: dict = {}
            for (side, s), x in v.items():
                for s2, w in trans[side][s, a]:
                    moved[side, s2] = moved.get((side, s2), 0) + x * w
            for (side, s2), x in moved.items():
                if x:
                    for o, w in obs[side][s2]:
                        out.setdefault((a, o), {})[side, s2] = x * w
        return out

    start: dict[str, dict] = {}
    for side in (0, 1):
        for s, w in starts[side]:
            if w > 0:
                for o, wo in obs[side][s]:
                    start.setdefault(o, {})[side, s] = scaled(w) * wo
    bases = [_span(start.values())]  # F_0 .. F_failing
    while not any(_signed(b) for b in bases[-1]):
        if len(bases) > m:
            return None
        bases.append(_span(c for b in bases[-1] for c in children(b).values()))
    failing = len(bases) - 1

    # back[j] spans R_{failing - j} on F_j
    back = [[_on_pivots(bases[failing], dict(enumerate(map(_signed, bases[failing]))))]]
    for j in range(failing - 1, -1, -1):
        values: dict = {}
        for k, b in enumerate(bases[j]):
            for ao, c in children(b).items():
                for n, r in enumerate(back[0]):
                    values.setdefault((ao, n), {})[k] = _dot(r, c)
        back.insert(0, [_on_pivots(bases[j], u) for u in _span(values.values())])

    def live(v: dict, j: int) -> bool:
        return any(_dot(r, v) for r in back[j])

    def weights(v: dict, t: int) -> tuple[Rat, ...]:
        sums = [sum(x for (side, _), x in v.items() if side == i) for i in (0, 1)]
        return tuple(Fraction(x, scale ** (2 * t + 2)) for x in sums)

    o0 = next(o for o in sorted(start) if live(start[o], 0))
    h, v = History(o0), start[o0]
    for j in range(1, failing + 1):
        kids = children(v)
        a, o = next(ao for ao in sorted(kids) if live(kids[ao], j))
        h, v = h.extend(a, o), kids[a, o]
    return h, weights(v, failing), weights(start[o0], 0)


def check_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """Decide m-equivalence, with a witness on failure: the first history,
    in `history_sort_key` order, whose weights differ (`_first_failure`
    from both initial distributions)."""
    ensure_similar(p1, p2)
    failure = _first_failure(p1, p2, m, (p1.init.entries, p2.init.entries))
    if failure is None:
        return Verdict(equivalent=True)
    h, values, o0_weights = failure
    if h.length:
        # past length 0 every o0 weight agrees, and h's is positive
        values = tuple(w / w0 for w, w0 in zip(values, o0_weights))
    return Verdict(
        equivalent=False,
        witness=ConditionalWitness(h, h.prefix(0), DeterministicPolicy.script(h), *values),
    )


def _coupled_weight(p: Pomdp, histories: list[History], m: int) -> Rat:
    """Probability that one resolution generates every history: one forward
    pass over assignments {distinct prefix: state}, held as tuples of states
    in the order of the turn's distinct prefixes.  Agents sharing a prefix
    share a state; each turn, each distinct (state, action) draws one
    successor and each distinct arrival state one observation, so arrivals
    at one state expecting different observations cut the branch.  An agent
    whose history has ended constrains nothing further: its choices sum out
    to 1.  At most |S|^k assignments per turn for k distinct prefixes."""
    obs, trans = _rows_within(p, m)
    o0 = histories[0].initial_obs
    if any(h.initial_obs != o0 for h in histories):
        return _ZERO
    level = {(s,): w * x for s, w in p.init.entries if w > 0 for o, x in obs[s] if o == o0}
    prefixes: dict[tuple, int] = {(): 0}
    for t in range(1, max(h.length for h in histories) + 1):
        turn = dict.fromkeys(h.steps[:t] for h in histories if h.length >= t)
        # each distinct prefix as (its parent's position, action, observation)
        steps = [(prefixes[k[:-1]], *k[-1]) for k in turn]
        out: dict[tuple[str, ...], Rat] = {}
        for states, mass in level.items():
            # every agent leaving one (state, action) makes the same observation
            draws: dict[tuple[str, str], str] = {}
            if any(draws.setdefault((states[i], a), o) != o for i, a, o in steps):
                continue
            slot = {d: j for j, d in enumerate(draws)}
            slots = [slot[states[i], a] for i, a, _ in steps]
            # each pick carries its arrival's weight of the expected observation
            rows = [[((s2, x), v) for s2, v in trans[d] for o2, x in obs[s2] if o2 == o]
                    for d, o in draws.items()]
            for picks, v in _product(rows):
                seen: dict[str, str] = {}
                if any(seen.setdefault(s2, o) != o for (s2, _), o in zip(picks, draws.values())):
                    continue
                w = mass if v == 1 else mass * v
                for x in dict(picks).values():  # one observation per arrival state
                    w = w if x == 1 else w * x
                arrivals = tuple(picks[j][0] for j in slots)
                out[arrivals] = out.get(arrivals, _ZERO) + w
        level = out
        prefixes = {k: i for i, k in enumerate(turn)}
    return sum(level.values(), _ZERO)


def collection_prob(p: Pomdp, q: CollectionQuery, m: int) -> Rat:
    """Joint probability that agents sharing one resolution each see their
    paired history: the probability that a resolution generates every paired
    history (`_coupled_weight`, linear in m for a fixed collection), times
    the policies' factors, read only if it is positive.  Every row that a
    horizon-m resolution reads must exist."""
    _check_horizon(m, None)
    for h, _ in q.pairs:
        if h.length > m:
            raise InputError(f"history {h} longer than the horizon {m} of the query")
        p.check_history_symbols(h)
    _check_horizon(m, 1)
    total = _coupled_weight(p, [h for h, _ in q.pairs], m)
    for h, pi in q.pairs:
        if total == 0:
            break
        total *= _policy_factor(h, pi)
    return total


def behavior_distribution(p: Pomdp, m: int) -> dict[BehaviorMap, Rat]:
    """Pushforward of the resolution distribution through the behavior map;
    resolutions with identical maps merge.  Values sum to exactly 1.

    No resolution is enumerated: the nodes that `_behaviors` interns,
    labelled by observation, are the maps, unfolded into trees here.
    """
    table: dict[tuple, int] = {}
    den, roots = _behaviors(p, m, lambda s, o: o, table)
    maps = _trees(table, p.actions, roots)
    return {maps[i]: Fraction(mass, den) for i, mass in roots.items()}


def _witness_query(bm: BehaviorMap) -> CollectionQuery:
    """The collection pinning down one full behavior map: each action
    sequence paired with its scripted policy and generated history."""
    return CollectionQuery(
        tuple((h, DeterministicPolicy.script(h).as_stochastic()) for h in bm.histories())
    )


def _least(nodes: list[tuple], ids: set[int]) -> int:
    """The one of `ids`, nodes of one depth in an intern table listed in id
    order, whose tree is least in pre-order, found without unfolding any:
    keep the least label, then, child slot by child slot, the ids whose
    child there is the least of the survivors' children.  Distinct ids of
    one table are distinct trees, so one id is left."""
    low = min(nodes[i][0] for i in ids)
    ids = {i for i in ids if nodes[i][0] == low}
    slot = 0
    while len(ids) > 1:
        best = _least(nodes, {nodes[i][1][slot] for i in ids})
        ids = {i for i in ids if nodes[i][1][slot] == best}
        slot += 1
    return ids.pop()


def check_cf_equiv(p1: Pomdp, p2: Pomdp, m: int) -> Verdict:
    """Decide m-counterfactual equivalence by comparing behavior-map
    distributions; on failure, return a collection query whose joint
    probabilities are the two differing masses.

    Both environments' maps are interned into one table by `_behaviors`, so
    the distributions are equal exactly when {root id: integer mass} is, over
    the lcm of both denominators.  Among differing maps the witness prefers
    one that is impossible in one environment (smallest minimum mass),
    breaking ties by behavior tree in pre-order.  The tie is broken on the
    intern table's ids (`_least`), as in a reduced ordered BDD, so only the
    winner's tree is unfolded; its two masses are the only `Fraction`s
    built.  The returned query re-evaluates, via `collection_prob`, to
    exactly the two reported values.
    """
    ensure_similar(p1, p2)
    table: dict[tuple, int] = {}
    (d1, r1), (d2, r2) = [_behaviors(p, m, lambda s, o: o, table) for p in (p1, p2)]
    den = lcm(d1, d2)
    r1, r2 = [{i: x * (den // d) for i, x in r.items()} for d, r in ((d1, r1), (d2, r2))]
    if r1 == r2:
        return Verdict(equivalent=True)
    differing = {}
    for i in r1.keys() | r2.keys():
        masses = r1.get(i, 0), r2.get(i, 0)
        if masses[0] != masses[1]:
            differing[i] = masses
    low = min(min(masses) for masses in differing.values())
    i = _least(list(table), {i for i, masses in differing.items() if min(masses) == low})
    return Verdict(
        equivalent=False,
        witness=CollectionWitness(
            query=_witness_query(_trees(table, p1.actions, [i])[i]),
            value_left=Fraction(differing[i][0], den),
            value_right=Fraction(differing[i][1], den),
        ),
    )
