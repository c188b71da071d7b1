"""History probabilities, conditional history probabilities, and the Bayes
posterior over the initial state.

All three are one forward fold along one history (`_joint`): an unnormalized
belief over (start tag, current state), moved by each action and kept where
the state emits the history's next observation.  State sequences are
marginalized, never enumerated.  A missing row raises where the fold meets
it; only then does `initial_posterior` re-fold start by start.
"""

from __future__ import annotations

from .core import History, Pomdp, Rat, StochasticPolicy, _ONE, _ZERO
from .errors import InputError


def _joint(p: Pomdp, h: History, starts: list) -> dict:
    """{tag: weight of h} from (tag, state, weight) `starts`, every tag
    present: h's probability, policy factors dropped, folded once along h
    over unnormalized beliefs keyed by (tag, state), so tags never merge.
    An arrival of weight <= 0 is skipped before its observation row is read,
    every other arrival's row is read, and only positive entries count.  A
    missing row raises where the fold meets it."""
    def observe(arrivals, o: str) -> dict:
        belief: dict = {}
        for key, w in arrivals:
            for o2, wo in p.obs_dist(key[1]).entries if w > 0 else ():
                if o2 == o and wo > 0:
                    x = w if wo == 1 else w * wo
                    belief[key] = belief[key] + x if key in belief else x
        return belief

    joint = dict.fromkeys((tag for tag, _, _ in starts), _ZERO)
    belief = observe((((tag, s), w) for tag, s, w in starts), h.initial_obs)
    for action, o in h.steps:
        belief = observe((((tag, s2), w if wt == 1 else w * wt) for (tag, s), w in belief.items()
                          for s2, wt in p.trans_dist(s, action).entries), o)
    for (tag, _), w in belief.items():
        joint[tag] += w
    return joint


def _policy_factor(h: History, pi: StochasticPolicy) -> Rat:
    """Product of the policy's probabilities for h's actions along h."""
    factor = _ONE
    for t in range(h.length):
        factor *= pi.prob(h.prefix(t), h.steps[t][0])
        if factor == 0:
            return _ZERO
    return factor


def history_prob(p: Pomdp, h: History, pi: StochasticPolicy) -> Rat:
    """Exact probability of observing `h` when acting with `pi`."""
    p.check_history_symbols(h)
    factor = _policy_factor(h, pi)
    if factor == 0:
        return _ZERO
    return factor * _joint(p, h, [(None, s, w) for s, w in p.init.entries])[None]


def cond_history_prob(
    p: Pomdp, h_long: History, h_short: History, pi: StochasticPolicy
) -> Rat:
    """Probability of `h_long` given `h_short` under `pi`.

    Non-extensions are impossible, hence 0; conditioning on a history of
    probability 0 yields 0 by convention, so the function is total.
    """
    p.check_history_symbols(h_long)
    p.check_history_symbols(h_short)
    if not h_short.is_prefix_of(h_long):
        return _ZERO
    denom = history_prob(p, h_short, pi)
    if denom == 0:
        return _ZERO
    return history_prob(p, h_long, pi) / denom


def initial_posterior(p: Pomdp, h: History) -> dict[str, Rat]:
    """Posterior over the initial state given `h`, for every state.

    The policy's action factors cancel out of the Bayes ratio, so the result
    is policy-independent; it is computed with them dropped.  Only declared
    states of positive initial mass are walked, each once; every other state
    reads 0.  If no policy makes `h` possible, every entry is 0.  A missing
    row is named as if each initial state were folded alone, in declared order.
    """
    p.check_history_symbols(h)
    starts = [(s, s, p.init.prob(s)) for s in p.state_index if p.init.prob(s) != 0]
    try:
        joint = _joint(p, h, starts)
    except InputError:
        for start in starts:
            _joint(p, h, [start])
        raise
    total = sum(joint.values(), _ZERO)
    post = dict.fromkeys(p.states, _ZERO)
    if total:
        post.update((s, x / total) for s, x in joint.items() if x)
    return post
