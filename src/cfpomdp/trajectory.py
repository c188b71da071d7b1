"""History probabilities, conditional history probabilities, and the Bayes
posterior over the initial state.

Probabilities fold one forward step along one history: the unnormalized
belief over the current state, moved by each action and split by
observation (`core._observe`).  State sequences are marginalized, never
enumerated.
"""

from __future__ import annotations

from fractions import Fraction

from .core import History, Pomdp, Rat, StochasticPolicy, _observe

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _weight(p: Pomdp, h: History, start=None) -> Rat:
    """Total weight of `h` with all policy factors dropped: the forward step
    folded along `h` alone.

    This is the probability of `h` under the policy that plays h's own
    actions.  `start` is (state, weight) pairs replacing the initial
    distribution (the posterior's likelihood starts from one state).
    """
    belief = _observe(p, p.init.entries if start is None else start).get(h.initial_obs, {})
    for action, obs in h.steps:
        moved = (
            (s2, w * wt) for s, w in belief.items() for s2, wt in p.trans_dist(s, action).entries
        )
        belief = _observe(p, moved).get(obs, {})
    return sum(belief.values(), _ZERO)


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
    return factor * _weight(p, h)


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
    is policy-independent; it is computed with them dropped.  Only states of
    positive initial mass are walked; every other state reads 0.  If no
    policy makes `h` possible, every entry is 0.
    """
    p.check_history_symbols(h)
    joint = {
        s: _weight(p, h, [(s, p.init.prob(s))])
        for s in p.states
        if p.init.prob(s) != 0
    }
    total = sum(joint.values(), _ZERO)
    if total == 0:
        return {s: _ZERO for s in p.states}
    return {s: joint.get(s, _ZERO) / total for s in p.states}
