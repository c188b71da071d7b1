"""Command-line interface.

Verdict commands exit 0 for equivalent, 1 for not equivalent, and 2 on
usage or input errors.  All output is deterministic given the inputs (and
the seed, for `simulate`).
"""

from __future__ import annotations

import errno
import os

import click

from .core import (
    DeterministicPolicy,
    History,
    Pomdp,
    validate as validate_pomdp,
)
from .determinize import determinize as determinize_env
from .determinize import minimize as minimize_env
from .envfile import load_env, read_text, save_env
from .envpolicy import count_env_policies, enumerate_support
from .equivalence import (
    CollectionQuery,
    CollectionWitness,
    ConditionalWitness,
    check_cf_equiv,
    check_equiv,
    collection_prob,
)
from .errors import CfpomdpError, InputError, ValidationError
from .learning import (
    PureLearningSpec,
    _first_difference,
    evaluate,
    load_weights,
    save_weights,
    transfer,
)
from .simulate import simulate as run_simulation
from .trajectory import initial_posterior


def _policy_from_spec(
    spec: str, env: Pomdp, m: int, along: History | None = None
) -> DeterministicPolicy:
    """A policy argument is an action id (constant policy), an inline
    ``history -> action`` table with ',' between entries, or ``@file`` with
    one such entry per line; empty text (a length-0 witness) is the empty table.
    Given `along`, the history a pair's policy is read on, a constant policy
    is tabled on along's prefixes alone: the pair's factor reads no other
    decision point, and the reachable ones are exponentially many in m."""
    spec = spec.strip()
    if not spec:
        return DeterministicPolicy(())
    if spec.startswith("@"):
        lines = read_text(spec[1:]).splitlines()
        entries = [ln.split("#", 1)[0].strip() for ln in lines]
        entries = [ln for ln in entries if ln]
    elif "->" in spec:
        entries = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        if spec not in env.action_index:
            raise InputError(f"unknown action {spec!r} for constant policy")
        if along is None:
            return DeterministicPolicy.constant(env, m, spec)
        return DeterministicPolicy(tuple((along.prefix(t), spec) for t in range(along.length)))
    decisions = []
    for entry in entries:
        if "->" not in entry:
            raise InputError(f"policy entry needs 'history -> action': {entry!r}")
        head, action = entry.rsplit("->", 1)
        decisions.append((History.parse(head.strip()), action.strip()))
    return DeterministicPolicy(tuple(decisions))


def _policy_to_text(pi: DeterministicPolicy) -> str:
    actions = {a for _, a in pi.decisions}
    if len(actions) == 1:
        return next(iter(actions))
    return ", ".join(f"{h} -> {a}" for h, a in pi.decisions)


def _check_output(ctx, param, path: str) -> str:
    """-o fails before any work, with the write's own error, when it names a
    directory or a parent directory that cannot be reached."""
    if os.path.isdir(path or "."):  # the write opens "" as "."
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path or ".")
    try:
        os.stat(os.path.dirname(path) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    return path


def _print_witness(witness: ConditionalWitness | CollectionWitness) -> None:
    click.echo("witness:")
    if isinstance(witness, ConditionalWitness):
        click.echo(
            f"{witness.h_long} | {witness.h_short} | "
            f"{_policy_to_text(witness.policy)} | "
            f"{witness.value_left} | {witness.value_right}"
        )
    else:
        for h, _ in witness.query.pairs:  # each policy is the script of its history
            click.echo(
                f"{h} | {_policy_to_text(DeterministicPolicy.script(h))} | "
                f"{witness.value_left} | {witness.value_right}"
            )


class _Main(click.Group):
    """Every library or file error of every verb ends here, as one
    ``error: ...`` line on stderr and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            message = "validation failed: " + "; ".join(exc.violations)
        except BrokenPipeError:
            raise  # a closed stdout: click silences it and exits 1
        except (CfpomdpError, OSError) as exc:
            message = str(exc)
        click.echo(f"error: {message}", err=True)
        raise SystemExit(2)


@click.group(cls=_Main)
def main():
    """Exact equivalence, counterfactual equivalence, determinization, and
    pure learning processes for finite reward-free POMDPs."""


@main.command()
@click.argument("file")
def validate(file):
    """Check every environment invariant; report violations."""
    p = load_env(file, validate_result=False)
    violations = validate_pomdp(p)
    if not violations:
        click.echo("ok")
        return
    for violation in violations:
        click.echo(f"violation: {violation}")
    raise SystemExit(1)


@main.command()
@click.argument("file1")
@click.argument("file2")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
def equiv(file1, file2, m):
    """Decide whether two environments look identical to a single agent for
    the first M turns."""
    verdict = check_equiv(load_env(file1), load_env(file2), m)
    if verdict.equivalent:
        click.echo("equivalent")
        return
    click.echo("not equivalent")
    _print_witness(verdict.witness)
    raise SystemExit(1)


@main.command(name="cf-equiv")
@click.argument("file1")
@click.argument("file2")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--witness", is_flag=True, help="Print a differing collection query.")
def cf_equiv(file1, file2, m, witness):
    """Decide whether two environments look identical to any number of
    agents sharing the same resolution for the first M turns."""
    verdict = check_cf_equiv(load_env(file1), load_env(file2), m)
    if verdict.equivalent:
        click.echo("equivalent")
        return
    click.echo("not equivalent")
    if witness:
        _print_witness(verdict.witness)
    raise SystemExit(1)


@main.command()
@click.argument("file")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("-o", "out", metavar="FILE", required=True, callback=_check_output)
@click.option("--minimize", "do_minimize", is_flag=True,
              help="Quotient the result by its behavior partition.")
def determinize(file, m, out, do_minimize):
    """Construct a deterministic environment counterfactually equivalent to
    FILE at horizon M and write it to OUT."""
    result = determinize_env(load_env(file), m)
    if do_minimize:
        result = minimize_env(result, m)
    save_env(out, result)
    click.echo(
        f"wrote {out} ({len(result.states)} states, "
        f"{len(result.init.support)} initial)"
    )


@main.command(name="env-policies")
@click.argument("file")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--count-only", is_flag=True,
              help="Print the unreduced census instead of the support.")
@click.option("--convention", type=click.Choice(["full", "transition-only"]),
              default="transition-only", show_default=True,
              help="Unreduced census convention (with --count-only).")
def env_policies(file, m, count_only, convention):
    """List the positive-probability resolutions of FILE's randomness, or
    count all unreduced ones."""
    p = load_env(file)
    if count_only:
        click.echo(str(count_env_policies(p, m, convention)))
        return
    support = enumerate_support(p, m)
    click.echo(f"support: {len(support)}")
    for i, (ep, prob) in enumerate(support):
        click.echo(f"policy {i} | {ep.describe()} | prob {prob}")


@main.command()
@click.argument("file")
@click.option("--history", "history_text", required=True,
              help='History, e.g. "o0 a0 s00".')
def posterior(file, history_text):
    """Posterior over the initial state given a history."""
    p = load_env(file)
    post = initial_posterior(p, History.parse(history_text))
    for s in p.states:
        click.echo(f"{s} {post[s]}")


@main.command(name="collection-prob")
@click.argument("file")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--pair", "pairs", multiple=True, required=True,
              help='"HISTORY ; POLICY"; POLICY is an action id, an inline table, or @file.')
def collection_prob_cmd(file, m, pairs):
    """Joint probability that agents sharing one resolution each see their
    paired history."""
    p = load_env(file)
    parsed = []
    for pair in pairs:
        if ";" not in pair:
            raise InputError(f"pair needs 'HISTORY ; POLICY', got {pair!r}")
        hist_text, policy_text = pair.split(";", 1)
        h = History.parse(hist_text.strip())
        pi = _policy_from_spec(policy_text.strip(), p, m, along=h)
        parsed.append((h, pi.as_stochastic()))
    value = collection_prob(p, CollectionQuery(tuple(parsed)), m)
    click.echo(str(value))


@main.command()
@click.argument("file")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--weights", "weights_path", metavar="FILE", required=True,
              help="Weight vector file: one 'state p/q' line per initial state.")
@click.option("--history", "history_text", required=True)
def learn(file, m, weights_path, history_text):
    """Evaluate a pure learning process on one history."""
    p = load_env(file)
    spec = PureLearningSpec.of(p, load_weights(weights_path), m)
    click.echo(str(evaluate(spec, History.parse(history_text))))


@main.command(name="learn-transfer")
@click.argument("src")
@click.argument("tgt")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--weights", "weights_path", metavar="FILE", required=True)
@click.option("-o", "out", metavar="FILE", required=True, callback=_check_output)
@click.option("--verify", is_flag=True,
              help="Check the transferred process agrees on every reachable history.")
def learn_transfer(src, tgt, m, weights_path, out, verify):
    """Transfer a pure learning process from SRC to the counterfactually
    equivalent deterministic environment TGT; write the new weights to OUT."""
    source = load_env(src)
    target = load_env(tgt)
    spec = PureLearningSpec.of(source, load_weights(weights_path), m)
    moved = transfer(spec, target, m)
    save_weights(out, moved.weights)
    click.echo(f"wrote {out} ({len(moved.weights)} weights)")
    if verify:
        differing = _first_difference(spec, moved)
        if differing is None:
            click.echo("universality: verified")
        else:
            click.echo(f"universality: differs at {differing}")
            raise SystemExit(1)


@main.command()
@click.argument("file")
@click.option("--m", "m", type=int, required=True, help="Horizon (turn count).")
@click.option("--agents", "agents", type=int, required=True)
@click.option("--policy", "policies", multiple=True, required=True,
              help="One per agent: action id, inline table, or @file.")
@click.option("--episodes", "episodes", type=int, required=True)
@click.option("--seed", "seed", type=int, required=True)
def simulate(file, m, agents, policies, episodes, seed):
    """Monte Carlo cross-check: sample shared resolutions and compare joint
    frequencies with their exact probabilities."""
    p = load_env(file)
    if agents < 1:
        raise InputError(f"agents must be >= 1, got {agents}")
    if len(policies) != agents:
        raise InputError(f"need {agents} --policy options, got {len(policies)}")
    parsed = [_policy_from_spec(spec, p, m) for spec in policies]
    result = run_simulation(p, m, parsed, episodes, seed)
    click.echo(f"episodes {result.episodes} seed {result.seed} agents {agents}")
    for joint, count, exact in result.outcomes:
        joint_text = " ; ".join(str(h) for h in joint)
        click.echo(
            f"{joint_text} | count {count} | freq {count}/{result.episodes} | exact {exact}"
        )


if __name__ == "__main__":
    main()
