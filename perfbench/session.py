"""The `session` workload: one long-lived process calling the library.

    python perfbench/session.py INSTANCES_JSON OUT_JSON TRACE

For each environment of INSTANCES_JSON (written by workloads.session) it
makes a burst of queries on that environment and checks each answer against
what is known from the construction: the relabelled, start-split twin is
equivalent and counterfactually equivalent; the fresh-observation variant is
neither; replaying the witness query with `collection_prob` gives exactly the
witness masses, 0 on the side that cannot produce the witness histories; a
posterior over resolutions sums to exactly 1.  It then checks the README's
counterfactual verdicts on the corpus pairs, loaded with `load_env`.

Nothing is cleared between environments, so the package's caches behave as
they would for a long-lived user.  Per query it records the wall time, the
verdict check and the `enumerate_support` cache hits and misses (while that
cache exists).  OUT_JSON receives the records, the batch wall time, the
process peak RSS and, with TRACE=1, the layer counters.
"""

import json
import resource
import sys
import time
from fractions import Fraction

FRESH_OBS = "z"


def _pomdp(rows):
    from cfpomdp import Pomdp

    dist = lambda row: {k: Fraction(w, sum(v for _, v in row)) for k, w in row}
    return Pomdp.build(
        rows["states"], rows["actions"], rows["observations"], dist(rows["init"]),
        {(s, a): dist(row) for s, a, row in rows["trans"]},
        {s: dist(row) for s, row in rows["obs"].items()},
    )


def _has_fresh(h) -> bool:
    return FRESH_OBS in h.observations


def burst(c, env, twin, fresh, m):
    """Yield (query name, thunk returning a failure reason or None)."""
    state = {}

    def cf_twin():
        return None if c.check_cf_equiv(env, twin, m).equivalent else "twin judged inequivalent"

    def cf_fresh():
        verdict = c.check_cf_equiv(env, fresh, m)
        if verdict.equivalent:
            return "fresh-observation variant judged equivalent"
        state["witness"] = verdict.witness
        return None

    def replay(side, target):
        def run():
            w = state.get("witness")
            if w is None:
                return "no witness to replay"
            value = c.collection_prob(target, w.query, m)
            expected = w.value_left if side == "left" else w.value_right
            if value != expected:
                return f"replay gives {value}, witness says {expected}"
            impossible = any(_has_fresh(h) for h, _ in w.query.pairs) == (side == "left")
            if impossible and value != 0:
                return f"{side} side cannot produce the witness yet has mass {value}"
            return None
        return run

    def posterior():
        w = state.get("witness")
        if w is None:
            return "no witness history"
        h, pi = w.query.pairs[0]
        post = c.env_policy_posterior(fresh if _has_fresh(h) else env, h, pi, m)
        total = sum(post.values(), Fraction(0))
        if total != 1 or min(post.values()) < 0:
            return f"posterior sums to {total}"
        return None

    def eq_twin():
        return None if c.check_equiv(env, twin, m).equivalent else "twin judged inequivalent"

    def eq_fresh():
        return "fresh variant judged equivalent" if c.check_equiv(env, fresh, m).equivalent else None

    yield "check_cf_equiv twin", cf_twin
    yield "check_cf_equiv fresh", cf_fresh
    yield "collection_prob replay left", replay("left", env)
    yield "collection_prob replay right", replay("right", fresh)
    yield "env_policy_posterior", posterior
    yield "check_equiv twin", eq_twin
    yield "check_equiv fresh", eq_fresh


def corpus_queries(c, pairs, horizons):
    """Yield (label, m, thunk) for the README's corpus verdicts."""
    envs = {}
    for left, right, equivalent in pairs:
        for name in (left, right):
            if name not in envs:
                envs[name] = c.load_env(name)
        for m in horizons:
            def query(l=envs[left], r=envs[right], m=m, expected=equivalent):
                got = c.check_cf_equiv(l, r, m).equivalent
                return None if got == expected else f"README says equivalent={expected}, got {got}"
            yield f"check_cf_equiv corpus {left}/{right} m{m}", m, query


def main() -> int:
    instances, out, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    import cfpomdp as c

    # The lru_cache itself, or under the tracing wrapper.
    support = c.enumerate_support
    cache_info = (getattr(support, "cache_info", None)
                  or getattr(getattr(support, "__wrapped__", None), "cache_info", None))
    with open(instances) as fh:
        data = json.load(fh)
    cases = [(case["tag"], case["m"], _pomdp(case["env"]), _pomdp(case["twin"]),
              _pomdp(case["fresh"])) for case in data["envs"]]
    queries = [(f"{name} {tag}", m, query)
               for tag, m, env, twin, fresh in cases
               for name, query in burst(c, env, twin, fresh, m)]
    queries += corpus_queries(c, data["corpus"], data["corpus_m"])
    records = []
    start = time.perf_counter()
    for label, m, query in queries:
        before = cache_info() if cache_info else None
        t0 = time.perf_counter()
        try:
            reason = query()
        except Exception as exc:  # a failed operation, reported not raised
            reason = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        after = cache_info() if cache_info else None
        records.append({
            "label": label,
            "m": m,
            "seconds": seconds,
            "failure": reason,
            "cache_hits": after.hits - before.hits if before else None,
            "cache_misses": after.misses - before.misses if before else None,
        })
    wall = time.perf_counter() - start
    result = {
        "records": records,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.dump() if tracer else None,
    }
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
