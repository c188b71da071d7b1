"""Per-layer tracing, installed from outside the package.

`install` wraps each traced public function of a cfpomdp module and rebinds
every name under which any cfpomdp module holds it (the defining module,
modules that imported it by name, aliases such as the CLI's
``determinize_env``), so calls between layers go through the wrapper.  Each
wrapper keeps, in memory, a call count, total time and self time (total
minus the time of traced calls it made), plus a few counts taken at the same
boundary.  `Tracer.dump` writes them out once, at the end of the process.

A function a later version of the package no longer has is recorded as
absent; its metrics read 0.
"""

from __future__ import annotations

import os
import sys
import time

# (module, function): the public calls between the layers the benchmark
# reports; cli is timed by the caller of the command (see trace_cli.py).
TRACED = (
    ("envfile", "load_env"),
    ("envfile", "save_env"),
    ("core", "reachable_histories"),
    ("trajectory", "history_prob"),
    ("trajectory", "initial_posterior"),
    ("envpolicy", "enumerate_support"),
    ("envpolicy", "behavior_map"),
    ("envpolicy", "env_policy_posterior"),
    ("equivalence", "check_equiv"),
    ("equivalence", "check_cf_equiv"),
    ("equivalence", "behavior_distribution"),
    ("equivalence", "collection_prob"),
    ("determinize", "determinize"),
    ("determinize", "minimize"),
    ("determinize", "behavior_partition"),
    ("determinize", "initial_behavior_map"),
    ("learning", "transfer"),
    ("learning", "verify_universality"),
    ("learning", "evaluate"),
)

# Counts taken at the layer boundaries (see Tracer._count), with units.
# bd_resolutions (resolutions mapped by behavior_distribution) is only the
# base of merge_ratio.
COUNTS = {
    "envfile.bytes_written": "B",
    "core.histories": "count",
    "envpolicy.enumerate_support.cache_hits": "count",
    "envpolicy.enumerate_support.cache_misses": "count",
    "envpolicy.resolutions": "count",
    "equivalence.behavior_classes": "count",
    "equivalence.bd_resolutions": "count",
    "determinize.twin_states": "count",
    "determinize.minimized_states": "count",
}

TOP = "cli.main"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, time spent in traced callees]

    def span(self, name: str, fn, *args, **kwargs):
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            _, inner = self._stack.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - inner
            if self._stack:
                self._stack[-1][1] += elapsed

    def install(self) -> None:
        import cfpomdp.cli  # noqa: F401  (loads every traced module)

        package = {k: v for k, v in sys.modules.items()
                   if k == "cfpomdp" or k.startswith("cfpomdp.")}
        for module, fn_name in TRACED:
            name = f"{module}.{fn_name}"
            original = getattr(package.get(f"cfpomdp.{module}"), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, original):
        cache_info = getattr(original, "cache_info", None)

        def wrapper(*args, **kwargs):
            before = cache_info() if cache_info else None
            result = self.span(name, original, *args, **kwargs)
            self._count(name, args, result, before, cache_info() if cache_info else None)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count(self, name, args, result, before, after) -> None:
        c = self.counts
        if name == "envfile.save_env":
            c["envfile.bytes_written"] += os.path.getsize(args[0])
        elif name == "core.reachable_histories":
            c["core.histories"] += sum(len(group) for group in result.values())
        elif name == "envpolicy.enumerate_support":
            if before is not None:
                c["envpolicy.enumerate_support.cache_hits"] += after.hits - before.hits
                c["envpolicy.enumerate_support.cache_misses"] += after.misses - before.misses
            if before is None or after.misses > before.misses:
                c["envpolicy.resolutions"] += len(result)
            if self._stack and self._stack[-1][0] == "equivalence.behavior_distribution":
                c["equivalence.bd_resolutions"] += len(result)
        elif name == "equivalence.behavior_distribution":
            c["equivalence.behavior_classes"] += len(result)
        elif name == "determinize.determinize":
            c["determinize.twin_states"] += len(result.states)
        elif name == "determinize.minimize":
            c["determinize.minimized_states"] += len(result.states)

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total,
            "counts": self.counts,
            "absent": self.absent,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several traced processes."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counts": dict.fromkeys(COUNTS, 0),
           "absent": []}
    for d in dumps:
        for key in ("calls", "self_s", "total_s", "counts"):
            for name, value in d[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(d["absent"]))
    return out


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [("cli.startup_s", "s"), (f"{TOP}.calls", "count"), (f"{TOP}.self_s", "s")]
    for module, fn_name in TRACED:
        names += [(f"{module}.{fn_name}.calls", "count"), (f"{module}.{fn_name}.self_s", "s")]
    names += [(name, unit) for name, unit in COUNTS.items()
              if name != "equivalence.bd_resolutions"]
    names += [("equivalence.merge_ratio", "ratio"), ("trace.overhead_s", "s")]
    return names


def metrics(merged: dict, startup_s: float, overhead_s: float) -> dict[str, float]:
    values = {"cli.startup_s": startup_s, "trace.overhead_s": overhead_s}
    for name, unit in metric_names():
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = merged["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = merged["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name == "equivalence.merge_ratio":
            mapped = merged["counts"]["equivalence.bd_resolutions"]
            values[name] = merged["counts"]["equivalence.behavior_classes"] / mapped if mapped else 0.0
        else:
            values[name] = merged["counts"][name]
    return values
