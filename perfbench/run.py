"""cfpomdp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads and their rationale are in BENCHMARK.json and
workloads.py.

Closed loop, one client, one operation in flight.  A CLI operation is one
verb in a fresh child process, timed from spawn to reap, with the child's
own peak RSS from wait4.  In `session` one child process runs the whole
batch through the library and times each call.

Set-up (generating and writing the instances, plus a cold import of the
package in a fresh interpreter) runs once before the batch and is repeated
every SETUP_INTERVAL_S while it runs; setup_s is the median (see Setup).
With --trace 0 the batch runs for S seconds: one whole pass, then further
passes operation by operation until the next operation would end after S
seconds (`session` runs whole passes).  An operation's time is its median
over its samples, so the percentiles and ops_per_s do not depend on where
the run stops.  With --trace 1 one untraced and one traced pass run, and
the per-layer counters of the traced pass are reported.

Every output is checked against an answer known from how the instances
were built.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  `failed` counts every
wrong output, unexpected exit code, exception or timeout; `correct` is
true only if nothing failed.  Probes of a known defect (see
workloads.equiv_long) run once per run, before the measured operations and
inside its S seconds; they are not scored, but any output other than the
right answer or the defect's exact wrong one makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

import layers
import workloads

SETUP_INTERVAL_S = 2.5
OP_TIMEOUT_S = 60
SESSION_TIMEOUT_S = 150
TAIL_BEYOND = 10
HERE = Path(__file__).resolve().parent


class Child:
    """Environment for child interpreters that import the checkout's
    package.  A fixed hash seed keeps set iteration order, and with it the
    work done, the same from run to run."""

    def __init__(self, root: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, argv: list[str], cwd: Path, timeout: float) -> dict:
        """Run to completion; return exit code, output, wall time and the
        child's own peak RSS (from wait4, so it is not mixed with other
        children)."""
        with open(cwd / ".stdout", "w+") as out, open(cwd / ".stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    cwd=cwd, env=self.env)
            lock, state = threading.Lock(), {"reaped": False, "timed_out": False}

            def kill():
                with lock:
                    if not state["reaped"]:
                        state["timed_out"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
            wall = time.perf_counter() - start
            # Reaped here, not by Popen: record it so Popen does not wait again.
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read()
        return {
            "code": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
            "wall": wall,
            "rss_kb": usage.ru_maxrss,
            "timed_out": state["timed_out"],
        }


class Setup:
    """Set-up: generating and writing the instances plus a cold import of
    the package in a fresh interpreter.  The first set-up builds the batch
    the run uses.  While the batch runs, `catch_up` repeats the set-up in a
    side directory every SETUP_INTERVAL_S, so that the reported median
    samples the machine over the whole run, as the operations do."""

    PROBE = ("import time; t = time.perf_counter(); import cfpomdp.cli; "
             "print(time.perf_counter() - t)")

    def __init__(self, args, root: Path, work: Path, child: Child):
        self.args, self.root, self.child = args, root, child
        self.corpus = root / "src" / "cfpomdp" / "corpus"
        self.side = work / "setup"
        self.side.mkdir()
        self.times: list[float] = []
        self.batch = self._once(work)
        self.started = time.perf_counter()

    def _once(self, dest: Path):
        start = time.perf_counter()
        batch = workloads.build(self.args.workload, self.args.seed, dest, self.corpus)
        generated = time.perf_counter() - start
        res = self.child.run(["-c", self.PROBE], dest, OP_TIMEOUT_S)
        if res["code"] != 0:
            raise SystemExit(f"cannot import cfpomdp from {self.root / 'src'}:\n{res['stderr']}")
        self.times.append(generated + float(res["stdout"]))
        return batch

    def catch_up(self) -> None:
        while time.perf_counter() - self.started >= SETUP_INTERVAL_S * len(self.times):
            self._once(self.side)

    def median(self) -> float:
        return statistics.median(self.times)


def run_op(op, i: int, work: Path, child: Child, traced: bool) -> dict:
    """Run one CLI operation and check its output."""
    rec = {"label": op.label, "m": op.m}
    try:
        if op.prepare:
            op.prepare()
    except (OSError, ValueError, KeyError) as exc:
        return {**rec, "seconds": 0.0, "rss_kb": 0, "failure": f"input for this step missing: {exc}"}
    spans = work / f".spans{i}.json"
    argv = (["-m", "cfpomdp", *op.argv] if not traced
            else [str(HERE / "trace_cli.py"), str(spans), *op.argv])
    res = child.run(argv, work, OP_TIMEOUT_S)
    result = workloads.Result(res["code"], res["stdout"], work)
    if res["timed_out"]:
        failure = f"timed out after {OP_TIMEOUT_S} s"
    else:
        failure = op.check(result)
    rec.update(seconds=res["wall"], rss_kb=res["rss_kb"], failure=failure)
    if op.known_wrong:
        rec["known_wrong"] = not res["timed_out"] and op.known_wrong(result) is None
    if traced:
        try:
            rec["layers"] = json.loads(spans.read_text())
        except (OSError, ValueError):
            rec["layers"] = None
    return rec


def session_pass(batch, work: Path, child: Child, traced: bool) -> tuple[list[dict], float, int, dict | None]:
    out = work / ".session.json"
    res = child.run([str(HERE / "session.py"), batch.session_file, str(out), "1" if traced else "0"],
                    work, SESSION_TIMEOUT_S)
    if res["code"] != 0 or res["timed_out"]:
        raise RuntimeError(f"session process failed (exit {res['code']}):\n{res['stderr'][-2000:]}")
    data = json.loads(out.read_text())
    return data["records"], data["wall_s"], data["peak_rss_kb"], data["layers"]


def run_pass(batch, work, child, traced):
    """One whole pass over the batch: (records, busy wall time, peak RSS kB,
    layer dumps)."""
    if batch.session_file:
        records, wall, rss, dump = session_pass(batch, work, child, traced)
        return records, wall, rss, [dump] if dump else []
    records = [run_op(op, i, work, child, traced) for i, op in enumerate(batch.ops)]
    wall = sum(r["seconds"] for r in records)
    dumps = [r["layers"] for r in records if r.get("layers")]
    return records, wall, max(r["rss_kb"] for r in records), dumps


def measure(batch, work: Path, child: Child, seconds: float,
            between: Callable[[], None]) -> tuple[list[list[dict]], int, list[dict]]:
    """Run the probes, then the batch, for `seconds` in all (see the module
    docstring), calling `between` after each operation (`session`: each
    pass); return each operation's samples, the peak RSS in kB and the probe
    records."""
    deadline = time.perf_counter() + seconds

    def left() -> float:
        return deadline - time.perf_counter()

    probes = [run_op(op, i, work, child, False) for i, op in enumerate(batch.probes)]
    if batch.session_file:
        samples, peak = [], 0
        while not samples or wall < left():
            records, wall, rss, _ = run_pass(batch, work, child, traced=False)
            peak = max(peak, rss)
            samples = [s + [r] for s, r in zip(samples or [[]] * len(records), records)]
            between()
        return samples, peak, probes
    samples, peak = [[] for _ in batch.ops], 0
    while True:
        for i, op in enumerate(batch.ops):
            if samples[i] and statistics.median(r["seconds"] for r in samples[i]) >= left():
                return samples, peak, probes
            rec = run_op(op, i, work, child, False)
            peak = max(peak, rec["rss_kb"])
            samples[i].append(rec)
            between()


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def summarize(samples: list[list[dict]], peak_kb: int, probes: list[dict]) -> dict:
    per_op = [statistics.median(r["seconds"] for r in s) for s in samples]
    failures = [r for s in samples for r in s if r["failure"]]
    ok = sum(1 for s in samples if not any(r["failure"] for r in s))
    tail_s, tail_pct = tail(per_op)
    return {
        "attempted": sum(len(s) for s in samples),
        "failures": failures,
        "probes": probes,
        # One pass with every operation at its median time.
        "ops_per_s": ok / sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_s,
        "tail_pct": tail_pct,
        "ops": len(samples),
        "samples_per_op": [len(s) for s in samples],
        "peak_rss_mb": peak_kb / 1024.0,
        "cache": _cache_line([s[-1] for s in samples]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cfpomdp" / "__init__.py").is_file():
        print(f"error: no cfpomdp sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    build = root / ".bench_build"
    work = build / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    child = Child(root)
    try:
        setup = Setup(args, root, work, child)
        if args.trace:
            return report_trace(setup.batch, work, child)
        result = summarize(*measure(setup.batch, work, child, args.seconds, setup.catch_up))
        return report(args, result, setup.median())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cache_line(records: list[dict]) -> str | None:
    """enumerate_support cache hits/misses, summed over one pass's records
    (session records them per query while that cache exists)."""
    hits = [r["cache_hits"] for r in records if r.get("cache_hits") is not None]
    if not hits:
        return None
    misses = sum(r["cache_misses"] for r in records if r.get("cache_misses") is not None)
    return f"enumerate_support cache per pass: {sum(hits)} hits, {misses} misses"


def _by_m(records: list[dict]) -> list[str]:
    totals: dict[int, list] = {}
    for r in records:
        entry = totals.setdefault(r["m"], [0, 0.0])
        entry[0] += 1
        entry[1] += r["seconds"]
    return [f"m={m}: {n} ops, {t:.4f} s" for m, (n, t) in sorted(totals.items())]


def probe_lines(probes: list[dict]) -> tuple[list[str], bool]:
    """Status of the known-defect probes, and whether each gave either the
    right answer or exactly the defect's wrong one."""
    if not probes:
        return [], True
    fixed = sum(1 for p in probes if not p["failure"])
    defect = sum(1 for p in probes if p["failure"] and p["known_wrong"])
    broken = [p for p in probes if p["failure"] and not p["known_wrong"]]
    lines = [f"probe (unscored) ROADMAP item 2, o0-odds pairs: {fixed} right, "
             f"{defect} with the known wrong verdict 'equivalent', {len(broken)} otherwise wrong"]
    lines += [f"probe failed: {p['label']}: {p['failure']}" for p in broken]
    return lines, not broken


def emit(s: dict, lines: list[str], metrics: dict[str, tuple[float, str]]) -> int:
    """Print the failures, the probe status, the human-readable lines and
    every metric, then the result object as the last line."""
    for r in s["failures"]:
        print(f"failed: {r['label']}: {r['failure']}")
    probe_status, probes_ok = probe_lines(s["probes"])
    for line in probe_status + lines + ([s["cache"]] if s["cache"] else []):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not s["failures"] and probes_ok,
        "attempted": s["attempted"],
        "failed": len(s["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, s: dict, setup_s: float) -> int:
    failed = len(s["failures"])
    return emit(s, [
        f"workload {args.workload} seed {args.seed}: {s['ops']} ops, "
        f"{min(s['samples_per_op'])}-{max(s['samples_per_op'])} samples each",
        f"error_rate {failed / s['attempted']:.6f} (failed/attempted = {failed}/{s['attempted']})",
        f"op_tail_s is p{s['tail_pct']:.1f} of {s['ops']} per-operation medians",
    ], {
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_s": (s["op_p50_s"], "s"),
        "op_tail_s": (s["op_tail_s"], "s"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    })


def report_trace(batch, work, child) -> int:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain = run_pass(batch, work, child, traced=False)
    records, wall, peak, dumps = run_pass(batch, work, child, traced=True)
    merged = layers.merge(dumps)
    startup = 0.0
    if not batch.session_file:
        startup = sum(r["seconds"] for r in records) - merged["total_s"].get(layers.TOP, 0.0)
    values = layers.metrics(merged, startup, wall - plain[1])
    units = dict(layers.metric_names())
    lines = ["traced wall time by horizon: " + "; ".join(_by_m(records))]
    if merged["absent"]:
        lines.append("absent (metrics read 0): " + ", ".join(merged["absent"]))
    return emit(summarize([[r] for r in records], peak, []), lines,
                {name: (value, units[name]) for name, value in values.items()})


if __name__ == "__main__":
    sys.exit(main())
