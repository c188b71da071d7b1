"""Run one cfpomdp CLI command with per-layer tracing installed.

    python perfbench/trace_cli.py SPANS_OUT ARGS...

behaves like ``python -m cfpomdp ARGS...`` (same output, same exit code) and
also writes the layer counters of this process to SPANS_OUT as JSON.
"""

import json
import sys

from layers import TOP, Tracer


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cfpomdp.cli import main as cli

    code = 0
    try:
        tracer.span(TOP, cli.main, args=args, prog_name="cfpomdp")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
