"""Run one p3p CLI command with tracing installed, then write its spans.

Usage: launch.py SPANS_OUT SPAWNED_NS UNIT PHASE -- P3P_ARGS...

SPAWNED_NS is the parent's ``time.monotonic_ns()`` just before it started
this process, so the gap to this script's first statement is the
interpreter start. The interpreter start, the import of p3p and the call
of ``p3p.cli.main`` are tagged with PHASE; spans inside the command are
tagged "units". Spans stay in memory and are written to SPANS_OUT as
JSON when the command returns or the process gets SIGTERM (the way the
benchmark stops a listening responder).
"""

import json
import signal
import sys
import time

STARTED_NS = time.monotonic_ns()


def _stop(signum, frame):
    raise SystemExit(0)


def main(argv: list[str]) -> int:
    spans_out, spawned_ns, unit, phase, sep, *p3p_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_OUT SPAWNED_NS UNIT PHASE -- ARGS...")
    import_start = time.monotonic_ns()
    import p3p.cli

    import_end = time.monotonic_ns()
    import tracing  # this script's directory is first on sys.path

    tracer = tracing.Tracer(phase)
    tracer.unit = int(unit)
    tracer.span("cli.interpreter", int(spawned_ns), STARTED_NS)
    tracer.span("cli.import", import_start, import_end)
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, _stop)
    record = tracer.enter("cli.main")
    tracer.phase = "units"
    code = 1
    try:
        code = p3p.cli.main(p3p_args)
    finally:
        tracer.leave(record)
        with open(spans_out, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
