#!/usr/bin/env python3
"""The p3p benchmark: four workloads, one per kind of p3p user.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run sets up SETUP_REPEATS times (seeded keygen, key serialize/parse, and
the responder ready to accept where there is one) and reports the median
as ``setup_s``. It then runs the workload's units in a closed loop of one
client for S seconds, checks every output, and prints a readable summary
followed by one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists -- the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``. A traced run wraps p3p's public
functions and ``pow`` from outside, in this process and in every p3p child
process, and reports per unit of work.

Every run is appended, with its provenance and sample count, to
``.perfbench_out/runs.jsonl``; ``perfbench/report.py`` summarises that log.
``--smoke`` runs all four workloads traced and untraced at a toy key size
for a fraction of a second each and exits 1 on any wrong output.

Run from anywhere; the script finds the checkout from its own location and
uses ``src/`` from it. Without ``src/p3p`` it exits non-zero before measuring.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SMOKE_MODULUS_BITS = 256
SMOKE_SECONDS = 0.3
LINK = {"three-pass-tcp-1024": "loopback, not a real link"}  # others use no network


def _import_p3p():
    src = ROOT / "src"
    if not (src / "p3p" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'p3p'} not found; run from a p3p checkout")
    sys.path.insert(0, str(src))
    import p3p

    if Path(p3p.__file__).resolve().parent != (src / "p3p").resolve():
        sys.exit(f"error: imported p3p from {p3p.__file__}, not from {src}")


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool,
        modulus_bits: int | None = None) -> dict:
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    uninstall = tracing.install(tracer) if trace else None
    bench = workloads.Bench(ROOT, OUT, seed, seconds, tracer, modulus_bits)
    wl = workloads.WORKLOADS[workload](bench)
    try:
        setup_s = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                wl.close(state, collect=False)
            bench.phase("setup")
            t0 = time.perf_counter()
            state = wl.setup()
            setup_s.append(time.perf_counter() - t0)
        try:
            outcome = wl.measure(state)
        finally:
            wl.close(state)
    finally:
        if uninstall:
            uninstall()

    lat_ms = [ns / 1e6 for ns in outcome.latencies_ns]
    ok = outcome.attempted - outcome.failed
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ok / (outcome.busy_ns / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p95_ms": (_quantile(lat_ms, 95), "ms"),
        "error_rate": (outcome.failed / outcome.attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    layers = {}
    if trace:
        spans = tracer.export() + bench.child_spans
        keygens = sum(1 for s in spans if s[2] == "paillier.keygen" and s[3] == "setup")
        layers = tracing.aggregate(spans, outcome.attempted, keygens)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "modulus_bits": wl.bits,
        "samples": len(lat_ms),
        "beyond_p95": sum(1 for v in lat_ms if v > e2e["latency_p95_ms"][0]),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": e2e,
        "per_layer": layers,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "link": LINK.get(workload, "no network"),
        "setup_runs_s": setup_s,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_summary(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"modulus={result['modulus_bits']} bits, {result['samples']} units "
          f"({result['beyond_p95']} beyond p95), {result['link']}, "
          f"python {result['python']}, nproc {result['nproc_usable']}/{result['nproc']}, "
          f"commit {result['commit'][:12]}")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for name, value in sorted(result["per_layer"].items()):
        print(f"{name:<44} {value:>14.6g}")  # the unit is part of the name


def _result_line(result: dict, spec: dict) -> dict:
    """The contract's last line: exactly the metrics BENCHMARK.json lists."""
    metrics = {}
    if result["trace"]:
        for m in spec["per_layer"]:
            value = result["per_layer"].get(m["name"])
            if value is None:
                if m["unit"] == "ms":
                    raise RuntimeError(f"{m['name']} was not measured")
                value = 0  # a layer this workload never calls
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": result["end_to_end"][m["name"]][0],
                                  "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _log(result: dict) -> None:
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(result) + "\n")


def smoke() -> int:
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run(name, 1, SMOKE_SECONDS, trace, SMOKE_MODULUS_BITS)
            status = "ok" if result["failed"] == 0 else "WRONG OUTPUT"
            print(f"smoke {name} trace={int(trace)}: {result['attempted']} units, "
                  f"{result['failed']} failed: {status}")
            bad += result["failed"] != 0
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_p3p()
    if args.smoke:
        return smoke()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _log(result)
    _print_summary(result)
    print(json.dumps(_result_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
