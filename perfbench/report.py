#!/usr/bin/env python3
"""Summarise the runs log that perfbench/run.py appends to.

    python3 perfbench/report.py [RUNS_JSONL]

For each commit, workload and trace setting: the number of runs, the unit
samples per run, and for each end-to-end metric its median, quartiles and
quartile spread as a share of the median. Then the tracing overhead per
workload: median ops_per_s of traced runs over that of untraced runs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RUNS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "runs.jsonl"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else RUNS
    groups = defaultdict(list)
    for line in path.read_text().splitlines():
        run = json.loads(line)
        groups[(run["commit"][:12], run["workload"], run["trace"])].append(run)
    ops = {}
    for (commit, workload, trace), runs in sorted(groups.items()):
        samples = sorted(r["samples"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{commit} {workload} trace={trace}: {len(runs)} runs, seeds "
              f"{sorted({r['seed'] for r in runs})}, units per run {samples[0]}.."
              f"{samples[-1]}, failed {failed}")
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name][0] for r in runs]
            unit = runs[0]["end_to_end"][name][1]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<16} median {med:12.6g} {unit:<5} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:.4f}")
            if name == "ops_per_s":
                ops[(commit, workload, trace)] = med
    for (commit, workload, trace), traced in sorted(ops.items()):
        plain = ops.get((commit, workload, 0))
        if trace and plain:
            print(f"{commit} {workload}: tracing overhead, traced/untraced "
                  f"ops_per_s = {traced:.4g}/{plain:.4g} = {traced / plain:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
