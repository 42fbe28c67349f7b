#!/usr/bin/env python3
"""Validate one lcws_bench result file and print the benchmark's result line.

Usage: python3 benchmark/check_output.py RESULT.json

run.sh runs this last. The metric names come from BENCHMARK.json at the
repository root: the end_to_end ones for an untraced run (trace 0), the
per_layer ones for a traced run (trace 1). A traced run first gets
sched.steal_resolve_us.<sched> folded in: the median steal resolution
latency that scripts/trace_summary.py --json --check measures on each
scheduler's LCWS_TRACE file.

The run fails (exit 1) if
  * a metric BENCHMARK.json names is missing, not finite, or in another unit;
  * a scheduler's sample count is not cycles x rounds_per_block;
  * any round failed validation or threw;
  * pbbs_irregular shows zero steals under any scheduler but wsmult;
  * fork_fine gives ws a fences+CAS per fork other than about 2, or any of
    the four LCWS variants one at or above 0.01;
  * trace_summary.py rejects an LCWS_TRACE file.
Either way the last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SUMMARY = ROOT / "scripts" / "trace_summary.py"
LCWS_VARIANTS = ("uslcws", "signal", "conservative", "expose_half")


def steal_resolve_us(path, errors):
    """n-weighted mean of the per-worker p50 steal resolution latency."""
    proc = subprocess.run(
        [sys.executable, str(TRACE_SUMMARY), path, "--json", "--check"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        errors.append(f"trace_summary.py --check rejected {path}: "
                      f"{proc.stderr.strip()}")
        return math.nan
    workers = json.loads(proc.stdout)["workers"].values()
    n = sum(w["steal_latency_us"]["n"] for w in workers)
    if n == 0:
        errors.append(f"{path}: no resolved steal attempts")
        return math.nan
    return sum(w["steal_latency_us"]["p50"] * w["steal_latency_us"]["n"]
               for w in workers) / n


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result = json.loads(Path(sys.argv[1]).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = result["trace"] == 1
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = dict(result["metrics"])
    errors = []

    if traced:
        for sched, path in result["lcws_traces"].items():
            metrics[f"sched.steal_resolve_us.{sched}"] = {
                "value": steal_resolve_us(path, errors), "unit": "us"}

    reported = {}
    for m in wanted:
        got = metrics.get(m["name"])
        reported[m["name"]] = None
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif not math.isfinite(got["value"]):
            errors.append(f"{m['name']} is {got['value']}")
        elif got["unit"] != m["unit"]:
            errors.append(f"{m['name']} in {got['unit']}, not {m['unit']}")
        else:
            reported[m["name"]] = got

    expected = result["cycles"] * result["rounds_per_block"]
    beyond_tail = expected - math.ceil(result["tail_quantile"] * expected)
    if not traced and beyond_tail < 10:
        print(f"note: only {beyond_tail} samples lie beyond the tail "
              "percentile", file=sys.stderr)
    for sched, n in result["samples"].items():
        if n != expected:
            errors.append(f"{sched}: {n:.0f} samples, expected {expected}")

    if result["failed"] != 0:
        errors.append(f"{result['failed']} of {result['attempted']} "
                      "validated operations failed")

    if result["workload"] == "pbbs_irregular":
        for sched, steals in result["steals"].items():
            if steals > 0:
                continue
            # A stale thief top store can hide wsmult's window from every
            # thief for whole rounds (README, "Known findings"), so wsmult
            # alone may legitimately show no steals here.
            if sched == "wsmult":
                print("note: no steals under wsmult", file=sys.stderr)
            else:
                errors.append(f"pbbs_irregular: no steals under {sched}")

    if result["workload"] == "fork_fine":
        sync = result["sync_per_fork"]
        if abs(sync["ws"] - 2.0) > 0.05:
            errors.append(f"fork_fine: ws pays {sync['ws']:.4f} "
                          "fences+CAS per fork, expected about 2")
        for sched in LCWS_VARIANTS:
            if sync[sched] >= 0.01:
                errors.append(f"fork_fine: {sched} pays {sync[sched]:.4f} "
                              "fences+CAS per fork, expected below 0.01")

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
