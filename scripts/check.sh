#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite under both presets
# (release and ThreadSanitizer), a traced micro_idle run validated by
# trace_summary.py --check, then an AddressSanitizer+UBSan pass over the
# hardening suites (exception propagation, fault injection, watchdog,
# cancellation, shutdown/quiescence, deque growth and reclamation) where
# memory errors would hide behind rare interleavings. The structural
# counter checks are ctest tests; speed is judged by benchmark/run.sh.
#
# Slow stress sweeps carry the `stress` ctest label; pass LCWS_QUICK=1 to
# exclude them (`ctest -LE stress`) for a fast local iteration loop, and
# LCWS_FI_SEEDS=<n> to deepen the fault-injection sweep for soak runs.
# Usage: scripts/check.sh [--soak] [ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

# --soak: the CI nightly job, runnable locally — ONLY the stress-labeled
# fault-injection sweep, under ThreadSanitizer, at 4x the acceptance seed
# depth (override with LCWS_FI_SEEDS).
if [[ "${1:-}" == "--soak" ]]; then
  shift
  export LCWS_FI_SEEDS="${LCWS_FI_SEEDS:-256}"
  echo "== soak: stress suites under tsan, LCWS_FI_SEEDS=${LCWS_FI_SEEDS} =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}"
  exec ctest --preset tsan -j "${jobs}" -L stress --output-on-failure "$@"
fi

label_filter=()
if [[ "${LCWS_QUICK:-0}" != "0" ]]; then
  label_filter=(-LE stress)
fi

for preset in default tsan; do
  echo "== preset: ${preset} =="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}" "${label_filter[@]}" "$@"
done

# Tracing smoke: run a real bench with LCWS_TRACE set and semantically
# validate the emitted Chrome trace (ordering, B/E balance, steal pairing)
# with trace_summary.py --check — the end-to-end path a Perfetto user
# takes, not just the unit-level trace_test coverage.
echo "== tracing smoke (LCWS_TRACE end-to-end) =="
rm -f build/trace_smoke.json
LCWS_TRACE=build/trace_smoke.json LCWS_TRACE_RING=65536 \
  build/bench/micro_idle > /dev/null
python3 scripts/trace_summary.py build/trace_smoke.json --check

echo "== preset: asan (hardening suites) =="
cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ctest --preset asan -j "${jobs}" \
  -R '([Ee]xception|[Ff]ault|[Ww]atchdog|[Dd]eque|[Gg]rowth|[Rr]eclaim|[Ss]hutdown|DumpOnExit|Backoff|[Tt]race|PerfCounters|Cancel)' \
  "${label_filter[@]}" "$@"
