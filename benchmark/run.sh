#!/usr/bin/env bash
# Builds benchmark/lcws_bench (Release, into benchmark/build), runs one
# workload and validates the result with check_output.py, whose JSON line
# is the last line on stdout. Build and progress output go to stderr.
#
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh --self-test
#
# Workloads: fork_fine, pbbs_coarse, pbbs_irregular, burst_runs.
# --trace 0 measures the end-to-end metrics; --trace 1 runs the per-layer
# probes and the traced re-run instead. Each run's files (result.json, the
# span trace and the LCWS_TRACE files) land in benchmark/build/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

workload=""
seed=1
seconds=20
trace=0
self_test=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --self-test) self_test=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # keeps the compiler's temporaries in the checkout
{
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target lcws_bench -j "$(nproc)"
} >&2

if [ "$self_test" = 1 ]; then
  exec "$build/lcws_bench" --self-test
fi

# The ceiling keeps git from searching above the checkout.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
out="$build/out/$workload-seed$seed-trace$trace"
rm -rf "$out"
mkdir -p "$out"
"$build/lcws_bench" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace "$trace" --out "$out/result.json" \
  --trace-dir "$out" --rev "$rev" >&2
exec python3 "$here/check_output.py" "$out/result.json"
