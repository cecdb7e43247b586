#!/usr/bin/env bash
# Produces the committed benchmark baseline for this PR (BENCH_pr10.json):
# a Release build of the bench targets, each run with CYCADA_BENCH_JSON
# pointed at a temp file, merged into one document whose schema is described
# in docs/BENCHMARKING.md. Counters are merged flat; histograms keep their
# per-run p50/p95/p99 so bench_compare.sh can gate on tail latency too.
# The trace-replay leg (docs/TRACING.md) captures a golden workload and
# replays it at 4 threads so replay throughput rides the same gate; the
# fig6 worker-sweep leg (docs/PIPELINE.md) runs PassMark at 1/2/4/8 tile
# workers so the per-stage pipeline histograms and the raster speedup ride
# it too; the chaos-soak leg (docs/ROBUSTNESS.md) records the watchdog's
# escalation/recovery counters and stall histograms under deterministic
# fault injection (soak.* keys — informational in bench_compare.sh, since
# they measure injected faults, not code speed); the fleet leg
# (docs/SESSIONS.md) drives 16 concurrent sessions through cycada_fleet so
# multi-app throughput and frame-latency tails (fleet.frame_p99_ns) ride
# the lower-is-better gate.
# From the repo root:
#
#   ./scripts/bench_baseline.sh                # writes BENCH_pr10.json
#   BENCH_OUT=/tmp/b.json ./scripts/bench_baseline.sh
#   BENCH_PR=6 ./scripts/bench_baseline.sh     # writes BENCH_pr6.json
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${BENCH_PR:-10}"
OUT="${BENCH_OUT:-BENCH_pr${PR}.json}"
BUILD=build-bench

echo "==> configuring ${BUILD} (Release)"
cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> building bench targets"
cmake --build "${BUILD}" -j --target table3_microbench \
  table2_diplomat_breakdown cycada_trace_gen cycada_replay \
  fig6_passmark cycada_fleet >/dev/null

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

echo "==> running table3_microbench"
CYCADA_BENCH_JSON="${tmpdir}/table3.json" \
  "./${BUILD}/bench/table3_microbench" --benchmark_min_time=0.05
echo "==> running table2_diplomat_breakdown"
CYCADA_BENCH_JSON="${tmpdir}/table2.json" \
  "./${BUILD}/bench/table2_diplomat_breakdown" >/dev/null
echo "==> running trace replay (4 threads, max rate)"
"./${BUILD}/tools/cycada_trace_gen" "${tmpdir}/replay.cyt" --frames 3 \
  >/dev/null
CYCADA_BENCH_JSON="${tmpdir}/replay.json" \
  "./${BUILD}/tools/cycada_replay" "${tmpdir}/replay.cyt" \
  --threads 4 --iterations 16 --verify >/dev/null
echo "==> running fig6 worker sweep (1/2/4/8 tile workers)"
CYCADA_BENCH_JSON="${tmpdir}/sweep.json" CYCADA_PASSMARK_SWEEP=1 \
  "./${BUILD}/bench/fig6_passmark" >/dev/null
echo "==> running fig6 chaos soak (4s budget, seed 42)"
CYCADA_BENCH_JSON="${tmpdir}/soak.json" CYCADA_PASSMARK_SOAK_MS=4000 \
  CYCADA_WATCHDOG_BUDGET_MS=50 CYCADA_CHAOS_SEED=42 \
  "./${BUILD}/bench/fig6_passmark" >/dev/null
# Pinned to one test so fleet.* stays comparable with earlier baselines
# (without --test the fleet renders every PassMark test).
echo "==> running cycada_fleet (16 sessions, 4 frames, verified)"
CYCADA_BENCH_JSON="${tmpdir}/fleet.json" \
  "./${BUILD}/tools/cycada_fleet" --sessions 16 --frames 4 --verify \
  --test "Solid Vectors" >/dev/null

# Merge the two bench documents (shell-only; no python/jq dependency). Each
# emits {"counters":{...},"histograms":{...}}; the counters object is flat
# (no nested braces), so merging is concatenating the inner key/value lists.
# The histograms object is one level deep ("name":{...} entries) and is the
# last thing in the document, so its inner list is everything between
# '"histograms":{' and the closing '}}'.
counters() {
  tr -d '\n' < "$1" | sed -n 's/.*"counters":{\([^}]*\)}.*/\1/p'
}
histograms() {
  tr -d '\n' < "$1" | sed -n 's/.*"histograms":{\(.*\)}}$/\1/p'
}
join_nonempty() {
  # join_nonempty A B -> "A,B", dropping empty parts.
  local joined=""
  for part in "$@"; do
    [[ -z "${part}" ]] && continue
    [[ -n "${joined}" ]] && joined+=","
    joined+="${part}"
  done
  printf '%s' "${joined}"
}
{
  printf '{"schema":"cycada-bench/v1","pr":%d,"build":"Release","counters":{' \
    "${PR}"
  printf '%s' "$(join_nonempty "$(counters "${tmpdir}/table3.json")" \
    "$(counters "${tmpdir}/table2.json")" \
    "$(counters "${tmpdir}/replay.json")" \
    "$(counters "${tmpdir}/sweep.json")" \
    "$(counters "${tmpdir}/soak.json")" \
    "$(counters "${tmpdir}/fleet.json")")"
  printf '},"histograms":{'
  printf '%s' "$(join_nonempty "$(histograms "${tmpdir}/table3.json")" \
    "$(histograms "${tmpdir}/table2.json")" \
    "$(histograms "${tmpdir}/replay.json")" \
    "$(histograms "${tmpdir}/sweep.json")" \
    "$(histograms "${tmpdir}/soak.json")" \
    "$(histograms "${tmpdir}/fleet.json")")"
  printf '}}\n'
} > "${OUT}"

echo "==> wrote ${OUT}"
grep -o '"table3.dispatch.[^,}]*' "${OUT}" | sed 's/"//g'
grep -o '"fig6.sweep.[^,}]*' "${OUT}" | sed 's/"//g'
grep -o '"soak.watchdog.[^,}]*' "${OUT}" | sed 's/"//g' | head -8
grep -o '"fleet.[^,}]*' "${OUT}" | sed 's/"//g'
