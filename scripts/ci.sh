#!/usr/bin/env bash
# The CI entry point (.github/workflows/ci.yml runs exactly this): tier-1
# build + full test suite + the cycada_check contract analyzer, the tile
# pipeline determinism/scaling leg, the trace capture/replay leg, the
# classification prover with its amendment proof gate, a fault-injected
# cycada_check run that must degrade gracefully, a chaos soak that stalls
# every fault probe under a tight watchdog budget, and a TSan leg over the
# concurrency-sensitive suites. Fast enough for every push; the full
# sanitizer matrix stays in scripts/check.sh (ci.yml also runs a focused
# ASan+UBSan leg).
#
#   ./scripts/ci.sh               # everything below
#   CYCADA_SKIP_TSAN=1 ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# --- Tier 1: default build, all tests, contract analyzer ---------------------
run cmake -B build -S .
run cmake --build build -j
# Note: ctest's bare -j greedily consumes the next argument, so the level
# is always passed explicitly.
(cd build && run ctest --output-on-failure -j "$(nproc)")
run ./build/tools/cycada_check --root "$(pwd)/src"

# --- Tile pipeline determinism + scaling (docs/PIPELINE.md) ------------------
# The tiled rasterizer must be deterministic: the full PassMark screen hash
# at 4 workers must be byte-identical to the single-threaded run. Graphics
# must be binary compatible: every test must hash the same under all four
# system configurations. The scaling gate (>= 2.00x raster speedup at 4
# workers) only means something with real cores underneath, so it is
# conditioned on nproc.
echo "==> fig6 framebuffer hashes at CYCADA_GPU_WORKERS=1 vs 4"
hash_w1="$(CYCADA_PASSMARK_HASH=1 CYCADA_GPU_WORKERS=1 \
  ./build/bench/fig6_passmark)"
hash_w4="$(CYCADA_PASSMARK_HASH=1 CYCADA_GPU_WORKERS=4 \
  ./build/bench/fig6_passmark)"
if [[ "${hash_w1}" != "${hash_w4}" ]]; then
  echo "ci.sh: FAIL — framebuffer hashes diverge across worker counts" >&2
  diff <(printf '%s\n' "${hash_w1}") <(printf '%s\n' "${hash_w4}") >&2 || true
  exit 1
fi
echo "    identical ($(printf '%s\n' "${hash_w1}" | grep -c '^hash ') hashes)"
# Lines read "hash <config> <test name> <fnv1a>"; test names contain spaces.
cross_config="$(printf '%s\n' "${hash_w1}" | awk '
  $1 == "hash" {
    test = $3
    for (i = 4; i < NF; ++i) test = test " " $i
    if (!(test in first)) first[test] = $NF
    else if (first[test] != $NF) diverged[test] = 1
  }
  END { for (test in diverged) print test }')"
if [[ -n "${cross_config}" ]]; then
  echo "ci.sh: FAIL — framebuffer hashes diverge across system configs:" >&2
  printf '%s\n' "${cross_config}" | sed 's/^/    /' >&2
  printf '%s\n' "${hash_w1}" | grep '^hash ' >&2
  exit 1
fi
echo "    one hash per test across the four system configs"
if [[ "$(nproc)" -ge 4 ]]; then
  echo "==> fig6 worker sweep (>= 2.00x raster speedup at 4 workers)"
  sweep_json="$(CYCADA_PASSMARK_SWEEP=1 ./build/bench/fig6_passmark)"
  speedup_x100="$(printf '%s' "${sweep_json}" \
    | grep -o '"fig6.sweep.workers4.raster_speedup_x100":[0-9]*' \
    | grep -o '[0-9]*$' || true)"
  if [[ -z "${speedup_x100}" || "${speedup_x100}" -lt 200 ]]; then
    echo "ci.sh: FAIL — 4-worker raster speedup" \
         "$(printf '%s' "${speedup_x100:-?}")/100 < 2.00x" >&2
    exit 1
  fi
  echo "    speedup ${speedup_x100}/100 at 4 workers"
else
  echo "==> fig6 scaling gate skipped ($(nproc) core(s); needs >= 4)"
fi

# --- Trace capture / replay leg (docs/TRACING.md) ----------------------------
# Capture the real PassMark and SunSpider bench runs, replay the PassMark
# stream at 1 and 4 threads with fidelity verification (per-diplomat counts
# exact, crossings/call within 5%), and mine both captures with the trace
# checker. Any finding fails the leg; batchability candidates are advisory.
tracedir="$(mktemp -d)"
trap 'rm -rf "${tracedir}"' EXIT
echo "==> capturing fig6_passmark + fig5_sunspider (CYCADA_TRACE_CAPTURE)"
run env CYCADA_TRACE_CAPTURE="${tracedir}/passmark.cyt" \
  ./build/bench/fig6_passmark
run env CYCADA_TRACE_CAPTURE="${tracedir}/sunspider.cyt" \
  ./build/bench/fig5_sunspider
echo "==> replaying the PassMark capture (1 and 4 threads, max rate)"
run ./build/tools/cycada_replay "${tracedir}/passmark.cyt" \
  --threads 1 --iterations 2 --verify
run ./build/tools/cycada_replay "${tracedir}/passmark.cyt" \
  --threads 4 --iterations 2 --verify
echo "==> mining the captures (zero findings gate)"
run ./build/tools/cycada_check --trace "${tracedir}/passmark.cyt" \
  --trace "${tracedir}/sunspider.cyt" \
  --trace "$(pwd)/tests/data/golden_passmark.cyt" \
  --trace "$(pwd)/tests/data/golden_sunspider.cyt"

# --- Classification prover (docs/ANALYZER.md) --------------------------------
# The static dispatch-site scanner and the committed golden corpus must
# agree with classification.cpp (zero findings, blocking), and the
# static+corpus agreements must graduate into at least one amendment that
# the real cycada_replay --verify binary proves end-to-end under
# CYCADA_CLASSIFY_AMEND.
echo "==> cycada_check --classify (classification prover + amendment proof)"
run ./build/tools/cycada_check --classify --root "$(pwd)/src" \
  --corpus "$(pwd)/tests/data/golden_passmark.cyt" \
  --corpus "$(pwd)/tests/data/golden_sunspider.cyt" \
  --amend-out "${tracedir}/classification_amendments"
if ! grep -q '^batchable ' "${tracedir}/classification_amendments"; then
  echo "ci.sh: FAIL — the classification prover produced no amendment" >&2
  exit 1
fi
echo "==> replaying the golden corpus under the generated amendments"
run env CYCADA_CLASSIFY_AMEND="${tracedir}/classification_amendments" \
  ./build/tools/cycada_replay "$(pwd)/tests/data/golden_passmark.cyt" \
  --threads 2 --iterations 2 --verify
run env CYCADA_CLASSIFY_AMEND="${tracedir}/classification_amendments" \
  ./build/tools/cycada_replay "$(pwd)/tests/data/golden_sunspider.cyt" \
  --threads 2 --iterations 2 --verify

# --- Fleet leg (docs/SESSIONS.md) --------------------------------------------
# Eight concurrent sessions in one process, each replaying the golden
# PassMark capture as in-session load before rendering every PassMark test.
# --verify gates byte-identical per-session, per-test screen hashes against
# a default-session reference, zero session errors, zero cross-session leak
# evidence, and all sessions destroyed on exit. The leg runs at 1 and 4
# tile workers and the two runs' hash lines must match, as the fig6 leg's
# do: sessions' frames share the pool concurrently, so this is where a
# cross-session pool bug would show.
for workers in 1 4; do
  echo "==> cycada_fleet (8 sessions, golden PassMark replay, verified," \
       "CYCADA_GPU_WORKERS=${workers})"
  fleet_out="${tracedir}/fleet_w${workers}.txt"
  if ! CYCADA_GPU_WORKERS="${workers}" ./build/tools/cycada_fleet \
      --sessions 8 --frames 3 \
      --replay "$(pwd)/tests/data/golden_passmark.cyt" --verify \
      > "${fleet_out}"; then
    cat "${fleet_out}" >&2
    echo "ci.sh: FAIL — cycada_fleet --verify at ${workers} worker(s)" >&2
    exit 1
  fi
  grep -v '^hash ' "${fleet_out}"
done
if ! diff <(grep '^hash ' "${tracedir}/fleet_w1.txt") \
    <(grep '^hash ' "${tracedir}/fleet_w4.txt") >&2; then
  echo "ci.sh: FAIL — fleet screen hashes diverge across worker counts" >&2
  exit 1
fi
echo "    identical ($(grep -c '^hash ' "${tracedir}/fleet_w1.txt") hashes)"

# --- Fault-injected analyzer run (docs/ROBUSTNESS.md) ------------------------
# Persistent replica-mint failures: the workload must complete in degraded
# mode with zero findings, not crash.
echo "==> cycada_check under CYCADA_FAULT (degraded-mode acceptance)"
run env CYCADA_FAULT='linker.dlforce=every:1,egl.create_context=every:1' \
  ./build/tools/cycada_check

# --- Chaos passmark (docs/ROBUSTNESS.md §fault grammar) -----------------------
# Every probe in the fault catalog fires with probability 0.1% (seeded, so
# the run is reproducible). The graphics pipeline must absorb the faults —
# degraded serial mode, replica remint, batch abort-and-replay — and the
# passmark workload must still finish with exit 0.
echo "==> fig6_passmark under CYCADA_FAULT=all=prob:1000:42 (chaos mode)"
run env CYCADA_FAULT='all=prob:1000:42' ./build/bench/fig6_passmark

# --- Chaos soak (docs/ROBUSTNESS.md §recovery ladder) -------------------------
# Fixed wall-clock budget with randomized stall + error faults on every
# catalog probe and a tight watchdog budget. The harness itself asserts
# liveness (no frame over its envelope), that the recovery ladder climbs
# back to full-parallel once the faults clear, and that the analyzer finds
# no persona/lock leaks afterwards. The seed is logged so any failure
# reproduces bit-for-bit.
SOAK_SEED="${CYCADA_CHAOS_SEED:-42}"
echo "==> fig6_passmark chaos soak (8s budget, seed ${SOAK_SEED})"
run env CYCADA_PASSMARK_SOAK_MS=8000 CYCADA_WATCHDOG_BUDGET_MS=50 \
  CYCADA_CHAOS_SEED="${SOAK_SEED}" ./build/bench/fig6_passmark

# --- TSan leg over the lock-free and fault-injection suites ------------------
if [[ "${CYCADA_SKIP_TSAN:-0}" == "1" ]]; then
  echo "ci.sh: OK (TSan skipped)"
  exit 0
fi
run cmake -B build-tsan -S . -DCYCADA_TSAN=ON
run cmake --build build-tsan -j
(cd build-tsan && run ctest --output-on-failure -j "$(nproc)" \
  -R 'DispatchTest|Robustness|LinkerTest|BatchTest|PipelineTest|SessionTest|Diplomat|TraceReplayTest')

echo "ci.sh: OK"
