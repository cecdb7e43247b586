#!/usr/bin/env bash
# Full verification matrix: tier-1 build + tests, the cycada_check contract
# analyzer, and the TSan/ASan/UBSan configurations (DESIGN.md §6), plus
# the combined ASan+UBSan leg CI runs.
# Exits non-zero on any finding. From the repo root:
#
#   ./scripts/check.sh            # everything
#   CYCADA_SKIP_SANITIZERS=1 ./scripts/check.sh   # tier-1 + cycada_check only
#   CYCADA_RUN_BENCH=1 ./scripts/check.sh         # also refresh BENCH_pr3.json
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# --- Tier 1: default build, all tests, contract analyzer --------------------
run cmake -B build -S .
run cmake --build build -j
(cd build && run ctest --output-on-failure -j)
run ./build/tools/cycada_check --root "$(pwd)/src"

if [[ "${CYCADA_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "check.sh: OK (sanitizers skipped)"
  exit 0
fi

# --- Sanitizer matrix --------------------------------------------------------
sanitizer_pass() {
  local name="$1" flag="$2"
  run cmake -B "build-${name}" -S . "-D${flag}=ON"
  run cmake --build "build-${name}" -j
  (cd "build-${name}" && run ctest --output-on-failure -j)
  run "./build-${name}/tools/cycada_check" --root "$(pwd)/src"
}

sanitizer_pass asan CYCADA_ASAN
sanitizer_pass ubsan CYCADA_UBSAN
sanitizer_pass tsan CYCADA_TSAN

# --- ASan+UBSan in one tree, over the suites CI's asan-ubsan job runs --------
run cmake -B build-asan-ubsan -S . -DCYCADA_ASAN=ON -DCYCADA_UBSAN=ON
run cmake --build build-asan-ubsan -j
(cd build-asan-ubsan && run ctest --output-on-failure -j "$(nproc)" \
  -R 'AnalyzeTest|ClassificationTest|TraceReplayTest|BatchTest|cycada_check|RasterTest|RasterGoldenTest')

# --- Optional: refresh the committed benchmark baseline ----------------------
if [[ "${CYCADA_RUN_BENCH:-0}" == "1" ]]; then
  run ./scripts/bench_baseline.sh
fi

echo "check.sh: OK"
