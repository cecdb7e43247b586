#!/usr/bin/env bash
# Compares two cycada-bench/v1 documents (docs/BENCHMARKING.md) and fails on
# performance regressions:
#
#   ./scripts/bench_compare.sh BENCH_prA.json BENCH_prB.json
#
# The first file is the baseline, the second the candidate. Gated metrics:
#   - timing counters (names containing "_ns"): lower is better; a candidate
#     more than the threshold above the baseline is a regression
#   - speedup counters (names containing "speedup"): higher is better
#   - histogram tails (p50_ns / p95_ns / p99_ns per histogram): lower is
#     better. min/max/sum are single-sample extremes or count-dependent and
#     stay informational.
# The per-stage pipeline profiles (pipeline.stage.*) are utilization
# diagnostics, not gates — single-run bucket noise swamps them; the gated
# pipeline signal is fig6.sweep.*.raster_speedup_x100. The chaos-soak
# escalation counters and stall histograms (soak.*, watchdog.*) measure
# injected faults and the recovery ladder's response, not code speed, so
# they are informational too — the blocking soak gate is the harness's own
# liveness/recovery asserts in ci.sh. Everything else is printed for
# information only. Keys the candidate no longer has are listed by name,
# so a gate that disappears shows in the log. The relative threshold is
# CYCADA_BENCH_THRESHOLD (default 0.10 = 10%).
#
# Exits 0 when no gated metric regressed, 1 on regression, 2 on usage error.
set -euo pipefail

if [[ $# -ne 2 || ! -f "$1" || ! -f "$2" ]]; then
  echo "usage: bench_compare.sh <baseline.json> <candidate.json>" >&2
  exit 2
fi
THRESHOLD="${CYCADA_BENCH_THRESHOLD:-0.10}"

# Both documents must carry the cycada-bench/v1 schema tag. Comparing
# across schema generations silently produces nonsense, so fail loudly.
SCHEMA='"schema":"cycada-bench/v1"'
for doc in "$1" "$2"; do
  if ! tr -d ' \n' < "${doc}" | grep -qF "${SCHEMA}"; then
    echo "bench_compare: ${doc} is not a cycada-bench/v1 document" \
         "(missing ${SCHEMA}); refusing to compare" >&2
    exit 2
  fi
done

# Flattens one bench document to "key value" lines: counters as-is,
# histogram entries as <histogram>.<field>. Shell + awk only (no jq).
flatten() {
  tr -d ' \n' < "$1" | awk '
  {
    if (match($0, /"counters":\{[^}]*\}/)) {
      inner = substr($0, RSTART + 12, RLENGTH - 13)
      n = split(inner, kv, ",")
      for (i = 1; i <= n; i++) {
        if (split(kv[i], pair, ":") < 2) continue
        gsub(/"/, "", pair[1])
        print pair[1], pair[2]
      }
    }
    rest = $0
    if (match(rest, /"histograms":\{/)) {
      rest = substr(rest, RSTART + RLENGTH)
      while (match(rest, /"[^"]+":\{[^}]*\}/)) {
        entry = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        match(entry, /^"[^"]+"/)
        name = substr(entry, 2, RLENGTH - 2)
        body = entry
        sub(/^"[^"]+":\{/, "", body)
        sub(/\}$/, "", body)
        m = split(body, kv, ",")
        for (j = 1; j <= m; j++) {
          if (split(kv[j], pair, ":") < 2) continue
          gsub(/"/, "", pair[1])
          print name "." pair[1], pair[2]
        }
      }
    }
  }'
}

baseline_flat="$(flatten "$1")"
candidate_flat="$(flatten "$2")"

awk -v threshold="${THRESHOLD}" \
    -v baseline_name="$1" -v candidate_name="$2" '
  NR == FNR { baseline[$1] = $2; next }
  { candidate[$1] = $2 }
  END {
    regressions = 0
    printf "bench_compare: %s -> %s (threshold %.0f%%)\n", \
      baseline_name, candidate_name, threshold * 100
    for (key in candidate) {
      if (!(key in baseline)) { only_candidate++; continue }
      old = baseline[key] + 0
      new = candidate[key] + 0
      delta = old != 0 ? (new - old) / old : 0
      # Gate direction: timing and tail-latency keys regress upward,
      # speedups regress downward; everything else is informational.
      # Histogram min/max/sum fields and the pipeline.stage.* profiles are
      # never gated (see the header).
      gated = ""
      # soak.* and watchdog.* keys measure injected faults and recovery
      # behaviour, not code speed — drift there is expected run to run.
      informational = (key ~ /\.(min|max|sum)_ns$/ || \
                       key ~ /pipeline\.stage\./ || \
                       key ~ /^soak\./ || key ~ /^watchdog\./)
      if (informational) {
      } else if (key ~ /_ns/ && key !~ /speedup/) {
        if (old > 0 && delta > threshold) gated = "REGRESSION"
      } else if (key ~ /speedup/) {
        if (old > 0 && delta < -threshold) gated = "REGRESSION"
      }
      if (gated != "") {
        printf "  %-48s %12d -> %12d  %+7.1f%%  %s\n", \
          key, old, new, delta * 100, gated
        regressions++
      } else if (old != 0 && (delta > threshold || delta < -threshold)) {
        printf "  %-48s %12d -> %12d  %+7.1f%%\n", key, old, new, delta * 100
      }
    }
    for (key in baseline) if (!(key in candidate)) only_baseline++
    if (only_baseline > 0) {
      # Named, so a gate that disappears from the candidate shows in the log.
      printf "  (%d metric(s) only in the baseline)\n", only_baseline
      fflush()
      for (key in baseline)
        if (!(key in candidate)) print "    " key | "sort"
      close("sort")
    }
    if (only_candidate > 0)
      printf "  (%d metric(s) only in the candidate)\n", only_candidate
    if (regressions > 0) {
      printf "bench_compare: %d regression(s) beyond %.0f%%\n", \
        regressions, threshold * 100
      exit 1
    }
    print "bench_compare: no regressions"
  }
' <(printf '%s\n' "${baseline_flat}") <(printf '%s\n' "${candidate_flat}")
