// Diplomat dispatch cost and the steady-state lock-freedom check, shared by
// table3_microbench and table2_diplomat_breakdown.
//
// Call sites resolve a diplomat once (the paper's step-1 cache) and then
// dispatch through DiplomatRegistry::entry_by_id (docs/DISPATCH.md). The
// helper times that by-id path and verifies steady-state dispatch takes
// zero diplomat-registry mutex acquisitions, via the lock-order acquisition
// tally. Results land in the metrics registry (and therefore in the
// BENCH_*.json files scripts/bench_baseline.sh produces; schema in
// docs/BENCHMARKING.md).
#pragma once

#include <cstdio>
#include <string>

#include "core/diplomat.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/lock_order.h"

namespace cycada::benchcmp {

inline void keep(void* pointer) { asm volatile("" : "+r"(pointer) : : "memory"); }

struct DispatchComparison {
  // Resolve-once, index-per-call DiplomatId dispatch.
  double by_id_ns = 0;
  // Lock-order tally over the steady-state phase; must be zero.
  std::uint64_t steady_registry_acquisitions = 0;
  std::uint64_t steady_calls = 0;
};

inline const char* const kCompareNames[] = {
    "bench.cmp0", "bench.cmp1", "bench.cmp2", "bench.cmp3",
    "bench.cmp4", "bench.cmp5", "bench.cmp6", "bench.cmp7"};
inline constexpr int kCompareNameCount = 8;

template <typename Fn>
double per_call_ns(int iterations, Fn&& fn) {
  // One untimed pass at full length (so the CPU is warm whatever ran
  // before), then time.
  for (int i = 0; i < iterations; ++i) fn(i);
  const std::int64_t start = now_ns();
  for (int i = 0; i < iterations; ++i) fn(i);
  return static_cast<double>(now_ns() - start) / iterations;
}

inline DispatchComparison run_dispatch_comparison(int iterations = 2000000) {
  DispatchComparison out;
  core::DiplomatRegistry& registry = core::DiplomatRegistry::instance();
  core::DiplomatId ids[kCompareNameCount];
  for (int i = 0; i < kCompareNameCount; ++i) {
    ids[i] = registry.resolve(kCompareNames[i], core::DiplomatPattern::kDirect);
  }
  const core::DiplomatId id = ids[0];

  out.by_id_ns = per_call_ns(iterations, [&](int) {
    keep(&registry.entry_by_id(id));
  });

  // Steady-state verification: with every name already resolved, record
  // lock acquisitions across a dispatch burst. By-id dispatch must never
  // touch the kDiplomatRegistry mutex.
  util::LockOrderGraph& graph = util::LockOrderGraph::instance();
  const bool was_recording = graph.recording();
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(true);
  constexpr int kSteadyCalls = 200000;
  for (int i = 0; i < kSteadyCalls; ++i) {
    keep(&registry.entry_by_id(ids[i % kCompareNameCount]));
  }
  out.steady_registry_acquisitions =
      graph.acquisitions(util::LockLevel::kDiplomatRegistry);
  out.steady_calls = kSteadyCalls;
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(was_recording);
  return out;
}

// Prints the human-readable rows and mirrors the numbers into the metrics
// registry under `<prefix>.dispatch.*` (BENCH_*.json schema,
// docs/BENCHMARKING.md). Sub-nanosecond means are exported as ns x1000.
inline void report_dispatch_comparison(const DispatchComparison& cmp,
                                       const char* prefix) {
  std::printf("\nDiplomat dispatch\n%-40s %10.2f ns\n",
              "resolved DiplomatId (entry_by_id)", cmp.by_id_ns);
  std::printf(
      "steady-state diplomat-registry mutex acquisitions: %llu in %llu "
      "dispatches (%s)\n",
      static_cast<unsigned long long>(cmp.steady_registry_acquisitions),
      static_cast<unsigned long long>(cmp.steady_calls),
      cmp.steady_registry_acquisitions == 0 ? "lock-free: PASS"
                                            : "lock-free: FAIL");

  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::string key = std::string(prefix) + ".dispatch.";
  metrics.counter(key + "by_id_ns_x1000")
      .set(static_cast<std::uint64_t>(cmp.by_id_ns * 1000.0));
  metrics.counter(key + "steady_registry_acquisitions")
      .set(cmp.steady_registry_acquisitions);
  metrics.counter(key + "steady_calls").set(cmp.steady_calls);
}

}  // namespace cycada::benchcmp
