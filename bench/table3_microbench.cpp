// Regenerates Table 3 of the paper: kernel-level / ABI micro-benchmarks.
//
// Left column (lmbench-style null syscall) across the four kernel
// configurations; right column (diplomatic calls): a plain function call, a
// bare diplomat, a diplomat with empty prelude/postlude, and a diplomat
// with the Cycada GLES prelude/postlude. Absolute nanoseconds differ from
// the paper's ARM hardware; the orderings and ratios are the result.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "core/batch.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "dispatch_compare.h"
#include "kernel/kernel.h"
#include "trace/metrics.h"

namespace {

using cycada::kernel::Kernel;
using cycada::kernel::Persona;
using cycada::kernel::TrapModel;

void configure(TrapModel model, Persona persona) {
  Kernel& kernel = Kernel::instance();
  kernel.set_trap_model(model);
  kernel.register_current_thread(persona);
  cycada::kernel::sys_set_persona(persona);
}

// --- Null syscall (Table 3 left) -------------------------------------------

void BM_NullSyscall_StockAndroid(benchmark::State& state) {
  configure(TrapModel::kStockAndroid, Persona::kAndroid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
}
BENCHMARK(BM_NullSyscall_StockAndroid);

void BM_NullSyscall_CycadaAndroid(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kAndroid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
}
BENCHMARK(BM_NullSyscall_CycadaAndroid);

void BM_NullSyscall_CycadaIos(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_NullSyscall_CycadaIos);

void BM_NullSyscall_IpadIos(benchmark::State& state) {
  configure(TrapModel::kIpadIos, Persona::kIos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
  Kernel::instance().set_trap_model(TrapModel::kCycada);
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_NullSyscall_IpadIos);

// --- Diplomatic calls (Table 3 right) ---------------------------------------

// The domestic function a diplomat would invoke.
int domestic_work(int value) { return value + 1; }

void BM_StandardFunction(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  int value = 0;
  for (auto _ : state) {
    auto* fn = domestic_work;
    benchmark::DoNotOptimize(fn);
    value = fn(value);
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_StandardFunction);

void BM_Diplomat(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat", cycada::core::DiplomatPattern::kDirect);
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, {},
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_Diplomat);

void BM_DiplomatEmptyPrePost(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat_prepost", cycada::core::DiplomatPattern::kDirect);
  cycada::core::DiplomatHooks hooks;
  hooks.prelude = [] {};
  hooks.postlude = [] {};
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, hooks,
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_DiplomatEmptyPrePost);

void BM_DiplomatGlPrePost(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  cycada::core::GraphicsTlsTracker::instance().install();
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat_gl", cycada::core::DiplomatPattern::kDirect);
  cycada::core::DiplomatHooks hooks;
  hooks.prelude = [] {
    cycada::core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  };
  hooks.postlude = [] {
    cycada::core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
  };
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, hooks,
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_DiplomatGlPrePost);

// --- Diplomat lookup (docs/DISPATCH.md) --------------------------------------

// Name lookup under the registry mutex: what a call site pays once, on its
// first call, before caching the entry.
void BM_DispatchByName(benchmark::State& state) {
  auto& registry = cycada::core::DiplomatRegistry::instance();
  (void)registry.entry("bench.bm_dispatch",
                       cycada::core::DiplomatPattern::kDirect);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.entry(
        "bench.bm_dispatch", cycada::core::DiplomatPattern::kDirect));
  }
}
BENCHMARK(BM_DispatchByName);

// The per-call path: a resolved DiplomatId back to its entry, no lock.
void BM_DispatchById(benchmark::State& state) {
  auto& registry = cycada::core::DiplomatRegistry::instance();
  const cycada::core::DiplomatId id = registry.resolve(
      "bench.bm_dispatch", cycada::core::DiplomatPattern::kDirect);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.entry_by_id(id));
  }
}
BENCHMARK(BM_DispatchById);

// --- Batched crossings (src/core/batch.h) -----------------------------------

// The tentpole proof: a run of batchable GL state setters dispatched the
// way the GL layer dispatches them — record if a BatchScope is open, plain
// diplomat_call otherwise — measured in persona crossings per call.
// Unbatched every call pays 2 set_persona syscalls; batched, N calls share
// one token-bracketed crossing (2 switches per flush), so crossings per
// call drop from 2 to ~2/N.
void run_batching_proof() {
  namespace core = cycada::core;
  namespace trace = cycada::trace;
  configure(TrapModel::kCycada, Persona::kIos);
  // A real batchable Table 2 diplomat (direct pattern, classifier-approved).
  auto& entry = core::DiplomatRegistry::instance().entry(
      "glEnable", core::DiplomatPattern::kDirect);
  trace::Counter& switches =
      trace::MetricsRegistry::instance().counter("persona.switches");
  constexpr int kCalls = 8192;
  const auto dispatch_one = [&] {
    if (!core::batch_record(entry, {}, [] {})) {
      core::diplomat_call(entry, {}, [] {});
    }
  };

  const std::uint64_t unbatched_before = switches.value();
  for (int i = 0; i < kCalls; ++i) dispatch_one();
  const std::uint64_t unbatched = switches.value() - unbatched_before;

  const std::uint64_t batched_before = switches.value();
  {
    core::BatchScope scope;
    for (int i = 0; i < kCalls; ++i) dispatch_one();
  }
  const std::uint64_t batched = switches.value() - batched_before;

  const double unbatched_per_call =
      static_cast<double>(unbatched) / static_cast<double>(kCalls);
  const double batched_per_call =
      static_cast<double>(batched) / static_cast<double>(kCalls);
  std::printf(
      "\nBatched persona crossings (command buffer, cap %zu)\n"
      "%-40s %10.3f crossings/call\n%-40s %10.3f crossings/call  (%s)\n",
      core::BatchScope::kDefaultSizeCap, "unbatched diplomat calls",
      unbatched_per_call, "batched under one BatchScope", batched_per_call,
      batched_per_call < 0.2 ? "< 0.2: PASS" : ">= 0.2: FAIL");

  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  metrics.counter("table3.batch.crossings_per_call_unbatched_x1000")
      .set(static_cast<std::uint64_t>(unbatched_per_call * 1000.0));
  metrics.counter("table3.batch.crossings_per_call_batched_x1000")
      .set(static_cast<std::uint64_t>(batched_per_call * 1000.0));
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}

// --- Capture overhead (src/trace/cyt.h) --------------------------------------

// The observability tax: the same dispatch loop with the .cyt recorder off
// and on. The capture hot path is clock-free and share-nothing (a record
// built into a thread-private chunk; see src/trace/cyt.h), so the marginal
// cost is a handful of stores per call.
//
// The <10% acceptance gate is evaluated against the paper's Table 3
// diplomat dispatch latency (816 ns; DESIGN.md §Table 3). The simulation
// compresses that crossing to ~50 ns (EXPERIMENTS.md keeps the paper/sim
// ratios, not the absolute scale), while capture's cost here is real
// hardware nanoseconds — dividing real capture ns by a ~16x-compressed
// dispatch would overstate the tax by the same 16x. Both ratios are
// printed; the sim-relative one is informational.
void run_capture_overhead_proof() {
  namespace core = cycada::core;
  namespace trace = cycada::trace;
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = core::DiplomatRegistry::instance().entry(
      "glEnable", core::DiplomatPattern::kDirect);
  constexpr int kWarmup = 2048;
  constexpr int kCalls = 32768;
  constexpr int kRepeats = 3;  // best-of: the host is a single shared CPU
  constexpr double kPaperDiplomatNs = 816.0;
  const auto measure = [&] {
    double best = 0.0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (int i = 0; i < kWarmup; ++i) core::diplomat_call(entry, {}, [] {});
      const std::int64_t start = cycada::now_ns();
      for (int i = 0; i < kCalls; ++i) core::diplomat_call(entry, {}, [] {});
      const double ns = static_cast<double>(cycada::now_ns() - start) /
                        static_cast<double>(kCalls);
      if (repeat == 0 || ns < best) best = ns;
    }
    return best;
  };

  const double off_ns = measure();
  const char* path = "/tmp/cycada_table3_capture.cyt";
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  if (!recorder.start(path).is_ok()) {
    std::printf("capture overhead: recorder start failed, skipping\n");
    return;
  }
  const double on_ns = measure();
  (void)recorder.stop();
  std::remove(path);

  const double overhead_ns = on_ns > off_ns ? on_ns - off_ns : 0.0;
  const double pct_sim = off_ns > 0 ? overhead_ns / off_ns * 100.0 : 0.0;
  const double pct_table3 = overhead_ns / kPaperDiplomatNs * 100.0;
  std::printf(
      "\nTrace capture overhead (CYCADA_TRACE_CAPTURE, %d calls, best of "
      "%d)\n"
      "%-40s %10.1f ns/call\n"
      "%-40s %10.1f ns/call  (+%.1f ns, +%.1f%% of the sim dispatch)\n"
      "%-40s %10.1f%%  (%s; +%.1f ns on the paper's 816 ns diplomat)\n",
      kCalls, kRepeats, "dispatch, capture off", off_ns,
      "dispatch, capture on", on_ns, overhead_ns, pct_sim,
      "vs table3 diplomat dispatch latency", pct_table3,
      pct_table3 < 10.0 ? "< 10%: PASS" : ">= 10%: FAIL", overhead_ns);

  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  metrics.counter("table3.capture.dispatch_off_ns")
      .set(static_cast<std::uint64_t>(off_ns));
  metrics.counter("table3.capture.dispatch_on_ns")
      .set(static_cast<std::uint64_t>(on_ns));
  metrics.counter("table3.capture.overhead_pct_sim_x1000")
      .set(static_cast<std::uint64_t>(pct_sim * 1000.0));
  metrics.counter("table3.capture.overhead_pct_table3_x1000")
      .set(static_cast<std::uint64_t>(pct_table3 * 1000.0));
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Table 3: Kernel-level / ABI Micro-Benchmarks\n"
      "Paper (ARM, 1.3GHz): null syscall stock 225ns < Cycada Android 244ns"
      " (+8%%)\n  < Cycada iOS 305ns (+35%%) < iPad iOS 575ns;\n"
      "  fn call 9ns << diplomat 816ns ~ +pre/post 828ns < +GL pre/post "
      "933ns (~3 syscalls)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // By-id dispatch cost + steady-state lock-free verification; the numbers
  // land in the bench JSON (scripts/bench_baseline.sh).
  const auto comparison = cycada::benchcmp::run_dispatch_comparison();
  cycada::benchcmp::report_dispatch_comparison(comparison, "table3");
  run_batching_proof();
  run_capture_overhead_proof();
  cycada::trace::emit_bench_json(
      std::cout,
      cycada::trace::MetricsRegistry::instance().snapshot().to_json());
  return comparison.steady_registry_acquisitions == 0 ? 0 : 1;
}
