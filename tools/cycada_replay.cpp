// cycada_replay: re-drives a captured .cyt diplomat stream as load
// (docs/TRACING.md).
//
//   cycada_replay <file.cyt> [--threads N] [--iterations M] [--paced]
//                 [--verify]
//
// Boots the simulated Cycada device, loads the trace and replays it through
// the real dispatch/batch/persona machinery on N threads × M iterations —
// max-rate by default, timestamp-faithful with --paced. The run emits the
// same counters/histograms as the live benches (CYCADA_BENCH_JSON honored),
// so a replayed PassMark capture is a first-class bench workload.
//
// --verify compares the replay against the recording: per-diplomat registry
// call counts must equal the trace's counts × N × M exactly, and
// crossings-per-call must be within 5% of what the recorded stream costs
// live. Divergence prints trace.replay-divergence findings and exits 1.
//
// A capture whose footer counts dropped records is missing calls, so it is
// refused as a load error.
//
// Exits 0 on success, 1 on verification failure, 2 on usage/load errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "analyze/analyze.h"
#include "core/diplomat.h"
#include "core/replay.h"
#include "glport/system_config.h"
#include "trace/cyt.h"
#include "trace/metrics.h"

namespace {

using namespace cycada;

std::map<std::string, std::uint64_t> registry_call_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const core::DiplomatSnapshot& s :
       core::DiplomatRegistry::instance().snapshot()) {
    if (s.calls != 0) counts[s.name] = s.calls;
  }
  return counts;
}

int usage() {
  std::fprintf(stderr,
               "usage: cycada_replay <file.cyt> [--threads N] "
               "[--iterations M] [--paced] [--verify]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  core::ReplayOptions options;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      options.iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--paced") == 0) {
      options.paced = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (argv[i][0] != '-' && path.empty()) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path.empty() || options.threads < 1 || options.iterations < 1) {
    return usage();
  }

  auto trace = trace::read_complete_cyt(path);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "cycada_replay: %s: %s\n", path.c_str(),
                 trace.status().to_string().c_str());
    return 2;
  }

  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  // The boot workload is empty, but be explicit: deltas, not totals.
  const std::map<std::string, std::uint64_t> before = registry_call_counts();

  auto stats = core::replay_trace(*trace, options);
  if (!stats.is_ok()) {
    std::fprintf(stderr, "cycada_replay: %s\n",
                 stats.status().to_string().c_str());
    return 2;
  }

  const double wall_ms = static_cast<double>(stats->wall_ns) / 1e6;
  const double calls_per_sec =
      stats->wall_ns > 0 ? static_cast<double>(stats->calls) * 1e9 /
                               static_cast<double>(stats->wall_ns)
                         : 0.0;
  const std::int64_t recorded_ns = trace->duration_ns();
  // How much faster than the recording the replay drove the same stream
  // (threads × iterations copies of it). Paced runs sit near 1.0.
  const double speedup =
      stats->wall_ns > 0 && recorded_ns > 0
          ? static_cast<double>(recorded_ns) *
                static_cast<double>(options.threads * options.iterations) /
                static_cast<double>(stats->wall_ns)
          : 0.0;

  std::printf("cycada_replay: %s\n", path.c_str());
  std::printf(
      "  %d thread(s) x %d iteration(s), %d lane(s), %s\n", options.threads,
      options.iterations, stats->lanes, options.paced ? "paced" : "max-rate");
  std::printf(
      "  %llu call(s) (%llu batched, %llu flush(es), %llu skip(s)), "
      "%llu crossing(s)\n",
      static_cast<unsigned long long>(stats->calls),
      static_cast<unsigned long long>(stats->batched),
      static_cast<unsigned long long>(stats->flushes),
      static_cast<unsigned long long>(stats->skips),
      static_cast<unsigned long long>(stats->persona_switches));
  std::printf(
      "  wall %.3f ms, %.0f calls/s, %.3f crossings/call, speedup x%.2f\n",
      wall_ms, calls_per_sec, stats->crossings_per_call(), speedup);

  // The bench-facing counters. The *_x1000 fixed-point names follow the
  // bench_compare.sh conventions: *_ns gates lower-is-better, *speedup*
  // gates higher-is-better.
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  metrics.counter("replay.calls").set(stats->calls);
  metrics.counter("replay.batched").set(stats->batched);
  metrics.counter("replay.flushes").set(stats->flushes);
  metrics.counter("replay.crossings").set(stats->persona_switches);
  metrics.counter("replay.threads").set(
      static_cast<std::uint64_t>(options.threads));
  metrics.counter("replay.wall_ns").set(
      static_cast<std::uint64_t>(stats->wall_ns));
  metrics.counter("replay.crossings_per_call_x1000")
      .set(static_cast<std::uint64_t>(stats->crossings_per_call() * 1000.0));
  metrics.counter("replay.speedup_x1000")
      .set(static_cast<std::uint64_t>(speedup * 1000.0));

  int exit_code = 0;
  if (verify) {
    const std::uint64_t scale =
        static_cast<std::uint64_t>(options.threads) *
        static_cast<std::uint64_t>(options.iterations);
    std::map<std::string, std::uint64_t> expected =
        core::trace_call_counts(*trace);
    for (auto& [name, count] : expected) count *= scale;
    std::map<std::string, std::uint64_t> observed = registry_call_counts();
    for (const auto& [name, count] : before) {
      auto it = observed.find(name);
      if (it != observed.end()) {
        it->second -= count;
        if (it->second == 0) observed.erase(it);
      }
    }
    analyze::Report report;
    analyze::check_replay_divergence(expected, observed, report);

    const double expected_cpc =
        stats->calls == 0
            ? 0.0
            : static_cast<double>(core::trace_expected_crossings(*trace) *
                                  scale) /
                  static_cast<double>(stats->calls);
    const double cpc = stats->crossings_per_call();
    const bool cpc_ok =
        expected_cpc == 0.0 ||
        (cpc >= expected_cpc * 0.95 && cpc <= expected_cpc * 1.05);
    if (!cpc_ok) {
      report.add("trace", "trace.replay-divergence", path,
                 "crossings/call " + std::to_string(cpc) +
                     " is more than 5% away from the recorded stream's " +
                     std::to_string(expected_cpc));
    }
    const int findings = report.print(std::cout);
    std::printf(
        "cycada_replay: verify %s (%d finding(s); crossings/call %.3f vs "
        "recorded %.3f)\n",
        findings == 0 ? "PASS" : "FAIL", findings, cpc, expected_cpc);
    exit_code = findings == 0 ? 0 : 1;
  }

  metrics.dump_summary(std::cout);
  trace::emit_bench_json(std::cout, metrics.snapshot().to_json());
  return exit_code;
}
