// perfbench_driver: runs one benchmark workload against the cycada_*
// libraries and prints its metrics. perfbench/run.py builds and invokes it;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --data-dir DIR --replay-trace FILE [--spans-out FILE]
//                    [--inject screen|checksum|replay]
//   perfbench_driver --selftest
//   perfbench_driver --record-golden DIR
//
// The last line of standard output is the result object; everything else
// (the metric table with units and sample counts, failures, the log) is
// for people.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/diplomat.h"
#include "gpu/pipeline.h"
#include "report.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 9;
constexpr int kSessionCreateProbes = 16;

// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",           "frames_per_s",         "frame_ms_p50",
      "frame_ms_p99",      "session_frame_ms_p99_max", "pages_per_s",
      "page_ms_p50",       "page_ms_p99",          "diplomat_calls_per_s",
      "replay_pass_us_p99", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& test_slugs() {
  static const std::vector<std::string> slugs = {
      "solid_vectors",   "transparent_vectors", "complex_vectors",
      "image_rendering", "image_filters",       "simple_3d",
      "complex_3d"};
  return slugs;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const std::string& test : test_slugs()) {
      out.push_back("passmark." + test + ".frame_ms_p50");
    }
    for (const char* name : {
             "passmark.cross_config_mismatches",
             "passmark.history_dependent_tests",
             "glport.calls_per_frame", "glport.state_us_per_frame",
             "glport.draw_us_per_frame", "glport.texture_us_per_frame",
             "glport.present_ms_p50", "glport.present_ms_p99",
             "glport.buffer_lock_us_p50",
             "ios_gl.diplomat_calls_per_frame", "ios_gl.gles_ms_per_frame",
             "ios_gl.eagl_present_ms_per_frame",
             "core.crossings_per_call", "core.batched_frac",
             "core.batch_flushes_per_frame",
             "kernel.persona_switches_per_frame",
             "kernel.crossing_pair_ns_p50",
             "impersonation.acquires_per_page",
             "impersonation.migrated_keys_per_page",
             "gpu.workers", "gpu.bin_us_per_frame", "gpu.raster_ms_per_frame",
             "gpu.tile_us_p50", "gpu.tiles_per_frame", "gpu.tiles_stolen_frac",
             "gpu.raster_util_pct_p50", "gpu.async_frame_frac",
             "gpu.present_wait_ms_per_frame",
             "android_gl.egl_swap_us_p50",
             "iosurface.locks_per_page", "iosurface.lock_us_p50",
             "jsvm.script_ms_per_page", "webkit.self_ms_per_page",
             "webkit.composite_diff_px_per_page",
             "linker.replica_loads", "linker.dlforce_ms",
             "session.create_ms_p50",
             "util.watchdog_overdue", "gpu.serial_degraded_frames",
             "session.cross_leaks", "trace.overhead_pct", "failed_ratio"}) {
      out.push_back(name);
    }
    return out;
  }();
  return names;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// The part of a phase the end-to-end metrics come from. On a shared host
// the hypervisor runs other tenants on this machine's CPUs ("steal"); it
// comes and goes over seconds and slows every thread at once. The phase is
// cut into the monitor's windows; only windows whose steal is at most
// max(kCalmSteal, the run's 25th-percentile window steal) are kept, with
// the ops that began and ended inside kept windows, and each kept op's
// time is scaled by the unstolen share of the windows it spans. Windows
// are ranked by steal alone, never by the measured values.
constexpr double kCalmSteal = 0.02;

struct QuietPart {
  std::vector<OpSample> samples;  // times scaled by (1 - window steal)
  double seconds = 0;
  double steal_frac = 0;  // mean over the kept windows
};

QuietPart quiet_part(const PhaseResult& p) {
  QuietPart quiet;
  const std::vector<StealWindow>& windows = p.windows;
  if (windows.empty()) {
    quiet.samples = p.samples;
    quiet.seconds = static_cast<double>(p.wall_ns) / 1e9;
    return quiet;
  }
  std::vector<double> steals;
  for (const StealWindow& w : windows) steals.push_back(w.steal_frac);
  const double cutoff = std::max(percentile(steals, 25), kCalmSteal);
  for (const StealWindow& w : windows) {
    if (w.steal_frac > cutoff) continue;
    const double seconds = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
    quiet.seconds += seconds;
    quiet.steal_frac += w.steal_frac * seconds;
  }
  if (quiet.seconds > 0) quiet.steal_frac /= quiet.seconds;
  // Windows are contiguous and in time order.
  const auto window_of = [&](std::int64_t t) {
    auto it = std::upper_bound(
        windows.begin(), windows.end(), t,
        [](std::int64_t time, const StealWindow& w) { return time < w.end_ns; });
    return static_cast<std::size_t>(it - windows.begin());
  };
  std::vector<OpSample> all;
  for (const OpSample& sample : p.samples) {
    const std::size_t last =
        std::min(window_of(sample.end_ns), windows.size() - 1);
    const std::size_t first = std::min(
        window_of(sample.end_ns - static_cast<std::int64_t>(sample.ms * 1e6)),
        last);
    double steal = 0;
    bool calm = true;
    for (std::size_t w = first; w <= last; ++w) {
      calm = calm && windows[w].steal_frac <= cutoff;
      steal += windows[w].steal_frac;
    }
    OpSample scaled = sample;
    scaled.ms *= 1.0 - steal / static_cast<double>(last - first + 1);
    if (calm) quiet.samples.push_back(scaled);
    all.push_back(scaled);
  }
  // A run so short or so stolen from that no op fits in calm windows
  // keeps every op, still scaled.
  if (quiet.samples.empty()) quiet.samples = std::move(all);
  return quiet;
}

// The first m samples of each op kind, m being the rarest kind's count.
// Op times differ by kind (a 3D frame vs an image-filter frame, a date
// page vs an access page), so a percentile of an unequal mix moves with
// the mix; equal shares keep it on the same kind from run to run.
std::vector<OpSample> balanced(const std::vector<OpSample>& samples) {
  std::map<int, std::size_t> counts;
  for (const OpSample& s : samples) ++counts[s.kind];
  std::size_t m = samples.size();
  for (const auto& [kind, count] : counts) m = std::min(m, count);
  std::map<int, std::size_t> taken;
  std::vector<OpSample> out;
  for (const OpSample& s : samples) {
    if (taken[s.kind]++ < m) out.push_back(s);
  }
  return out;
}

std::vector<double> op_ms(const std::vector<OpSample>& samples) {
  std::vector<double> out;
  for (const OpSample& s : samples) out.push_back(s.ms);
  return out;
}

std::vector<double> frame_ms(const std::vector<OpSample>& samples) {
  std::vector<double> out;
  for (const OpSample& s : samples) {
    if (s.frames > 0) out.push_back(s.ms / s.frames);
  }
  return out;
}

std::vector<OpSample> of_session(const std::vector<OpSample>& samples,
                                 int session) {
  std::vector<OpSample> out;
  for (const OpSample& s : samples) {
    if (s.session == session) out.push_back(s);
  }
  return out;
}

// Closed-loop rates: each session's ops (or frames) per second of time
// spent inside its ops, summed over sessions. The harness's own work
// between ops (screen checks) is not part of the workload.
struct Rates {
  double ops = 0;
  double frames = 0;
};

Rates closed_loop_rates(const std::vector<OpSample>& samples, int sessions) {
  Rates rates;
  for (int session = 0; session < sessions; ++session) {
    double busy_s = 0;
    double ops = 0;
    double frames = 0;
    for (const OpSample& s : balanced(of_session(samples, session))) {
      busy_s += s.ms / 1e3;
      ops += 1;
      frames += s.frames;
    }
    rates.ops += ratio(ops, busy_s);
    rates.frames += ratio(frames, busy_s);
  }
  return rates;
}

// Ops per second over the quiet part of the phase.
double quiet_op_rate(const PhaseResult& p) {
  return closed_loop_rates(quiet_part(p).samples, p.sessions).ops;
}

void end_to_end(Report& r, const PhaseResult& p, double setup_s) {
  const QuietPart quiet = quiet_part(p);
  const Rates rates = closed_loop_rates(quiet.samples, p.sessions);
  const double ops = static_cast<double>(p.ops);
  r.set("setup_s", setup_s, "s");
  r.set("frames_per_s", rates.frames, "frames/s");
  const std::vector<OpSample> mix = balanced(quiet.samples);
  const std::vector<double> frames = frame_ms(mix);
  r.set_percentile("frame_ms_p50", frames, 50, "ms");
  r.set_percentile("frame_ms_p99", frames, 99, "ms");
  std::vector<double> worst;
  double worst_p99 = -1;
  for (int session = 0; session < p.sessions; ++session) {
    std::vector<double> samples =
        frame_ms(balanced(of_session(quiet.samples, session)));
    const double p99 = percentile(samples, 99);
    if (p99 > worst_p99) {
      worst_p99 = p99;
      worst = std::move(samples);
    }
  }
  r.set_percentile("session_frame_ms_p99_max", worst, 99, "ms");
  const std::vector<double> op_samples = op_ms(mix);
  r.set("pages_per_s", rates.ops, "pages/s");
  r.set_percentile("page_ms_p50", op_samples, 50, "ms");
  r.set_percentile("page_ms_p99", op_samples, 99, "ms");
  r.set("diplomat_calls_per_s",
        rates.ops *
            ratio(static_cast<double>(p.delta.total_diplomat_calls()), ops),
        "calls/s");
  r.set_percentile("replay_pass_us_p99", op_samples, 99, "us",
                   1000.0 / p.passes_per_op);
  r.set("peak_rss_mb", peak_rss_mib(), "MiB");
  r.set("failed_ratio",
        ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted)),
        "ratio");
  r.set("webkit.composite_diff_px_per_page",
        ratio(static_cast<double>(p.composite_diff_px), ops), "px");
  r.set("run.quiet_s", quiet.seconds, "s");
  r.set("run.unscaled_pages_per_s",
        ratio(ops, static_cast<double>(p.wall_ns) / 1e9), "pages/s");
  r.set("run.quiet_steal_pct", quiet.steal_frac * 100.0, "%");
  std::vector<double> steals;
  for (const StealWindow& w : p.windows) steals.push_back(w.steal_frac * 100.0);
  r.set("run.steal_pct_max", steals.empty() ? 0.0 : *std::max_element(
                                                       steals.begin(), steals.end()),
        "%");
}

// Latency percentiles the program records itself, for the traced phase.
const char* const kResetHistograms[] = {"pipeline.stage.tile_ns",
                                        "pipeline.stage.raster_util_pct"};

double histogram_p50(const std::string& name) {
  for (const auto& h : cycada::trace::MetricsRegistry::instance()
                           .snapshot()
                           .histograms) {
    if (h.name == name) return static_cast<double>(h.p50);
  }
  return 0;
}

double diplomat_p50_ns(const std::string& name) {
  for (const auto& entry : cycada::core::DiplomatRegistry::instance().snapshot()) {
    if (entry.name == name) return static_cast<double>(entry.p50_ns);
  }
  return 0;
}

std::uint64_t watchdog_overdue(const CounterDelta& delta) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("watchdog.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".overdue") == 0) {
      total += value;
    }
  }
  return total;
}

struct SetupFacts {
  double replica_loads = 0;
  double dlforce_ms = 0;
};

SetupFacts read_setup_facts() {
  // apply_system_config zeroes the metrics, so after a set-up they hold
  // that set-up's counts alone.
  SetupFacts facts;
  const auto snapshot = cycada::trace::MetricsRegistry::instance().snapshot();
  for (const auto& c : snapshot.counters) {
    if (c.name == "linker.replica_loads") {
      facts.replica_loads = static_cast<double>(c.value);
    }
  }
  for (const auto& h : snapshot.histograms) {
    if (h.name == "linker.dlforce_ns") {
      facts.dlforce_ms = static_cast<double>(h.sum) / 1e6;
    }
  }
  return facts;
}

void per_layer(Report& r, const PhaseResult& p, const PhaseResult& untraced,
               Workload& workload, const SetupFacts& setup) {
  const double frames = static_cast<double>(p.frames);
  const double ops = static_cast<double>(p.ops);
  const CounterDelta& d = p.delta;
  const double diplomat_calls = static_cast<double>(d.total_diplomat_calls());
  const auto count = [&](const char* name) {
    return static_cast<double>(d.counter(name));
  };
  const auto sum_ms = [&](const char* name) {
    return static_cast<double>(d.histogram_sum(name)) / 1e6;
  };
  const auto of = [](const auto& by_name, const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second);
  };

  for (std::size_t test = 0; test < test_slugs().size(); ++test) {
    std::vector<double> samples;
    for (const OpSample& s : p.samples) {
      if (s.test == static_cast<int>(test)) samples.push_back(s.ms);
    }
    r.set_percentile("passmark." + test_slugs()[test] + ".frame_ms_p50",
                     samples, 50, "ms");
  }

  const PortTimings& port = p.port;
  const auto kind_us = [&](CallKind kind) {
    return static_cast<double>(port.ns[static_cast<int>(kind)]) / 1e3;
  };
  r.set("glport.calls_per_frame",
        ratio(static_cast<double>(port.total_calls()), frames), "calls");
  r.set("glport.state_us_per_frame", ratio(kind_us(CallKind::kState), frames),
        "us");
  r.set("glport.draw_us_per_frame", ratio(kind_us(CallKind::kDraw), frames),
        "us");
  r.set("glport.texture_us_per_frame",
        ratio(kind_us(CallKind::kTexture), frames), "us");
  r.set_percentile("glport.present_ms_p50", port.present_ms, 50, "ms");
  r.set_percentile("glport.present_ms_p99", port.present_ms, 99, "ms");
  r.set_percentile("glport.buffer_lock_us_p50", port.lock_us, 50, "us");

  r.set("ios_gl.diplomat_calls_per_frame", ratio(diplomat_calls, frames),
        "calls");
  r.set("ios_gl.gles_ms_per_frame",
        ratio(static_cast<double>(d.total_diplomat_ns()) / 1e6, frames), "ms");
  r.set("ios_gl.eagl_present_ms_per_frame",
        ratio(of(d.diplomat_ns, "aegl_bridge_draw_fbo_tex") / 1e6, frames),
        "ms");

  r.set("core.crossings_per_call",
        ratio(count("persona.switches"), diplomat_calls), "ratio");
  r.set("core.batched_frac",
        ratio(static_cast<double>(d.diplomat_batched_calls), diplomat_calls),
        "ratio");
  r.set("core.batch_flushes_per_frame",
        ratio(count("dispatch.batch.flushes"), frames), "count");
  r.set("kernel.persona_switches_per_frame",
        ratio(count("persona.switches"), frames), "count");

  r.set("impersonation.acquires_per_page",
        ratio(count("impersonation.acquires"), ops), "count");
  r.set("impersonation.migrated_keys_per_page",
        ratio(count("impersonation.migrated_keys"), ops), "count");

  r.set("gpu.workers", cycada::gpu::TileWorkerPool::instance().worker_count(),
        "count");
  r.set("gpu.bin_us_per_frame",
        ratio(sum_ms("pipeline.stage.bin_ns") * 1e3, frames), "us");
  r.set("gpu.raster_ms_per_frame",
        ratio(sum_ms("pipeline.stage.raster_ns"), frames), "ms");
  r.set("gpu.tile_us_p50", histogram_p50("pipeline.stage.tile_ns") / 1e3, "us");
  r.set("gpu.tiles_per_frame", ratio(count("pipeline.tiles"), frames), "count");
  r.set("gpu.tiles_stolen_frac",
        ratio(count("pipeline.tiles.stolen"), count("pipeline.tiles")), "ratio");
  r.set("gpu.raster_util_pct_p50",
        histogram_p50("pipeline.stage.raster_util_pct"), "%");
  r.set("gpu.async_frame_frac",
        ratio(count("pipeline.frames.async"), count("pipeline.frames")),
        "ratio");
  r.set("gpu.present_wait_ms_per_frame",
        ratio(sum_ms("pipeline.stage.present_wait_ns"), frames), "ms");

  r.set("android_gl.egl_swap_us_p50", diplomat_p50_ns("eglSwapBuffers") / 1e3,
        "us");
  r.set("iosurface.locks_per_page",
        ratio(of(d.diplomat_calls, "IOSurfaceLock"), ops), "count");
  r.set("iosurface.lock_us_p50", diplomat_p50_ns("IOSurfaceLock") / 1e3, "us");

  // Page self time: mean page minus the script's standalone time minus the
  // page's share of glport time.
  const double script_ms = workload.script_ms_per_page(p);
  double page_ms = 0;
  for (const OpSample& s : p.samples) page_ms += s.ms;
  std::int64_t port_ns = 0;
  for (const std::int64_t ns : port.ns) port_ns += ns;
  r.set("jsvm.script_ms_per_page", script_ms, "ms");
  r.set("webkit.self_ms_per_page",
        script_ms > 0 ? ratio(page_ms - static_cast<double>(port_ns) / 1e6, ops) -
                            script_ms
                      : 0.0,
        "ms");

  r.set("webkit.composite_diff_px_per_page",
        ratio(static_cast<double>(p.composite_diff_px), ops), "px");
  r.set("linker.replica_loads", setup.replica_loads, "count");
  r.set("linker.dlforce_ms", setup.dlforce_ms, "ms");

  r.set("util.watchdog_overdue",
        static_cast<double>(watchdog_overdue(p.delta) +
                            watchdog_overdue(untraced.delta)),
        "count");
  r.set("gpu.serial_degraded_frames",
        static_cast<double>(p.delta.counter("pipeline.frames.serial_degraded") +
                            untraced.delta.counter(
                                "pipeline.frames.serial_degraded")),
        "count");
  r.set("session.cross_leaks", static_cast<double>(workload.cross_leaks()),
        "count");
  const double untraced_rate = quiet_op_rate(untraced);
  const double traced_rate = quiet_op_rate(p);
  r.set("trace.overhead_pct",
        traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0,
        "%");
  r.set("failed_ratio",
        ratio(static_cast<double>(p.failed + untraced.failed),
              static_cast<double>(p.attempted + untraced.attempted)),
        "ratio");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "perfbench/data";
  std::string replay_trace = "tests/data/golden_passmark.cyt";
  std::string spans_out;
  Inject inject = Inject::kNone;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--replay-trace FILE] "
               "[--spans-out FILE] [--inject screen|checksum|replay]\n"
               "       perfbench_driver --selftest\n"
               "       perfbench_driver --record-golden DIR\n");
  return 2;
}

// The program reads CYCADA_* variables for fault injection, capture, tile
// workers, watchdog budgets, session caps and more; any of them would
// change what is measured.
bool environment_clean() {
  bool clean = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "CYCADA_", 7) == 0) {
      const char* eq = std::strchr(*entry, '=');
      std::fprintf(stderr, "perfbench: refusing to measure with %.*s set\n",
                   static_cast<int>(eq != nullptr ? eq - *entry
                                                  : std::strlen(*entry)),
                   *entry);
      clean = false;
    }
  }
  return clean;
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Metric names: legal and unique across both lists.
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_names(), &per_layer_names()}) {
    for (const std::string& name : *list) {
      expect(valid_metric_name(name), name.c_str());
      expect(seen.insert(name).second, ("duplicate " + name).c_str());
    }
  }
  expect(!valid_metric_name("bad name"), "space rejected");
  expect(!valid_metric_name("_lead"), "leading underscore rejected");
  expect(!valid_metric_name(std::string(65, 'a')), "65 chars rejected");
  // The percentile rule: p99 needs ten samples beyond it, so 1000 samples.
  expect(!percentile_reportable(999, 99), "p99 of 999 not reportable");
  expect(percentile_reportable(1000, 99), "p99 of 1000 reportable");
  expect(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(percentile_reportable(20, 50), "p50 of 20 reportable");
  expect(!percentile_reportable(19, 50), "p50 of 19 not reportable");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(percentile(ramp, 50) == 500 && percentile(ramp, 99) == 990,
         "nearest-rank percentiles");
  Report report;
  report.set_percentile("x_ms_p99", std::vector<double>(999, 1.0), 99, "ms");
  expect(report.table().find("n=999 beyond=9  [below the ten-beyond rule]") !=
             std::string::npos,
         "table prints sample counts and flags the rule");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int run(const Args& args) {
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  WorkloadConfig config;
  config.seed = args.seed;
  config.traced = args.trace;
  config.data_dir = args.data_dir;
  config.replay_trace = args.replay_trace;
  config.inject = args.inject;
  std::unique_ptr<Workload> workload = make_workload(args.workload, config);

  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "nproc=%u gpu.workers=%d\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0,
               std::thread::hardware_concurrency(),
               cycada::gpu::TileWorkerPool::instance().worker_count());

  if (const cycada::Status status = workload->prepare(); !status.is_ok()) {
    std::fprintf(stderr, "perfbench: oracle preparation failed: %s\n",
                 status.to_string().c_str());
    return 1;
  }
  // Set-up, several times; the last one stays for the measurement.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanLog::Scope span("perfbench.setup");
    const std::int64_t start = cycada::now_ns();
    const cycada::Status status = workload->setup();
    setup_s.push_back(static_cast<double>(cycada::now_ns() - start) / 1e9);
    if (!status.is_ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }
  }
  const SetupFacts setup_facts = read_setup_facts();

  Report report;
  PhaseResult untraced = workload->measure(args.seconds);
  end_to_end(report, untraced, percentile(setup_s, 50));
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  std::vector<std::string> failures = untraced.failures;

  if (args.trace) {
    for (const char* name : kResetHistograms) {
      cycada::trace::MetricsRegistry::instance().histogram(name).reset();
    }
    cycada::core::DiplomatRegistry::instance().set_profiling(true);
    SpanLog::instance().set_enabled(true);
    workload->set_port_timing(true);
    PhaseResult traced = workload->measure(args.seconds);
    workload->set_port_timing(false);
    SpanLog::instance().set_enabled(false);
    cycada::core::DiplomatRegistry::instance().set_profiling(false);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());

    per_layer(report, traced, untraced, *workload, setup_facts);
    report.set("kernel.crossing_pair_ns_p50", crossing_pair_ns_p50(), "ns");
    std::vector<double> create_ms = workload->session_create_ms();
    if (create_ms.empty()) create_ms = probe_session_create_ms(kSessionCreateProbes);
    report.set_percentile("session.create_ms_p50", create_ms, 50, "ms");
    workload->teardown();
    report.set("passmark.cross_config_mismatches", cross_config_mismatches(),
               "count");
    const std::vector<bool> dependent = history_dependent_tests();
    report.set("passmark.history_dependent_tests",
               static_cast<double>(std::count(dependent.begin(),
                                              dependent.end(), true)),
               "count");
    if (!args.spans_out.empty() &&
        !SpanLog::instance().write_chrome_json(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_out.c_str());
    }
  } else {
    workload->teardown();
  }

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  if (report.value("webkit.composite_diff_px_per_page") > 0) {
    std::fprintf(stderr,
                 "perfbench: known defect: the GLES2 page composite leaves "
                 "%g px per page uncovered on tile diagonals (exempt from the "
                 "software_render check, counted instead)\n",
                 report.value("webkit.composite_diff_px_per_page"));
  }
  const std::vector<std::string>& wanted =
      args.trace ? per_layer_names() : end_to_end_names();
  for (const std::string& name : wanted) {
    if (!report.has(name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
  }
  std::printf("perfbench %s seed=%llu%s: %llu attempted, %llu failed\n%s",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? " (traced)" : "",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.table().c_str());
  std::printf("%s\n", report.result_line(failed == 0 && attempted > 0,
                                         attempted, failed, wanted)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") return selftest();
    if (flag == "--record-golden" && has_value) {  // a directory
      const cycada::Status status = record_goldens(argv[++i]);
      if (!status.is_ok()) {
        std::fprintf(stderr, "%s\n", status.to_string().c_str());
        return 1;
      }
      return 0;
    }
    if (!has_value) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--replay-trace") {
      args.replay_trace = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--inject") {
      if (value == "screen") {
        args.inject = Inject::kScreen;
      } else if (value == "checksum") {
        args.inject = Inject::kChecksum;
      } else if (value == "replay") {
        args.inject = Inject::kReplay;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) return usage();
  if (!environment_clean()) return 2;
  return run(args);
}
