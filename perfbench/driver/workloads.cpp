#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/diplomat.h"
#include "core/impersonation.h"
#include "core/replay.h"
#include "core/session.h"
#include "glport/system_config.h"
#include "jsvm/engine.h"
#include "jsvm/sunspider.h"
#include "kernel/kernel.h"
#include "passmark/passmark.h"
#include "report.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/rng.h"
#include "webkit/browser.h"
#include "webkit/document.h"
#include "webkit/raster.h"

namespace perfbench {

namespace core = cycada::core;
namespace glport = cycada::glport;
namespace passmark = cycada::passmark;
using cycada::now_ns;
using cycada::Status;
using cycada::StatusOr;

namespace {

constexpr glport::SystemConfig kConfig = glport::SystemConfig::kCycadaIos;
constexpr int kAppSize = 512;    // passmark_app: 8x8 tiles of 64 px
constexpr int kFleetSize = 128;  // fleet_4
constexpr int kFleetSessions = 4;
constexpr int kReplayThreads = 4;
// Lane passes each replay thread makes per replay_trace call, so the walk
// outweighs spawning the threads (one pass of the golden trace is ~160
// calls).
constexpr int kReplayIterations = 32;
constexpr int kPageWidth = 192;
constexpr int kPageHeight = 160;
// Frame counts per PassMark test that the golden file records checkpoints
// up to, per surface size (log2).
constexpr int kGoldenLog2At512 = 11;
constexpr int kGoldenLog2At128 = 12;
constexpr std::size_t kMaxLoggedFailures = 8;
constexpr char kPassMarkGoldens[] = "passmark_golden.txt";

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::string slug(std::string_view test_name) {
  std::string out;
  for (const char c : test_name) {
    out += c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  }
  return out;
}

// Fisher-Yates permutation of [0, n) drawn from `rng`.
std::vector<int> seeded_order(int n, cycada::Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

// Visits 0..n-1 in a fresh seeded order every cycle, so no fixed
// neighbour order (and its pipelining luck) is baked into one seed.
class SeededCycle {
 public:
  SeededCycle(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  int next() {
    if (position_ == order_.size()) {
      order_ = seeded_order(n_, rng_);
      position_ = 0;
    }
    return order_[position_++];
  }

 private:
  int n_;
  cycada::Rng rng_;
  std::vector<int> order_;
  std::size_t position_ = 0;
};

bool is_checkpoint(int frames_drawn) {
  return frames_drawn >= 2 && (frames_drawn & (frames_drawn - 1)) == 0;
}

// ---- Counter deltas ----------------------------------------------------------

struct CounterReading {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> histogram_sum;
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> diplomats;
  std::uint64_t batched_calls = 0;
};

CounterReading read_counters() {
  CounterReading reading;
  const cycada::trace::MetricsSnapshot snapshot =
      cycada::trace::MetricsRegistry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    reading.counters[counter.name] = counter.value;
  }
  for (const auto& histogram : snapshot.histograms) {
    reading.histogram_sum[histogram.name] = histogram.sum;
  }
  for (const auto& entry : core::DiplomatRegistry::instance().snapshot()) {
    reading.diplomats[entry.name] = {entry.calls, entry.total_ns};
    // A multi diplomat counts the Android calls it coalesces here; only
    // the batch recorder's items are diplomat calls that shared a crossing.
    if (entry.pattern != core::DiplomatPattern::kMulti) {
      reading.batched_calls += entry.batched_calls;
    }
  }
  return reading;
}

CounterDelta diff(const CounterReading& before, const CounterReading& after) {
  CounterDelta delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) delta.counters[name] = value - base;
  }
  for (const auto& [name, sum] : after.histogram_sum) {
    auto it = before.histogram_sum.find(name);
    const std::int64_t base = it == before.histogram_sum.end() ? 0 : it->second;
    if (sum > base) delta.histogram_sum_ns[name] = sum - base;
  }
  for (const auto& [name, value] : after.diplomats) {
    auto it = before.diplomats.find(name);
    const auto base = it == before.diplomats.end()
                          ? std::pair<std::uint64_t, std::int64_t>{0, 0}
                          : it->second;
    if (value.first > base.first) {
      delta.diplomat_calls[name] = value.first - base.first;
    }
    if (value.second > base.second) {
      delta.diplomat_ns[name] = value.second - base.second;
    }
  }
  if (after.batched_calls > before.batched_calls) {
    delta.diplomat_batched_calls = after.batched_calls - before.batched_calls;
  }
  return delta;
}

void add_timings(PortTimings& into, const PortTimings& from) {
  for (std::size_t i = 0; i < into.calls.size(); ++i) {
    into.calls[i] += from.calls[i];
    into.ns[i] += from.ns[i];
  }
  into.present_ms.insert(into.present_ms.end(), from.present_ms.begin(),
                         from.present_ms.end());
  into.lock_us.insert(into.lock_us.end(), from.lock_us.begin(),
                      from.lock_us.end());
}

// ---- Golden screen hashes ------------------------------------------------------

// Golden files hold one screen hash per line: "<key fields...> <hex>",
// '#' comments. The key is the line up to the last field.
using Goldens = std::map<std::string, std::uint64_t>;

std::string golden_key(int size, std::string_view test, int frames) {
  return std::to_string(size) + ' ' + std::string(test) + ' ' +
         std::to_string(frames);
}

StatusOr<Goldens> load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot read golden hashes: " + path);
  Goldens goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t split = line.rfind(' ');
    if (split == std::string::npos || split + 1 == line.size()) {
      return Status::invalid_argument("malformed golden line: " + line);
    }
    goldens[line.substr(0, split)] =
        std::stoull(line.substr(split + 1), nullptr, 16);
  }
  if (goldens.empty()) return Status::invalid_argument("no hashes in " + path);
  return goldens;
}

std::string hex64(std::uint64_t value) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

// ---- One PassMark app: a port plus one PassMark instance per test ------------
//
// Each test keeps its own PassMark (and so its own random stream), so the
// screen after a test's k-th frame does not depend on the seeded test order.

struct PassMarkApp {
  std::unique_ptr<glport::GlPort> port;
  TimingPort* timing = nullptr;  // == port.get() when traced
  std::vector<std::unique_ptr<passmark::PassMark>> tests;
  std::vector<int> drawn;  // frames drawn per test, warm-up included
};

StatusOr<std::unique_ptr<PassMarkApp>> make_passmark_app(int size,
                                                         bool traced) {
  auto app = std::make_unique<PassMarkApp>();
  app->port = glport::make_gl_port(kConfig);
  if (traced) {
    auto timing = std::make_unique<TimingPort>(std::move(app->port));
    app->timing = timing.get();
    app->port = std::move(timing);
  }
  CYCADA_RETURN_IF_ERROR(app->port->init(size, size, 1));
  for (const auto& spec : passmark::test_specs()) {
    app->tests.push_back(std::make_unique<passmark::PassMark>(*app->port));
    // Warm-up frame: texture, mesh and shared-buffer creation.
    auto warm = app->tests.back()->run(spec.name, 1);
    CYCADA_RETURN_IF_ERROR(warm.status());
    app->drawn.push_back(1);
  }
  return app;
}

// Golden screens, checked for the tests whose screen is a function of
// their own frame count alone.
struct ScreenOracle {
  Goldens goldens;
  std::vector<bool> history_dependent;  // by test index
  bool corrupt = false;                 // Inject::kScreen

  Status load(const WorkloadConfig& config) {
    auto goldens_or = load_goldens(config.data_dir + "/" + kPassMarkGoldens);
    CYCADA_RETURN_IF_ERROR(goldens_or.status());
    goldens = std::move(*goldens_or);
    history_dependent = history_dependent_tests();
    corrupt = config.inject == Inject::kScreen;
    return Status::ok();
  }
};

// Runs one measured frame of test `index` and checks its screen when the
// test's frame count reaches a golden checkpoint.
void passmark_frame(PassMarkApp& app, int index, int size,
                    const ScreenOracle& oracle, int session,
                    PhaseResult& out) {
  const auto& spec = passmark::test_specs()[static_cast<std::size_t>(index)];
  ++out.attempted;
  std::int64_t start = 0;
  std::int64_t end = 0;
  StatusOr<std::uint64_t> primitives = std::uint64_t{0};
  {
    SpanLog::Scope span("passmark.frame");
    start = now_ns();
    primitives = app.tests[static_cast<std::size_t>(index)]->run(spec.name, 1);
    end = now_ns();
  }
  const int drawn = ++app.drawn[static_cast<std::size_t>(index)];
  if (!primitives.is_ok()) {
    out.fail(std::string(spec.name) + ": " + primitives.status().to_string());
    return;
  }
  const double ms = ms_between(start, end);
  ++out.ops;
  ++out.frames;
  out.samples.push_back(OpSample{end, ms, 1.0, session, index, index});
  if (!is_checkpoint(drawn) ||
      oracle.history_dependent[static_cast<std::size_t>(index)]) {
    return;
  }
  auto golden = oracle.goldens.find(golden_key(size, slug(spec.name), drawn));
  if (golden == oracle.goldens.end()) return;  // beyond the recorded range
  const std::uint64_t expected = golden->second ^ (oracle.corrupt ? 1u : 0u);
  if (screen_hash(app.port->screen()) != expected) {
    out.fail(std::string(spec.name) + " screen hash mismatch at frame " +
             std::to_string(drawn) + " (" + std::to_string(size) + "px)");
  }
}

// ---- passmark_app --------------------------------------------------------------

class PassMarkAppWorkload final : public Workload {
 public:
  explicit PassMarkAppWorkload(const WorkloadConfig& config)
      : config_(config),
        order_(static_cast<int>(passmark::test_specs().size()), config.seed) {}

  Status prepare() override { return oracle_.load(config_); }

  Status setup() override {
    teardown();
    glport::apply_system_config(kConfig);
    auto app = make_passmark_app(kAppSize, config_.traced);
    CYCADA_RETURN_IF_ERROR(app.status());
    app_ = std::move(*app);
    return Status::ok();
  }

  void teardown() override { app_.reset(); }

  void set_port_timing(bool on) override {
    if (app_ != nullptr && app_->timing != nullptr) app_->timing->set_timing(on);
  }

 protected:
  void run_loop(std::int64_t deadline_ns, PhaseResult& out) override {
    while (now_ns() < deadline_ns) {
      passmark_frame(*app_, order_.next(), kAppSize, oracle_, 0, out);
    }
  }

  PortTimings port_timings() const override {
    return app_ != nullptr && app_->timing != nullptr ? app_->timing->timings()
                                                      : PortTimings{};
  }

 private:
  WorkloadConfig config_;
  SeededCycle order_;
  ScreenOracle oracle_;
  std::unique_ptr<PassMarkApp> app_;
};

// ---- fleet_4 ----------------------------------------------------------------------

// Four sessions, each on its own thread, each a closed loop over the seeded
// test cycle from its own seeded start offset.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const WorkloadConfig& config) : config_(config) {
    cycada::Rng rng(config.seed);
    const int tests = static_cast<int>(passmark::test_specs().size());
    order_ = seeded_order(tests, rng);
    for (int i = 0; i < kFleetSessions; ++i) {
      offsets_.push_back(
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(tests))));
    }
  }
  ~FleetWorkload() override { teardown(); }
  FleetWorkload(const FleetWorkload&) = delete;
  FleetWorkload& operator=(const FleetWorkload&) = delete;

  Status prepare() override { return oracle_.load(config_); }

  Status setup() override {
    teardown();
    glport::apply_system_config(kConfig);
    {
      std::lock_guard lock(mutex_);
      command_ = Command::kIdle;
      ready_ = 0;
      finished_ = 0;
    }
    slots_ = std::vector<Slot>(kFleetSessions);
    for (int i = 0; i < kFleetSessions; ++i) {
      threads_.emplace_back([this, i] { session_main(i); });
    }
    std::unique_lock lock(mutex_);
    ready_cv_.wait(lock, [this] { return ready_ == kFleetSessions; });
    for (const Slot& slot : slots_) {
      if (!slot.error.empty()) return Status::internal(slot.error);
    }
    return Status::ok();
  }

  void teardown() override {
    if (threads_.empty()) return;
    {
      std::lock_guard lock(mutex_);
      command_ = Command::kQuit;
      ++generation_;
    }
    command_cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  void set_port_timing(bool on) override {
    for (Slot& slot : slots_) {
      if (slot.app != nullptr && slot.app->timing != nullptr) {
        slot.app->timing->set_timing(on);
      }
    }
  }

  std::vector<double> session_create_ms() const override { return create_ms_; }

  std::uint64_t cross_leaks() const override {
    std::uint64_t total = 0;
    for (const auto& leak :
         core::SessionRegistry::instance().cross_leak_snapshot()) {
      total += leak.count;
    }
    return total;
  }

 protected:
  void run_loop(std::int64_t deadline_ns, PhaseResult& out) override {
    out.sessions = kFleetSessions;
    {
      std::lock_guard lock(mutex_);
      for (Slot& slot : slots_) slot.result = PhaseResult{};
      deadline_ns_ = deadline_ns;
      finished_ = 0;
      command_ = Command::kMeasure;
      ++generation_;
    }
    command_cv_.notify_all();
    {
      std::unique_lock lock(mutex_);
      ready_cv_.wait(lock, [this] { return finished_ == kFleetSessions; });
    }
    for (Slot& slot : slots_) {
      PhaseResult& r = slot.result;
      out.ops += r.ops;
      out.frames += r.frames;
      out.attempted += r.attempted;
      out.failed += r.failed;
      out.samples.insert(out.samples.end(), r.samples.begin(),
                         r.samples.end());
      for (const std::string& failure : r.failures) {
        if (out.failures.size() < kMaxLoggedFailures) {
          out.failures.push_back(failure);
        }
      }
    }
  }

  PortTimings port_timings() const override {
    PortTimings total;
    for (const Slot& slot : slots_) {
      if (slot.app != nullptr && slot.app->timing != nullptr) {
        add_timings(total, slot.app->timing->timings());
      }
    }
    return total;
  }

 private:
  enum class Command { kIdle, kMeasure, kQuit };

  struct Slot {
    std::unique_ptr<PassMarkApp> app;  // owned by the session thread
    std::string error;
    PhaseResult result;
  };

  void session_main(int index) {
    Slot& slot = slots_[static_cast<std::size_t>(index)];
    std::uint64_t seen = 0;  // commands before this thread existed
    {
      std::lock_guard lock(mutex_);
      seen = generation_;
    }
    core::SessionRegistry& registry = core::SessionRegistry::instance();
    const std::int64_t create_start = now_ns();
    auto session = registry.create("perfbench-" + std::to_string(index));
    const double create_ms = ms_between(create_start, now_ns());
    if (!session.is_ok()) {
      slot.error = "session create: " + session.status().to_string();
      signal_ready(create_ms);
      serve(index, slot, seen);
      return;
    }
    {
      core::SessionScope scope(**session);
      {
        SpanLog::Scope span("session.setup");
        cycada::kernel::Kernel::instance().register_current_thread(
            cycada::kernel::Persona::kIos);
        core::GraphicsTlsTracker::instance().install();
        auto app = make_passmark_app(kFleetSize, config_.traced);
        if (app.is_ok()) {
          slot.app = std::move(*app);
        } else {
          slot.error = "session port: " + app.status().to_string();
        }
      }
      signal_ready(create_ms);
      serve(index, slot, seen);
      slot.app.reset();
    }
    registry.destroy(*session);
  }

  void signal_ready(double create_ms) {
    {
      std::lock_guard lock(mutex_);
      ++ready_;
      create_ms_.push_back(create_ms);
    }
    ready_cv_.notify_all();
  }

  // Answers measure commands until told to quit.
  void serve(int index, Slot& slot, std::uint64_t seen) {
    for (;;) {
      std::int64_t deadline = 0;
      {
        std::unique_lock lock(mutex_);
        command_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (command_ == Command::kQuit) return;
        deadline = deadline_ns_;
      }
      PhaseResult& out = slot.result;
      if (slot.app != nullptr) {
        const std::size_t tests = order_.size();
        for (std::size_t i = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(index)]);
             now_ns() < deadline; ++i) {
          passmark_frame(*slot.app, order_[i % tests], kFleetSize, oracle_,
                         index, out);
        }
      }
      {
        std::lock_guard lock(mutex_);
        ++finished_;
      }
      ready_cv_.notify_all();
    }
  }

  WorkloadConfig config_;
  std::vector<int> order_;
  std::vector<int> offsets_;
  ScreenOracle oracle_;
  std::vector<Slot> slots_;

  std::mutex mutex_;
  std::condition_variable command_cv_;  // session threads wait here
  std::condition_variable ready_cv_;    // the driver waits here
  Command command_ = Command::kIdle;     // guarded by mutex_
  std::uint64_t generation_ = 0;         // guarded by mutex_
  std::int64_t deadline_ns_ = 0;         // guarded by mutex_
  int ready_ = 0;                        // guarded by mutex_
  int finished_ = 0;                     // guarded by mutex_
  std::vector<double> create_ms_;        // guarded by mutex_
  std::vector<std::thread> threads_;
};

// ---- safari_sunspider ----------------------------------------------------------------

// The markup Browser::run_script renders its result page with sets this
// background; software_render needs it to reproduce the page.
constexpr std::string_view kResultPageBg = "#182028";
// What the compositor's framebuffer holds where no tile quad drew.
constexpr std::uint32_t kUncoveredPixel = 0xff000000u;
constexpr std::string_view kWarmUpScript = "0";

class SafariWorkload final : public Workload {
 public:
  explicit SafariWorkload(const WorkloadConfig& config)
      : config_(config),
        order_(static_cast<int>(cycada::jsvm::sunspider::workloads().size()),
               config.seed) {}
  ~SafariWorkload() override { teardown(); }
  SafariWorkload(const SafariWorkload&) = delete;
  SafariWorkload& operator=(const SafariWorkload&) = delete;

  Status setup() override {
    teardown();
    // Oracle: a JIT-tier engine that runs the same scripts in the same
    // order as the browser's engine. Engine state carries over between
    // scripts (the date script reads a virtual clock), so a fresh engine
    // per script would not be the same computation.
    mirror_ = std::make_unique<cycada::jsvm::JsEngine>(
        cycada::jsvm::JsOptions{true, 42});
    mirror_ran_ = 0;
    ran_.assign(1, {-1, 0.0});
    glport::apply_system_config(kConfig);
    port_ = glport::make_gl_port(kConfig);
    if (config_.traced) {
      auto timing = std::make_unique<TimingPort>(std::move(port_));
      timing_ = timing.get();
      port_ = std::move(timing);
    }
    CYCADA_RETURN_IF_ERROR(port_->init(kPageWidth, kPageHeight, 2));
    // Cycada iOS cannot JIT (paper section 9); WebKit renders threaded.
    browser_ = std::make_unique<cycada::webkit::Browser>(*port_, false);
    browser_->enable_threaded_rendering();
    auto warm = browser_->run_script(kWarmUpScript);  // tiles, program, IOSurfaces
    return warm.status();
  }

  void teardown() override {
    browser_.reset();
    timing_ = nullptr;
    port_.reset();
  }

  void set_port_timing(bool on) override {
    if (timing_ != nullptr) timing_->set_timing(on);
  }

  double script_ms_per_page(const PhaseResult& phase) override {
    if (pages_by_script_.empty() || phase.ops == 0) return 0;
    // Each script once more on a standalone engine of the same tier.
    std::vector<double> script_ms;
    for (const auto& workload : cycada::jsvm::sunspider::workloads()) {
      std::vector<double> runs;
      for (int rep = 0; rep < 3; ++rep) {
        cycada::jsvm::JsEngine engine(cycada::jsvm::JsOptions{false, 42});
        const std::int64_t start = now_ns();
        auto result = engine.run(workload.source);
        runs.push_back(ms_between(start, now_ns()));
        if (!result.is_ok()) return 0;
      }
      script_ms.push_back(percentile(runs, 50));
    }
    double total = 0;
    for (std::size_t i = 0; i < script_ms.size(); ++i) {
      total += script_ms[i] * static_cast<double>(pages_by_script_[i]);
    }
    return total / static_cast<double>(phase.ops);
  }

 protected:
  void run_loop(std::int64_t deadline_ns, PhaseResult& out) override {
    const auto& scripts = cycada::jsvm::sunspider::workloads();
    pages_by_script_.assign(scripts.size(), 0);
    const std::uint32_t page_bg =
        cycada::webkit::parse_color(kResultPageBg);
    while (now_ns() < deadline_ns) {
      const int index = order_.next();
      const auto& script = scripts[static_cast<std::size_t>(index)];
      ++out.attempted;
      const int frames_before = browser_->frames_rendered();
      std::int64_t start = 0;
      std::int64_t end = 0;
      StatusOr<double> value = 0.0;
      {
        SpanLog::Scope span("webkit.run_script");
        start = now_ns();
        value = browser_->run_script(script.source);
        end = now_ns();
      }
      const std::string category(script.category);
      if (!value.is_ok()) {
        out.fail(category + ": " + value.status().to_string());
        continue;
      }
      const int frames = browser_->frames_rendered() - frames_before;
      const double ms = ms_between(start, end);
      ran_.push_back({index, *value});
      ++out.ops;
      ++pages_by_script_[static_cast<std::size_t>(index)];
      out.frames += static_cast<std::uint64_t>(std::max(frames, 0));
      out.samples.push_back(
          OpSample{end, ms, static_cast<double>(std::max(frames, 0)), 0, -1,
                   index});
      check_screen(category, page_bg, out);
    }
  }

  // Replays this phase's scripts on the JIT-tier mirror and compares each
  // result with the page's.
  void check_phase(PhaseResult& out) override {
    const auto& scripts = cycada::jsvm::sunspider::workloads();
    for (; mirror_ran_ < ran_.size(); ++mirror_ran_) {
      const auto [index, value] = ran_[mirror_ran_];
      const std::string_view source =
          index < 0 ? kWarmUpScript
                    : scripts[static_cast<std::size_t>(index)].source;
      auto expected = mirror_->run(source);
      if (index < 0) continue;
      const std::string category(scripts[static_cast<std::size_t>(index)].category);
      double reference = expected.is_ok() ? expected->to_number() : -1.0;
      if (config_.inject == Inject::kChecksum) reference += 1;
      if (!expected.is_ok() || value != reference) {
        out.fail(category + " checksum " + std::to_string(value) +
                 " != JIT-tier " + std::to_string(reference));
      }
    }
  }

  // The page screen must equal software_render of the display list, with
  // one known exception: the GLES2 composite currently leaves pixels on
  // each tile quad's diagonal (the edge its two triangles share) uncovered,
  // showing the cleared framebuffer. Those pixels are counted as
  // webkit.composite_diff_px_per_page; any other difference fails the page.
  void check_screen(const std::string& category, std::uint32_t page_bg,
                    PhaseResult& out) {
    cycada::Image reference = cycada::webkit::software_render(
        browser_->display_list(), page_bg, kPageWidth, kPageHeight);
    if (config_.inject == Inject::kScreen && !reference.empty()) {
      reference.at(kPageWidth - 1, 0) ^= 0x00ffffffu;
    }
    const cycada::Image screen = browser_->screen();
    if (screen.width() != reference.width() ||
        screen.height() != reference.height()) {
      out.fail(category + " page screen has the wrong size");
      return;
    }
    std::uint64_t seam = 0;
    std::uint64_t wrong = 0;
    for (int y = 0; y < screen.height(); ++y) {
      for (int x = 0; x < screen.width(); ++x) {
        if (screen.at(x, y) == reference.at(x, y)) continue;
        const bool on_diagonal =
            x % cycada::webkit::kTileSize == y % cycada::webkit::kTileSize;
        if (on_diagonal && screen.at(x, y) == kUncoveredPixel) {
          ++seam;
        } else {
          ++wrong;
        }
      }
    }
    out.composite_diff_px += seam;
    if (wrong > 0) {
      out.fail(category + " page screen differs from software_render on " +
               std::to_string(wrong) + " px");
    }
  }

  PortTimings port_timings() const override {
    return timing_ != nullptr ? timing_->timings() : PortTimings{};
  }

 private:
  WorkloadConfig config_;
  SeededCycle order_;
  std::vector<std::uint64_t> pages_by_script_;
  std::unique_ptr<glport::GlPort> port_;
  TimingPort* timing_ = nullptr;
  std::unique_ptr<cycada::webkit::Browser> browser_;
  // Scripts the browser ran since set-up (-1: the warm-up), with results.
  std::vector<std::pair<int, double>> ran_;
  std::unique_ptr<cycada::jsvm::JsEngine> mirror_;
  std::size_t mirror_ran_ = 0;  // entries of ran_ the mirror has replayed
};

// ---- gl_replay ----------------------------------------------------------------------

// Max-rate replay of the golden PassMark capture on four threads. One op is
// one replay_trace call: every thread walks every lane kReplayIterations
// times.
class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(const WorkloadConfig& config) : config_(config) {}

  Status setup() override {
    glport::apply_system_config(kConfig);
    auto parsed = cycada::trace::read_cyt(config_.replay_trace);
    CYCADA_RETURN_IF_ERROR(parsed.status());
    trace_ = std::make_unique<cycada::trace::ParsedTrace>(std::move(*parsed));
    auto warm = core::replay_trace(*trace_, options());
    CYCADA_RETURN_IF_ERROR(warm.status());
    if (call_counts_.empty()) prepare_oracle();
    return Status::ok();
  }

  void teardown() override { trace_.reset(); }
  void set_port_timing(bool) override {}

 protected:
  void run_loop(std::int64_t deadline_ns, PhaseResult& out) override {
    out.passes_per_op = kReplayIterations;
    rounds_ = 0;
    while (now_ns() < deadline_ns) {
      ++out.attempted;
      std::int64_t start = 0;
      std::int64_t end = 0;
      StatusOr<core::ReplayStats> stats = core::ReplayStats{};
      {
        SpanLog::Scope span("core.replay_trace");
        start = now_ns();
        stats = core::replay_trace(*trace_, options());
        end = now_ns();
      }
      ++rounds_;
      if (!stats.is_ok()) {
        out.fail("replay: " + stats.status().to_string());
        continue;
      }
      const double ms = ms_between(start, end);
      ++out.ops;
      out.frames += presents_per_pass_ * kPasses;
      // Threads replay concurrently: one thread's frames span the round.
      const double frames = static_cast<double>(presents_per_pass_) *
                            kReplayIterations;
      out.samples.push_back(OpSample{end, ms, frames, 0, -1, 0});
      if (stats->calls != calls_per_pass_ * kPasses ||
          stats->persona_switches != crossings_per_pass_ * kPasses) {
        out.fail("replay diverged: " + std::to_string(stats->calls) +
                 " calls, " + std::to_string(stats->persona_switches) +
                 " crossings");
      }
    }
  }

  // Every diplomat's registry delta must be its per-pass trace count times
  // threads times rounds, exactly. A divergence cannot be pinned to one
  // round, so it fails them all.
  void check_phase(PhaseResult& out) override {
    const std::uint64_t passes = rounds_ * kPasses;
    std::map<std::string, std::uint64_t> expected;
    for (const auto& [name, count] : call_counts_) {
      expected[name] = count * passes;
    }
    if (config_.inject == Inject::kReplay && !expected.empty()) {
      expected.begin()->second += 1;
    }
    std::map<std::string, std::uint64_t> actual = out.delta.diplomat_calls;
    std::erase_if(actual, [](const auto& kv) { return kv.second == 0; });
    std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });
    if (actual != expected) {
      out.failures.push_back("per-diplomat registry deltas differ from "
                             "trace_call_counts x threads x passes");
      out.failed = out.attempted;
    }
  }

 private:
  core::ReplayOptions options() const {
    core::ReplayOptions options;
    options.threads = kReplayThreads;
    options.iterations = kReplayIterations;
    return options;
  }

  void prepare_oracle() {
    call_counts_ = core::trace_call_counts(*trace_);
    crossings_per_pass_ = core::trace_expected_crossings(*trace_);
    calls_per_pass_ = 0;
    for (const auto& [name, count] : call_counts_) calls_per_pass_ += count;
    auto presents = call_counts_.find("aegl_bridge_draw_fbo_tex");
    presents_per_pass_ = presents == call_counts_.end() ? 0 : presents->second;
  }

  static constexpr std::uint64_t kPasses = kReplayThreads * kReplayIterations;

  WorkloadConfig config_;
  std::unique_ptr<cycada::trace::ParsedTrace> trace_;
  std::map<std::string, std::uint64_t> call_counts_;
  std::uint64_t calls_per_pass_ = 0;
  std::uint64_t crossings_per_pass_ = 0;
  std::uint64_t presents_per_pass_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace

// ---- Shared pieces ----------------------------------------------------------------

std::uint64_t CounterDelta::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::int64_t CounterDelta::histogram_sum(const std::string& name) const {
  auto it = histogram_sum_ns.find(name);
  return it == histogram_sum_ns.end() ? 0 : it->second;
}

std::uint64_t CounterDelta::total_diplomat_calls() const {
  std::uint64_t total = 0;
  for (const auto& [name, calls] : diplomat_calls) total += calls;
  return total;
}

std::int64_t CounterDelta::total_diplomat_ns() const {
  std::int64_t total = 0;
  for (const auto& [name, ns] : diplomat_ns) total += ns;
  return total;
}

void PhaseResult::fail(const std::string& what) {
  ++failed;
  if (failures.size() < kMaxLoggedFailures) failures.push_back(what);
}

namespace {

// Aggregate "cpu" line of /proc/stat: ticks spent busy, and stolen.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  if (!(stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal)) {
    return {};
  }
  return {user + nice + system + irq + softirq, steal};
}

// Samples /proc/stat every kStealWindowNs on its own thread while a phase
// runs, so the end-to-end metrics can skip slices in which the hypervisor
// ran other tenants on this machine's CPUs.
class StealMonitor {
 public:
  static constexpr std::int64_t kStealWindowNs = 100'000'000;

  explicit StealMonitor(std::vector<StealWindow>& windows)
      : windows_(windows), thread_([this] { run(); }) {}
  ~StealMonitor() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

 private:
  void run() {
    std::int64_t start = now_ns();
    CpuTicks previous = read_cpu_ticks();
    std::unique_lock lock(mutex_);
    for (;;) {
      const bool stopping = cv_.wait_for(
          lock, std::chrono::nanoseconds(kStealWindowNs),
          [this] { return stopping_; });
      const std::int64_t end = now_ns();
      const CpuTicks current = read_cpu_ticks();
      const double busy = static_cast<double>(current.busy - previous.busy);
      const double steal = static_cast<double>(current.steal - previous.steal);
      windows_.push_back(StealWindow{
          start, end, busy + steal > 0 ? steal / (busy + steal) : 0.0});
      if (stopping) return;
      start = end;
      previous = current;
    }
  }

  std::vector<StealWindow>& windows_;  // written by the monitor thread only
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mutex_
  std::thread thread_;
};

}  // namespace

PhaseResult Workload::measure(double seconds) {
  PhaseResult out;
  const CounterReading before = read_counters();
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    StealMonitor monitor(out.windows);
    run_loop(deadline, out);
  }
  out.wall_ns = now_ns() - start;
  out.delta = diff(before, read_counters());
  out.port = port_timings();
  check_phase(out);
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "passmark_app", "fleet_4", "safari_sunspider", "gl_replay"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "passmark_app") {
    return std::make_unique<PassMarkAppWorkload>(config);
  }
  if (name == "fleet_4") return std::make_unique<FleetWorkload>(config);
  if (name == "safari_sunspider") {
    return std::make_unique<SafariWorkload>(config);
  }
  if (name == "gl_replay") return std::make_unique<ReplayWorkload>(config);
  return nullptr;
}

Status record_goldens(const std::string& dir) {
  const std::string passmark_path = dir + "/" + kPassMarkGoldens;
  std::ofstream out(passmark_path);
  if (!out) return Status::internal("cannot write " + passmark_path);
  out << "# PassMark screen hashes (FNV-1a 64) of the Cycada iOS port, keyed\n"
         "# by surface size, test and frames the test's own PassMark instance\n"
         "# has drawn (warm-up frame included). Checkpoints are powers of two.\n"
         "# Regenerate with: perfbench_driver --record-golden <dir>\n";
  const std::vector<bool> history_dependent = history_dependent_tests();
  for (const auto& [size, log2_frames] :
       {std::pair{kAppSize, kGoldenLog2At512},
        std::pair{kFleetSize, kGoldenLog2At128}}) {
    glport::apply_system_config(kConfig);
    auto app = make_passmark_app(size, false);
    CYCADA_RETURN_IF_ERROR(app.status());
    PassMarkApp& a = **app;
    const auto& specs = passmark::test_specs();
    for (std::size_t t = 0; t < specs.size(); ++t) {
      if (history_dependent[t]) continue;  // not checkable, see ScreenOracle
      while (a.drawn[t] < (1 << log2_frames)) {
        auto frame = a.tests[t]->run(specs[t].name, 1);
        CYCADA_RETURN_IF_ERROR(frame.status());
        if (!is_checkpoint(++a.drawn[t])) continue;
        out << golden_key(size, slug(specs[t].name), a.drawn[t]) << ' '
            << hex64(screen_hash(a.port->screen())) << '\n';
      }
    }
  }
  return out.good() ? Status::ok()
                    : Status::internal("write failed: " + passmark_path);
}

std::vector<bool> history_dependent_tests() {
  // Draw each test's second frame after zero, one or two extra frames of
  // another test; a test whose screen changes with that history is
  // dependent. Currently these are Transparent Vectors, Simple 3D and
  // Complex 3D, the tests that leave blending or depth testing enabled
  // when they present.
  const auto& specs = passmark::test_specs();
  const std::size_t n = specs.size();
  std::vector<bool> dependent(n, false);
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t first = 0;
    for (int extra = 0; extra <= 2; ++extra) {
      glport::apply_system_config(kConfig);
      auto app = make_passmark_app(kFleetSize, false);
      if (!app.is_ok()) {
        dependent[t] = true;
        break;
      }
      const std::size_t other = (t + 1) % n;
      for (int i = 0; i < extra; ++i) {
        (void)(*app)->tests[other]->run(specs[other].name, 1);
      }
      (void)(*app)->tests[t]->run(specs[t].name, 1);
      const std::uint64_t hash = screen_hash((*app)->port->screen());
      if (extra == 0) {
        first = hash;
      } else if (hash != first) {
        dependent[t] = true;
      }
    }
  }
  glport::apply_system_config(kConfig);
  return dependent;
}

int cross_config_mismatches() {
  // The frame counts of bench/fig6_passmark's CYCADA_PASSMARK_HASH mode.
  const auto frames_for = [](std::string_view test) {
    if (test == "Simple 3D") return 24;
    if (test == "Complex 3D") return 4;
    if (test == "Image Filters") return 6;
    return 8;
  };
  const auto hash = [&](glport::SystemConfig config, std::string_view test)
      -> std::uint64_t {
    glport::apply_system_config(config);
    auto port = glport::make_gl_port(config);
    if (!port->init(128, 128, 1).is_ok()) return 0;
    passmark::PassMark passmark(*port);
    if (!passmark.run(test, 1 + frames_for(test)).is_ok()) return 0;
    return screen_hash(port->screen());
  };
  int mismatches = 0;
  for (const auto& spec : passmark::test_specs()) {
    const std::uint64_t cycada_ios = hash(kConfig, spec.name);
    const std::uint64_t ios = hash(glport::SystemConfig::kIos, spec.name);
    const std::uint64_t android =
        hash(glport::SystemConfig::kAndroid, spec.name);
    if (cycada_ios != ios || cycada_ios != android) ++mismatches;
  }
  glport::apply_system_config(kConfig);
  return mismatches;
}

double crossing_pair_ns_p50() {
  namespace kernel = cycada::kernel;
  constexpr int kPairsPerSample = 64;
  std::vector<double> samples;
  for (int sample = 0; sample < 512; ++sample) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kPairsPerSample; ++i) {
      kernel::sys_set_persona(kernel::Persona::kAndroid);
      kernel::sys_set_persona(kernel::Persona::kIos);
    }
    samples.push_back(static_cast<double>(now_ns() - start) / kPairsPerSample);
  }
  return percentile(samples, 50);
}

std::vector<double> probe_session_create_ms(int count) {
  core::SessionRegistry& registry = core::SessionRegistry::instance();
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) {
    const std::int64_t start = now_ns();
    auto session = registry.create("perfbench-probe");
    samples.push_back(ms_between(start, now_ns()));
    if (session.is_ok()) registry.destroy(*session);
  }
  return samples;
}

}  // namespace perfbench
