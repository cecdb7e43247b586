// The four benchmark workloads. Each one sets up the Cycada iOS
// configuration from scratch (so set-up can be timed several times), runs a
// closed loop for a fixed time, and checks every output against an oracle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"
#include "util/status.h"

namespace perfbench {

// Deliberate oracle corruption, used only by the benchmark's own tests to
// prove that a wrong output raises the failure count.
enum class Inject { kNone, kScreen, kChecksum, kReplay };

struct WorkloadConfig {
  std::uint64_t seed = 1;
  bool traced = false;  // wrap ports in TimingPort (inert until enabled)
  std::string data_dir;       // golden screen hashes
  std::string replay_trace;   // the golden .cyt the gl_replay workload drives
  Inject inject = Inject::kNone;
};

// Program counters read as deltas over a measured phase.
struct CounterDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> histogram_sum_ns;
  std::map<std::string, std::uint64_t> diplomat_calls;
  std::map<std::string, std::int64_t> diplomat_ns;
  std::uint64_t diplomat_batched_calls = 0;  // replayed by the batch recorder
  std::uint64_t counter(const std::string& name) const;
  std::int64_t histogram_sum(const std::string& name) const;
  std::uint64_t total_diplomat_calls() const;
  std::int64_t total_diplomat_ns() const;
};

// One completed op.
struct OpSample {
  std::int64_t end_ns = 0;
  double ms = 0;
  double frames = 0;    // frames the op presented (one thread's, for
                        // gl_replay)
  int session = 0;      // fleet session index
  int test = -1;        // PassMark test index
  int kind = 0;         // what the op ran: PassMark test, SunSpider category
};

// Hypervisor steal over one slice of a phase (/proc/stat).
struct StealWindow {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double steal_frac = 0;  // stolen / (busy + stolen) CPU ticks
};

// What one measured phase produced.
struct PhaseResult {
  std::int64_t wall_ns = 0;
  std::uint64_t ops = 0;     // PassMark frames, pages, or replay rounds
  int passes_per_op = 1;     // lane passes per replay round, else 1
  int sessions = 1;
  std::uint64_t frames = 0;  // frames presented, all sessions
  std::vector<OpSample> samples;
  std::vector<StealWindow> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  // safari: pixels where page screens differ from software_render.
  std::uint64_t composite_diff_px = 0;
  CounterDelta delta;
  PortTimings port;  // summed over the workload's ports (traced phases)

  void fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Loads or computes the oracles (not part of the timed set-up).
  virtual cycada::Status prepare() { return cycada::Status::ok(); }
  // Builds the workload from a fresh system configuration. Any earlier
  // state is torn down first, so calling it again repeats the whole set-up.
  virtual cycada::Status setup() = 0;
  virtual void teardown() = 0;
  // Closed loop until `seconds` elapse.
  PhaseResult measure(double seconds);
  // Starts (clearing) or stops the outside-in port timers.
  virtual void set_port_timing(bool on) = 0;

  // Set-up time spent in core::SessionRegistry::create, when set-up
  // creates sessions (empty otherwise).
  virtual std::vector<double> session_create_ms() const { return {}; }
  // Same-tier standalone script time per page (safari only; 0 otherwise).
  virtual double script_ms_per_page(const PhaseResult&) { return 0; }
  // Cross-session leak evidence on the live sessions.
  virtual std::uint64_t cross_leaks() const { return 0; }

 protected:
  virtual void run_loop(std::int64_t deadline_ns, PhaseResult& out) = 0;
  // Oracle checks that need the whole phase's counter deltas.
  virtual void check_phase(PhaseResult&) {}
  virtual PortTimings port_timings() const { return {}; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);
const std::vector<std::string>& workload_names();

// Writes the golden screen hashes (both PassMark surface sizes, and the
// safari result pages) into `dir`.
cycada::Status record_goldens(const std::string& dir);

// For each PassMark test (spec order): whether its screen depends on the
// frames presented before it, not only on its own frame count. Resets the
// system configuration several times.
std::vector<bool> history_dependent_tests();

// Screens of the Fig. 6 hash mode (128x128, fixed frame counts): number of
// PassMark tests whose Cycada iOS screen differs from native iOS or
// Android. Resets the system configuration several times.
int cross_config_mismatches();

// Median ns of one sys_set_persona(Android) + sys_set_persona(iOS) pair on
// the calling (iOS-persona) thread.
double crossing_pair_ns_p50();

// Median ms of core::SessionRegistry::create (each session destroyed again).
std::vector<double> probe_session_create_ms(int count);

}  // namespace perfbench
