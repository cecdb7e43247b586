// Diplomats: Cycada's mechanism for calling domestic (Android) code from
// foreign (iOS) apps (paper §3).
//
// A diplomat executes the paper's eleven-step procedure:
//   (1) on first invocation, resolve and cache the domestic entry point in a
//       locally-scoped static; (2) run a prelude in the foreign persona;
//   (3-5) marshal arguments across the set_persona syscall; (6) invoke the
//   domestic function; (7-8) marshal the return value back across the second
//   set_persona syscall; (9) convert domestic TLS values such as errno into
//   the foreign TLS area; (10) run a postlude in the foreign persona;
//   (11) return to the foreign caller.
//
// Every form runs that one procedure (detail::diplomat_procedure and
// detail::Crossing below); only the crossing of steps 3-5 and 7-8 differs:
// a plain set_persona pair for one call, or one token-bracketed crossing
// for a declared number of calls — the multi pattern (multi_diplomat_call)
// and the command-buffer replay (src/core/batch.h).
//
// The four usage patterns of §4.1 — direct, indirect, data-dependent and
// multi — classify how much wrapper logic surrounds that core procedure,
// and the registry records the classification plus per-function call
// statistics (the data behind Tables 2 and Figures 7-10).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/lock_order.h"

namespace cycada::core {

enum class DiplomatPattern : std::uint8_t {
  kDirect,         // straight invocation of one Android function
  kIndirect,       // small foreign-side wrapper redirecting/re-arranging
  kDataDependent,  // input-dependent logic, may skip the Android call
  kMulti,          // coalesces several Android functions
  kUnimplemented,  // registered but never called by real apps
};

constexpr std::string_view pattern_name(DiplomatPattern pattern) {
  switch (pattern) {
    case DiplomatPattern::kDirect: return "direct";
    case DiplomatPattern::kIndirect: return "indirect";
    case DiplomatPattern::kDataDependent: return "data-dependent";
    case DiplomatPattern::kMulti: return "multi";
    case DiplomatPattern::kUnimplemented: return "unimplemented";
  }
  return "?";
}

// Contract evidence accumulated per entry by the diplomat procedure itself.
// All counters are relaxed atomics bumped on paths that already pay two
// syscalls, so the cost is noise; `analyze::check_diplomat_contracts()`
// turns imbalances into findings (see DESIGN.md §6).
struct DiplomatContract {
  // How many times the library prelude / postlude hooks actually ran. A
  // call site whose hooks carry a prelude but no postlude (or vice versa)
  // diverges these.
  std::atomic<std::uint64_t> preludes{0};
  std::atomic<std::uint64_t> postludes{0};
  // Calls that crossed into the Android persona and invoked the domestic
  // function, vs. calls that deliberately answered on the iOS side
  // (diplomat_skip — legal only for data-dependent diplomats).
  std::atomic<std::uint64_t> domestic_calls{0};
  std::atomic<std::uint64_t> skipped_calls{0};
  // Times the domestic function returned in a persona other than the one
  // the diplomat set — an unbalanced set_persona inside domestic code.
  std::atomic<std::uint64_t> unbalanced_persona{0};
  // Times the entry was re-requested under a different pattern than it was
  // registered with (two call sites disagreeing on classification).
  std::atomic<std::uint64_t> pattern_conflicts{0};
  // Calls that reached the domestic function through the multi-diplomat
  // command buffer (src/core/batch.h) instead of a private crossing. Legal
  // only for entries the classifier marks batchable; a batch replays its
  // calls under one shared crossing, so for these entries preludes may be
  // fewer than domestic_calls (one prelude per batch, not per call).
  std::atomic<std::uint64_t> batched_calls{0};

  void reset() {
    preludes.store(0);
    postludes.store(0);
    domestic_calls.store(0);
    skipped_calls.store(0);
    unbalanced_persona.store(0);
    pattern_conflicts.store(0);
    batched_calls.store(0);
  }
};

// Dense index of a registered diplomat, assigned in registration order.
// Resolved once per call site; entry_by_id() turns it back into the entry
// wait-free (docs/DISPATCH.md).
using DiplomatId = std::uint32_t;
inline constexpr DiplomatId kInvalidDiplomatId = 0xffffffffu;

// One registered diplomat. Entries live for the registry's lifetime;
// call-site statics hold pointers to them (step 1's cached symbol).
struct DiplomatEntry {
  std::string name;
  DiplomatId id = kInvalidDiplomatId;
  DiplomatPattern pattern = DiplomatPattern::kDirect;
  // Whether the classifier allows this diplomat into the multi-diplomat
  // command buffer (classify_ios_gl_batchable; set at registration, never
  // changes). Non-batchable entries force a flush of any pending batch.
  bool batchable = false;
  // Step-1 cache: the resolved domestic entry point (opaque).
  std::atomic<void*> cached_symbol{nullptr};
  // Incremented on every call, whether or not profiling is on, so counts
  // are identical across profiled and unprofiled runs.
  std::atomic<std::uint64_t> calls{0};
  // Per-call latency distribution, populated only while profiling — the
  // data behind Figures 7-10, now with percentiles rather than only means.
  trace::Histogram latency;
  DiplomatContract contract;

  std::int64_t total_ns() const { return latency.sum(); }
};

struct DiplomatSnapshot {
  std::string name;
  DiplomatPattern pattern;
  std::uint64_t calls;
  std::int64_t total_ns;
  std::int64_t p50_ns;
  std::int64_t p95_ns;
  std::int64_t p99_ns;
  // Contract evidence (see DiplomatContract).
  std::uint64_t preludes;
  std::uint64_t postludes;
  std::uint64_t domestic_calls;
  std::uint64_t skipped_calls;
  std::uint64_t unbalanced_persona;
  std::uint64_t pattern_conflicts;
  std::uint64_t batched_calls;
  bool batchable;
};

class DiplomatRegistry {
 public:
  static DiplomatRegistry& instance();

  void reset();
  // Finds or creates the entry for `name` under the registry mutex. Call
  // sites resolve once and cache the result in a local static (step 1), so
  // name lookup is off the per-call path. A lookup under a different
  // pattern than the registered one returns the existing entry and counts a
  // pattern conflict.
  DiplomatEntry& entry(std::string_view name, DiplomatPattern pattern);

  // entry(name, pattern).id: hot callers store the id and dispatch through
  // entry_by_id(), which takes no lock.
  DiplomatId resolve(std::string_view name, DiplomatPattern pattern);

  DiplomatEntry& entry_by_id(DiplomatId id) const {
    const IdSegment* segment =
        segments_[id >> kSegmentShift].load(std::memory_order_acquire);
    return *segment->slots[id & (kSegmentSize - 1)].load(
        std::memory_order_acquire);
  }

  // Per-function timing for Figures 7-10; off by default (adds two clock
  // reads per diplomat call when on).
  void set_profiling(bool enabled) { profiling_.store(enabled); }
  bool profiling() const { return profiling_.load(std::memory_order_relaxed); }
  void clear_stats();
  std::vector<DiplomatSnapshot> snapshot() const;

 private:
  DiplomatRegistry() = default;

  // By-id dispatch storage: a two-level array of immortal segments, grown
  // (never moved) under the mutex. Two dependent acquire loads per dispatch
  // keep entry_by_id wait-free.
  static constexpr std::size_t kSegmentShift = 8;
  static constexpr std::size_t kSegmentSize = std::size_t{1} << kSegmentShift;
  static constexpr std::size_t kMaxSegments = 64;  // 16384 diplomats
  struct IdSegment {
    std::array<std::atomic<DiplomatEntry*>, kSegmentSize> slots{};
  };

  // Guards the name map, segment growth and stats resets. By-id dispatch
  // never touches it — the Table 3 microbench asserts zero
  // kDiplomatRegistry acquisitions during steady-state dispatch.
  mutable util::OrderedMutex mutex_{util::LockLevel::kDiplomatRegistry,
                                    "core.diplomat_registry"};
  // Name -> entry, sorted so snapshot() comes out name-ordered. Entries are
  // never erased: call sites cache raw pointers and ids to them, and map
  // nodes never move.
  std::map<std::string, DiplomatEntry, std::less<>> entries_;
  std::array<std::atomic<IdSegment*>, kMaxSegments> segments_{};
  std::atomic<bool> profiling_{false};
};

// Hooks shared by a library's diplomats ("library-wide prelude and postlude
// operations", §3). Both run in the foreign persona.
struct DiplomatHooks {
  std::function<void()> prelude;
  std::function<void()> postlude;
};

namespace detail {
// How a crossing switches persona (steps 3-5 and 7-8).
enum class CrossingKind : std::uint8_t {
  // One domestic call under a set_persona pair.
  kPlain,
  // A declared number of Android calls under one token-bracketed crossing
  // (sys_persona_batch_begin/end): the multi pattern and the command-buffer
  // replay (src/core/batch.h). The kernel and dispatch.batch.calls count
  // the calls it amortizes.
  kToken,
};

// Opens one token-bracketed crossing to the Android persona with bounded
// retries; 0 on persistent failure (the caller picks its fallback).
std::uint64_t batched_crossing_begin();
// Closes the crossing, restoring `restore`; forces it shut through
// Kernel::abort_persona_batch on persistent failure (never throws, never
// leaks the Android persona). Returns true when the syscall path closed it.
bool batched_crossing_end(std::uint64_t token, kernel::Persona restore,
                          int replayed_calls);

// Records one diplomat event in the .cyt capture, stamped with `persona`.
// `args` overrides the thread's staged args; nullptr consumes the staging.
void capture_event(const DiplomatEntry& entry, trace::CytEventKind kind,
                   kernel::Persona persona, std::uint32_t aux,
                   std::uint8_t reason = 0,
                   const trace::CytStagedArgs* args = nullptr);

// One crossing: steps 2-5 and 7-10 of the procedure, written once for every
// form — diplomat_call (kPlain), multi_diplomat_call (kToken, one
// coalescing call) and the command-buffer replay (kToken, one domestic call
// per queued item). The hooks run in `caller`'s persona and are charged to
// `opener`.
template <CrossingKind Kind>
class Crossing {
 public:
  // Step 2: the prelude in the foreign persona.
  Crossing(kernel::Kernel& kernel, DiplomatEntry& opener,
           const DiplomatHooks& hooks, kernel::Persona caller)
      : kernel_(kernel),
        opener_(opener),
        hooks_(hooks),
        caller_(caller),
        capturing_(trace::capture_enabled()) {
    if (hooks_.prelude) {
      hooks_.prelude();
      opener_.contract.preludes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Steps 3-5: arguments live in the domestic closures (the stack); switch
  // the kernel ABI personality and TLS pointer to the Android persona. The
  // plain set_persona is retried when it fails transiently (the
  // kernel.set_persona fault point) and finally forced, so the domestic
  // code always runs under the Android ABI and the contract counters stay
  // balanced under injection. A token crossing that cannot open falls back
  // to that forced plain switch, or with `force` false returns false: the
  // caller then balances the prelude with postlude() and runs plain calls.
  bool open(bool force = true) {
    if constexpr (Kind == CrossingKind::kToken) {
      token_ = batched_crossing_begin();
      if (token_ != 0 || !force) return token_ != 0;
    }
    kernel::sys_set_persona_resilient(kernel::Persona::kAndroid,
                                      "degrade.diplomat_enter_forced");
    return true;
  }

  // After each domestic call: it must return in the persona the crossing
  // set; anything else is an unbalanced set_persona in domestic code. The
  // persona is repaired directly (a token may still be open, so the trap
  // path is off the table), so the next call sharing the crossing runs
  // under the Android ABI.
  void check_balance(DiplomatEntry& entry) {
    if (kernel_.current_thread().persona() != kernel::Persona::kAndroid) {
      entry.contract.unbalanced_persona.fetch_add(1,
                                                  std::memory_order_relaxed);
      kernel_.set_persona_direct(kernel::Persona::kAndroid);
    }
  }

  // Steps 7-10 after the crossing's `calls` Android calls: save the domestic
  // errno, switch back to the caller's persona, convert the errno into the
  // foreign TLS area (the last call's errno when calls share a crossing),
  // run the postlude. The switch back must never fail outright — a leaked
  // Android persona on an iOS thread corrupts every later syscall — so a
  // failing restore is forced and a failing token close is forced shut.
  void close(int calls) {
    const long domestic_errno = kernel::libc::get_errno();
    if (Kind == CrossingKind::kToken && token_ != 0) {
      (void)batched_crossing_end(token_, caller_, calls);
    } else {
      kernel::sys_set_persona_resilient(caller_,
                                        "degrade.diplomat_restore_forced");
    }
    if (caller_ == kernel::Persona::kIos) {
      kernel::libc::set_errno(kernel::linux_errno_to_darwin(domestic_errno));
    }
    postlude();
    if constexpr (Kind == CrossingKind::kToken) {
      static trace::Counter& batch_calls =
          trace::MetricsRegistry::instance().counter("dispatch.batch.calls");
      batch_calls.add(static_cast<std::uint64_t>(calls));
    }
  }

  // Step 10: the postlude in the foreign persona.
  void postlude() {
    if (hooks_.postlude) {
      hooks_.postlude();
      opener_.contract.postludes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Counts one domestic call of `entry` — amortizing `batched` Android
  // calls on a token crossing — and captures its event.
  void count(DiplomatEntry& entry, trace::CytEventKind kind, std::uint32_t aux,
             std::uint64_t batched,
             const trace::CytStagedArgs* args = nullptr) {
    entry.contract.domestic_calls.fetch_add(1, std::memory_order_relaxed);
    if (batched != 0) {
      entry.contract.batched_calls.fetch_add(batched,
                                             std::memory_order_relaxed);
    }
    entry.calls.fetch_add(1, std::memory_order_relaxed);
    capture(entry, kind, aux, /*reason=*/0, args);
  }

  void capture(const DiplomatEntry& entry, trace::CytEventKind kind,
               std::uint32_t aux, std::uint8_t reason,
               const trace::CytStagedArgs* args) const {
    if (capturing_) capture_event(entry, kind, caller_, aux, reason, args);
  }

 private:
  kernel::Kernel& kernel_;
  DiplomatEntry& opener_;
  const DiplomatHooks& hooks_;
  const kernel::Persona caller_;
  const bool capturing_;
  std::uint64_t token_ = 0;
};

// The whole procedure around one domestic call; step 1 is the caller's
// cached `entry`. `coalesced_calls` is what a token crossing declares: the
// Android calls `domestic` makes under it.
template <CrossingKind Kind, typename Fn>
auto diplomat_procedure(DiplomatEntry& entry, const DiplomatHooks& hooks,
                        int coalesced_calls, Fn&& domestic) {
  const bool profiling = DiplomatRegistry::instance().profiling();
  const std::int64_t start_ns = profiling ? now_ns() : 0;
  TRACE_SCOPE(Kind == CrossingKind::kPlain ? "diplomat" : "diplomat.multi",
              entry.name.c_str());
  kernel::Kernel& kernel = kernel::Kernel::instance();
  Crossing<Kind> crossing(kernel, entry, hooks,
                          kernel.current_thread().persona());
  // A token crossing that cannot open is forced the way a plain one is, so
  // the coalesced work still runs exactly once.
  crossing.open();

  const auto finish = [&] {
    crossing.check_balance(entry);
    crossing.close(coalesced_calls);
    // A multi call's event carries its declared count, a plain call's its
    // latency when profiling. Capture alone stays clock-free on the hot
    // path: the recorder stamps the event from its per-thread cached clock.
    auto aux = static_cast<std::uint32_t>(coalesced_calls);
    if (profiling) {
      const std::int64_t elapsed_ns = now_ns() - start_ns;
      entry.latency.record(elapsed_ns);
      if constexpr (Kind == CrossingKind::kPlain) {
        aux = static_cast<std::uint32_t>(elapsed_ns < 0 ? 0 : elapsed_ns);
      }
    }
    crossing.count(entry,
                   Kind == CrossingKind::kPlain ? trace::CytEventKind::kCall
                                                : trace::CytEventKind::kMulti,
                   aux, static_cast<std::uint64_t>(coalesced_calls));
  };

  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    domestic();  // step 6
    finish();
  } else {
    auto result = domestic();  // steps 6-7 (result saved on the stack)
    finish();
    return result;  // step 11
  }
}
}  // namespace detail

// Executes `domestic` under the full diplomat procedure and returns its
// result. The calling thread's persona is restored afterwards (normally it
// is the iOS persona; nesting is supported).
template <typename Fn>
auto diplomat_call(DiplomatEntry& entry, const DiplomatHooks& hooks,
                   Fn&& domestic) {
  return detail::diplomat_procedure<detail::CrossingKind::kPlain>(
      entry, hooks, /*coalesced_calls=*/0, std::forward<Fn>(domestic));
}

// Records a call that a data-dependent diplomat answered entirely on the
// foreign side (paper §4.1: e.g. glGetString's Apple-proprietary query, the
// APPLE_row_bytes parameters of glPixelStorei). Keeps `calls` comparable
// across patterns while letting the contract checker verify that only
// kDataDependent entries ever skip their Android call.
inline void diplomat_skip(DiplomatEntry& entry) {
  entry.calls.fetch_add(1, std::memory_order_relaxed);
  entry.contract.skipped_calls.fetch_add(1, std::memory_order_relaxed);
  if (trace::capture_enabled()) {
    detail::capture_event(
        entry, trace::CytEventKind::kSkip,
        kernel::Kernel::instance().current_thread().persona(), /*aux=*/0);
  }
}

}  // namespace cycada::core
