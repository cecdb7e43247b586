#include "core/diplomat.h"

#include <cstdlib>

#include "core/classification.h"
#include "util/faultpoint.h"
#include "util/log.h"
#include "util/watchdog.h"

namespace cycada::core {

DiplomatRegistry& DiplomatRegistry::instance() {
  static DiplomatRegistry* registry = new DiplomatRegistry();
  return *registry;
}

void DiplomatRegistry::reset() {
  // Entries are process-lifetime: call sites cache DiplomatEntry references
  // and DiplomatIds (the paper's step-1 symbol cache), so entries must
  // never be destroyed. Reset only clears statistics.
  clear_stats();
  profiling_.store(false);
}

DiplomatEntry& DiplomatRegistry::entry(std::string_view name,
                                       DiplomatPattern pattern) {
  std::lock_guard lock(mutex_);
  if (auto it = entries_.find(name); it != entries_.end()) {
    DiplomatEntry& found = it->second;
    // Two call sites disagree on this function's classification; the first
    // registration wins, the checker reports the conflict.
    if (found.pattern != pattern) {
      found.contract.pattern_conflicts.fetch_add(1, std::memory_order_relaxed);
    }
    return found;
  }

  const auto id = static_cast<DiplomatId>(entries_.size());
  const std::size_t segment_index = id >> kSegmentShift;
  // Names can come from outside the program (a replayed .cyt trace's defs),
  // so the bound holds in every build rather than overrunning segments_.
  if (segment_index >= kMaxSegments) {
    CYCADA_LOG(kError) << "diplomat id space exhausted registering " << name;
    std::abort();
  }
  const auto it = entries_.try_emplace(std::string(name)).first;
  DiplomatEntry& entry = it->second;
  entry.name = it->first;
  entry.id = id;
  entry.pattern = pattern;
  entry.batchable = pattern == DiplomatPattern::kDirect &&
                    classify_ios_gl_batchable(name);

  // Slot the entry into the immortal by-id segment array before anything
  // can observe its id; entry_by_id() is then valid for this id forever.
  // Segments are never replaced or freed.
  IdSegment* segment = segments_[segment_index].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new IdSegment();
    segments_[segment_index].store(segment, std::memory_order_release);
  }
  segment->slots[id & (kSegmentSize - 1)].store(&entry,
                                                std::memory_order_release);
  return entry;
}

DiplomatId DiplomatRegistry::resolve(std::string_view name,
                                     DiplomatPattern pattern) {
  return entry(name, pattern).id;
}

void DiplomatRegistry::clear_stats() {
  std::lock_guard lock(mutex_);
  for (auto& [name, entry] : entries_) {
    entry.calls.store(0);
    entry.latency.reset();
    entry.contract.reset();
  }
}

std::vector<DiplomatSnapshot> DiplomatRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<DiplomatSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    const DiplomatContract& contract = entry.contract;
    out.push_back({entry.name, entry.pattern, entry.calls.load(),
                   entry.latency.sum(), entry.latency.percentile(50),
                   entry.latency.percentile(95), entry.latency.percentile(99),
                   contract.preludes.load(), contract.postludes.load(),
                   contract.domestic_calls.load(),
                   contract.skipped_calls.load(),
                   contract.unbalanced_persona.load(),
                   contract.pattern_conflicts.load(),
                   contract.batched_calls.load(), entry.batchable});
  }
  return out;
}

namespace detail {

namespace {
constexpr int kCrossingRetries = 3;

// Absolute deadline of one token open or close: the watchdog's current
// crossing budget from now.
std::int64_t crossing_deadline_ns() {
  return now_ns() + util::Watchdog::instance().effective_budget_ms(
                        util::kWatchdogCrossingBudgetMs) *
                        1000000;
}
}  // namespace

std::uint64_t batched_crossing_begin() {
  static trace::Counter& crossings =
      trace::MetricsRegistry::instance().counter("dispatch.batch.crossings");
  WATCHDOG_SCOPE(util::WatchdogDomain::kCrossing,
                 util::kWatchdogCrossingBudgetMs);
  const std::int64_t deadline = crossing_deadline_ns();
  for (int attempt = 0; attempt < kCrossingRetries; ++attempt) {
    const long token =
        kernel::sys_persona_batch_begin(kernel::Persona::kAndroid);
    if (token > 0) {
      crossings.add();
      return static_cast<std::uint64_t>(token);
    }
    // A stall-injected syscall can burn the whole budget in one attempt;
    // retrying past the deadline would multiply the hang. Give up and let
    // the caller fall back.
    if (now_ns() >= deadline) break;
    kernel::Kernel::instance().syscall(kernel::Sys::kYield);
  }
  return 0;
}

bool batched_crossing_end(std::uint64_t token, kernel::Persona restore,
                          int replayed_calls) {
  static trace::Counter& close_bounded =
      trace::MetricsRegistry::instance().counter("watchdog.close.bounded");
  static trace::Counter& close_forced =
      trace::MetricsRegistry::instance().counter(
          "dispatch.batch.close_forced");
  WATCHDOG_SCOPE(util::WatchdogDomain::kCrossing,
                 util::kWatchdogCrossingBudgetMs);
  const std::int64_t deadline = crossing_deadline_ns();
  for (int attempt = 0; attempt < kCrossingRetries; ++attempt) {
    if (kernel::sys_persona_batch_end(token, restore, replayed_calls) == 0) {
      return true;
    }
    if (now_ns() >= deadline) {
      // Watchdog-backed bound on the forced-shut path: a close that both
      // fails and stalls must not serialize three full stalls before the
      // persona is repaired.
      close_bounded.add();
      break;
    }
    kernel::Kernel::instance().syscall(kernel::Sys::kYield);
  }
  // The crossing must close no matter what — a leaked Android persona (and
  // a stuck token) would corrupt every later syscall on this thread. The
  // forced close is the ladder's last rung: suppressed, so it can be
  // neither failed nor delayed by injection.
  util::FaultSuppressionScope suppress;
  kernel::Kernel::instance().abort_persona_batch(restore);
  close_forced.add();
  return false;
}

void capture_event(const DiplomatEntry& entry, trace::CytEventKind kind,
                   kernel::Persona persona, std::uint32_t aux,
                   std::uint8_t reason, const trace::CytStagedArgs* args) {
  trace::capture_diplomat_event(kind, entry.id, entry.name,
                                static_cast<std::uint8_t>(entry.pattern),
                                entry.batchable,
                                static_cast<std::uint8_t>(persona), aux,
                                reason, args);
}

}  // namespace detail

}  // namespace cycada::core
