#include "core/diplomat.h"

#include <cstdlib>

#include "core/classification.h"
#include "util/log.h"

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
long errno_linux_to_darwin(long linux_errno) {
  switch (linux_errno) {
    case 11: return 35;   // EAGAIN
    case 38: return 78;   // ENOSYS
    case 35: return 11;   // EDEADLK
    default: return linux_errno;
  }
}
}  // namespace detail

}  // namespace cycada::core
