#include "core/replay.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/diplomat.h"
#include "core/session.h"
#include "kernel/kernel.h"
#include "trace/metrics.h"
#include "util/clock.h"

namespace cycada::core {

namespace {

bool is_call_kind(std::uint8_t kind) {
  switch (static_cast<trace::CytEventKind>(kind)) {
    case trace::CytEventKind::kCall:
    case trace::CytEventKind::kSkip:
    case trace::CytEventKind::kMulti:
    case trace::CytEventKind::kBatchedCall:
      return true;
    default:
      return false;
  }
}

// One recording thread's events, in capture order.
struct Lane {
  std::uint32_t tid = 0;
  std::vector<const trace::CytRecord*> events;
};

std::vector<Lane> build_lanes(const trace::ParsedTrace& trace) {
  std::vector<Lane> lanes;
  std::map<std::uint32_t, std::size_t> index;
  for (const trace::CytRecord& record : trace.records) {
    if (record.type != static_cast<std::uint8_t>(trace::CytRecordType::kEvent))
      continue;
    auto [it, inserted] = index.emplace(record.tid, lanes.size());
    if (inserted) lanes.push_back(Lane{record.tid, {}});
    lanes[it->second].events.push_back(&record);
  }
  return lanes;
}

struct LaneTotals {
  std::uint64_t events = 0;
  std::uint64_t calls = 0;
  std::uint64_t batched = 0;
  std::uint64_t flushes = 0;
  std::uint64_t skips = 0;
};

// Replays one lane once. `entries` maps trace ids to live registry entries
// (resolved once, before the threads fan out).
void replay_lane(const Lane& lane,
                 const std::map<std::uint32_t, DiplomatEntry*>& entries,
                 const ReplayOptions& options, LaneTotals& totals) {
  BatchScope scope(options.batch_cap);
  const std::int64_t lane_start_ns =
      lane.events.empty() ? 0 : lane.events.front()->timestamp_ns;
  const std::int64_t replay_start_ns = now_ns();
  for (const trace::CytRecord* record : lane.events) {
    ++totals.events;
    if (options.paced) {
      const std::int64_t target_ns =
          replay_start_ns + (record->timestamp_ns - lane_start_ns);
      const std::int64_t wait_ns = target_ns - now_ns();
      if (wait_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
      }
    }
    const auto kind = static_cast<trace::CytEventKind>(record->kind);
    if (record->id == trace::kCytMarkerId) continue;  // annotations only
    auto it = entries.find(record->id);
    if (it == entries.end()) continue;  // validated up front; belt+braces
    DiplomatEntry& entry = *it->second;
    switch (kind) {
      case trace::CytEventKind::kCall:
        diplomat_call(entry, {}, [] {});
        ++totals.calls;
        break;
      case trace::CytEventKind::kSkip:
        diplomat_skip(entry);
        ++totals.calls;
        ++totals.skips;
        break;
      case trace::CytEventKind::kMulti:
        multi_diplomat_call(entry, {},
                            static_cast<int>(record->aux == 0 ? 1
                                                              : record->aux),
                            [] {});
        ++totals.calls;
        break;
      case trace::CytEventKind::kBatchedCall:
        if (batch_record(entry, {}, [] {})) {
          ++totals.batched;
        } else {
          // The live stream only batched under an open scope; replay keeps
          // one open, so this fires only for traces whose groups exceed
          // the replay cap or whose entries are no longer batchable.
          diplomat_call(entry, {}, [] {});
        }
        ++totals.calls;
        break;
      case trace::CytEventKind::kBatchFlush:
        flush_current_batch(BatchFlushReason::kExplicit);
        ++totals.flushes;
        break;
      default:
        break;
    }
  }
  // BatchScope exit flushes whatever a truncated lane left queued.
}

}  // namespace

std::map<std::string, std::uint64_t> trace_call_counts(
    const trace::ParsedTrace& trace) {
  std::map<std::string, std::uint64_t> counts;
  for (const trace::CytRecord& record : trace.records) {
    if (record.type != static_cast<std::uint8_t>(trace::CytRecordType::kEvent))
      continue;
    if (!is_call_kind(record.kind)) continue;
    const trace::CytDef* def = trace.def(record.id);
    if (def == nullptr) continue;
    ++counts[def->name];
  }
  return counts;
}

std::uint64_t trace_expected_crossings(const trace::ParsedTrace& trace) {
  std::uint64_t crossings = 0;
  for (const trace::CytRecord& record : trace.records) {
    if (record.type != static_cast<std::uint8_t>(trace::CytRecordType::kEvent))
      continue;
    switch (static_cast<trace::CytEventKind>(record.kind)) {
      case trace::CytEventKind::kCall:
      case trace::CytEventKind::kMulti:
      case trace::CytEventKind::kBatchFlush:
        crossings += 2;
        break;
      default:
        break;
    }
  }
  return crossings;
}

StatusOr<ReplayStats> replay_trace(const trace::ParsedTrace& trace,
                                   const ReplayOptions& options) {
  if (options.threads < 1 || options.iterations < 1) {
    return Status::invalid_argument("replay: threads and iterations must be "
                                    "at least 1");
  }
  // Resolve every referenced diplomat into the live registry up front, with
  // the pattern the trace recorded. Registration re-derives the batchable
  // bit from the classifier, so recorded batch groups stay batchable.
  std::map<std::uint32_t, DiplomatEntry*> entries;
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  for (const trace::CytRecord& record : trace.records) {
    if (record.type != static_cast<std::uint8_t>(trace::CytRecordType::kEvent))
      continue;
    if (record.id == trace::kCytMarkerId) continue;
    if (entries.count(record.id) != 0) continue;
    const trace::CytDef* def = trace.def(record.id);
    if (def == nullptr) {
      return Status::invalid_argument(
          "replay: trace references diplomat id " +
          std::to_string(record.id) + " with no def record");
    }
    entries[record.id] = &registry.entry(
        def->name, static_cast<DiplomatPattern>(def->pattern));
  }

  const std::vector<Lane> lanes = build_lanes(trace);
  trace::Counter& switches =
      trace::MetricsRegistry::instance().counter("persona.switches");
  const std::uint64_t switches_before = switches.value();

  std::vector<LaneTotals> totals(static_cast<std::size_t>(options.threads));
  const std::int64_t wall_start_ns = now_ns();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options.threads));
  // Replay threads inherit the caller's session: a fleet session replaying
  // a trace as load drives its own kernel/linker/device, not the default's.
  Session* const session = &Session::current();
  for (int t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      SessionScope scope(*session);
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      for (int iter = 0; iter < options.iterations; ++iter) {
        for (const Lane& lane : lanes) {
          replay_lane(lane, entries, options, totals[t]);
        }
      }
      // Every replay_trace call starts new threads; without this each
      // would leave its kernel thread state behind for good.
      kernel::Kernel::instance().unregister_current_thread();
    });
  }
  for (std::thread& worker : workers) worker.join();

  ReplayStats stats;
  stats.wall_ns = now_ns() - wall_start_ns;
  stats.persona_switches = switches.value() - switches_before;
  stats.lanes = static_cast<int>(lanes.size());
  for (const LaneTotals& t : totals) {
    stats.events += t.events;
    stats.calls += t.calls;
    stats.batched += t.batched;
    stats.flushes += t.flushes;
    stats.skips += t.skips;
  }
  return stats;
}

}  // namespace cycada::core
