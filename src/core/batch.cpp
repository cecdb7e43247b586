#include "core/batch.h"

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "trace/cyt.h"
#include "trace/trace.h"
#include "util/watchdog.h"

namespace cycada::core {

namespace {

struct BatchItem {
  DiplomatEntry* entry;
  std::function<void()> replay;
  // Scalar args the GL dispatch layer staged for this call, captured at
  // record time so the trace event written at flush carries them (replay is
  // deferred; the thread's staging has long since moved on).
  trace::CytStagedArgs capture;
};

// Per-thread recorder. `scope_depth` counts nested BatchScopes; recording
// is live while it is nonzero. The opener's hooks bracket the batch (all
// batchable diplomats today come from the iOS GL library and share its
// graphics hooks; a batch never mixes hook sets because the first record
// wins and the GL dispatch layer is the only recorder).
struct ThreadBatch {
  std::vector<BatchItem> items;
  DiplomatEntry* opener = nullptr;
  DiplomatHooks hooks;
  kernel::Persona caller = kernel::Persona::kIos;
  int scope_depth = 0;
  std::size_t size_cap = BatchScope::kDefaultSizeCap;
};
thread_local ThreadBatch t_batch;

// Calls queued across every thread; nonzero at a quiescent point means a
// batch was never flushed (the analyzer's batch.unflushed-at-exit rule).
std::atomic<std::uint64_t> g_pending{0};

constexpr std::size_t kFlushReasons =
    static_cast<std::size_t>(BatchFlushReason::kScopeExit) + 1;

// dispatch.batch.flush.<reason>, resolved once.
trace::Counter& flush_reason_counter(BatchFlushReason reason) {
  static const auto counters = [] {
    std::array<trace::Counter*, kFlushReasons> out{};
    for (std::size_t i = 0; i < kFlushReasons; ++i) {
      out[i] = &trace::MetricsRegistry::instance().counter(
          std::string("dispatch.batch.flush.") +
          batch_flush_reason_name(static_cast<BatchFlushReason>(i)));
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(reason)];
}

// Replays and clears the batch under one token-bracketed crossing, or —
// when the crossing cannot open — through N plain diplomat calls so every
// queued call still runs exactly once, in order.
void replay_batch(ThreadBatch& batch, BatchFlushReason reason) {
  static trace::Histogram& sizes =
      trace::MetricsRegistry::instance().histogram("dispatch.batch.size");
  static trace::Counter& flushes =
      trace::MetricsRegistry::instance().counter("dispatch.batch.flushes");
  static trace::Counter& aborted =
      trace::MetricsRegistry::instance().counter("dispatch.batch.aborted");
  TRACE_SCOPE("diplomat", "batch.flush");
  // A flush replays up to size_cap foreign calls under one crossing; a
  // stall anywhere inside (crossing syscalls, a replayed closure) overruns
  // this scope and raises the kBatch rung.
  WATCHDOG_SCOPE(util::WatchdogDomain::kBatch, util::kWatchdogBatchBudgetMs);
  std::vector<BatchItem> items = std::move(batch.items);
  batch.items.clear();
  DiplomatEntry& opener = *batch.opener;
  const DiplomatHooks hooks = std::move(batch.hooks);
  batch.opener = nullptr;
  batch.hooks = {};
  g_pending.fetch_sub(items.size(), std::memory_order_relaxed);
  const int calls = static_cast<int>(items.size());
  flush_reason_counter(reason).add();
  sizes.record(calls);

  // Library prelude once per batch, charged to the opening entry.
  detail::Crossing<detail::CrossingKind::kToken> crossing(
      kernel::Kernel::instance(), opener, hooks, batch.caller);
  if (!crossing.open(/*force=*/false)) {
    // Persistent open failure (kernel.set_persona injection): balance the
    // batch prelude, then fall back to the plain single-call procedure for
    // every item — the batch aborts atomically, no call is lost or run in
    // the wrong persona.
    crossing.postlude();
    aborted.add();
    for (BatchItem& item : items) {
      // Re-stage the call's recorded args so the trace records this batch
      // as exactly the plain-call sequence that actually ran — a replayed
      // faulted trace must match live counters (docs/TRACING.md).
      if (trace::capture_enabled() && item.capture.armed) {
        trace::capture_stage_args(item.capture.args, item.capture.count,
                                  item.capture.void_return);
      }
      diplomat_call(*item.entry, hooks, item.replay);
    }
    return;
  }

  for (BatchItem& item : items) {
    item.replay();
    crossing.check_balance(*item.entry);
  }
  crossing.close(calls);
  flushes.add();

  // Trace capture happens at flush time (not record time), so the file
  // reflects what actually crossed: per-item kBatchedCall events followed
  // by one kBatchFlush closing the shared crossing. The aborted path above
  // records plain kCall events through diplomat_call instead.
  for (const BatchItem& item : items) {
    crossing.count(*item.entry, trace::CytEventKind::kBatchedCall, /*aux=*/0,
                   /*batched=*/1, &item.capture);
  }
  const trace::CytStagedArgs no_args;
  crossing.capture(opener, trace::CytEventKind::kBatchFlush,
                   static_cast<std::uint32_t>(calls),
                   static_cast<std::uint8_t>(reason), &no_args);
}

}  // namespace

const char* batch_flush_reason_name(BatchFlushReason reason) {
  switch (reason) {
    case BatchFlushReason::kExplicit: return "explicit";
    case BatchFlushReason::kSizeCap: return "size_cap";
    case BatchFlushReason::kNonBatchable: return "non_batchable";
    case BatchFlushReason::kDirectionChange: return "direction_change";
    case BatchFlushReason::kContextSwitch: return "context_switch";
    case BatchFlushReason::kImpersonation: return "impersonation";
    case BatchFlushReason::kDegraded: return "degraded";
    case BatchFlushReason::kScopeExit: return "scope_exit";
  }
  return "?";
}

bool batching_active() { return t_batch.scope_depth > 0; }

std::size_t pending_batched_calls() { return t_batch.items.size(); }

std::uint64_t global_pending_batched_calls() {
  return g_pending.load(std::memory_order_relaxed);
}

bool batch_record(DiplomatEntry& entry, const DiplomatHooks& hooks,
                  std::function<void()> replay) {
  ThreadBatch& batch = t_batch;
  if (batch.scope_depth == 0 || !entry.batchable) return false;
  if (util::Watchdog::instance().degraded(util::WatchdogDomain::kCrossing)) {
    // Stalled-crossing rung: stop amortizing — run ordered plain calls
    // until hysteresis clears the rung. Anything already queued flushes
    // first so this call cannot overtake its predecessors.
    static trace::Counter& fallback =
        trace::MetricsRegistry::instance().counter("watchdog.batch.fallback");
    fallback.add();
    flush_current_batch(BatchFlushReason::kDegraded);
    return false;
  }
  const kernel::Persona caller =
      kernel::Kernel::instance().current_thread().persona();
  if (!batch.items.empty() && caller != batch.caller) {
    // Direction changed since the batch opened (an interleaved crossing
    // left the thread in the other persona): the queued run no longer
    // shares a direction with this call, so it goes first.
    flush_current_batch(BatchFlushReason::kDirectionChange);
  }
  if (batch.items.empty()) {
    batch.opener = &entry;
    batch.hooks = hooks;
    batch.caller = caller;
  }
  BatchItem item{&entry, std::move(replay), {}};
  if (trace::capture_enabled()) item.capture = trace::capture_take_staged();
  batch.items.push_back(std::move(item));
  g_pending.fetch_add(1, std::memory_order_relaxed);
  if (batch.items.size() >= batch.size_cap) {
    flush_current_batch(BatchFlushReason::kSizeCap);
  }
  return true;
}

void flush_current_batch(BatchFlushReason reason) {
  ThreadBatch& batch = t_batch;
  if (batch.items.empty()) {
    // An empty explicit flush is the no-op crossing: no syscalls at all.
    static trace::Counter& empty_flushes =
        trace::MetricsRegistry::instance().counter(
            "dispatch.batch.empty_flushes");
    if (reason == BatchFlushReason::kExplicit ||
        reason == BatchFlushReason::kScopeExit) {
      empty_flushes.add();
    }
    return;
  }
  replay_batch(batch, reason);
}

BatchScope::BatchScope(std::size_t size_cap)
    : previous_cap_(t_batch.size_cap) {
  ++t_batch.scope_depth;
  t_batch.size_cap = size_cap == 0 ? 1 : size_cap;
}

BatchScope::~BatchScope() {
  if (--t_batch.scope_depth == 0) {
    flush_current_batch(BatchFlushReason::kScopeExit);
  }
  t_batch.size_cap = previous_cap_;
}

}  // namespace cycada::core
