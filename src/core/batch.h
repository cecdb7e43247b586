// Multi-diplomat command buffer: batched persona crossings.
//
// A single diplomat call pays two set_persona syscalls (~800 ns round
// trip) that dwarf everything else in the eleven-step procedure. Real GL
// workloads issue long runs of same-direction state setters between any
// call that needs an answer; this recorder queues those runs per thread
// and replays them under ONE token-bracketed crossing of the diplomat
// procedure (detail::Crossing<kToken> in core/diplomat.h), cutting
// crossings per GL call from 2 to ~2/N. The recorder itself makes no
// persona syscall.
//
// Recording rules (enforced by the classifier + the GL dispatch layer):
//   * only batchable diplomats queue — direct pattern, void return,
//     scalar-only arguments, no synchronization semantics
//     (classify_ios_gl_batchable); their closures must capture arguments
//     BY VALUE since replay is deferred;
//   * anything else flushes the pending batch first, then dispatches on
//     its own: data-dependent returns, multi/indirect diplomats, draws,
//     readbacks;
//   * the batch also flushes on direction change (caller persona moved),
//     EAGLContext switches, thread-impersonation start/stop (TLS
//     migration), degraded-mode entry, the size cap, explicit flush(),
//     and BatchScope exit.
//
// Contract accounting: a batch runs the library prelude once before the
// crossing and the postlude once after it, both charged to the entry that
// opened the batch; every replayed call bumps its own entry's calls /
// domestic_calls / batched_calls. The analyzer accepts preludes <
// domestic_calls for batchable entries and flags batched_calls on entries
// that may never batch (batch.illegal-batched-call), plus batches left
// pending at exit (batch.unflushed-at-exit).
//
// Fault atomicity: if opening the crossing fails persistently (the
// kernel.set_persona fault point), the WHOLE batch falls back to the
// plain single-call diplomat procedure — every queued call still runs,
// in order, exactly once (dispatch.batch.aborted counts these). If the
// closing syscall fails persistently, the crossing is forced shut via
// Kernel::abort_persona_batch so the thread can never leak the Android
// persona (dispatch.batch.close_forced).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/diplomat.h"

namespace cycada::core {

// Why a pending batch was flushed (the dispatch.batch.flush.<reason>
// counters; see docs/DISPATCH.md).
enum class BatchFlushReason : std::uint8_t {
  kExplicit,         // flush_current_batch() / BatchScope::flush()
  kSizeCap,          // recorder hit the scope's size cap
  kNonBatchable,     // a non-batchable diplomat needs the bus
  kDirectionChange,  // caller persona differs from the batch's
  kContextSwitch,    // EAGLContext made current / torn down
  kImpersonation,    // thread impersonation start/stop (TLS migration)
  kDegraded,         // degraded-mode fallback entered
  kScopeExit,        // outermost BatchScope destructor
};

const char* batch_flush_reason_name(BatchFlushReason reason);

// True while the calling thread has an open BatchScope (recording enabled).
bool batching_active();

// Queued-but-not-replayed calls on the calling thread / across all threads.
// The global count backs the analyzer's batch.unflushed-at-exit rule.
std::size_t pending_batched_calls();
std::uint64_t global_pending_batched_calls();

// Queues `replay` under the calling thread's open batch. Returns false —
// record nothing, caller must dispatch normally — when no scope is open or
// the entry is not batchable. `replay` runs later in the Android persona;
// it must own its arguments (capture by value). The first recorded entry's
// `hooks` bracket the whole batch.
bool batch_record(DiplomatEntry& entry, const DiplomatHooks& hooks,
                  std::function<void()> replay);

// Replays and clears the calling thread's pending batch. Empty + explicit
// is a no-op crossing: no syscalls, just dispatch.batch.empty_flushes.
void flush_current_batch(BatchFlushReason reason);

// RAII opt-in: GL dispatch records batchable calls while the innermost
// scope is open; the outermost scope's destructor flushes what is left.
// Nesting is cheap (inner scopes only bump a depth counter).
class BatchScope {
 public:
  static constexpr std::size_t kDefaultSizeCap = 64;

  explicit BatchScope(std::size_t size_cap = kDefaultSizeCap);
  ~BatchScope();
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

 private:
  std::size_t previous_cap_;
};

// The diplomat procedure for coalescing diplomats (kMulti pattern — the
// aegl bridge and IOSurface paths): diplomat_call with a token-bracketed
// crossing, so the kernel and the dispatch.batch.* metrics account the
// `coalesced_calls` Android calls this one crossing amortizes. Any pending
// recorder batch flushes first (one open crossing per thread).
template <typename Fn>
auto multi_diplomat_call(DiplomatEntry& entry, const DiplomatHooks& hooks,
                         int coalesced_calls, Fn&& domestic) {
  flush_current_batch(BatchFlushReason::kNonBatchable);
  return detail::diplomat_procedure<detail::CrossingKind::kToken>(
      entry, hooks, coalesced_calls, std::forward<Fn>(domestic));
}

}  // namespace cycada::core
