#include "gpu/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/thread_role.h"
#include "util/watchdog.h"

namespace cycada::gpu {

namespace {

trace::MetricsRegistry& metrics() { return trace::MetricsRegistry::instance(); }

// A binned op: the step it came from plus, for draws, the primitive index
// into the phase's flat prim array. Order within a tile is command order.
struct TileOp {
  std::uint32_t step;
  std::uint32_t prim;  // kClearOp for clears
  static constexpr std::uint32_t kClearOp = 0xffffffffu;
};

int default_worker_count() {
  if (const char* env = std::getenv("CYCADA_GPU_WORKERS");
      env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return std::min(parsed, 16);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 4);
}

}  // namespace

// One run of consecutive steps rendering into the same target, binned into
// 64x64 tiles. Tiles are row-major; `ranges` partitions them across the
// participants, each claiming from its own range with an atomic cursor and
// stealing from the fullest other range when it runs dry.
struct TileWorkerPool::Phase {
  const std::vector<FrameStep>* steps = nullptr;
  TargetView target;
  int tiles_x = 0;
  int tiles_y = 0;
  std::vector<ScreenPrim> prims;
  std::vector<std::vector<TileOp>> tile_ops;  // size tiles_x * tiles_y
  bool serial = false;  // framebuffer feedback or degraded: one thread

  struct Range {
    std::atomic<int> next{0};
    int end = 0;
  };
  std::vector<std::unique_ptr<Range>> ranges;
  std::atomic<int> participants{0};  // claimed participant slots
  std::atomic<int> helpers{0};  // pool threads checked in (in under the lock)
  std::atomic<std::uint64_t> fragments{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::int64_t> busy_ns{0};  // summed per-tile raster time

  int tile_count() const { return tiles_x * tiles_y; }

  // Worth joining: a participant slot is free (the phase was carved for
  // ranges.size() participants) and some tile is still unclaimed.
  bool joinable() const {
    if (participants.load(std::memory_order_relaxed) >=
        static_cast<int>(ranges.size())) {
      return false;
    }
    for (const auto& range : ranges) {
      if (range->next.load(std::memory_order_relaxed) < range->end) return true;
    }
    return false;
  }

  PixelRect tile_rect(int index) const {
    const int tx = index % tiles_x;
    const int ty = index / tiles_x;
    return PixelRect{tx * kTileSize, ty * kTileSize,
                     std::min((tx + 1) * kTileSize, target.width),
                     std::min((ty + 1) * kTileSize, target.height)};
  }

  // Rasterizes one tile: its op list in command order, clamped to the tile
  // rect. Reads/writes only this tile's pixels.
  void run_tile(int index) {
    TRACE_SCOPE("gpu", "pipeline.tile");
    static trace::Histogram& tile_ns =
        metrics().histogram("pipeline.stage.tile_ns");
    const std::int64_t start = now_ns();
    const PixelRect rect = tile_rect(index);
    std::uint64_t local_fragments = 0;
    for (const TileOp& op : tile_ops[index]) {
      const FrameStep& step = (*steps)[op.step];
      if (op.prim == TileOp::kClearOp) {
        clear_rect(target, step.scissor, step.clear_color, step.color,
                   step.clear_depth, step.depth_value, rect);
      } else {
        local_fragments += raster_screen_prim(target, step.state,
                                              prims[op.prim], step.texture,
                                              rect);
      }
    }
    fragments.fetch_add(local_fragments, std::memory_order_relaxed);
    const std::int64_t elapsed = now_ns() - start;
    busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
    tile_ns.record(elapsed);
  }

  // Claim-and-steal loop for one participant. `slot` < ranges.size() owns
  // that range first; extra participants start in steal mode.
  void participate(std::size_t slot) {
    if (slot < ranges.size()) {
      Range& own = *ranges[slot];
      for (;;) {
        const int idx = own.next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= own.end) break;
        run_tile(idx);
      }
    }
    // Steal from the fullest remaining range until everything is claimed.
    for (;;) {
      Range* victim = nullptr;
      int best_remaining = 0;
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        if (r == slot) continue;
        Range& candidate = *ranges[r];
        const int remaining =
            candidate.end - candidate.next.load(std::memory_order_relaxed);
        if (remaining > best_remaining) {
          best_remaining = remaining;
          victim = &candidate;
        }
      }
      if (victim == nullptr) return;
      const int idx = victim->next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= victim->end) continue;  // lost the race; rescan
      steals.fetch_add(1, std::memory_order_relaxed);
      run_tile(idx);
    }
  }
};

TileWorkerPool& TileWorkerPool::instance() {
  static TileWorkerPool* pool = new TileWorkerPool();  // intentionally immortal
  return *pool;
}

int TileWorkerPool::worker_count() {
  std::lock_guard lock(mutex_);
  if (configured_workers_ == 0) configured_workers_ = default_worker_count();
  return configured_workers_;
}

void TileWorkerPool::wait_idle_locked(std::unique_lock<std::mutex>& lock) {
  // Progress wait, not idle parking: every queued job terminates (run_phase's
  // bounded waits and the kGpuPhase rung guarantee it), so the slices exist
  // to keep the wait supervised rather than indefinite.
  WATCHDOG_SCOPE(util::WatchdogDomain::kGpuPhase,
                 util::kWatchdogGpuPhaseBudgetMs);
  while (!(jobs_.empty() && running_jobs_ == 0)) {
    idle_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

void TileWorkerPool::set_worker_count(int n) {
  std::unique_lock lock(mutex_);
  wait_idle_locked(lock);
  stop_threads_locked(lock);
  configured_workers_ = std::max(1, n);
  static trace::Counter& workers = metrics().counter("pipeline.workers");
  workers.set(static_cast<std::uint64_t>(configured_workers_));
}

void TileWorkerPool::ensure_started_locked() {
  if (started_ || configured_workers_ <= 1) return;
  stopping_ = false;
  for (int i = 0; i < configured_workers_; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
  started_ = true;
}

void TileWorkerPool::stop_threads_locked(std::unique_lock<std::mutex>& lock) {
  if (!started_) return;
  stopping_ = true;
  wake_locked(parked_.size());
  std::vector<std::thread> joining;
  joining.swap(threads_);
  lock.unlock();
  for (std::thread& thread : joining) thread.join();
  lock.lock();
  started_ = false;
  stopping_ = false;
}

void TileWorkerPool::shutdown() {
  std::unique_lock lock(mutex_);
  wait_idle_locked(lock);
  stop_threads_locked(lock);
}

bool TileWorkerPool::async_capable() {
  std::lock_guard lock(mutex_);
  if (configured_workers_ == 0) configured_workers_ = default_worker_count();
  return configured_workers_ >= 2;
}

void TileWorkerPool::submit_async(
    std::unique_ptr<FrameBatch> batch,
    std::function<void(std::unique_ptr<FrameBatch>)> retire) {
  std::lock_guard lock(mutex_);
  ensure_started_locked();
  jobs_.push_back(Job{std::move(batch), std::move(retire), now_ns()});
  wake_locked(1);
}

void TileWorkerPool::drain() {
  std::unique_lock lock(mutex_);
  wait_idle_locked(lock);
}

void TileWorkerPool::wake_locked(std::size_t n) {
  for (; n > 0 && !parked_.empty(); --n) {
    // Under the lock: the signal lives on the parked thread's stack.
    parked_.back()->notify_one();
    parked_.pop_back();
  }
}

void TileWorkerPool::worker_main() {
  util::ScopedThreadRole role(util::ThreadRole::kTileWorker);
  static util::FaultPoint& worker_fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  static trace::Counter& async_frames =
      metrics().counter("pipeline.frames.async");
  static trace::Histogram& queue_wait_ns =
      metrics().histogram("pipeline.stage.queue_wait_ns");
  const Phase* abandoned = nullptr;  // never rejoin a phase we faulted out of
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    Phase* phase = nullptr;  // the oldest live phase worth joining
    for (Phase* live : phases_) {
      if (live != abandoned && live->joinable()) {
        phase = live;
        break;
      }
    }
    if (!jobs_.empty()) {
      // Coordinate the oldest frame: bin, raster (publishing its phases for
      // the other threads), and retire, all off the pool lock.
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      ++running_jobs_;
      lock.unlock();
      queue_wait_ns.record(now_ns() - job.submitted_ns);
      async_frames.add();
      execute_frame(*job.batch);
      job.retire(std::move(job.batch));
      lock.lock();
      if (--running_jobs_ == 0 && jobs_.empty()) idle_cv_.notify_all();
    } else if (phase != nullptr) {
      // Check in under the lock: the coordinator retracts the phase under
      // the same lock and then waits for its helper count to reach zero
      // before freeing it, so the check-out below is this thread's last
      // touch of the phase.
      phase->helpers.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      // A fault-injected worker abandons the phase without claiming a tile;
      // the coordinator (fault-suppressed) completes the frame alone —
      // degraded to single-threaded raster, never deadlocked.
      if (worker_fault.should_fail()) {
        abandoned = phase;
      } else {
        const int slot_index =
            phase->participants.fetch_add(1, std::memory_order_relaxed);
        phase->participate(static_cast<std::size_t>(slot_index));
      }
      phase->helpers.fetch_sub(1, std::memory_order_release);
      lock.lock();
    } else {
      // Idle parking, not a progress wait: nothing is owed to anyone until
      // a job or phase is published, so no deadline applies.
      std::condition_variable signal;
      parked_.push_back(&signal);
      while (std::find(parked_.begin(), parked_.end(), &signal) !=
             parked_.end()) {
        signal.wait(lock);  // cycada-lint: allow(idle parking)
      }
    }
  }
}

void TileWorkerPool::run_phase(Phase& phase) {
  // Supervises the whole publish -> raster -> retract bracket: a helper
  // stalled mid-phase (hang-class injection, scheduler pathology) overruns
  // this scope, the kGpuPhase rung rises, and subsequent frames raster
  // serial until clean frames climb back down.
  WATCHDOG_SCOPE(util::WatchdogDomain::kGpuPhase,
                 util::kWatchdogGpuPhaseBudgetMs);
  {
    std::lock_guard lock(mutex_);
    ensure_started_locked();  // sync flushes reach here without submit_async
    phases_.push_back(&phase);
    wake_locked(phase.ranges.size() - 1);
  }
  // An armed stall on the worker probe models a helper stuck inside a
  // phase. For that injection to land reproducibly, the coordinator lets a
  // woken helper check in before it claims any tile: a small phase would
  // otherwise be done before the helper wakes. The wait is bounded by the
  // armed stall, so a helper that never comes costs no more than one that
  // stalls.
  static util::FaultPoint& worker_fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  if (const std::uint64_t stall_ms = worker_fault.stall_ms(); stall_ms != 0) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(stall_ms) * 1'000'000;
    while (phase.helpers.load(std::memory_order_acquire) == 0 &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  {
    // The coordinator is the degradation floor: it must finish the frame
    // even when every helper's fault probe fires.
    util::FaultSuppressionScope suppress;
    const int slot_index =
        phase.participants.fetch_add(1, std::memory_order_relaxed);
    phase.participate(static_cast<std::size_t>(slot_index));
  }
  // Every tile is claimed. Retract the phase, then poll out its helpers: a
  // helper checks out only after finishing the tiles it claimed, so a zero
  // count means every tile is done. A bounded poll (yield, then short
  // sleeps) keeps the coordinator responsive under a stalled helper — it
  // never blocks indefinitely, and the enclosing watchdog scope times it.
  {
    std::lock_guard lock(mutex_);
    phases_.erase(std::find(phases_.begin(), phases_.end(), &phase));
  }
  for (int spin = 0; phase.helpers.load(std::memory_order_acquire) != 0;
       ++spin) {
    if (spin < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void execute_frame(FrameBatch& batch) {
  static trace::Counter& frames = metrics().counter("pipeline.frames");
  static trace::Counter& phases_counter = metrics().counter("pipeline.phases");
  static trace::Counter& tiles_counter = metrics().counter("pipeline.tiles");
  static trace::Counter& steals_counter =
      metrics().counter("pipeline.tiles.stolen");
  static trace::Counter& degraded =
      metrics().counter("pipeline.frames.serial_degraded");
  static trace::Counter& feedback =
      metrics().counter("pipeline.feedback_serialized");
  static trace::Counter& copied = metrics().counter("pipeline.prims.copied");
  static trace::Histogram& bin_ns =
      metrics().histogram("pipeline.stage.bin_ns");
  static trace::Histogram& raster_ns =
      metrics().histogram("pipeline.stage.raster_ns");
  static trace::Histogram& util_pct =
      metrics().histogram("pipeline.stage.raster_util_pct");
  static util::FaultPoint& worker_fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");

  static trace::Counter& serial_forced =
      metrics().counter("watchdog.serial_forced");

  frames.add();
  TileWorkerPool& pool = TileWorkerPool::instance();
  const int workers = pool.worker_count();
  // Frame-level fault probe: a failed pool degrades the whole frame to
  // single-threaded raster (the paper's graceful-degradation discipline).
  // A raised kGpuPhase rung does the same — after a stalled phase the
  // pipeline stays serial until the watchdog's clean-frame hysteresis
  // lowers the rung back to zero.
  const bool fault_serial = worker_fault.should_fail();
  const bool watchdog_serial = util::Watchdog::instance().degraded(
      util::WatchdogDomain::kGpuPhase);
  const bool degrade_serial = fault_serial || watchdog_serial;
  if (watchdog_serial) serial_forced.add();
  if (degrade_serial) degraded.add();

  // --- Bin stage (single-threaded, command order) ---------------------------
  std::vector<std::unique_ptr<TileWorkerPool::Phase>> phases;
  {
    TRACE_SCOPE("gpu", "pipeline.bin");
    const std::int64_t bin_start = now_ns();
    TileWorkerPool::Phase* current = nullptr;
    for (std::uint32_t step_index = 0;
         step_index < batch.steps.size(); ++step_index) {
      FrameStep& step = batch.steps[step_index];
      if (step.kind == FrameStep::Kind::kFence) {
        batch.result.signaled_fences.push_back(step.fence);
        continue;
      }
      if (step.target.color == nullptr) continue;  // target destroyed
      if (current == nullptr ||
          current->target.color != step.target.color ||
          current->target.width != step.target.width ||
          current->target.height != step.target.height) {
        phases.push_back(std::make_unique<TileWorkerPool::Phase>());
        current = phases.back().get();
        current->steps = &batch.steps;
        current->target = step.target;
        current->tiles_x = (step.target.width + kTileSize - 1) / kTileSize;
        current->tiles_y = (step.target.height + kTileSize - 1) / kTileSize;
        current->tile_ops.resize(
            static_cast<std::size_t>(current->tile_count()));
      }
      if (step.kind == FrameStep::Kind::kClear) {
        ++batch.result.clear_commands;
        // A clear touches scissor ∩ target; bin it to the tiles it covers.
        RasterState scissor_state;
        scissor_state.scissor = step.scissor;
        const PixelRect rect = clip_rect(step.target, scissor_state);
        if (rect.empty()) continue;
        const int tx0 = rect.x0 / kTileSize, ty0 = rect.y0 / kTileSize;
        const int tx1 = (rect.x1 - 1) / kTileSize;
        const int ty1 = (rect.y1 - 1) / kTileSize;
        for (int ty = ty0; ty <= ty1; ++ty) {
          for (int tx = tx0; tx <= tx1; ++tx) {
            current->tile_ops[static_cast<std::size_t>(ty) * current->tiles_x +
                              tx]
                .push_back(TileOp{step_index, TileOp::kClearOp});
          }
        }
        continue;
      }
      // Draw: vertex post-processing once, then bin each primitive by bbox.
      ++batch.result.draw_commands;
      if (views_overlap(step.texture, step.target)) {
        // Framebuffer feedback (undefined in GL): tiles of this phase would
        // read pixels other tiles write. Serialize the phase to keep the
        // N-worker output byte-identical to N=1.
        if (!current->serial) feedback.add();
        current->serial = true;
      }
      const std::uint32_t first_prim =
          static_cast<std::uint32_t>(current->prims.size());
      batch.result.triangles +=
          build_screen_prims(step.target, step.state, step.prim_kind,
                             step.vertices, current->prims);
      for (std::uint32_t p = first_prim;
           p < current->prims.size(); ++p) {
        const PixelRect& box = current->prims[p].bbox;
        if (box.empty()) continue;
        if (mark_copy_span(step.target, step.state, step.texture,
                           current->prims[p])) {
          copied.add();
        }
        const int tx0 = box.x0 / kTileSize, ty0 = box.y0 / kTileSize;
        const int tx1 = (box.x1 - 1) / kTileSize;
        const int ty1 = (box.y1 - 1) / kTileSize;
        for (int ty = ty0; ty <= ty1; ++ty) {
          for (int tx = tx0; tx <= tx1; ++tx) {
            current->tile_ops[static_cast<std::size_t>(ty) * current->tiles_x +
                              tx]
                .push_back(TileOp{step_index, p});
          }
        }
      }
    }
    bin_ns.record(now_ns() - bin_start);
  }

  // --- Raster stage (tile-parallel per phase, phases in order) --------------
  {
    TRACE_SCOPE("gpu", "pipeline.raster");
    const std::int64_t raster_start = now_ns();
    for (auto& phase : phases) {
      phases_counter.add();
      const int tiles = phase->tile_count();
      tiles_counter.add(static_cast<std::uint64_t>(tiles));
      const bool parallel = workers >= 2 && tiles >= 2 && !phase->serial &&
                            !degrade_serial;
      if (!parallel) {
        // Single participant, one range covering every tile: identical
        // per-tile work, sequential order.
        phase->ranges.push_back(
            std::make_unique<TileWorkerPool::Phase::Range>());
        phase->ranges.back()->end = tiles;
        phase->participate(0);
      } else {
        const int participants = std::min(workers, tiles);
        const int chunk = (tiles + participants - 1) / participants;
        int start = 0;
        for (int p = 0; p < participants && start < tiles; ++p) {
          auto range = std::make_unique<TileWorkerPool::Phase::Range>();
          range->next.store(start, std::memory_order_relaxed);
          range->end = std::min(start + chunk, tiles);
          start = range->end;
          phase->ranges.push_back(std::move(range));
        }
        // Ranges hold absolute tile indices; a fresh participant claims the
        // slot matching its arrival order, extras go straight to stealing.
        pool.run_phase(*phase);
      }
      steals_counter.add(phase->steals.load(std::memory_order_relaxed));
      batch.result.fragments_shaded +=
          phase->fragments.load(std::memory_order_relaxed);
    }
    const std::int64_t raster_elapsed = now_ns() - raster_start;
    raster_ns.record(raster_elapsed);
    // Worker utilization proxy: summed busy tile time over the raster wall
    // clock times the pool width. 100 means every worker rastered the whole
    // stage; low values mean binning skew or steal contention.
    if (raster_elapsed > 0 && !phases.empty()) {
      std::int64_t busy = 0;
      for (auto& phase : phases) {
        busy += phase->busy_ns.load(std::memory_order_relaxed);
      }
      const std::int64_t capacity =
          raster_elapsed * static_cast<std::int64_t>(std::max(workers, 1));
      util_pct.record(std::min<std::int64_t>(100, (busy * 100) / capacity));
    }
  }
}

}  // namespace cycada::gpu
