// The tile-parallel frame pipeline (docs/PIPELINE.md).
//
// GpuDevice records commands into a per-frame batch; this module executes a
// batch in two stages modeled on glSoftPipe's DrawEngine, whose stage
// objects are "triggered in any thread without lock protection":
//
//   bin    — single-threaded: vertex post-processing (build_screen_prims),
//            copy-span marking (mark_copy_span) and binning of every
//            primitive/clear into the 64x64 screen tiles its bounding box
//            intersects, in command order.
//   raster — tile-parallel: a fixed worker pool claims tiles from a
//            lock-free per-participant range queue with work stealing and
//            rasterizes each tile's op list in command order.
//
// Determinism is structural, not incidental: a tile's op list preserves
// submission order, tiles are disjoint pixel rects, and every fragment is a
// pure function of its own inputs — so the framebuffer produced at N
// workers is byte-identical to N=1 regardless of tile completion order.
// The one exception a software GPU can detect is framebuffer feedback (a
// draw sampling memory aliased by its own render target, undefined in GL);
// the binner detects the overlap and forces that batch serial.
//
// Pool threads run under util::ThreadRole::kTileWorker and execute only
// pre-resolved raster work: no GL, no diplomats, no persona crossings.
// The analyzer's pipeline.worker-crossing rule enforces this.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gpu/raster.h"
#include "gpu/types.h"

namespace cycada::gpu {

inline constexpr int kTileSize = 64;

// One recorded command with all device-table lookups already resolved (the
// pool never touches GpuDevice state).
struct FrameStep {
  enum class Kind : std::uint8_t { kClear, kDraw, kFence };
  Kind kind = Kind::kDraw;
  TargetView target;

  // kClear
  std::optional<ScissorRect> scissor;
  bool clear_color = false;
  Color color;
  bool clear_depth = false;
  float depth_value = 1.f;

  // kDraw
  RasterState state;
  PrimitiveKind prim_kind = PrimitiveKind::kTriangles;
  std::vector<ShadedVertex> vertices;
  TextureView texture;

  // kFence
  FenceHandle fence = kNoHandle;
};

// Execution results the device folds back into GpuStats at retire.
struct FrameResult {
  std::uint64_t draw_commands = 0;
  std::uint64_t clear_commands = 0;
  std::uint64_t triangles = 0;
  std::uint64_t fragments_shaded = 0;
  std::vector<FenceHandle> signaled_fences;
};

// A double-buffered command queue generation: the device swaps its record
// queue into one of these and hands it to the pipeline.
struct FrameBatch {
  std::vector<FrameStep> steps;
  FenceHandle frame_fence = kNoHandle;  // signaled when the batch retires
  FrameResult result;
};

// Executes `batch` to completion on the calling thread plus up to
// `workers - 1` pool helpers. Deterministic for any worker count.
void execute_frame(FrameBatch& batch);

// The fixed raster worker pool. Worker count comes from CYCADA_GPU_WORKERS
// (clamped to [1, 16]) or set_worker_count(); the default is
// min(4, hardware_concurrency). One worker means no threads are spawned and
// every batch executes inline on the submitting thread. Otherwise the pool
// runs that many identical threads: an idle thread coordinates the oldest
// queued frame or helps the oldest live phase with a free participant slot,
// so frames from different devices run concurrently.
class TileWorkerPool {
 public:
  static TileWorkerPool& instance();

  // (Re)configures the pool. Blocks until in-flight work retires. n < 1 is
  // clamped to 1.
  void set_worker_count(int n);
  int worker_count();

  // Queues a batch on the pool's frame FIFO and returns immediately; the
  // next idle pool thread coordinates it. Requires worker_count() >= 2 (the
  // device falls back to execute_frame inline otherwise). `retire` runs on
  // the coordinating pool thread after execution.
  void submit_async(std::unique_ptr<FrameBatch> batch,
                    std::function<void(std::unique_ptr<FrameBatch>)> retire);
  bool async_capable();  // worker_count() >= 2 and pool healthy

  // Waits until no async batch is queued or executing.
  void drain();

  // Test support: tears every thread down (drains first). The next use
  // respawns from the configured count.
  void shutdown();

 private:
  friend void execute_frame(FrameBatch& batch);
  struct Phase;
  struct Job {
    std::unique_ptr<FrameBatch> batch;
    std::function<void(std::unique_ptr<FrameBatch>)> retire;
    std::int64_t submitted_ns = 0;
  };

  TileWorkerPool() = default;
  void ensure_started_locked();
  void stop_threads_locked(std::unique_lock<std::mutex>& lock);
  void worker_main();
  // Wakes up to `n` parked threads, most recently parked first: its core
  // and caches are the warmest, and the others stay idle.
  void wake_locked(std::size_t n);

  // Runs one phase's tiles on the caller plus any idle pool threads.
  void run_phase(Phase& phase);

  // Deadline-sliced wait for the FIFO to empty and every job to retire
  // (supervised by the kGpuPhase watchdog domain; jobs always terminate).
  void wait_idle_locked(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable idle_cv_;   // drain()/set_worker_count() wait here
  int configured_workers_ = 0;        // 0 = not yet resolved from env
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> threads_;

  std::deque<Job> jobs_;        // submitted frames, oldest first
  int running_jobs_ = 0;        // popped, not yet retired
  std::vector<Phase*> phases_;  // live tile phases, oldest first
  // Idle threads' own wake-up signals, most recently parked last; a thread
  // is parked while its signal is listed.
  std::vector<std::condition_variable*> parked_;
};

}  // namespace cycada::gpu
