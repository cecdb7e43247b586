// The software GPU device: resource tables, a queued command processor and
// fences. Everything above this layer (both platforms' vendor GLES
// libraries) talks to the "hardware" exclusively through this interface, so
// driver-level behaviors — deferred execution until flush, fence signaling,
// zero-copy render targets aliasing externally-owned graphics memory — are
// exercised just as on the device the paper used.
//
// Since PR 8 the device is double-buffered (docs/PIPELINE.md): commands
// record into a queue of handle-based entries, and submit_frame() resolves
// them into a FrameBatch of plain views and hands it to the tile worker
// pool. With >= 2 workers the batch executes asynchronously — the app
// thread records the next frame while the pool rasterizes the previous one,
// with at most one frame in flight per device (other devices' frames run
// concurrently on the shared pool). Anything that reads or mutates memory a
// batch could touch (views, readback, texture definition/upload/destroy,
// target destroy, reset) drains the in-flight frame first. With one worker
// (the default on small machines) every path executes inline and the device
// behaves exactly as it did before the pipeline existed.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "gpu/pipeline.h"
#include "gpu/raster.h"
#include "gpu/types.h"
#include "util/status.h"

namespace cycada::core {
class Session;
}  // namespace cycada::core

namespace cycada::gpu {

class GpuDevice {
 public:
  // The SoC has one GPU; vendor libraries acquire it here.
  static GpuDevice& instance();

  GpuDevice() = default;
  // Per-session facet teardown: drain any frame in flight (the shared tile
  // pool's retire callback captures `this`) before the storage goes away.
  ~GpuDevice() { reset(); }
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  // The owning session (nullptr for directly constructed devices).
  core::Session* owner() const { return owner_; }

  // Drops all resources and queued work (test support). Drains any frame in
  // flight first.
  void reset();

  // --- Textures ----------------------------------------------------------
  // Creates an empty texture object; storage is defined later.
  TextureHandle create_texture();
  // (Re)allocates owned RGBA8888 storage, dropping any external binding —
  // the glTexImage2D path.
  Status define_texture(TextureHandle handle, int width, int height);
  // Points the texture at externally-owned memory (EGLImage zero-copy).
  Status bind_texture_external(TextureHandle handle, std::uint32_t* texels,
                               int width, int height, int stride_px);
  Status upload_texture(TextureHandle handle, int x, int y, int width,
                        int height, const std::uint32_t* pixels,
                        int src_stride_px);
  Status destroy_texture(TextureHandle handle);
  bool texture_valid(TextureHandle handle) const;
  // View for sampling; implies a flush when there is pending work so reads
  // observe completed rendering.
  StatusOr<TextureView> texture_view(TextureHandle handle);

  // --- Render targets ----------------------------------------------------
  RenderTargetHandle create_target(int width, int height, bool with_depth);
  // Target aliasing external memory (window surfaces, GraphicBuffers).
  RenderTargetHandle create_target_external(std::uint32_t* color, int width,
                                            int height, int stride_px,
                                            bool with_depth);
  Status destroy_target(RenderTargetHandle handle);
  bool target_valid(RenderTargetHandle handle) const;
  StatusOr<TargetView> target_view(RenderTargetHandle handle);

  // --- Command submission (queued until flush) ----------------------------
  void submit_clear(RenderTargetHandle target,
                    std::optional<ScissorRect> scissor, bool clear_color,
                    Color color, bool clear_depth, float depth_value);
  void submit_draw(RenderTargetHandle target, RasterState state,
                   PrimitiveKind kind, std::vector<ShadedVertex> vertices);

  // Inserts a fence after the currently queued commands.
  FenceHandle submit_fence();
  bool fence_signaled(FenceHandle fence);
  // Blocks until the fence has signaled: waits out an in-flight frame that
  // contains it, then executes any still-recorded work.
  void wait_fence(FenceHandle fence);
  // Deadline variant: waits at most budget_ms for the in-flight frame.
  // Returns false on timeout (the fence stays unsignaled — the caller
  // force-retires: scan out the stale front buffer, drop the frame), after
  // recording a kPresent stall against the watchdog ladder.
  bool wait_fence_for(FenceHandle fence, std::int64_t budget_ms);

  // Closes the recording queue as one frame and executes it — async on the
  // tile worker pool when it has >= 2 workers (at most one frame in flight
  // per device; a second submit waits for this device's first to retire,
  // never for another device's), inline otherwise. The
  // present path calls this instead of flush(); pair it with submit_fence()
  // to learn when the frame's buffers are safe to read.
  void submit_frame();

  // Executes all queued commands and waits for any in-flight frame.
  void flush();
  // flush() + device idle (synchronous device: identical, kept for API
  // fidelity with glFinish).
  void finish();

  // Reads back pixels (flushes first). `out_stride_px` is the row pitch of
  // `out`.
  Status read_pixels(RenderTargetHandle target, int x, int y, int width,
                     int height, std::uint32_t* out, int out_stride_px);

  GpuStats stats() const;
  void reset_stats();
  // Commands recorded but not yet handed to the executor. An in-flight
  // async frame no longer counts — it is executing, not pending.
  std::size_t pending_commands() const;

  // Driver kick batching: once this many commands are queued, submission
  // triggers execution of the batch (as real drivers kick command buffers),
  // so heavy rendering cost attributes to the submitting call rather than
  // accumulating entirely in glFlush/present. When the pool is async-capable
  // and idle, the kick dispatches the partial batch asynchronously instead.
  static constexpr std::size_t kKickBatchSize = 8;

 private:
  struct Texture {
    int width = 0;
    int height = 0;
    int stride_px = 0;
    std::uint32_t* texels = nullptr;  // points into `owned` or external memory
    std::vector<std::uint32_t> owned;
    bool external = false;
  };

  struct Target {
    int width = 0;
    int height = 0;
    int stride_px = 0;
    std::uint32_t* color = nullptr;
    std::vector<std::uint32_t> owned_color;
    std::vector<float> depth;  // empty when no depth buffer
    bool external = false;
  };

  struct ClearCommand {
    RenderTargetHandle target;
    std::optional<ScissorRect> scissor;
    bool clear_color;
    Color color;
    bool clear_depth;
    float depth_value;
  };
  struct DrawCommand {
    RenderTargetHandle target;
    RasterState state;
    PrimitiveKind kind;
    std::vector<ShadedVertex> vertices;
  };
  struct FenceCommand {
    FenceHandle fence;
  };
  using Command = std::variant<ClearCommand, DrawCommand, FenceCommand>;

  // Blocks until no async frame is in flight (releases the lock while
  // waiting). Everything that touches resource memory calls this first.
  void drain_in_flight_locked(std::unique_lock<std::mutex>& lock);
  // Deadline-bounded drain; false when the frame was still in flight after
  // budget_ms.
  bool drain_in_flight_for_locked(std::unique_lock<std::mutex>& lock,
                                  std::int64_t budget_ms);
  // Resolves the record queue into plain-view steps, clearing it. Commands
  // naming destroyed targets are dropped, destroyed textures sample as
  // untextured — the old flush-time semantics, preserved.
  std::unique_ptr<FrameBatch> resolve_batch_locked();
  // Folds an executed batch's results into stats_ and signals its fences.
  void apply_result_locked(const FrameResult& result);
  // Synchronous execute of the record queue on the calling thread.
  void flush_locked(std::unique_lock<std::mutex>& lock);
  // Async dispatch of the record queue; falls back to flush_locked when the
  // pool cannot overlap.
  void submit_frame_locked(std::unique_lock<std::mutex>& lock);
  TargetView target_view_locked(const Target& target);

  core::Session* owner_ = nullptr;  // set in instance()'s facet thunk
  mutable std::mutex mutex_;
  std::condition_variable retire_cv_;  // signaled when a frame retires
  std::unordered_map<TextureHandle, Texture> textures_;
  std::unordered_map<RenderTargetHandle, Target> targets_;
  std::unordered_map<FenceHandle, bool> fences_;
  std::vector<Command> queue_;
  bool in_flight_ = false;  // one async frame may be executing
  GpuStats stats_;
  // Post-clip triangle total since process start. Deliberately survives
  // reset()/reset_stats(): the pre-PR 8 counter lived on the long-lived
  // rasterizer member and tests grew to rely on it being cumulative.
  std::uint64_t cumulative_triangles_ = 0;
  std::uint32_t next_handle_ = 1;
};

}  // namespace cycada::gpu
