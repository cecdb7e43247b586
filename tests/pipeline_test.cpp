// Tile-parallel frame pipeline tests (docs/PIPELINE.md). The load-bearing
// property is determinism: the framebuffer produced at N workers must be
// byte-identical to N=1 on the same scene, whatever order tiles complete or
// get stolen in. The rest exercises the async lifecycle (drain on teardown
// mid-flight, frames from different devices in flight together) and the
// fault-degrade path (a failing worker pool falls back to single-threaded
// raster instead of deadlocking).
#include "gpu/pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "gpu/device.h"
#include "trace/metrics.h"
#include "util/faultpoint.h"

namespace cycada::gpu {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GpuDevice::instance().reset();
    saved_workers_ = TileWorkerPool::instance().worker_count();
    util::FaultRegistry::instance().point("gpu.tile_worker").disarm();
  }

  void TearDown() override {
    GpuDevice::instance().reset();
    util::FaultRegistry::instance().point("gpu.tile_worker").disarm();
    // Other suites in this binary expect the worker count they launched
    // with (CYCADA_GPU_WORKERS or the default), not ours.
    TileWorkerPool::instance().set_worker_count(saved_workers_);
  }

  GpuDevice& dev() { return GpuDevice::instance(); }

  int saved_workers_ = 1;
};

ShadedVertex vtx(float x, float y, float z, Color c) {
  ShadedVertex v;
  v.clip_pos = {x, y, z, 1.f};
  v.color = c;
  return v;
}

// A seeded scene big enough to span many 64x64 tiles and both kick-batch
// boundaries: interleaved clears, depth-tested triangles, blended
// triangles, lines and points, plus a scissored clear. Every run with the
// same seed submits the identical command stream.
std::vector<std::uint32_t> render_scene(GpuDevice& dev, std::uint32_t seed,
                                        int width = 200, int height = 150) {
  const RenderTargetHandle target = dev.create_target(width, height, true);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> pos(-1.2f, 1.2f);
  std::uniform_real_distribution<float> depth(-0.9f, 0.9f);
  std::uniform_real_distribution<float> channel(0.f, 1.f);

  dev.submit_clear(target, std::nullopt, true,
                   {channel(rng), channel(rng), channel(rng), 1.f}, true, 1.f);
  for (int i = 0; i < 48; ++i) {
    RasterState state;
    state.depth_test = (i % 3) != 0;
    if (i % 5 == 0) {
      state.blend = true;
      state.blend_src = BlendFactor::kSrcAlpha;
      state.blend_dst = BlendFactor::kOneMinusSrcAlpha;
    }
    const Color color{channel(rng), channel(rng), channel(rng),
                      0.25f + 0.75f * channel(rng)};
    const float z = depth(rng);
    std::vector<ShadedVertex> tri = {vtx(pos(rng), pos(rng), z, color),
                                     vtx(pos(rng), pos(rng), z, color),
                                     vtx(pos(rng), pos(rng), z, color)};
    dev.submit_draw(target, state, PrimitiveKind::kTriangles, std::move(tri));
    if (i == 20) {
      dev.submit_clear(target, ScissorRect{30, 30, 60, 40}, true,
                       {0.f, 0.f, 0.f, 1.f}, false, 1.f);
    }
    if (i % 7 == 0) {
      RasterState line_state;
      std::vector<ShadedVertex> line = {
          vtx(pos(rng), pos(rng), 0.f, color),
          vtx(pos(rng), pos(rng), 0.f, color)};
      dev.submit_draw(target, line_state, PrimitiveKind::kLines,
                      std::move(line));
    }
  }
  dev.submit_frame();
  std::vector<std::uint32_t> pixels(static_cast<std::size_t>(width) * height);
  EXPECT_TRUE(
      dev.read_pixels(target, 0, 0, width, height, pixels.data(), width)
          .is_ok());
  EXPECT_TRUE(dev.destroy_target(target).is_ok());
  return pixels;
}

// A seeded frame of fewer than kKickBatchSize commands, so nothing executes
// before the caller's own submit_frame().
RenderTargetHandle record_small_frame(GpuDevice& dev, std::uint32_t seed) {
  const RenderTargetHandle target = dev.create_target(128, 128, true);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> pos(-1.2f, 1.2f);
  std::uniform_real_distribution<float> channel(0.f, 1.f);
  dev.submit_clear(target, std::nullopt, true,
                   {channel(rng), channel(rng), channel(rng), 1.f}, true, 1.f);
  for (int i = 0; i < 4; ++i) {
    RasterState state;
    state.depth_test = i % 2 == 0;
    const Color color{channel(rng), channel(rng), channel(rng), 1.f};
    const float z = pos(rng) * 0.5f;
    dev.submit_draw(target, state, PrimitiveKind::kTriangles,
                    {vtx(pos(rng), pos(rng), z, color),
                     vtx(pos(rng), pos(rng), z, color),
                     vtx(pos(rng), pos(rng), z, color)});
  }
  return target;
}

std::vector<std::uint32_t> read_target(GpuDevice& dev,
                                       RenderTargetHandle target) {
  std::vector<std::uint32_t> pixels(128 * 128);
  EXPECT_TRUE(dev.read_pixels(target, 0, 0, 128, 128, pixels.data(), 128)
                  .is_ok());
  return pixels;
}

TEST_F(PipelineTest, FramebufferIsByteIdenticalAcrossWorkerCounts) {
  for (const std::uint32_t seed : {1u, 7u, 42u}) {
    TileWorkerPool::instance().set_worker_count(1);
    const std::vector<std::uint32_t> serial = render_scene(dev(), seed);
    for (const int workers : {2, 4}) {
      TileWorkerPool::instance().set_worker_count(workers);
      const std::vector<std::uint32_t> tiled = render_scene(dev(), seed);
      ASSERT_EQ(serial, tiled)
          << "seed " << seed << " diverged at " << workers << " workers";
    }
  }
}

TEST_F(PipelineTest, TilesAreClaimedInParallelPhases) {
  TileWorkerPool::instance().set_worker_count(4);
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t tiles_before = metrics.counter("pipeline.tiles").value();
  (void)render_scene(dev(), 3);
  // 200x150 target = 4x3 tile grid: at least one frame's worth of tiles.
  EXPECT_GE(metrics.counter("pipeline.tiles").value(), tiles_before + 12);
}

TEST_F(PipelineTest, AsyncFrameRetiresFenceAndSurvivesTeardownMidFlight) {
  TileWorkerPool::instance().set_worker_count(4);
  const RenderTargetHandle target = dev().create_target(256, 192, true);
  const Color white{1.f, 1.f, 1.f, 1.f};
  dev().submit_clear(target, std::nullopt, true, {0.f, 0.f, 1.f, 1.f}, true,
                     1.f);
  for (int i = 0; i < 6; ++i) {
    std::vector<ShadedVertex> tri = {vtx(-1.f, -1.f, 0.f, white),
                                     vtx(1.f, -1.f, 0.f, white),
                                     vtx(0.f, 1.f, 0.f, white)};
    dev().submit_draw(target, RasterState{}, PrimitiveKind::kTriangles,
                      std::move(tri));
  }
  const FenceHandle fence = dev().submit_fence();
  dev().submit_frame();
  // Tear the pool down while the frame may still be in flight: shutdown
  // must drain cleanly (frame executed, fence signaled), never abandon or
  // double-run work.
  TileWorkerPool::instance().shutdown();
  EXPECT_TRUE(dev().fence_signaled(fence));
  EXPECT_EQ(dev().pending_commands(), 0u);
  std::vector<std::uint32_t> pixels(256 * 192);
  ASSERT_TRUE(
      dev().read_pixels(target, 0, 0, 256, 192, pixels.data(), 256).is_ok());
  EXPECT_EQ(pixels[0], 0xffff0000u);            // blue background (ABGR)
  EXPECT_EQ(pixels[100 * 256 + 128], 0xffffffffu);  // white triangle interior
  // The pool restarts transparently after a shutdown.
  (void)render_scene(dev(), 9);
}

// The pool is process-global but must not serialize devices: while device
// A's frame is held in flight, device B's submit_frame() returns at once
// (it queues behind nobody), and both screens match the serial reference.
TEST_F(PipelineTest, StalledFrameOnOneDeviceDoesNotBlockAnothersSubmit) {
  TileWorkerPool::instance().set_worker_count(1);
  std::vector<std::uint32_t> reference_a, reference_b;
  {
    GpuDevice device;
    const RenderTargetHandle target_a = record_small_frame(device, 5);
    device.submit_frame();
    reference_a = read_target(device, target_a);
    const RenderTargetHandle target_b = record_small_frame(device, 6);
    device.submit_frame();
    reference_b = read_target(device, target_b);
  }

  TileWorkerPool::instance().set_worker_count(4);
  GpuDevice device_a, device_b;
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  const std::uint64_t stalls_before = fault.stalls();
  fault.arm_stall(300, 1);  // the frame-level probe holds A's frame
  RenderTargetHandle target_a = kNoHandle, target_b = kNoHandle;
  FenceHandle fence_a = kNoHandle;
  std::thread([&] {
    target_a = record_small_frame(device_a, 5);
    fence_a = device_a.submit_fence();
    device_a.submit_frame();
  }).join();
  // A's frame is in flight once a pool thread is asleep in its probe.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault.stalls() == stalls_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(fault.stalls(), stalls_before)
      << "A's frame never reached a pool thread";
  bool a_retired_before_b_returned = true;
  std::thread([&] {
    target_b = record_small_frame(device_b, 6);
    device_b.submit_frame();
    a_retired_before_b_returned = device_a.fence_signaled(fence_a);
  }).join();
  fault.disarm_stall();

  EXPECT_FALSE(a_retired_before_b_returned)
      << "device B's submit waited for device A's frame to retire";
  EXPECT_EQ(read_target(device_a, target_a), reference_a);
  EXPECT_EQ(read_target(device_b, target_b), reference_b);
  EXPECT_TRUE(device_a.fence_signaled(fence_a));
}

TEST_F(PipelineTest, FaultedWorkersDegradeToSerialWithoutDeadlock) {
  TileWorkerPool::instance().set_worker_count(1);
  const std::vector<std::uint32_t> reference = render_scene(dev(), 11);

  TileWorkerPool::instance().set_worker_count(4);
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  fault.arm_every(1);  // every probe traversal fails
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t degraded_before =
      metrics.counter("pipeline.frames.serial_degraded").value();
  const std::vector<std::uint32_t> degraded = render_scene(dev(), 11);
  fault.disarm();

  // The frame completed (no deadlock — the coordinator is fault-suppressed
  // and finishes every tile), produced the right pixels, and was counted.
  EXPECT_EQ(reference, degraded);
  EXPECT_GT(metrics.counter("pipeline.frames.serial_degraded").value(),
            degraded_before);
}

TEST_F(PipelineTest, FramebufferFeedbackForcesSerialPhase) {
  TileWorkerPool::instance().set_worker_count(4);
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t feedback_before =
      metrics.counter("pipeline.feedback_serialized").value();
  // A texture aliasing the render target's own memory: the binner must
  // detect the overlap and serialize rather than let tiles race the
  // feedback loop.
  const RenderTargetHandle target = dev().create_target(128, 128, false);
  const auto view = dev().target_view(target);
  ASSERT_TRUE(view.status().is_ok());
  const TextureHandle texture = dev().create_texture();
  ASSERT_TRUE(dev()
                  .bind_texture_external(texture, view.value().color, 128, 128,
                                         view.value().stride_px)
                  .is_ok());
  RasterState state;
  state.texture = texture;
  const Color white{1.f, 1.f, 1.f, 1.f};
  std::vector<ShadedVertex> quad = {
      vtx(-1, -1, 0, white), vtx(1, -1, 0, white), vtx(1, 1, 0, white),
      vtx(-1, -1, 0, white), vtx(1, 1, 0, white),  vtx(-1, 1, 0, white)};
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, std::move(quad));
  dev().submit_frame();
  dev().finish();
  EXPECT_GT(metrics.counter("pipeline.feedback_serialized").value(),
            feedback_before);
}

}  // namespace
}  // namespace cycada::gpu
